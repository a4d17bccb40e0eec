"""Run one benchmark workload in a fresh process and record what it produced.

    python3 bench/workload.py <plan.json> <result.json>
    python3 bench/workload.py --probe

The plan (written by run.py) lists the units of one pass, which are sweeps or
oracle operations, how long to keep repeating passes, and whether to trace.
This process imports xydopo first thing and times that import; it never
checks outputs itself, so its memory and time are the program's. Sweep
outputs are written to files whose hashes are compared across passes; run.py
checks the files. --probe times the import and then the interpreter kernel.

Before the first unit and after every unit sweep-smooth times a fixed numpy
kernel of the benchmark's own that does the kind of work it spends its time
on. On a shared host the speed of the processor drifts by
tens of percent within minutes; run.py scales each unit's time by the kernel
times taken next to it, so the metrics compare commits rather than moments.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

_t0 = time.perf_counter()
import xydopo  # noqa: E402  (the timed cold import)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402  (already loaded by xydopo)

import xydopo.cli  # noqa: E402
import xydopo.ed  # noqa: E402
import xydopo.sweep  # noqa: E402
from tracing import Tracer  # noqa: E402  (bench/ is on the path: this runs as a script)

# a run that has not finished its passes by then stops repeating them, so the
# whole benchmark stays inside its time limit
_HARD_STOP_S = 120.0

# Host-speed kernels, each a fixed piece of the work that dominates what it
# scales: band arithmetic on quadrature-sized arrays in a Python loop (smooth
# sweeps), and compiling and running a module's worth of Python (the import).
# Their arrays live only while they run, far below the workload's own peak
# memory. Kinked sweeps and the ED oracle have none: the kernels tried for
# them (the band on 2^19 nodes, a 1024 x 1024 dense eigensolve) spread their
# times more than the raw times spread.
def _band(k):
    return np.dot(np.sqrt((1.3 + 3.0 * np.cos(k)) ** 2 + np.sin(k) ** 2), k)


def _small_band():
    for _ in range(40):
        for m in range(9):
            _band(np.linspace(0.0, math.pi, 16 << m))


_MODULE = "\n".join(f"def f{i}(x, y=1):\n    return [x + y * j for j in range({i % 7 + 3})]"
                     for i in range(300))


def _interpreter():
    names = {}
    exec(compile(_MODULE, "<kernel>", "exec"), names)
    for i in range(300):
        names[f"f{i}"](i)


KERNELS = {"small-band": _small_band, "interpreter": _interpreter}
_CAL_MIN_S = 0.03     # shortest calibration block, in seconds of kernel time
_CAL_SHARE = 0.05     # after a long unit, calibrate for this share of its time
_CAL_EVERY_S = 0.5    # inside a serial sweep, one kernel run per this much work


class HostProbe:
    """Timed runs of the workload's host-speed kernel."""

    def __init__(self, kernel: str):
        self._run = KERNELS[kernel]
        self._run()  # untimed: warms the caches
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def block(self, budget_s: float) -> list[float]:
        """At least three kernel runs and at least budget_s of kernel time."""
        new = []
        while len(new) < 3 or sum(new) < budget_s:
            t = time.perf_counter()
            self._run()
            new.append(time.perf_counter() - t)
        self.samples += new
        self._last = time.perf_counter()
        return new

    def between_records(self) -> float:
        """One kernel run once _CAL_EVERY_S of work has passed since the last;
        returns the seconds it took, which the caller leaves out of its wall."""
        now = time.perf_counter()
        if now - self._last < _CAL_EVERY_S:
            return 0.0
        self._run()
        self._last = time.perf_counter()
        self.samples.append(self._last - now)
        return self._last - now


def _digest(path: str) -> tuple[str, int]:
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _config(sweep: dict):
    if sweep["preset"]:
        return xydopo.sweep.preset_config(sweep["preset"], **sweep["overrides"])
    return xydopo.sweep.config_from_dict(sweep["overrides"])


def _timed_records(records, name: str, latencies: list, tracer, probe, kernel_s: list):
    """Yield the sweep's records, timing each one from outside the generator.
    With a probe, run the host-speed kernel between records now and then and
    add its seconds to kernel_s."""
    idx = 0
    while True:
        token = None
        if tracer is not None:
            tracer.point = (name, idx)
            token = tracer.begin("sweep.point")
        t = time.perf_counter()
        try:
            record = next(records)
        except StopIteration:
            return
        finally:
            if token is not None:
                tracer.end(token)
        latencies.append(time.perf_counter() - t)
        idx += 1
        if probe is not None:
            kernel_s[0] += probe.between_records()
        yield record


def _run_sweep(plan: dict, sweep: dict, tag: str, tracer, workers: int, probe) -> dict:
    path = os.path.join(plan["out_dir"], f"{sweep['name']}.{tag}.{sweep['format']}")
    latencies: list[float] = []
    entry = {"file": path, "latencies": latencies}
    kernel_s = [0.0]
    # the kernel runs between records only in a plain serial pass: a traced
    # pass would count it in the writer's span, a pool pass would slow workers
    inside = probe if tracer is None and workers == 1 else None
    t0 = time.perf_counter()
    try:
        cfg = _config(sweep)
        records = _timed_records(xydopo.sweep.run_sweep(cfg, workers), sweep["name"],
                                 latencies, tracer, inside, kernel_s)
        token = tracer.begin("sweep.write") if tracer is not None else None
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as out:
                if sweep["format"] == "json":
                    xydopo.sweep.write_json(cfg, records, out)
                else:
                    xydopo.sweep.write_csv(records, out)
        finally:
            if token is not None:
                tracer.end(token)
    except Exception as exc:  # a failed operation is reported, not fatal
        entry["error"] = f"{type(exc).__name__}: {exc}"
    entry["wall"] = time.perf_counter() - t0 - kernel_s[0]
    if "error" not in entry:
        entry["sha256"], entry["bytes"] = _digest(path)
    return entry


def _run_op(plan: dict, op: dict, tag: str, tracer, workers: int, probe) -> dict:
    if tracer is not None:
        tracer.point = op["name"]
    entry = {}
    t0 = time.perf_counter()
    try:
        if op["kind"] == "validate":
            path = os.path.join(plan["out_dir"], f"validate.{tag}.json")
            code = xydopo.cli.main(["validate", "--level", "full", "--format", "json",
                                    "--out", path])
            with open(path, encoding="utf-8") as handle:
                entry["payload"] = {"exit_code": code, "report": json.load(handle)}
        else:
            cmp = xydopo.ed.ed_vs_analytic(xydopo.XYParams(op["jx"], op["jy"], op["h"]),
                                           op["n"])
            entry["payload"] = {"ed_energy": cmp.ed_energy, "periodic_sum": cmp.periodic_sum,
                                "antiperiodic_sum": cmp.antiperiodic_sum,
                                "matched_sector": cmp.matched_sector}
    except Exception as exc:  # a failed operation is reported, not fatal
        entry["error"] = f"{type(exc).__name__}: {exc}"
    entry["wall"] = time.perf_counter() - t0
    entry["latencies"] = [entry["wall"]]
    if "payload" in entry:
        blob = json.dumps(entry["payload"], sort_keys=True).encode()
        entry["sha256"] = hashlib.sha256(blob).hexdigest()
    return entry


def _one_pass(plan: dict, tag: str, tracer=None, workers: int = 1) -> dict:
    """Every unit of the workload once, with the host-speed kernel, if the
    workload has one, timed before, after and, for serial sweeps, inside each
    unit."""
    units, run_unit = ((plan["sweeps"], _run_sweep) if plan["kind"] == "sweep"
                       else (plan["ops"], _run_op))
    outputs = {}
    if plan["kernel"] is None:
        for unit in units:
            outputs[unit["name"]] = {**run_unit(plan, unit, tag, tracer, workers, None),
                                     "cal": []}
        return {"label": tag, "outputs": outputs}
    probe = HostProbe(plan["kernel"])
    before = probe.block(_CAL_MIN_S)
    for unit in units:
        first = len(probe.samples)
        entry = run_unit(plan, unit, tag, tracer, workers, probe)
        inside = probe.samples[first:]
        after = probe.block(max(_CAL_MIN_S, _CAL_SHARE * entry["wall"]))
        entry["cal"] = before + inside + after
        outputs[unit["name"]] = entry
        before = after
    return {"label": tag, "outputs": outputs}


def _run_passes(plan: dict) -> list[dict]:
    """Repeat the pass while another one fits in the measuring time; the
    first pass always runs."""
    passes, lengths = [], []
    begin = time.perf_counter()
    deadline = begin + plan["seconds"]
    while True:
        t = time.perf_counter()
        passes.append(_one_pass(plan, f"p{len(passes) + 1}"))
        now = time.perf_counter()
        lengths.append(now - t)
        typical = statistics.median(lengths)
        if now + typical > deadline or now - begin + typical > _HARD_STOP_S:
            return passes


def _run_traced(plan: dict) -> tuple[list[dict], dict]:
    """One untraced pass, the pool repeat where asked, then one traced pass."""
    passes = [_one_pass(plan, "p1")]
    if plan.get("pool_workers"):
        passes.append(_one_pass(plan, "pool", workers=plan["pool_workers"]))
    tracer = Tracer()
    with tracer:
        traced = _one_pass(plan, "traced", tracer=tracer)
    passes.append(traced)
    units = traced["outputs"].values()
    layers = tracer.metrics(sum(u["wall"] for u in units))
    if plan["kind"] == "sweep":
        layers["sweep.points"] = float(sum(len(u["latencies"]) for u in units))
        layers["sweep.bytes_out"] = float(sum(u.get("bytes", 0) for u in units))
    tracer.write(os.path.join(plan["out_dir"], "trace.jsonl"))
    return passes, layers


def main() -> int:
    if sys.argv[1] == "--probe":
        cal = HostProbe("interpreter").block(0.1)
        print(json.dumps({"import_s": IMPORT_S, "cal": cal}))
        return 0
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    if plan["trace"]:
        passes, layers = _run_traced(plan)
    else:
        passes, layers = _run_passes(plan), {}
    result = {"passes": passes, "layers": layers, "import_s": IMPORT_S,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
