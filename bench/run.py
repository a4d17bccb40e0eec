"""Benchmark of the xydopo solvers: figure sweeps and the exact-diagonalization oracle.

    python3 bench/run.py --workload sweep-smooth --seed 0 --seconds 25 --trace 0

Run it from the repository root. It makes the workload's inputs from the
seed, starts the workload in a fresh process (bench/workload.py) with one
BLAS thread, checks every output against the independent references in
bench/refs.py, and prints one line per metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s       median over five fresh processes of `import xydopo`
  wall_s        median over the passes of one pass through the workload
  point_p90_ms  nearest-rank 90th percentile of the time per sweep record,
                timed from outside run_sweep; on ed-oracle of the time per
                oracle call, which is the validate call
  peak_rss_mb   peak resident memory of the workload process
setup_s and the sweep-smooth times are scaled for host speed: see _CAL_REF_S. --trace 1 reports the
per-layer metrics from a separate traced run (bench/tracing.py) and writes
its spans to .bench_out/<run>/trace.jsonl. Failed operations over attempted
ones (failed_frac) are printed with every failure by name; they are carried
in the JSON as "failed" and "attempted". Scratch files go to .bench_out/.

Workloads (why each exists is in BENCHMARK.json):
  sweep-smooth  the gapped presets fig2-aniso, fig2-tfi, fig3-left and
                fig3-right at 401 steps, fig2-aniso again with the gap column,
                and a dopo sweep (j=2, d2=1, delta in [-8, 8], all outputs)
  sweep-kinked  fig2-iso and fig3-middle over their preset ranges at 301
                steps, with the gap column
  ed-oracle     `xydopo validate --level full`, plus Lanczos ed_vs_analytic
                at n=14 and n=16 for the three fig-2 chains at an ordered field

Seed 0 gives the preset grids and h = hc/2 exactly. Any other seed shifts
each sweep grid by a fraction of one step and draws each ordered field from
[0.3, 0.7] * hc.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

_LIMIT_S = 172.0        # the workload process is killed after this; checks follow
_IMPORT_PROBES = 5      # cold imports measured for setup_s
# Seconds each host-speed kernel (workload.KERNELS) took on the shared 2-vCPU
# x86 host the baseline was taken on. setup_s and the times of sweep-smooth
# are scaled by this over the kernel time measured next to them, so they
# read as seconds on that host at that speed. The times of sweep-kinked
# and ed-oracle and the per-layer seconds of a traced run are not scaled.
_CAL_REF_S = {"small-band": 0.010, "interpreter": 0.019}
_KINKED_STEPS = 301
_ALL = "e_g,m_z,chi,phase,gap"
_DEFAULT = "e_g,m_z,chi,phase"

# The figure presets as the paper defines them. The checks use these values,
# so a preset that drifts in the package shows up as failed records.
PRESETS = {
    "fig2-aniso": ("xy", {"jx": 2.0, "jy": 1.0}, 0.0, 6.0),
    "fig2-iso": ("xy", {"jx": 1.0, "jy": 1.0}, 0.0, 4.0),
    "fig2-tfi": ("xy", {"jx": 1.0, "jy": 0.0}, 0.0, 2.0),
    "fig3-left": ("mapped", {"jx": 2.0, "jy": 1.0}, 0.0, 6.0),
    "fig3-middle": ("mapped", {"jx": 1.0, "jy": 1.0}, 0.0, 4.0),
    "fig3-right": ("mapped", {"jx": 1.0, "jy": 0.01}, 0.0, 2.0),
}
WORKLOADS = ("sweep-smooth", "sweep-kinked", "ed-oracle")
# fig-2 chains with their critical field hc = jx + jy
_ED_CHAINS = ((2.0, 1.0), (1.0, 1.0), (1.0, 0.0))


def _sweep(name, preset, fmt, steps, outputs, rng, model=None, params=None,
           start=None, stop=None):
    if preset:
        model, params, start, stop = PRESETS[preset]
    offset = rng.random() * (stop - start) / (steps - 1) if rng else 0.0
    start, stop = start + offset, stop + offset
    overrides = {"start": start, "stop": stop, "steps": steps, "outputs": outputs}
    if not preset:
        overrides.update(model=model, **params)
    return {"name": name, "preset": preset, "format": fmt, "overrides": overrides,
            "model": model, "params": params, "start": start, "stop": stop,
            "steps": steps, "outputs": outputs.split(",")}


def make_plan(workload: str, seed: int) -> dict:
    """The workload's inputs: the same seed always gives the same plan."""
    rng = random.Random(seed) if seed else None
    if workload == "sweep-smooth":
        sweeps = [
            _sweep("fig2-aniso", "fig2-aniso", "csv", 401, _DEFAULT, rng),
            _sweep("fig2-tfi", "fig2-tfi", "csv", 401, _DEFAULT, rng),
            _sweep("fig3-left", "fig3-left", "json", 401, _DEFAULT, rng),
            _sweep("fig3-right", "fig3-right", "json", 401, _DEFAULT, rng),
            _sweep("fig2-aniso-gap", "fig2-aniso", "csv", 401, _ALL, rng),
            _sweep("dopo", None, "json", 401, _ALL, rng, model="dopo",
                   params={"j": 2.0, "d2": 1.0}, start=-8.0, stop=8.0),
        ]
        return {"kind": "sweep", "kernel": "small-band", "sweeps": sweeps}
    if workload == "sweep-kinked":
        sweeps = [
            _sweep("fig2-iso", "fig2-iso", "csv", _KINKED_STEPS, _ALL, rng),
            _sweep("fig3-middle", "fig3-middle", "json", _KINKED_STEPS, _ALL, rng),
        ]
        return {"kind": "sweep", "kernel": None, "sweeps": sweeps,
                "pool_workers": os.cpu_count() or 1}
    if workload == "ed-oracle":
        ops = [{"name": "validate --level full", "kind": "validate"}]
        for jx, jy in _ED_CHAINS:
            h = (0.5 if rng is None else rng.uniform(0.3, 0.7)) * (jx + jy)
            for n in (14, 16):
                ops.append({"name": f"lanczos ({jx:g},{jy:g}) h={h:.6g} n={n}",
                            "kind": "ed_vs_analytic", "jx": jx, "jy": jy, "h": h, "n": n})
        return {"kind": "ed", "kernel": None, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # measure imports from cached bytecode
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args, env, timeout):
    """Run a Python child in a process group of its own. On timeout the whole
    group, a sweep's pool workers included, is killed and reaped."""
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return subprocess.CompletedProcess(proc.args, 0, out, err)


def _probe(env) -> float:
    """Seconds of a cold import of xydopo in a fresh process, scaled by the
    interpreter kernel timed right after it in the same process."""
    out = json.loads(_python([str(BENCH_DIR / "workload.py"), "--probe"], env, 60).stdout)
    return out["import_s"] * _factor(out, _CAL_REF_S["interpreter"])


def _import_breakdown(env) -> dict[str, float]:
    """Cumulative import time in ms of the modules that make up set-up."""
    err = _python(["-X", "importtime", "-c", "import xydopo"], env, 60).stderr
    cumulative = {}
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
    return {"import.xydopo_ms": cumulative.get("xydopo", 0.0),
            "import.xydopo_ed_ms": cumulative.get("xydopo.ed", 0.0),
            "import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0.0)}


def _factor(unit: dict, ref: float) -> float:
    """Host-speed scaling of one unit: the reference kernel time over the
    median kernel time measured just before, during and just after it; 1
    when the workload has no kernel."""
    return ref / statistics.median(unit["cal"]) if unit["cal"] else 1.0


def _pass_wall(p: dict, ref: float) -> float:
    return sum(u["wall"] * _factor(u, ref) for u in p["outputs"].values())


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation
    between two unlike operations."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def main(argv=None) -> int:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (root / "src" / "xydopo" / "__init__.py").is_file():
        print("bench: src/xydopo not found; run from the repository root", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed)
    out_dir = root / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    plan.update(out_dir=str(out_dir), seconds=args.seconds, trace=args.trace)
    plan_path, result_path = out_dir / "plan.json", out_dir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    env = _child_env(root)
    try:
        _probe(env)  # compiles the bytecode once, as an install would
        if args.trace:
            layer_extra = _import_breakdown(env)
        else:
            probes = [_probe(env) for _ in range(_IMPORT_PROBES)]
        _python([str(BENCH_DIR / "workload.py"), str(plan_path), str(result_path)], env,
                max(1.0, _LIMIT_S - (time.perf_counter() - began)))
    except subprocess.CalledProcessError as exc:
        print(f"bench: {exc.cmd[1]} failed with exit code {exc.returncode}\n{exc.stderr}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc.cmd[1]} did not finish in time", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    import checks  # numpy and scipy load here, after the timed work

    tally = checks.Tally()
    if plan["kind"] == "sweep":
        checks.check_sweeps(plan, result["passes"], tally)
    else:
        checks.check_ed(plan, result["passes"], tally)

    passes, ref = result["passes"], _CAL_REF_S.get(plan["kernel"], 1.0)
    untraced = [p for p in passes if p["label"] not in ("pool", "traced")]
    latencies = [x * _factor(u, ref) for p in untraced
                 for u in p["outputs"].values() for x in u["latencies"]]
    walls = {p["label"]: _pass_wall(p, ref) for p in passes}
    if args.trace:
        metrics = {**result["layers"], **layer_extra,
                   "trace.overhead_frac": walls["traced"] / walls["p1"] - 1.0}
        if "pool" in walls:
            metrics["sweep.serial_wall_s"] = walls["p1"]
            metrics["sweep.pool_wall_s"] = walls["pool"]
        if plan["kind"] == "sweep":
            metrics["sweep.point_p50_ms"] = _percentile(latencies, 0.50) * 1e3
        names = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(_pass_wall(p, ref) for p in untraced),
            "point_p90_ms": _percentile(latencies, 0.90) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        names = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"points {len(latencies)}")
    if plan["kernel"]:
        raw = statistics.median(sum(u["wall"] for u in p["outputs"].values()) for p in untraced)
        cal = statistics.median(c for p in untraced for u in p["outputs"].values()
                                for c in u["cal"])
        print(f"  {plan['kernel']} kernel {cal * 1e3:.3g} ms (reference {ref * 1e3:.3g} ms); "
              f"pass wall before scaling {raw:.4g} s")
    report = {}
    for entry in names:
        value = float(metrics.get(entry["name"], 0.0))
        report[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<36} {value:.6g} {entry['unit']}")
    print(f"  {'failed_frac':<36} {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    if plan["kind"] == "sweep":
        print("  checked in every record: control, h, delta, e_g, gap, phase "
              "(m_z, chi and flags have no reference yet)")
    else:
        print("  checked: every validate check and its exit code; each Lanczos "
              "energy and both sector sums")
    for (name, known), count in sorted(tally.failures.items(), key=lambda kv: kv[0][0]):
        print(f"  FAILED x{count}: {name}" + (f"  [{known}]" if known else ""))
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
