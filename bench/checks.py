"""Check a workload's outputs against the independent references in refs.py.

Every operation the workload attempted is counted here: each sweep record,
each sweep output file (it fails when its pass raised or when its bytes
differ from the first pass), each check of ``validate --level full`` and each
Lanczos comparison. A failure carries a name and, when it belongs to one of
the defects known at the benchmark's introduction, that defect's label;
known failures still count as failed operations.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import refs

# Defects of the package that the benchmark found when it was introduced.
# They are counted as failures; the labels only tell them apart from new ones.
KNOWN_GAP = "known: nonzero gap at a gapless point (k-scan minimum)"
KNOWN_LANCZOS = "known: Lanczos stops early on the Ising chain"
KNOWN_KINK = ("known: panel doubling converges early on the kinked integrand of the "
              "ordered isotropic chain")
KNOWN_MAPPED_CRITICAL = ("known: mapped network reported unstable at its exact critical "
                         "field (rounding in the instability window)")
_LANCZOS_KNOWN_MAX = 1e-4   # a larger miss is not early stopping
_KINK_KNOWN_MAX = 1e-4      # nor is a larger energy miss on the kinked chain


class Tally:
    """Attempted and failed operations, with each failure named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[str, str | None], int] = {}

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, name: str, known: str | None = None, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.failures[(name, known)] = self.failures.get((name, known), 0) + count

    @property
    def unexpected(self) -> int:
        return sum(n for (_, known), n in self.failures.items() if known is None)


def _num(cell):
    return None if cell in ("", None) else float(cell)


def _read_rows(path: str, fmt: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        if fmt == "json":
            return json.load(handle)["records"]
        rows = list(csv.DictReader(handle))
    for row in rows:
        for key in ("control", "h", "delta", "e_g", "m_z", "chi", "gap"):
            row[key] = _num(row[key])
        row["phase"] = row["phase"] or None
    return rows


def _close(got, ref, tol: float) -> bool:
    if ref is None or got is None:
        return got is None and ref is None
    return abs(got - ref) <= tol


def _record_problems(sweep: dict, row: dict, control: float) -> tuple[list[str], str | None]:
    """Mismatches of one record, and the known defect they all belong to, if any."""
    model, params, wants = sweep["model"], sweep["params"], sweep["outputs"]
    problems, labels = [], set()

    def miss(text: str, known: str | None = None):
        problems.append(text)
        labels.add(known)

    if not _close(row["control"], control, 1e-9 * max(1.0, abs(control))):
        miss(f"control {row['control']} != {control}")
        return problems, None
    if model == "dopo":
        j, d2, delta = params["j"], params["d2"], control
        ref_e, ref_gap = refs.dopo_energy(j, d2, delta), refs.dopo_gap(j, d2, delta)
        ref_phase = refs.dopo_phase(j, d2, delta)
        gapless = kinked = critical_mapped = False
    else:
        jx, jy, h = params["jx"], params["jy"], control
        if not _close(row["h"], h, 1e-9 * max(1.0, abs(h))):
            miss(f"h {row['h']} != {h}")
        ref_gap = refs.xy_gap(jx, jy, h)
        gapless = ref_gap < refs.GAP_TOL
        kinked = jx == jy and refs.xy_phase(jx, jy, h) == refs.ORDERED
        critical_mapped = (model == "mapped" and refs.xy_phase(jx, jy, h) == refs.CRITICAL
                           and row["e_g"] is None and row["phase"] == refs.SUPERRADIANT)
        if model == "xy":
            ref_e, ref_phase = refs.xy_energy(jx, jy, h), refs.xy_phase(jx, jy, h)
        else:
            ref_e, ref_phase = refs.mapped_energy(jx, jy, h), refs.mapped_phase(jx, jy, h)
            delta = -h * (jx + jy) / math.sqrt(jx * jy)
            if not _close(row["delta"], delta, 1e-9 * max(1.0, abs(delta))):
                miss(f"delta {row['delta']} != {delta:.12g}")
    if "e_g" in wants and not _close(row["e_g"], ref_e, refs.ENERGY_TOL):
        if critical_mapped:
            known = KNOWN_MAPPED_CRITICAL
        elif kinked and row["e_g"] is not None and abs(row["e_g"] - ref_e) < _KINK_KNOWN_MAX:
            known = KNOWN_KINK
        else:
            known = None
        miss(f"e_g {row['e_g']} vs reference {ref_e}", known)
    if "gap" in wants and not _close(row["gap"], ref_gap, refs.GAP_TOL):
        gap_known = gapless and row["gap"] is not None and row["gap"] > ref_gap
        miss(f"gap {row['gap']} vs reference {ref_gap:.3g}", KNOWN_GAP if gap_known else None)
    if "phase" in wants and row["phase"] != ref_phase:
        miss(f"phase {row['phase']} vs reference {ref_phase}",
             KNOWN_MAPPED_CRITICAL if critical_mapped else None)
    return problems, None if None in labels else "; ".join(sorted(labels))


def check_sweep_file(sweep: dict, path: str) -> list[tuple[str, str | None]]:
    """One entry per record: None when correct, else (failure name, known label)."""
    rows = _read_rows(path, sweep["format"])
    controls = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
    results = []
    for i, control in enumerate(controls):
        label = f"{sweep['name']} control={control:.6g}"
        if i >= len(rows):
            results.append((f"{label}: record missing", None))
            continue
        problems, known = _record_problems(sweep, rows[i], float(control))
        results.append((f"{label}: " + "; ".join(problems), known) if problems else None)
    for _ in rows[len(controls):]:
        results.append((f"{sweep['name']}: extra record", None))
    return results


def check_sweeps(plan: dict, passes: list[dict], tally: Tally) -> None:
    cache: dict[str, list] = {}
    for sweep in plan["sweeps"]:
        name, steps = sweep["name"], sweep["steps"]
        first = None
        for p in passes:
            tag = p["label"]
            out = p["outputs"].get(name, {"error": "no output"})
            if "error" in out:
                tally.fail(f"{name} ({tag} pass) raised {out['error']}", count=steps + 1)
                continue
            if first is None:
                first = out["sha256"]
                tally.ok()
            elif out["sha256"] != first:
                tally.fail(f"{name}: {tag} pass output differs from the first pass")
            else:
                tally.ok()
            if out["sha256"] not in cache:
                cache[out["sha256"]] = check_sweep_file(sweep, out["file"])
            for result in cache[out["sha256"]]:
                if result is None:
                    tally.ok()
                else:
                    tally.fail(*result)


def _check_validate(payload: dict, tally: Tally) -> None:
    report = payload["report"]
    for check in report["checks"]:
        if check["passed"]:
            tally.ok()
        else:
            tally.fail(f"validate: {check['name']}: {check['detail']}")
    expected = 0 if report["passed"] else 1
    if payload["exit_code"] != expected:
        tally.fail(f"validate: exit code {payload['exit_code']}, report says {expected}")


def _check_lanczos(op: dict, payload: dict, tally: Tally) -> None:
    jx, jy, h, n = op["jx"], op["jy"], op["h"], op["n"]
    periodic, anti = refs.sector_sums(jx, jy, h, n)
    ref = refs.ring_ground_energy(jx, jy, h, n)
    miss = payload["ed_energy"] - ref
    sums_ok = (abs(payload["periodic_sum"] - periodic) <= refs.ED_TOL
               and abs(payload["antiperiodic_sum"] - anti) <= refs.ED_TOL)
    if sums_ok and abs(miss) <= refs.ED_TOL:
        tally.ok()
        return
    known = (sums_ok and (jx == 0.0 or jy == 0.0) and 0.0 < miss < _LANCZOS_KNOWN_MAX)
    detail = f"ED energy {miss:+.2e} from reference" if sums_ok else "sector sums off"
    tally.fail(f"{op['name']}: {detail}", KNOWN_LANCZOS if known else None)


def check_ed(plan: dict, passes: list[dict], tally: Tally) -> None:
    for op in plan["ops"]:
        first = None
        for p in passes:
            tag = p["label"]
            out = p["outputs"].get(op["name"], {"error": "no output"})
            if "error" in out:
                tally.fail(f"{op['name']} ({tag} pass) raised {out['error']}")
                continue
            if first is None:
                first = out["sha256"]
            elif out["sha256"] != first:
                tally.fail(f"{op['name']}: {tag} pass output differs from the first pass")
                continue
            if op["kind"] == "validate":
                _check_validate(out["payload"], tally)
            else:
                _check_lanczos(op, out["payload"], tally)
