"""Parameter sweeps, critical-point reports and the self-validation suite.

Sweeps walk a control parameter (field h for the chain, detuning delta for
the oscillator network) and emit one record per grid point, streaming. The
``mapped`` model sweeps h, evaluates the network side of the correspondence
and carries both h and the mapped delta per record (dual-axis data); its
phase column translates the chain phase into network vocabulary
(ordered -> superradiant, paramagnetic -> normal), which is the labeling the
dual-axis figures use, while ``dopo`` sweeps classify from the spectrum
itself. Derivative columns m_z and chi always differentiate the energy
density with respect to the sweep's own control parameter.

Flags column tokens, in the order they appear:
    critical      nearest grid point to a critical field / detuning in range
    unstable-step derivative omitted because a stencil point was unstable
    straddle      the finite-difference window [c-dh, c+dh] contains a critical field
                  (xy and mapped sweeps)

SweepRecord's fields, in order, are the CSV columns and the JSON keys. CSV
uses 12 significant digits, so identical configurations give identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from typing import Iterable, Iterator, TextIO, get_type_hints

import numpy as np

from . import __version__
from .dopo import (
    dopo_classify_phase,
    dopo_critical_detuning,
    dopo_energy_density,
    dopo_gap,
    dopo_threshold_detunings,
)
from .ed import _default_method, ed_ground_state, ed_vs_analytic
from .mapping import map_dopo_to_xy, map_energy_density, map_xy_to_dopo, verify_spectral_match
from .quadrature import QuadratureSpec
from .types import (
    ANTIPERIODIC,
    CRITICAL,
    NORMAL,
    ORDERED,
    PERIODIC,
    PARAMAGNETIC,
    SUPERRADIANT,
    DegenerateModelError,
    DopoParams,
    NonphysicalDriveError,
    SweepRecord,
    UnstablePhaseError,
    XYParams,
    build_grid,
)
from .xy import (
    require_chi_tolerance,
    xy_critical_fields,
    xy_energy_density,
    xy_gap,
    xy_ground_energy_ring,
    xy_phase,
)
# unused here, but bench/tracing.py wraps these names on this module by getattr
from .dopo import dopo_omega_squared  # noqa: F401
from .xy import xy_magnetization, xy_susceptibility  # noqa: F401

_RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))
_record_values = attrgetter(*_RECORD_FIELDS)  # one tuple per record, no deep copy
CSV_HEADER = ",".join(_RECORD_FIELDS)
OUTPUT_COLUMNS = ("e_g", "m_z", "chi", "phase", "gap")

# model -> (its parameters at zero, the couplings a config sets on them); the
# parameters' remaining field, h or delta, is the control, set per point
_MODEL_TABLE = {
    "xy": (XYParams(0.0, 0.0, 0.0), ("jx", "jy")),
    "dopo": (DopoParams(0.0, 0.0, 0.0), ("j", "d2")),
    "mapped": (XYParams(0.0, 0.0, 0.0), ("jx", "jy")),
}
MODELS = tuple(_MODEL_TABLE)
_OPTIONAL_COUPLINGS = ("d2",)  # a config may leave d2 at zero: the undriven network

# chain phase -> network phase, for the dual-axis (mapped) sweeps
_PHASE_TRANSLATION = {ORDERED: SUPERRADIANT, PARAMAGNETIC: NORMAL, CRITICAL: CRITICAL}


class ConfigError(ValueError):
    """Sweep configuration rejected; message lists the offending fields."""


@dataclass(frozen=True)
class SweepConfig:
    model: str
    params: XYParams | DopoParams
    start: float
    stop: float
    steps: int
    dh: float = 1e-3
    quad: QuadratureSpec = QuadratureSpec()
    outputs: tuple[str, ...] = ("e_g", "m_z", "chi", "phase")
    format: str = "csv"
    note: str = ""

    def validate(self) -> None:
        problems = []
        if self.model not in MODELS:
            problems.append(f"model: must be one of {MODELS}, got {self.model!r}")
        elif not isinstance(self.params, type(_MODEL_TABLE[self.model][0])):
            problems.append(f"params: {_MODEL_TABLE[self.model][1]} required for {self.model!r}")
        if isinstance(self.params, XYParams) and (self.params.jx < 0 or self.params.jy < 0):
            problems.append("params: couplings must be non-negative for sweeps")
        if self.model == "mapped" and isinstance(self.params, XYParams) \
                and self.params.jx * self.params.jy == 0.0:
            problems.append("params: mapped sweeps need jx*jy > 0 (use a small jy for the Ising limit)")
        if self.steps < 2:
            problems.append(f"steps: must be >= 2, got {self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            problems.append(f"control range: need finite start < stop, got [{self.start}, {self.stop}]")
        if not (self.dh > 0 and math.isfinite(self.dh)):
            problems.append(f"dh: must be positive and finite, got {self.dh}")
        bad = [o for o in self.outputs if o not in OUTPUT_COLUMNS]
        if bad:
            problems.append(f"outputs: unknown column(s) {bad}; valid: {OUTPUT_COLUMNS}")
        if self.format not in ("csv", "json"):
            problems.append(f"format: must be csv or json, got {self.format!r}")
        if problems:
            raise ConfigError("; ".join(problems))

    def controls(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


# The flat keys of a config file, the sweep flags and a preset: SweepConfig's
# fields in order, with its nested params and quad spelled out as theirs.
_NESTED_KEYS = {
    "params": tuple(dict.fromkeys(k for _, couplings in _MODEL_TABLE.values() for k in couplings)),
    "quad": tuple(f.name for f in fields(QuadratureSpec)),
}
SWEEP_KEYS = tuple(k for f in fields(SweepConfig) for k in _NESTED_KEYS.get(f.name, (f.name,)))
_REQUIRED_KEYS = tuple(f.name for f in fields(SweepConfig)
                       if f.default is MISSING and f.name not in _NESTED_KEYS)
_KEY_TYPES = {key: kind for cls in (XYParams, DopoParams, QuadratureSpec, SweepConfig)
              for key, kind in get_type_hints(cls).items() if key in SWEEP_KEYS}


# ---------------------------------------------------------------------------
# presets: the published figures' parameter choices, one command each
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "fig2-aniso": dict(model="xy", jx=2.0, jy=1.0, start=0.0, stop=6.0, steps=401),
    "fig2-iso": dict(model="xy", jx=1.0, jy=1.0, start=0.0, stop=4.0, steps=401),
    "fig2-tfi": dict(model="xy", jx=1.0, jy=0.0, start=0.0, stop=2.0, steps=401),
    "fig3-left": dict(model="mapped", jx=2.0, jy=1.0, start=0.0, stop=6.0, steps=401),
    "fig3-middle": dict(model="mapped", jx=1.0, jy=1.0, start=0.0, stop=4.0, steps=401),
    "fig3-right": dict(
        model="mapped", jx=1.0, jy=0.01, start=0.0, stop=2.0, steps=401,
        note="exact map used: delta = -10.1*h (the rounded -10*h variant is not reproduced)",
    ),
}


def preset_config(name: str, **overrides) -> SweepConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    merged = {**PRESETS[name], **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(merged)


def _convert(kind, value):
    """value as its field's annotated type: an int only from an integral
    value, the outputs tuple also from a comma-separated string."""
    if kind is int and int(value) != float(value):
        raise ValueError(f"must be an integer, got {value!r}")
    if kind == tuple[str, ...] and isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip()]
    return kind(value)


def config_from_dict(raw: dict) -> SweepConfig:
    """A validated SweepConfig from a flat dict over SWEEP_KEYS (a config file,
    flags, a preset); a key left out takes its field's default. ConfigError
    names each key that is foreign, missing though required, or mistyped."""
    model = raw.get("model")
    zero, couplings = _MODEL_TABLE[model] if model in MODELS else (None, ())
    # a known model's keys leave out the couplings of the other models
    keys = [k for k in SWEEP_KEYS if zero is None or k in couplings or k not in _NESTED_KEYS["params"]]
    problems = [f"{key}: not a sweep key for model {model!r}" for key in raw if key not in keys]
    problems += [f"{key}: required" for key in _REQUIRED_KEYS + couplings
                 if key not in raw and key not in _OPTIONAL_COUPLINGS]
    values = {}
    for key in (k for k in keys if k in raw):
        try:
            values[key] = _convert(_KEY_TYPES[key], raw[key])
        except (TypeError, ValueError, OverflowError) as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    # what is left in values after this are SweepConfig's own flat fields
    nested = {field_name: {k: values.pop(k) for k in names if k in values}
              for field_name, names in _NESTED_KEYS.items()}
    try:
        params = None if zero is None else replace(zero, **nested["params"])
        quad = QuadratureSpec(**nested["quad"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = SweepConfig(params=params, quad=quad, **values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# per-point evaluation
# ---------------------------------------------------------------------------

def _point_model(cfg: SweepConfig, c: float):
    """What the evaluator takes from cfg's model at control c: the energy
    density as a function of the control, the phase and the gap (both
    deferred until asked for), and the record's axes (h and/or delta)."""
    quad = cfg.quad
    if cfg.model == "xy":
        p = cfg.params.with_h(c)
        return (lambda x: xy_energy_density(p.with_h(x), quad).value,
                lambda: xy_phase(p), lambda: xy_gap(p), {"h": c})
    if cfg.model == "dopo":
        p = cfg.params.with_delta(c)
        return (lambda x: dopo_energy_density(p.with_delta(x), quad).value,
                lambda: dopo_classify_phase(p), lambda: dopo_gap(p), {"delta": c})
    p = cfg.params.with_h(c)
    network = map_xy_to_dopo(p).dopo
    return (lambda x: dopo_energy_density(map_xy_to_dopo(p.with_h(x)).dopo, quad).value,
            lambda: _PHASE_TRANSLATION[xy_phase(p)], lambda: dopo_gap(network),
            {"h": c, "delta": network.delta})


def _evaluate_point(cfg: SweepConfig, c: float, critical: list[float],
                    nearest_critical: bool) -> SweepRecord:
    """One record from the stencil e(c - dh), e(c), e(c + dh), computing each
    energy at most once and only when a requested column uses it; critical
    lists the sweep's critical controls, nearest_critical flags this point."""
    wants = set(cfg.outputs)
    energy, phase, gap, axes = _point_model(cfg, c)
    dh = cfg.dh
    derivatives = wants & {"m_z", "chi"}

    def stable_energy(x: float) -> float | None:
        try:
            return energy(x)
        except UnstablePhaseError:
            return None  # an unstable network has no ground-state energy

    mid = stable_energy(c) if wants & {"e_g", "chi"} else None
    lo, hi = (stable_energy(c - dh), stable_energy(c + dh)) if derivatives else (None, None)
    m_z = chi = None
    if "m_z" in wants and None not in (lo, hi):
        m_z = -(hi - lo) / (2.0 * dh)
    if "chi" in wants and None not in (lo, mid, hi):
        chi = -(hi - 2.0 * mid + lo) / (dh * dh)
    flags = ["critical"] if nearest_critical else []
    if ("m_z" in wants and m_z is None) or ("chi" in wants and chi is None):
        flags.append("unstable-step")
    if derivatives and cfg.model != "dopo" \
            and any(abs(c - crit) < dh for crit in critical):
        flags.append("straddle")
    return SweepRecord(control=c, **axes, e_g=mid if "e_g" in wants else None,
                       m_z=m_z, chi=chi, phase=phase() if "phase" in wants else None,
                       gap=gap() if "gap" in wants else None, flags=";".join(flags))


def _critical_controls(cfg: SweepConfig) -> list[float]:
    try:
        if cfg.model in ("xy", "mapped"):
            return [hc for hc, _ in xy_critical_fields(cfg.params).values]
        return list(dopo_threshold_detunings(cfg.params))
    except (DegenerateModelError, NonphysicalDriveError):
        return []


def run_sweep(cfg: SweepConfig, workers: int = 1) -> Iterator[SweepRecord]:
    """Stream one record per control point, in control order.

    The configuration and the chi tolerance are checked before this returns,
    so a sweep that cannot run fails before any output. Points are evaluated
    one after another in this process; workers is accepted and ignored.
    """
    cfg.validate()
    if "chi" in cfg.outputs:
        require_chi_tolerance(cfg.quad, cfg.dh)
    controls = cfg.controls()
    critical = _critical_controls(cfg)
    flagged = {int(np.argmin(np.abs(controls - crit)))
               for crit in critical if cfg.start <= crit <= cfg.stop}
    return (_evaluate_point(cfg, float(control), critical, idx in flagged)
            for idx, control in enumerate(controls))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def write_csv(records: Iterable[SweepRecord], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(",".join(map(_cell, _record_values(r))) + "\n")


def _meta(cfg: SweepConfig) -> dict:
    params = {key: getattr(cfg.params, key) for key in _MODEL_TABLE[cfg.model][1]}
    meta = {"model": cfg.model, "params": params, "version": __version__}
    if cfg.note:
        meta["note"] = cfg.note
    return meta


def write_json(cfg: SweepConfig, records: Iterable[SweepRecord], out: TextIO) -> None:
    out.write('{"meta": ')
    json.dump(_meta(cfg), out)
    out.write(', "records": [')
    for i, r in enumerate(records):
        if i:
            out.write(", ")
        json.dump(dict(zip(_RECORD_FIELDS, _record_values(r))), out)
    out.write("]}\n")


# ---------------------------------------------------------------------------
# critical-point report
# ---------------------------------------------------------------------------

def run_critical(params: XYParams | DopoParams) -> dict:
    """Critical fields / detunings with gap-closing momenta, plus the mapped
    counterparts when chain parameters are given."""
    if isinstance(params, DopoParams):
        return {
            "model": "dopo",
            "delta_c": dopo_critical_detuning(params),
            "thresholds": list(dopo_threshold_detunings(params)),
        }
    crit = xy_critical_fields(params)
    report = {
        "model": "xy",
        "model_case": crit.model_case,
        "critical_fields": [{"h_c": hc, "k_star": ks} for hc, ks in crit.values],
    }
    if params.jx * params.jy > 0:
        mapped_rows = []
        for hc, _ in crit.values:
            m = map_xy_to_dopo(params.with_h(hc))
            row = {"h_c": hc, "delta_at_hc": m.dopo.delta, "physical": m.physical}
            if m.physical:
                # positive h_c reaches the -2j - drive threshold; negative h_c
                # lands on the mirrored +2j + drive branch
                threshold = dopo_critical_detuning(m.dopo)
                if hc < 0:
                    threshold = -threshold
                row["delta_c"] = threshold
                row["residual"] = m.dopo.delta - threshold
            mapped_rows.append(row)
        report["mapped"] = mapped_rows
    return report


def format_critical(report: dict) -> str:
    lines = []
    if report["model"] == "dopo":
        lines.append(f"delta_c = {report['delta_c']:.12g}")
        lines.append("all thresholds: " + ", ".join(f"{t:.12g}" for t in report["thresholds"]))
    else:
        lines.append(f"model case: {report['model_case']}")
        for row in report["critical_fields"]:
            lines.append(f"h_c = {row['h_c']:+.12g} at k* = {row['k_star']:.12g}")
        for row in report.get("mapped", []):
            if row.get("physical"):
                lines.append(
                    f"mapped: delta(h_c={row['h_c']:+g}) = {row['delta_at_hc']:.12g}, "
                    f"matching threshold = {row['delta_c']:.12g} "
                    f"(residual {row['residual']:.3e})"
                )
            else:
                lines.append(
                    f"mapped: delta(h_c={row['h_c']:+g}) = {row['delta_at_hc']:.12g} "
                    f"(d2 < 0: no physical drive)"
                )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    level: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "checks": [c.__dict__ for c in self.checks],
        }

    def format_text(self) -> str:
        lines = [
            f"[{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks
        ]
        lines.append(f"validate ({self.level}): "
                     f"{'all checks passed' if self.passed else 'FAILURES present'}")
        return "\n".join(lines)


def _check(report: ValidationReport, name: str, fn) -> None:
    """Run one check; exceptions become failures, never a crash."""
    try:
        passed, detail = fn()
    except Exception as exc:  # aggregated, the report must always complete
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    report.checks.append(Check(name, bool(passed), detail))


def run_validate(level: str = "quick") -> ValidationReport:
    """Fixed example suite (quick) plus randomized and ED checks (full).

    The checks, in report order: grid cosine sums, closed-form anchors,
    spectral match (presets), energy-shift identity (presets), critical
    points, map round trip; full adds spectral match (random), map round trip
    (random), ED convergence table, ED sector comparison. The ED table solves
    rings of 6 to 12 sites, dense to 8 and ARPACK above, and holds every
    ground energy to the exact ring energy within 1e-10.
    """
    if level not in ("quick", "full"):
        raise ConfigError(f"level must be quick or full, got {level!r}")
    report = ValidationReport(level)
    # 1e-10 is attainable within budget even for kinked (gap-closing) integrands
    quad = QuadratureSpec()

    def grid_cosine_sums():
        worst = max(
            abs(float(np.sum(np.cos(build_grid(n, sector).points))))
            for n in (2, 4, 16, 64) for sector in (PERIODIC, ANTIPERIODIC)
        )
        return worst < 1e-12, f"max |sum cos k| = {worst:.2e}"

    def closed_form_anchors():
        rows = [
            ("tfi e(0)", xy_energy_density(XYParams(1, 0, 0), quad).value, -1.0, 1e-10),
            ("tfi e(1)", xy_energy_density(XYParams(1, 0, 1), quad).value, -4.0 / math.pi, 1e-8),
            ("iso e(3)", xy_energy_density(XYParams(1, 1, 3), quad).value, -3.0, 1e-10),
            ("iso e(2.5)", xy_energy_density(XYParams(1, 1, 2.5), quad).value, -2.5, 1e-10),
        ]
        bad = [f"{n}: {v:.12f} vs {e:.12f}" for n, v, e, tol in rows if abs(v - e) > tol]
        return not bad, "; ".join(bad) if bad else "all anchors reproduced"

    def spectral_match_presets():
        grid = build_grid(128)
        worst = max(
            verify_spectral_match(XYParams(jx, jy, h), grid)
            for jx, jy in ((2.0, 1.0), (1.0, 1.0), (1.0, 0.01))
            for h in (0.5, 1.7, 3.3)
        )
        return worst < 1e-9, f"max squared-spectrum residual = {worst:.2e}"

    def energy_shift_presets():
        worst = 0.0
        for jx, jy, hs in ((2.0, 1.0, (0.5, 2.0, 3.5, 5.0)), (1.0, 1.0, (0.5, 1.5, 2.5, 3.5))):
            for h in hs:
                rep = map_energy_density(XYParams(jx, jy, h), quad)
                if not rep.stable:
                    return False, f"unexpected instability at ({jx}, {jy}, h={h})"
                worst = max(worst, abs(rep.residual))
        return worst < 1e-8, f"max energy-shift residual = {worst:.2e}"

    def critical_points():
        expected = {(2.0, 1.0): 3.0, (1.0, 1.0): 2.0, (1.0, 0.0): 1.0}
        for (jx, jy), hc in expected.items():
            got = xy_critical_fields(XYParams(jx, jy, 0.0)).values
            if sorted(v for v, _ in got) != [-hc, hc]:
                return False, f"({jx}, {jy}): got {got}"
        worst = 0.0
        for jx, jy in ((2.0, 1.0), (1.0, 1.0), (1.0, 0.01)):
            rep = run_critical(XYParams(jx, jy, 0.0))
            worst = max(worst, max(abs(r["residual"]) for r in rep["mapped"] if r.get("physical")))
        return worst < 1e-9, f"fields exact; max threshold-transport residual = {worst:.2e}"

    def round_trip():
        for jx, jy, h in ((2.0, 1.0, 3.0), (1.0, 1.0, 1.5), (0.7, 2.4, -2.0)):
            m = map_xy_to_dopo(XYParams(jx, jy, h))
            back = map_dopo_to_xy(m.dopo, h)
            if back is None or abs(back.jx - max(jx, jy)) > 1e-9 or abs(back.jy - min(jx, jy)) > 1e-9:
                return False, f"round trip failed at ({jx}, {jy}, {h})"
        return True, "couplings recovered to 1e-9"

    _check(report, "grid cosine sums", grid_cosine_sums)
    _check(report, "closed-form anchors", closed_form_anchors)
    _check(report, "spectral match (presets)", spectral_match_presets)
    _check(report, "energy-shift identity (presets)", energy_shift_presets)
    _check(report, "critical points", critical_points)
    _check(report, "map round trip", round_trip)

    if level == "full":
        def spectral_match_random():
            rng = np.random.default_rng(1234)
            grid = build_grid(128)
            worst = 0.0
            for _ in range(200):
                jx, jy = rng.uniform(1e-3, 4.0, size=2)
                h = rng.uniform(-6.0, 6.0)
                worst = max(worst, verify_spectral_match(XYParams(jx, jy, h), grid))
            return worst < 1e-9, f"200 draws, max residual = {worst:.2e}"

        def round_trip_random():
            rng = np.random.default_rng(99)
            for _ in range(100):
                jx, jy = rng.uniform(1e-2, 4.0, size=2)
                h = rng.uniform(0.2, 6.0)
                m = map_xy_to_dopo(XYParams(jx, jy, h))
                back = map_dopo_to_xy(m.dopo, h)
                if back is None or abs(back.jx - max(jx, jy)) > 1e-8:
                    return False, f"failed at ({jx:.4f}, {jy:.4f}, {h:.4f})"
            return True, "100 draws recovered"

        def ed_convergence():
            lines = []
            ok = True
            worst_ring = 0.0
            for jx, jy, hc in ((2.0, 1.0, 3.0), (1.0, 1.0, 2.0), (1.0, 0.0, 1.0)):
                h = 1.5 * hc
                p = XYParams(jx, jy, h)
                e_inf = xy_energy_density(p, quad).value
                devs = []
                for n in (6, 8, 10, 12):
                    e0 = ed_ground_state(p, n, _default_method(n)).ground_energy
                    worst_ring = max(worst_ring, abs(e0 - xy_ground_energy_ring(p, n)))
                    devs.append(abs(e0 / n - e_inf))
                lines.append(f"({jx},{jy}) h={h}: " + " ".join(f"{d:.2e}" for d in devs))
                ok = ok and devs[-1] < 0.02
            lines.append(f"max |E_ED - E_ring| = {worst_ring:.2e}")
            return ok and worst_ring <= 1e-10, "; ".join(lines)

        def ed_sector():
            cmp = ed_vs_analytic(XYParams(1.0, 0.0, 2.0), 8)
            ok = cmp.matched_sector == ANTIPERIODIC and abs(cmp.residual_antiperiodic) < 1e-9
            return ok, (f"matched={cmp.matched_sector}, "
                        f"residuals periodic={cmp.residual_periodic:.2e} "
                        f"antiperiodic={cmp.residual_antiperiodic:.2e}")

        _check(report, "spectral match (random)", spectral_match_random)
        _check(report, "map round trip (random)", round_trip_random)
        _check(report, "ED convergence table", ed_convergence)
        _check(report, "ED sector comparison", ed_sector)

    return report
