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
                  (for dopo sweeps, the two phase boundaries -+(2|j| + sqrt(d2)))
    unstable-step derivative omitted because a stencil point was unstable
    straddle      the finite-difference window [c-dh, c+dh] contains a critical field
                  / detuning

SweepRecord's fields, in order, are the CSV columns and the JSON keys. CSV
uses 12 significant digits, so identical configurations give identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from numbers import Integral, Real
from operator import attrgetter
from typing import Iterable, Iterator, TextIO, get_type_hints

import numpy as np

from . import __version__
from .dopo import (
    _energies as _dopo_energies,
    dopo_classify_phase,
    dopo_critical_detuning,
    dopo_gap,
    dopo_threshold_detunings,
)
from .ed import ed_vs_analytic
from .mapping import _network, _spectral_residuals, map_dopo_to_xy, map_energy_density, map_xy_to_dopo
from .quadrature import QuadratureSpec
from .types import (
    ANTIPERIODIC,
    CRITICAL,
    NORMAL,
    ORDERED,
    PERIODIC,
    PARAMAGNETIC,
    SUPERRADIANT,
    DopoParams,
    SingularMapError,
    SweepRecord,
    XYParams,
    build_grid,
)
from .xy import (
    _critical_fields,
    _energies as _xy_energies,
    _stencil,
    require_chi_tolerance,
    xy_critical_fields,
    xy_energy_density,
    xy_gap,
    xy_ground_energy_ring,
    xy_phase,
)
# unused here, but bench/tracing.py wraps these names on this module by getattr
from .dopo import dopo_energy_density, dopo_omega_squared  # noqa: F401
from .ed import ed_ground_state  # noqa: F401
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
    """One sweep's settings, valid from construction; `replace` re-checks."""

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

    def __post_init__(self):
        for key, kind in (("start", Real), ("stop", Real), ("steps", Integral), ("dh", Real)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind):  # a bool is an Integral
                raise ConfigError(f"{key}: must be {kind.__name__.lower()}, got {value!r}")
        problems = []
        if self.model not in MODELS:
            problems.append(f"model: must be one of {MODELS}, got {self.model!r}")
        elif not isinstance(self.params, type(_MODEL_TABLE[self.model][0])):
            problems.append(f"params: {_MODEL_TABLE[self.model][1]} required for {self.model!r}")
        if isinstance(self.params, XYParams) and (self.params.jx < 0 or self.params.jy < 0):
            problems.append("params: couplings must be non-negative for sweeps")
        elif self.model == "mapped" and isinstance(self.params, XYParams):
            try:
                map_xy_to_dopo(self.params)
            except SingularMapError as exc:
                problems.append(f"params: {exc}")
        if isinstance(self.params, DopoParams) and not self.params.is_physical:
            problems.append(f"d2: must be >= 0 (a real drive amplitude), got {self.params.d2}")
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
        if "chi" in self.outputs:
            require_chi_tolerance(self.quad, self.dh)

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
    """value as its field's annotated type: never from a boolean, an int only
    from an integral value, the outputs tuple also from a comma-separated string."""
    if isinstance(value, bool):
        raise ValueError(f"must not be a boolean, got {value!r}")
    if kind is int and int(value) != float(value):
        raise ValueError(f"must be an integer, got {value!r}")
    if kind == tuple[str, ...] and isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip()]
    return kind(value)


def config_from_dict(raw: dict) -> SweepConfig:
    """A SweepConfig from a flat dict over SWEEP_KEYS (a config file,
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
    return SweepConfig(params=params, quad=quad, **values)


# ---------------------------------------------------------------------------
# per-point evaluation
# ---------------------------------------------------------------------------

def _point_model(cfg: SweepConfig, c: float):
    """What the evaluator takes from cfg's model at control c: the energy
    densities at a list of controls, computed in one call (None for an
    unstable network), the phase and the gap (both deferred until asked for),
    and the record's axes (h and/or delta)."""
    quad = cfg.quad
    if cfg.model == "xy":
        p = cfg.params.with_h(c)
        return (lambda xs: _xy_energies(p, xs, quad).value,
                lambda: xy_phase(p), lambda: xy_gap(p), {"h": c})
    if cfg.model == "dopo":
        p = cfg.params.with_delta(c)
        return (lambda xs: _dopo_energies([(p.j, x, p.d2) for x in xs], quad).value,
                lambda: dopo_classify_phase(p), lambda: dopo_gap(p), {"delta": c})
    p = cfg.params.with_h(c)
    network = map_xy_to_dopo(p)
    return (lambda xs: _dopo_energies([_network(p, x) for x in xs], quad).value,
            lambda: _PHASE_TRANSLATION[xy_phase(p)], lambda: dopo_gap(network),
            {"h": c, "delta": network.delta})


def _evaluate_point(cfg: SweepConfig, c: float, critical: tuple[float, ...],
                    nearest_critical: bool) -> SweepRecord:
    """One record from xy._stencil at c; critical lists the sweep's critical
    controls, nearest_critical flags this point."""
    wants = set(cfg.outputs)
    energies, phase, gap, axes = _point_model(cfg, c)
    e_g, m_z, chi, straddles = _stencil(energies, c, cfg.dh, wants, critical)
    flags = ["critical"] if nearest_critical else []
    if ("m_z" in wants and m_z is None) or ("chi" in wants and chi is None):
        flags.append("unstable-step")
    if straddles:
        flags.append("straddle")
    return SweepRecord(control=c, **axes, e_g=e_g, m_z=m_z, chi=chi,
                       phase=phase() if "phase" in wants else None,
                       gap=gap() if "gap" in wants else None, flags=";".join(flags))


def _critical_controls(cfg: SweepConfig) -> tuple[float, ...]:
    if cfg.model == "dopo":
        # the inner thresholds -+(2|j| - sqrt(d2)) lie inside the unstable window
        lowest, *_, highest = dopo_threshold_detunings(cfg.params)
        return lowest, highest
    return _critical_fields(cfg.params)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> Iterator[SweepRecord]:
    """Stream one record per control point, in control order.

    cfg was checked when it was built, the chi tolerance included, so a sweep
    that cannot run failed before any output. Points are evaluated one after
    another in this process; workers is accepted and ignored.
    """
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
    out.write('{"meta": ' + json.dumps(_meta(cfg)) + ', "records": [')
    for i, r in enumerate(records):
        out.write((", " if i else "") + json.dumps(dict(zip(_RECORD_FIELDS, _record_values(r)))))
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
    try:
        networks = [(hc, map_xy_to_dopo(params.with_h(hc))) for hc, _ in crit.values]
    except SingularMapError:  # no mapped rows where jx*jy <= 0
        networks = []
    for hc, m in networks:
        row = {"h_c": hc, "delta_at_hc": m.delta, "physical": m.is_physical}
        if m.is_physical:
            # a negative mapped delta = -h (jx + jy) / sqrt(jx jy) reaches the
            # lowest threshold, -2j - drive; a positive one the highest
            row["delta_c"] = dopo_threshold_detunings(m)[-1 if m.delta > 0 else 0]
            row["residual"] = m.delta - row["delta_c"]
        report.setdefault("mapped", []).append(row)
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
                    f"mapped: delta(h_c={row['h_c']:+.12g}) = {row['delta_at_hc']:.12g}, "
                    f"matching threshold = {row['delta_c']:.12g} "
                    f"(residual {row['residual']:.3e})"
                )
            else:
                lines.append(
                    f"mapped: delta(h_c={row['h_c']:+.12g}) = {row['delta_at_hc']:.12g} "
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


def _severity(row: tuple) -> float:
    """residual / bound: past 1 on a failed row, inf for a NaN or a miss of a zero bound."""
    _, residual, bound = row
    if bound > 0 and not math.isnan(residual):
        return residual / bound
    return 0.0 if residual <= bound else math.inf


def _check(name: str, rows: Iterable[tuple]) -> Check:
    """Judge one check's ((format, *values), residual, bound) rows, drawn here so that
    an exception fails the check and the report still completes. It passes only when
    every residual <= bound, so a NaN fails. The detail formats the worst row's case."""
    try:
        rows = list(rows)
        (case, *values), residual, bound = max(rows, key=_severity)
        return Check(name, all(r <= b for _, r, b in rows),
                     f"{case.format(*values)}: {residual:.2e} (bound {bound:g})")
    except Exception as exc:  # aggregated, the report must always complete
        return Check(name, False, f"raised {type(exc).__name__}: {exc}")


def _random_xy(seed: int, count: int, j_low: float, h_low: float, h_high: float):
    """count chains from one draw, the stream of a chain-by-chain draw: jx and jy, then h."""
    draws = np.random.default_rng(seed).uniform((j_low, j_low, h_low), (4.0, 4.0, h_high), (count, 3))
    return [XYParams(*row) for row in draws.tolist()]


def _spectral_rows(chains):
    chains = list(chains)
    for p, residual in zip(chains, _spectral_residuals(chains, build_grid(128))):
        yield ("max_k |E_k^2 - Omega_k^2| at {}", p), residual, 1e-9


def _shift_rows(chains):
    """The energy-shift identity; an unstable mapped network misses it by inf."""
    for p in chains:
        rep = map_energy_density(p)
        yield ("energy-shift residual at {}", p), abs(rep.residual) if rep.stable else math.inf, 1e-8


def _critical_rows():
    """Each chain's critical fields, exactly, and each threshold the map transports."""
    for jx, jy, hc in ((2.0, 1.0, 3.0), (1.0, 1.0, 2.0), (1.0, 0.0, 1.0), (1.0, 0.01, 1.01)):
        p = XYParams(jx, jy, 0.0)
        got = sorted(v for v, _ in xy_critical_fields(p).values)
        yield ("critical fields {} of {}", got, p), 0.0 if got == [-hc, hc] else math.inf, 0.0
        for row in run_critical(p).get("mapped", ()):  # no map when jx*jy <= 0
            if row["physical"]:
                yield ("transported h_c={:+g} of {}", row["h_c"], p), abs(row["residual"]), 1e-9


def _round_trip_rows(chains, bound: float):
    """Each coupling recovered by inverting the map at the chain's own field."""
    for p in chains:
        back = map_dopo_to_xy(map_xy_to_dopo(p), p.h)
        for name, want in (("jx", max(p.jx, p.jy)), ("jy", min(p.jx, p.jy))):
            miss = math.inf if back is None else abs(getattr(back, name) - want)
            yield ("{} from {}", name, p), miss, bound


def _ed_rows():
    """Each ED ground energy against the exact ring energy, then e_ED(n=12) against e(h)."""
    for jx, jy, hc in ((2.0, 1.0, 3.0), (1.0, 1.0, 2.0), (1.0, 0.0, 1.0)):
        p = XYParams(jx, jy, 1.5 * hc)
        for n in (6, 8, 10, 12):
            e0 = ed_vs_analytic(p, n).ed_energy
            yield ("|E_ED - E_ring| at {}, n={}", p, n), abs(e0 - xy_ground_energy_ring(p, n)), 1e-10
        yield ("|E_ED/n - e| at {}, n={}", p, n), abs(e0 / n - xy_energy_density(p).value), 0.02


def _sector_rows():
    cmp = ed_vs_analytic(XYParams(1.0, 0.0, 2.0), 8)
    yield ("|E_ED - E_antiperiodic| at (1, 0, h=2), n=8",), abs(cmp.residual_antiperiodic), 1e-9
    yield ("sector matched: {}", cmp.matched_sector), float(cmp.matched_sector != ANTIPERIODIC), 0.0


def run_validate(level: str = "quick") -> ValidationReport:
    """The fixed example checks (quick), then the randomized and ED checks
    (full), in the order listed below. The ED table solves rings of 6 to 12
    sites on their dihedral-symmetric blocks (ed_vs_analytic) and holds every
    ground energy to the exact ring energy within 1e-10."""
    if level not in ("quick", "full"):
        raise ConfigError(f"level must be quick or full, got {level!r}")
    anchors = ((XYParams(1, 0, 0), -1.0, 1e-10), (XYParams(1, 0, 1), -4.0 / math.pi, 1e-8),
               (XYParams(1, 1, 3), -3.0, 1e-10), (XYParams(1, 1, 2.5), -2.5, 1e-10))
    checks = [
        ("grid cosine sums", ((("|sum cos k| at n={}, {}", n, sector),
                               abs(float(np.sum(np.cos(build_grid(n, sector).points)))), 1e-12)
                              for n in (2, 4, 16, 64) for sector in (PERIODIC, ANTIPERIODIC))),
        ("closed-form anchors", ((("|e - ({:.12g})| at {}", e, p), abs(xy_energy_density(p).value - e), tol)
                                 for p, e, tol in anchors)),
        ("spectral match (presets)", _spectral_rows(
            XYParams(jx, jy, h) for jx, jy in ((2.0, 1.0), (1.0, 1.0), (1.0, 0.01))
            for h in (0.5, 1.7, 3.3))),
        ("energy-shift identity (presets)", _shift_rows(
            [XYParams(2.0, 1.0, h) for h in (0.5, 2.0, 3.5, 5.0)]
            + [XYParams(1.0, 1.0, h) for h in (0.5, 1.5, 2.5, 3.5)])),
        ("critical points", _critical_rows()),
        ("map round trip", _round_trip_rows(
            (XYParams(2.0, 1.0, 3.0), XYParams(1.0, 1.0, 1.5), XYParams(0.7, 2.4, -2.0)), 1e-9)),
    ]
    if level == "full":
        checks += [
            ("spectral match (random)", _spectral_rows(_random_xy(1234, 200, 1e-3, -6.0, 6.0))),
            ("map round trip (random)", _round_trip_rows(_random_xy(99, 100, 1e-2, 0.2, 6.0), 1e-8)),
            ("ED convergence table", _ed_rows()),
            ("ED sector comparison", _sector_rows()),
        ]
    return ValidationReport(level, [_check(name, rows) for name, rows in checks])
