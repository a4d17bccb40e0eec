"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import io
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import ellipe

from xydopo.ed import ed_ground_state
from xydopo.mapping import map_energy_density, map_xy_to_dopo, verify_spectral_match
from xydopo.quadrature import QuadratureSpec
from xydopo.sweep import preset_config, run_critical, run_sweep, write_csv
from xydopo.types import (
    CRITICAL,
    NORMAL,
    ORDERED,
    PARAMAGNETIC,
    SUPERRADIANT,
    XYParams,
    build_grid,
)
from xydopo.xy import (
    xy_critical_fields,
    xy_dispersion,
    xy_energy_density,
    xy_magnetization,
    xy_susceptibility,
)

FIG2_MODELS = {
    "aniso": (XYParams(2.0, 1.0, 0.0), 3.0),
    "iso": (XYParams(1.0, 1.0, 0.0), 2.0),
    "tfi": (XYParams(1.0, 0.0, 0.0), 1.0),
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_spectral_mapping_exactness():
    grid = build_grid(128)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        jx, jy = rng.uniform(1e-12, 4.0, size=2)
        h = rng.uniform(-6.0, 6.0)
        worst = max(worst, verify_spectral_match(XYParams(jx, jy, h), grid))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, ok, f"1000 draws, max |E^2 - Omega^2| = {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_energy_shift_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for p0, lo, hi in ((XYParams(2.0, 1.0, 0.0), 0.2, 5.8),
                       (XYParams(1.0, 1.0, 0.0), 0.2, 3.8)):
        for h in np.linspace(lo, hi, 20):
            rep = map_energy_density(p0.with_h(float(h)))
            assert rep.stable, f"unexpected instability at h={h}"
            worst = max(worst, abs(rep.residual))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report(2, ok, f"left/middle presets, 20 points each, max residual = {worst:.3e}, "
                  f"{elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_3_closed_form_anchors():
    failures = []
    for j in (1.0, 2.0):
        val = xy_energy_density(XYParams(j, 0.0, 0.0)).value
        if abs(val - (-j)) > 1e-10:
            failures.append(f"tfi e(0)|J={j}: {val}")
        # re-derive -4J/pi through an independent integration route before
        # trusting it as the expected value
        oracle, _ = scipy_quad(lambda k: xy_dispersion(XYParams(j, 0.0, j), k),
                               0.0, np.pi, epsabs=1e-13, epsrel=1e-13)
        oracle = -oracle / (2.0 * np.pi)
        assert abs(oracle - (-4.0 * j / np.pi)) < 1e-10
        val = xy_energy_density(XYParams(j, 0.0, j)).value
        if abs(val - (-4.0 * j / np.pi)) > 1e-8:
            failures.append(f"tfi e(h=J)|J={j}: {val}")
    for h in (2.0, 2.5, 4.0):
        val = xy_energy_density(XYParams(1.0, 1.0, h)).value
        if abs(val - (-h)) > 1e-10:
            failures.append(f"iso e({h}): {val}")
    ok = not failures
    report(3, ok, "anchors -J, -4J/pi, -h reproduced" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_4_critical_points():
    expected = {"aniso": 3.0, "iso": 2.0, "tfi": 1.0}
    failures = []
    for name, (p, _) in FIG2_MODELS.items():
        values = sorted(h for h, _ in xy_critical_fields(p).values)
        if values != [-expected[name], expected[name]]:
            failures.append(f"{name}: {values}")
    worst = 0.0
    for jx, jy in ((2.0, 1.0), (1.0, 1.0), (1.0, 0.01)):
        rep = run_critical(XYParams(jx, jy, 0.0))
        for row in rep["mapped"]:
            assert row["physical"]
            worst = max(worst, abs(row["residual"]))
    ok = not failures and worst < 1e-9
    report(4, ok, f"h_c sets exact, max |delta(h_c) - threshold| = {worst:.3e}"
                  + ("" if not failures else f"; failures: {failures}"))
    assert ok, failures


def _tfi_energy_density(h: float) -> float:
    """Pfeuty's closed form for the J = 1 transverse-field Ising chain,
    e(h) = -(2/pi)(1+h) E(4h/(1+h)^2), E the complete elliptic integral of the
    second kind in parameter form: an oracle that shares no code with xydopo."""
    return -(2.0 / math.pi) * (1.0 + h) * ellipe(4.0 * h / (1.0 + h) ** 2)


def _tfi_susceptibility(h: float, dh: float) -> float:
    """The same central second difference as xy_susceptibility, on the closed form."""
    e = _tfi_energy_density
    return -(e(h + dh) - 2.0 * e(h) + e(h - dh)) / (dh * dh)


def test_criterion_5_susceptibility_divergence():
    # The Ising susceptibility diverges only logarithmically,
    # chi ~ -(1/pi) ln|h - h_c| (Pfeuty 1970), so the peak smoothed by a step dh
    # grows by ln(10)/pi per decade of dh: a fixed-step ratio against the
    # off-critical value cannot show the divergence, the growth per decade does.
    t0 = time.perf_counter()
    quad = QuadratureSpec(tol=1e-12)
    steps = (1e-2, 1e-3, 1e-4)
    chi = {(h, dh): xy_susceptibility(XYParams(1.0, 0.0, h), quad, dh).value
           for h in (0.5, 1.0, 1.5) for dh in steps}
    iso_flat = xy_susceptibility(XYParams(1.0, 1.0, 3.0), quad, 1e-3).value
    elapsed = time.perf_counter() - t0

    peak = [chi[(1.0, dh)] for dh in steps]
    below, above = chi[(0.5, 1e-3)], chi[(1.5, 1e-3)]
    per_decade = math.log(10.0) / math.pi
    growth = [b - a for a, b in zip(peak, peak[1:])]
    drift = {h: abs(chi[(h, 1e-3)] - chi[(h, 1e-4)]) for h in (0.5, 1.5)}
    residual = {h: abs(chi[(h, 1e-3)] - _tfi_susceptibility(h, 1e-3))
                for h in (0.5, 1.0, 1.5)}

    increasing = peak[0] < peak[1] < peak[2]
    log_growth = all(abs(g - per_decade) <= 1e-3 for g in growth)
    converged = all(d < 1e-5 for d in drift.values())
    closed_form = all(r <= 1e-8 for r in residual.values())
    ratio_above = peak[1] > 10.0 * above
    iso_ok = abs(iso_flat) < 1e-6
    ok = (increasing and log_growth and converged and closed_form and ratio_above
          and iso_ok and elapsed < 30.0)
    report(5, ok,
           f"chi(h_c) = {peak[0]:.4f}/{peak[1]:.4f}/{peak[2]:.4f} over dh = 1e-2/1e-3/1e-4; "
           f"growth per decade = {growth[0]:.6f}/{growth[1]:.6f} vs ln(10)/pi = "
           f"{per_decade:.6f} (tol 1e-3); |chi(dh=1e-3) - chi(dh=1e-4)| = "
           f"{drift[0.5]:.1e} at 0.5, {drift[1.5]:.1e} at 1.5 (bound 1e-5); "
           f"max |chi - closed form| at dh = 1e-3 = {max(residual.values()):.1e} "
           f"(bound 1e-8); chi(0.5) = {below:.4f}, chi(1.5) = {above:.4f}, "
           f"chi(h_c)/chi(1.5) = {peak[1] / above:.1f} (bound 10); "
           f"iso chi(3) = {iso_flat:.2e}; {elapsed:.1f}s")
    assert increasing, peak
    assert log_growth, f"growth per decade {growth} not within 1e-3 of {per_decade:.6f}"
    assert converged, f"off-critical chi moved by {drift} from dh=1e-3 to 1e-4 (bound 1e-5)"
    assert closed_form, f"|chi - closed form| = {residual} at dh=1e-3 (bound 1e-8)"
    assert ratio_above, f"chi(h_c)={peak[1]:.4f} not > 10*chi(1.5)={10 * above:.4f}"
    assert iso_ok
    assert elapsed < 30.0


def _finite_size_regime(p: XYParams, hc: float) -> str:
    """An anisotropic chain is gapped on both sides of h_c. The isotropic chain
    is gapless below h_c (c = 1, Casimir term -pi*v_F/(6 n^2), Bloete, Cardy &
    Nightingale 1986) and fully polarized above it, where the polarized state
    is the exact ground state at every ring size."""
    if p.jx != p.jy:
        return "gapped"
    return "gapless" if abs(p.h) < hc else "polarized"


def test_criterion_6_ed_oracle_convergence():
    t0 = time.perf_counter()
    sizes = (6, 8, 10, 12)
    rows = []
    failures = []
    largest = {}
    for name, (p0, hc) in FIG2_MODELS.items():
        for factor in (0.5, 1.5):
            p = p0.with_h(factor * hc)
            e_inf = xy_energy_density(p).value
            results = [ed_ground_state(p, n) for n in sizes]
            largest[(name, factor)] = results[-1]
            devs = [abs(r.ground_energy / r.n - e_inf) for r in results]
            small = devs[-1] < 0.02
            regime = _finite_size_regime(p, hc)
            if regime == "gapped":
                row_ok = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
                detail = f"monotone={row_ok}"
            elif regime == "polarized":
                row_ok = max(devs) <= 1e-12
                detail = f"max |dev| = {max(devs):.1e} (bound 1e-12)"
            else:
                k_star = math.acos(-p.h / (2.0 * p.jx))
                casimir = math.pi * 4.0 * p.jx * math.sin(k_star) / 6.0  # pi*v_F/6
                scaled = [n * n * d for n, d in zip(sizes, devs)]
                # of these sizes, only n = 6 and 12 hold k* = 2pi/3 on their
                # periodic grid 2pi*m/n, so these two follow one 1/n^2 branch
                assert all(abs(n * k_star / (2.0 * math.pi)
                               - round(n * k_star / (2.0 * math.pi))) < 1e-12
                           for n in (6, 12))
                ratio = devs[sizes.index(12)] / devs[sizes.index(6)]
                envelope = max(scaled) <= 1.05 * casimir
                quarter = abs(ratio - 0.25) <= 0.05 * 0.25
                row_ok = envelope and quarter
                detail = ("n^2*|dev| = " + "/".join(f"{s:.3f}" for s in scaled) +
                          f" vs pi*v_F/6 = {casimir:.4f} (bound x1.05): {envelope};"
                          f" dev12/dev6 = {ratio:.4f} vs 1/4 (tol 5%): {quarter}")
            rows.append(f"{name} h={p.h:g} [{regime}]: devs=" +
                        "/".join(f"{d:.2e}" for d in devs) +
                        f" {detail} final<0.02={small}")
            if not (row_ok and small):
                failures.append(f"{name} h={p.h:g} [{regime}] ({detail}, small={small})")
    mz_failures = []
    for name, (p0, hc) in FIG2_MODELS.items():
        p = p0.with_h(1.5 * hc)
        ed_mz = largest[(name, 1.5)].ground_m_z
        fd_mz = xy_magnetization(p, dh=1e-3).value
        if abs(ed_mz - fd_mz) >= 0.02:
            mz_failures.append(f"{name}: |{ed_mz:.4f} - {fd_mz:.4f}|")
    elapsed = time.perf_counter() - t0
    ok = not failures and not mz_failures and elapsed < 120.0
    for row in rows:
        print("    " + row)
    report(6, ok, f"energy rows failing: {failures or 'none'}; "
                  f"m_z rows failing: {mz_failures or 'none'}; {elapsed:.0f}s")
    assert not mz_failures, mz_failures
    assert elapsed < 120.0
    assert not failures, failures


def _phase_flip_ok(controls, phases, hc, before, after):
    """Labels must be `before` strictly below hc, `after` strictly above, with
    at most a critical label on the bracketing/exact grid point."""
    step = controls[1] - controls[0]
    for c, ph in zip(controls, phases):
        if c < hc - 0.5 * step:
            if ph != before:
                return False
        elif c > hc + 0.5 * step:
            if ph != after:
                return False
        elif ph not in (before, after, CRITICAL):
            return False
    return True


def test_criterion_7_phase_classification():
    failures = []
    for name in ("fig3-left", "fig3-middle", "fig3-right"):
        cfg = preset_config(name, outputs="phase")
        hc = max(h for h, _ in xy_critical_fields(cfg.params).values)
        records = list(run_sweep(cfg))
        controls = [r.control for r in records]
        phases = [r.phase for r in records]
        delta_c = map_xy_to_dopo(cfg.params.with_h(hc)).delta
        deltas = np.array([r.delta for r in records])
        bracket = np.searchsorted(-deltas, -delta_c)  # deltas decrease with h
        if not _phase_flip_ok(controls, phases, hc, SUPERRADIANT, NORMAL):
            failures.append(f"{name}: network labels do not flip at delta_c")
        if not (0 < bracket < len(records)):
            failures.append(f"{name}: delta_c = {delta_c:.4f} outside the sweep")
    for name, hc in (("fig2-aniso", 3.0), ("fig2-iso", 2.0), ("fig2-tfi", 1.0)):
        cfg = preset_config(name, outputs="phase")
        records = list(run_sweep(cfg))
        if not _phase_flip_ok([r.control for r in records], [r.phase for r in records],
                              hc, ORDERED, PARAMAGNETIC):
            failures.append(f"{name}: chain labels do not flip at h_c")
    ok = not failures
    report(7, ok, "all six presets flip at the bracketing grid point"
                  if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_8_determinism():
    cfg = preset_config("fig2-tfi")
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1]
    report(8, ok, f"two fig2-tfi runs byte-identical: {ok} "
                  f"({len(outputs[0].encode())} bytes)")
    assert ok
