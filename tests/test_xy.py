import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

from xydopo.dopo import dopo_band, dopo_energy_density
from xydopo.quadrature import Integral, QuadratureSpec, integrate
from xydopo.types import (
    CRITICAL,
    ORDERED,
    PARAMAGNETIC,
    DegenerateModelError,
    DopoParams,
    NumericalError,
    UnsupportedParameterError,
    XYParams,
    build_grid,
)
from xydopo.xy import (
    ANISOTROPIC,
    ISOTROPIC,
    TFI,
    xy_band,
    xy_critical_fields,
    xy_dispersion,
    xy_energy_density,
    xy_gap,
    xy_ground_energy_finite,
    xy_magnetization,
    xy_phase,
    xy_spectrum,
    xy_susceptibility,
)


def oracle_energy_density(p):
    """Independent integration route (scipy adaptive quad) for cross-checks."""
    val, _ = scipy_quad(lambda k: xy_dispersion(p, k), 0.0, np.pi,
                        limit=400, epsabs=1e-13, epsrel=1e-13)
    return -val / (2.0 * np.pi)


# --- dispersion -----------------------------------------------------------

def test_dispersion_pure_x_coupling_is_flat():
    p = XYParams(1.0, 0.0, 0.0)
    for k in (0.0, 0.3, -2.0, np.pi):
        assert xy_dispersion(p, k) == pytest.approx(2.0, abs=1e-14)


def test_dispersion_gap_closings():
    assert xy_dispersion(XYParams(1.0, 1.0, 2.0), np.pi) == pytest.approx(0.0, abs=1e-12)
    assert xy_dispersion(XYParams(2.0, 1.0, 3.0), np.pi) == pytest.approx(0.0, abs=1e-12)


# --- spectra on grids -----------------------------------------------------

def test_spectrum_flat_case():
    spec = xy_spectrum(XYParams(1.0, 0.0, 0.0), build_grid(4))
    np.testing.assert_allclose(spec.value, 2.0, atol=1e-14)


def test_spectrum_isotropic_zero_field():
    spec = xy_spectrum(XYParams(1.0, 1.0, 0.0), build_grid(4))
    np.testing.assert_allclose(spec.k, [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-15)
    np.testing.assert_allclose(spec.value, [0.0, 4.0, 0.0, 4.0], atol=1e-13)


def test_spectrum_two_site():
    spec = xy_spectrum(XYParams(2.0, 1.0, 3.0), build_grid(2))
    np.testing.assert_allclose(spec.k, [0.0, np.pi], atol=1e-15)
    np.testing.assert_allclose(spec.value, [12.0, 0.0], atol=1e-13)


def test_ground_energy_finite():
    assert xy_ground_energy_finite(XYParams(1.0, 0.0, 0.0), build_grid(8)) == pytest.approx(-8.0)
    assert xy_ground_energy_finite(XYParams(1.0, 1.0, 0.0), build_grid(4)) == pytest.approx(-4.0)
    # direct substitution: E(0) = E(pi) = 2*|jx+jy| = 6 at h = 0
    assert xy_ground_energy_finite(XYParams(2.0, 1.0, 0.0), build_grid(2)) == pytest.approx(-6.0)


# --- energy density -------------------------------------------------------

def test_energy_density_flat_band():
    res = xy_energy_density(XYParams(1.0, 0.0, 0.0))
    assert res.value == pytest.approx(-1.0, abs=1e-12)


def test_energy_density_ising_at_critical_field():
    # integrand is 4|cos(k/2)|, so e = -4/pi; cross-checked by the scipy route
    p = XYParams(1.0, 0.0, 1.0)
    res = xy_energy_density(p)
    assert res.value == pytest.approx(-4.0 / np.pi, abs=1e-10)
    assert res.value == pytest.approx(oracle_energy_density(p), abs=2e-10)


def test_energy_density_polarized_isotropic():
    for h in (2.0, 2.5, 4.0):
        res = xy_energy_density(XYParams(1.0, 1.0, h))
        assert res.value == pytest.approx(-h, abs=1e-12)


@pytest.mark.parametrize("jx,jy,h", [(2.0, 1.0, 4.0), (1.0, 1.0, 0.7), (0.4, 2.3, -1.2)])
def test_energy_density_against_scipy(jx, jy, h):
    p = XYParams(jx, jy, h)
    assert xy_energy_density(p).value == pytest.approx(oracle_energy_density(p), abs=2e-9)


def test_energy_density_reports_error_estimate():
    res = xy_energy_density(XYParams(1.0, 1.0, 0.5))
    assert res.error < 1e-10
    assert res.nodes >= 32


# --- field derivatives ----------------------------------------------------

def test_magnetization_saturated():
    res = xy_magnetization(XYParams(1.0, 1.0, 3.0), dh=1e-4)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert not res.straddles_critical
    # free spins have no critical field, so no window straddles one
    free = xy_magnetization(XYParams(0.0, 0.0, 0.5))
    assert free.value == pytest.approx(1.0, abs=1e-12)
    assert not free.straddles_critical


def test_magnetization_zero_field():
    # e_g is even in h
    for p in (XYParams(1.0, 0.0, 0.0), XYParams(2.0, 1.0, 0.0)):
        assert xy_magnetization(p, dh=1e-4).value == pytest.approx(0.0, abs=1e-8)
    # the Ising chain's e(h) and e(-h) are equal to the bit: an unsigned zero
    assert math.copysign(1.0, xy_magnetization(XYParams(1.0, 0.0, 0.0)).value) == 1.0


def test_magnetization_straddle_flag():
    quad = QuadratureSpec()
    assert xy_magnetization(XYParams(1.0, 0.0, 1.0), quad, dh=1e-3).straddles_critical
    assert not xy_magnetization(XYParams(1.0, 0.0, 1.1), quad, dh=1e-3).straddles_critical


def test_susceptibility_tolerance_guard():
    with pytest.raises(NumericalError):
        xy_susceptibility(XYParams(1.0, 0.0, 0.5), QuadratureSpec(tol=1e-6), dh=1e-3)
    # a step that is not positive is a ValueError, raised before the tolerance guard
    p = XYParams(1.0, 0.0, 0.5)
    for call in (lambda: xy_magnetization(p, dh=0.0), lambda: xy_susceptibility(p, dh=-1e-3),
                 lambda: xy_susceptibility(p, QuadratureSpec(tol=1e-6), dh=0.0)):
        with pytest.raises(ValueError, match="dh must be positive"):
            call()



@pytest.mark.parametrize("dh", [math.inf, -math.inf, math.nan], ids=["plus-inf", "minus-inf", "nan"])
def test_non_finite_step_is_refused(dh):
    # an infinite step would otherwise reach a NaN energy at x -+ inf
    p = XYParams(1.0, 0.0, 0.5)
    for derivative in (xy_magnetization, xy_susceptibility):
        with pytest.raises(ValueError, match="dh must be positive and finite"):
            derivative(p, dh=dh)


def test_susceptibility_vanishes_in_polarized_phase():
    res = xy_susceptibility(XYParams(1.0, 1.0, 3.0), dh=1e-3)
    assert abs(res.value) < 1e-6


def test_susceptibility_grows_toward_critical_point():
    p = XYParams(1.0, 0.0, 1.0)
    quad = QuadratureSpec(tol=1e-12)
    coarse = xy_susceptibility(p, quad, dh=1e-2).value
    fine = xy_susceptibility(p, quad, dh=1e-3).value
    assert fine > coarse > 0


def test_susceptibility_decays_far_above_critical():
    vals = [xy_susceptibility(XYParams(1.0, 0.0, h), dh=1e-3).value for h in (3.0, 4.0, 5.0)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


# --- critical fields and phases ------------------------------------------

def test_critical_fields_isotropic():
    crit = xy_critical_fields(XYParams(1.0, 1.0, 0.0))
    assert crit.model_case == ISOTROPIC
    assert sorted(h for h, _ in crit.values) == [-2.0, 2.0]


def test_critical_fields_anisotropic():
    crit = xy_critical_fields(XYParams(2.0, 1.0, 0.0))
    assert crit.model_case == ANISOTROPIC
    assert dict(crit.values) == {-3.0: 0.0, 3.0: pytest.approx(np.pi)}


def test_critical_fields_ising_limit():
    crit = xy_critical_fields(XYParams(1.0, 0.0, 0.0))
    assert crit.model_case == TFI
    assert sorted(h for h, _ in crit.values) == [-1.0, 1.0]


@pytest.mark.parametrize("jx,jy", [(1.0, 1.0), (2.0, 1.0), (1.0, 0.0), (0.3, 2.2)])
def test_critical_pairs_satisfy_gap_conditions(jx, jy):
    p = XYParams(jx, jy, 0.0)
    for hc, ks in xy_critical_fields(p).values:
        assert abs(hc + p.js * np.cos(ks)) < 1e-12
        assert abs(p.jd * np.sin(ks)) < 1e-12


def test_critical_fields_degenerate_model():
    with pytest.raises(DegenerateModelError):
        xy_critical_fields(XYParams(0.0, 0.0, 1.0))


def test_phase_labels():
    assert xy_phase(XYParams(1.0, 0.0, 2.0)) == PARAMAGNETIC
    assert xy_phase(XYParams(2.0, 1.0, 0.0)) == ORDERED
    assert xy_phase(XYParams(1.0, 1.0, 2.0)) == CRITICAL


def test_phase_rejects_negative_couplings():
    with pytest.raises(UnsupportedParameterError):
        xy_phase(XYParams(-1.0, 0.0, 0.5))


def test_gap_scan():
    assert xy_gap(XYParams(2.0, 1.0, 3.0)) < 1e-12          # closes exactly at k = pi
    assert xy_gap(XYParams(2.0, 1.0, 3.5)) == pytest.approx(1.0, abs=1e-6)


def test_energy_density_ordered_isotropic_closed_form():
    # E_k = 2|h + 2j cos k| is split at its kink k* = arccos(-h/(2j)), the
    # band minimum, and converges on the first level of both pieces
    h, j = 1.0, 1.0
    res = xy_energy_density(XYParams(j, j, h), QuadratureSpec(tol=1e-13))
    ks = math.acos(-h / (2.0 * j))
    exact = -(h * (2.0 * ks - math.pi) + 4.0 * j * math.sin(ks)) / math.pi
    assert abs(res.value - exact) <= 1e-14
    assert res.nodes == 226


def test_susceptibility_ordered_isotropic():
    # chi = 1/(pi*j*sin k*) in the gapless window: 2/(pi*sqrt(3)) at h = j = 1
    chi = xy_susceptibility(XYParams(1.0, 1.0, 1.0), QuadratureSpec(tol=1e-12), dh=1e-4)
    assert chi.value == pytest.approx(2.0 / (math.pi * math.sqrt(3.0)), abs=1e-6)


# e(h) of XYParams(1, 0.9999, h) to 30 digits: mpmath 1.3.0 quad at 40 and at
# 60 digits (the two agree), over the exact binary js, jd and h, with break
# points at k* = arccos(-h/js) and at k* +- 1e-4 and k* +- 1e-2
_NEAR_KINK_REFERENCES = {
    0.3: -1.28752760546887822256445086041,
    1.0: -1.43593600683750714114488300935,
    1.7: -1.77024078043794969563062124436,
}


@pytest.mark.parametrize("h", sorted(_NEAR_KINK_REFERENCES))
def test_energy_density_near_a_kink_matches_the_reference(h):
    # jd = 1e-4 rounds the kink off; the integral is split at the band
    # minimum and converges on the first level of both pieces
    e = xy_energy_density(XYParams(1.0, 0.9999, h))
    assert e.nodes == 226
    assert abs(e.value - _NEAR_KINK_REFERENCES[h]) <= 1e-12


def _split_reference_energy(p):
    # scipy quad of E_k split at the rounded kink k* = arccos(-h/js) and at
    # k* +- 1e-2, 1e-4, 1e-6; on every 8th field of the sweeps below it agrees
    # with 30-digit mpmath.quad within 2.1e-14
    def energy(k):
        return 2.0 * math.sqrt((p.h + p.js * math.cos(k)) ** 2 + (p.jd * math.sin(k)) ** 2)

    edges = [0.0, math.pi]
    if abs(p.h) < abs(p.js):
        kink = math.acos(-p.h / p.js)
        edges += [kink + d for d in (0.0, -1e-2, 1e-2, -1e-4, 1e-4, -1e-6, 1e-6)]
    edges = sorted(x for x in edges if 0.0 <= x <= math.pi)
    total = sum(scipy_quad(energy, lo, hi, epsabs=1e-14, epsrel=0.0, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
    return -total / (2.0 * math.pi)


@pytest.mark.parametrize("jy", [0.999, 0.9999, 0.99999, 0.999999])
def test_near_kink_sweep_energies_are_within_tolerance(jy):
    # the energies of a 401-step sweep over h in [0, 4] next to the isotropic
    # line, whose kink is rounded off over a width of about jd: a rule that
    # stops when two estimates agree by chance misses here silently
    tol = QuadratureSpec().tol / (2.0 * math.pi)
    misses = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)   # round-off near the kink
        for h in np.linspace(0.0, 4.0, 401):
            p = XYParams(1.0, jy, float(h))
            miss = abs(xy_energy_density(p).value - _split_reference_energy(p))
            if miss > tol:
                misses.append((float(h), miss / tol))
    assert misses == []


def test_susceptibility_near_a_kink_is_the_gapless_value():
    # jd = 1e-6 is far below dh = 1e-3, so chi is the isotropic chain's
    # 1/(pi j sin k*) = 2/(pi sqrt 3) = 0.36755 at h = j = 1; one energy of
    # the stencil 4.7e-9 off reads 0.37663
    chi = xy_susceptibility(XYParams(1.0, 0.999999, 1.0))
    assert chi.value == pytest.approx(2.0 / (math.pi * math.sqrt(3.0)), abs=1e-4)


@pytest.mark.parametrize("params", [XYParams(2.0, 1.0, 1.5), XYParams(1.0, 0.0, 0.7),
                                    XYParams(1.0, 1.0, 2.5), DopoParams(2.0, 6.0, 1.0)],
                         ids=["2.0-1.0-1.5", "1.0-0.0-0.7", "1.0-1.0-2.5", "network"])
def test_unkinked_chain_takes_the_unsplit_path(params):
    # an energy density without a kink is one integral of its own band's root
    # over [0, pi], split only at the band minimum, scaled, bit for bit: (2, 1,
    # 1.5) has its minimum inside, the others at an end, where they go unsplit
    chain = isinstance(params, XYParams)
    band = xy_band(params) if chain else dopo_band(params)
    assert band.kinks() == ()
    quad = QuadratureSpec()
    k_min = math.acos(band.argmin())
    assert (0.0 < k_min < math.pi) == (params == XYParams(2.0, 1.0, 1.5))
    raw = integrate(band.root, 0.0, math.pi, quad, breaks=(k_min,))
    if not 0.0 < k_min < math.pi:
        assert raw == integrate(band.root, 0.0, math.pi, quad)
    scale = 1.0 / (2.0 * math.pi)
    value = -raw.value * scale if chain else raw.value * scale - 0.5 * params.delta
    density = xy_energy_density if chain else dopo_energy_density
    assert density(params, quad) == Integral(value, raw.error * scale, raw.nodes)
