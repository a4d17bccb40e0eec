import math

import numpy as np
import pytest

from xydopo.dopo import (
    dopo_classify_phase,
    dopo_critical_detuning,
    dopo_energy_density,
    dopo_epsilon,
    dopo_omega_squared,
    dopo_spectrum,
    dopo_squeezing,
    dopo_threshold_detunings,
    dopo_zero_point_energy,
)
from xydopo.mapping import map_xy_to_dopo
from xydopo.quadrature import QuadratureSpec
from xydopo.xy import xy_energy_density, xy_ground_energy_finite
from xydopo.types import (
    CRITICAL,
    NORMAL,
    SUPERRADIANT,
    DopoParams,
    NonphysicalDriveError,
    NoSqueezedVacuumError,
    UnstablePhaseError,
    XYParams,
    build_grid,
)


def test_epsilon_values():
    assert dopo_epsilon(DopoParams(2.0, -4.0, 0.0), np.pi) == pytest.approx(0.0, abs=1e-14)
    assert dopo_epsilon(DopoParams(0.0, 0.7, 0.0), 1.1) == pytest.approx(0.7)
    assert dopo_epsilon(DopoParams(2.0, -4.0, 0.0), 0.0) == pytest.approx(-8.0)


def test_omega_squared_values():
    assert dopo_omega_squared(DopoParams(2.0, -4.0, 0.0), np.pi) == pytest.approx(0.0, abs=1e-13)
    assert dopo_omega_squared(DopoParams(2.0, -4.0, 0.0), 0.0) == pytest.approx(64.0)
    # positive Omega^2 alone is not "stable" at zero drive; the classifier
    # owns the eps sign-change boundary
    assert dopo_omega_squared(DopoParams(2.0, -3.9, 0.0), np.pi) == pytest.approx(0.01)


def test_spectrum_is_signed():
    spec = dopo_spectrum(DopoParams(2.0, -3.0, 4.0), build_grid(8))
    assert np.any(spec.value < 0)


def test_zero_point_energy_decoupled():
    assert dopo_zero_point_energy(DopoParams(0.0, 1.0, 0.0), build_grid(4)) == 0.0


def test_zero_point_energy_two_modes():
    # k in {0, pi}: eps = -12, -4; Omega = |eps|
    assert dopo_zero_point_energy(DopoParams(2.0, -8.0, 0.0), build_grid(2)) == pytest.approx(16.0)


def test_zero_point_energy_matches_density_shift_at_finite_n():
    # mapped isotropic chain at h = 3: e_xy = -3 exactly, shift = 3
    mapped = map_xy_to_dopo(XYParams(1.0, 1.0, 3.0))
    zp = dopo_zero_point_energy(mapped, build_grid(64))
    assert zp == pytest.approx(64 * (3.0 + 3.0), abs=1e-9)
    # at a critical field min Omega^2 is rounding at k = pi, not an unstable mode:
    # the network's sum is the chain's -E on the same grid plus n times the shift
    for jx, jy, h in ((2.0, 1.0, 3.0), (2.0, 1.0, -3.0), (1.0, 0.01, 1.01), (1.0, 0.01, -1.01)):
        src = XYParams(jx, jy, h)
        shift = h * (jx + jy) / (2.0 * math.sqrt(jx * jy))
        for n in (2, 4, 8, 16, 32, 64):
            grid = build_grid(n)
            zp = dopo_zero_point_energy(map_xy_to_dopo(src), grid)
            assert zp == pytest.approx(n * shift - xy_ground_energy_finite(src, grid), abs=1e-9)


def test_zero_point_energy_unstable_modes_reported():
    p = DopoParams(2.0, -2.0, 1.0)  # |eps| < 1 around the interior zero of eps
    with pytest.raises(UnstablePhaseError) as err:
        dopo_zero_point_energy(p, build_grid(64))
    assert len(err.value.unstable_k) > 0
    assert all(dopo_omega_squared(p, k) < 0 for k in err.value.unstable_k)


def test_energy_density_decoupled_is_zero():
    assert dopo_energy_density(DopoParams(0.0, 1.0, 0.0)).value == pytest.approx(0.0, abs=1e-12)


def test_energy_density_unstable_window_endpoints():
    with pytest.raises(UnstablePhaseError) as err:
        dopo_energy_density(DopoParams(2.0, -2.0, 1.0))
    lo, hi = err.value.unstable_k
    assert 0.0 < lo < hi < np.pi
    mid = 0.5 * (lo + hi)
    assert dopo_omega_squared(DopoParams(2.0, -2.0, 1.0), mid) < 0
    # the image of XYParams(1, 1e-8, 1): its band minimum is past -STABILITY_TOL
    # by rounding, and both window cosines lie past -1, so the window is k = pi
    p = DopoParams(2e-4, -10000.0001, 99999994.00000007)
    with pytest.raises(UnstablePhaseError) as err:
        dopo_energy_density(p)
    assert err.value.unstable_k == (np.pi, np.pi)
    assert dopo_omega_squared(p, np.pi) < 0


@pytest.mark.parametrize("jx,jy,h", [(2.0, 1.0, 3.0), (1.0, 0.01, 1.01)])
def test_energy_density_stable_at_the_mapped_critical_field(jx, jy, h):
    # min Omega^2 is rounding here (about -7e-16 and -3e-14), not an unstable mode
    src = XYParams(jx, jy, h)
    e = dopo_energy_density(map_xy_to_dopo(src)).value
    e_xy = xy_energy_density(src).value
    assert e == pytest.approx(-e_xy + h * (jx + jy) / (2.0 * math.sqrt(jx * jy)), abs=1e-9)


def test_energy_density_whole_band_unstable_without_hopping():
    with pytest.raises(UnstablePhaseError):
        dopo_energy_density(DopoParams(0.0, 0.5, 1.0))


def test_squeezing_zero_drive():
    assert dopo_squeezing(DopoParams(1.0, 3.0, 0.0), 0.5).r == 0.0


def test_squeezing_values():
    res = dopo_squeezing(DopoParams(0.0, 2.0, 1.0), 0.3)
    assert res.r == pytest.approx(0.5 * math.atanh(0.5), abs=1e-12)
    assert res.theta == pytest.approx(np.pi / 2)
    res = dopo_squeezing(DopoParams(2.0, -4.0, 16.0), 0.0)  # eps_0 = -8, drive 4
    assert res.r == pytest.approx(0.5 * math.atanh(0.5), abs=1e-12)


def test_squeezing_reproduces_drive_ratio():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = DopoParams(rng.uniform(0, 2), rng.uniform(-8, -5), rng.uniform(0, 0.5))
        k = rng.uniform(0, np.pi)
        res = dopo_squeezing(p, k)
        ratio = math.sqrt(p.d2) / abs(dopo_epsilon(p, k))
        assert abs(math.tanh(2 * res.r) - ratio) < 1e-12


def test_squeezing_error_paths():
    with pytest.raises(NoSqueezedVacuumError):
        dopo_squeezing(DopoParams(2.0, -4.0, 1.0), np.pi)   # eps = 0
    with pytest.raises(NoSqueezedVacuumError):
        dopo_squeezing(DopoParams(0.0, 1.0, 4.0), 0.0)      # drive above |eps|
    with pytest.raises(NonphysicalDriveError):
        dopo_squeezing(DopoParams(0.0, 1.0, -1.0), 0.0)


def test_critical_detuning():
    assert dopo_critical_detuning(DopoParams(2.0, 0.0, 0.0)) == -4.0
    assert dopo_critical_detuning(DopoParams(0.2, 0.0, 0.0)) == pytest.approx(-0.4)
    assert dopo_critical_detuning(DopoParams(0.0, 0.0, 1.0)) == -1.0
    assert dopo_critical_detuning(DopoParams(-2.0, 0.0, 1.0)) == -5.0
    with pytest.raises(NonphysicalDriveError):
        dopo_critical_detuning(DopoParams(2.0, 0.0, -1.0))


def test_threshold_detunings():
    assert dopo_threshold_detunings(DopoParams(2.0, 0.0, 1.0)) == (-5.0, -3.0, 3.0, 5.0)


def test_classify_examples():
    assert dopo_classify_phase(DopoParams(2.0, -6.0, 0.0)) == NORMAL
    assert dopo_classify_phase(DopoParams(2.0, -2.0, 1.0)) == SUPERRADIANT
    assert dopo_classify_phase(DopoParams(2.0, -5.0, 1.0)) == CRITICAL


def test_classify_superradiant_wherever_the_energy_density_is_unstable():
    # a weak drive opens a narrow unstable dip inside the band, with minimum
    # Omega^2 = -d2; (0.5, -0.968, 1e-8) is one such point
    points = [DopoParams(0.5, -0.968, 1e-8)] + [
        DopoParams(j, delta, d2)
        for d2 in (0.0, 1e-12, 1e-8, 1e-6, 1.0, 4.0)
        for j in (0.0, 0.5, 1.0, 2.0)
        for delta in np.linspace(-8.0, 8.0, 401)
    ]
    loose = QuadratureSpec(tol=1e-3)  # only whether it raises matters here
    wrong = []
    for p in points:
        try:
            dopo_energy_density(p, loose)
        except UnstablePhaseError:
            if dopo_classify_phase(p) != SUPERRADIANT:
                wrong.append(p)
    assert not wrong, wrong[:5]
    with pytest.raises(UnstablePhaseError):
        dopo_energy_density(points[0])


def test_classify_zero_drive_boundary():
    # with no drive: normal iff eps_k has no zero in the band, i.e.
    # delta outside [-2j, 2j]; the band edges are critical
    j = 2.0
    for delta in (-6.0, -4.5, 4.5, 6.0):
        assert dopo_classify_phase(DopoParams(j, delta, 0.0)) == NORMAL
    for delta in (-3.9, -1.0, 0.0, 2.5, 3.9):
        assert dopo_classify_phase(DopoParams(j, delta, 0.0)) == SUPERRADIANT
    for delta in (-4.0, 4.0):
        assert dopo_classify_phase(DopoParams(j, delta, 0.0)) == CRITICAL


def test_omega_squared_even_in_k():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = DopoParams(rng.uniform(-3, 3), rng.uniform(-6, 6), rng.uniform(-4, 4))
        k = rng.uniform(-np.pi, np.pi)
        assert abs(dopo_omega_squared(p, k) - dopo_omega_squared(p, -k)) < 1e-12


def test_threshold_consistency():
    rng = np.random.default_rng(29)
    for _ in range(20):
        j = rng.uniform(0.1, 3.0)
        d2 = rng.uniform(0.0, 4.0)
        drive = math.sqrt(d2)
        at = DopoParams(j, -2 * j - drive, d2)
        k = np.linspace(0.0, np.pi, 4001)
        assert abs(np.min(dopo_omega_squared(at, k))) < 1e-10
        assert dopo_classify_phase(at) == CRITICAL
        assert dopo_classify_phase(at.with_delta(at.delta - 0.1)) == NORMAL
        assert dopo_classify_phase(at.with_delta(at.delta + 0.1)) == SUPERRADIANT


def test_zero_point_sum_converges_to_density():
    p = DopoParams(1.5, -7.0, 2.0)   # comfortably stable
    e_inf = dopo_energy_density(p).value
    for n in (32, 64, 128):
        zp = dopo_zero_point_energy(p, build_grid(n)) / n
        assert abs(zp - e_inf) <= 1.0 / n
