import math

import numpy as np
import pytest

from xydopo.dopo import dopo_band, dopo_critical_detuning, dopo_gap, dopo_omega_squared
from xydopo.mapping import (
    _spectral_residuals,
    map_dopo_to_xy,
    map_energy_density,
    map_xy_to_dopo,
    verify_spectral_match,
)
from xydopo.types import DopoParams, SingularMapError, XYParams, build_grid
from xydopo.xy import xy_band, xy_critical_fields, xy_dispersion, xy_gap


def test_forward_map_anisotropic():
    for h in (1.0, 3.0):
        res = map_xy_to_dopo(XYParams(2.0, 1.0, h))
        assert res.j == pytest.approx(2 * math.sqrt(2.0))
        assert res.delta == pytest.approx(-3 * h / math.sqrt(2.0))
        assert res.d2 == pytest.approx(h * h / 2.0 - 4.0)
    assert not map_xy_to_dopo(XYParams(2.0, 1.0, 1.0)).is_physical
    assert map_xy_to_dopo(XYParams(2.0, 1.0, 3.0)).is_physical


def test_forward_map_isotropic_has_zero_drive():
    for h in (0.0, 1.3, 4.0):
        res = map_xy_to_dopo(XYParams(1.0, 1.0, h))
        assert res.j == pytest.approx(2.0)
        assert res.delta == pytest.approx(-2.0 * h)
        assert res.d2 == 0.0


def test_forward_map_near_ising():
    # exact arithmetic: delta = -10.1*h, not the rounded -10*h
    res = map_xy_to_dopo(XYParams(1.0, 0.01, 2.0))
    assert res.j == pytest.approx(0.2)
    assert res.delta == pytest.approx(-10.1 * 2.0)
    assert res.d2 == pytest.approx(0.99 ** 2 * (100 * 4.0 - 4.0))


def test_forward_map_errors():
    # the Ising limit and opposite signs get one error, which names the jy floor
    floor = "jy/jx above about 1e-6 for any mapped sweep, and about 1e-4 where chi matters"
    with pytest.raises(SingularMapError, match=r"jx\*jy > 0, got jx=1.0, jy=0.0") as err:
        map_xy_to_dopo(XYParams(1.0, 0.0, 1.0))
    assert floor in str(err.value)
    with pytest.raises(SingularMapError, match=r"jx\*jy > 0, got jx=1.0, jy=-0.5") as err:
        map_xy_to_dopo(XYParams(1.0, -0.5, 1.0))
    assert floor in str(err.value)


def test_inverse_map_examples():
    back = map_dopo_to_xy(DopoParams(2.0, -2.0, 0.0), 1.0)
    assert back.jx == pytest.approx(1.0) and back.jy == pytest.approx(1.0)
    fwd = map_xy_to_dopo(XYParams(2.0, 1.0, 3.0))
    back = map_dopo_to_xy(fwd, 3.0)
    assert back.jx == pytest.approx(2.0, abs=1e-10)
    assert back.jy == pytest.approx(1.0, abs=1e-10)
    # inconsistent triple fails the residual check
    assert map_dopo_to_xy(DopoParams(2.0, -5.0, -1.0), 1.0) is None


def test_inverse_map_zero_field():
    assert map_dopo_to_xy(DopoParams(2.0, -1.0, 0.0), 0.0) is None
    src = XYParams(3.0, 0.5, 0.0)
    fwd = map_xy_to_dopo(src)
    back = map_dopo_to_xy(fwd, 0.0)
    assert back.jx == pytest.approx(3.0, abs=1e-9)
    assert back.jy == pytest.approx(0.5, abs=1e-9)
    # a detuning within the residual's 1e-9 of zero: jd^2 = 1, jx*jy = 1
    d = DopoParams(2.0, 1e-12, -4.0)
    back = map_dopo_to_xy(d, 0.0)
    assert back.jx == pytest.approx((math.sqrt(5.0) + 1.0) / 2.0, abs=1e-12)
    assert back.jy == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    fwd = map_xy_to_dopo(back)
    assert abs(fwd.delta - d.delta) <= 1e-9 and abs(fwd.d2 - d.d2) <= 1e-9


def test_inverse_map_near_the_isotropic_line():
    # jx + jy = 2 - 5e-10 falls short of 2 sqrt(jx jy) = 2; the clipped pair
    # (s/2, 2/s) maps forward within 1e-9, so it is kept, with jy - jx equal
    # to the detuning residual
    d = DopoParams(2.0, -2.0 + 5e-10, 0.0)
    back = map_dopo_to_xy(d, 1.0)
    assert back.jx == pytest.approx(1.0, abs=1e-9) and back.jy == pytest.approx(1.0, abs=1e-9)
    fwd = map_xy_to_dopo(back)
    assert abs(fwd.delta - d.delta) <= 1e-9 and abs(fwd.d2 - d.d2) <= 1e-9
    assert back.jy - back.jx == pytest.approx(abs(fwd.delta - d.delta), rel=1e-6)
    assert map_dopo_to_xy(DopoParams(2.0, -2.0 + 2e-9, 0.0), 1.0) is None


@pytest.mark.parametrize("d, h", [
    (DopoParams(2.0, 0.0, 2e-9), 0.0),     # at h = 0, d2 = -4 jd^2 cannot be positive
    (DopoParams(2.0, 2.0, 0.0), 1.0),      # jx + jy = -delta (j/2)/h < 0
    (DopoParams(2.0, -1.0, 0.0), 1.0),     # jx + jy < 2 sqrt(jx jy)
    (DopoParams(1e-5, 0.0, 0.0), 1.0),     # jx + jy = -delta (j/2)/h = 0
], ids=["zero-field-drive", "negative-sum", "negative-discriminant", "zero-coupling"])
def test_inverse_map_without_solution(d, h):
    assert map_dopo_to_xy(d, h) is None


def test_inverse_map_requires_positive_hopping():
    with pytest.raises(ValueError):
        map_dopo_to_xy(DopoParams(0.0, -1.0, 0.0), 1.0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_inverse_map_refuses_a_non_finite_field(h):
    with pytest.raises(ValueError, match="^h must be a finite real number"):
        map_dopo_to_xy(DopoParams(2.0, -2.0, 0.0), h)


def test_inverse_keeps_a_pair_only_if_it_maps_back():
    # forward images of positive pairs, exact and with delta and d2 moved by
    # up to 1e-6: whatever comes back is an ordered positive pair at the same
    # field whose own image is within 1e-9, and every exact image comes back
    rng = np.random.default_rng(59)
    n = 10_000
    jxs, jys = rng.uniform(0.05, 4.0, size=(2, n))
    hs = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(-6.0, 6.0, n))
    moved = 10.0 ** rng.uniform(-16.0, -6.0, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
    moved *= rng.random(size=(n, 2)) < 0.8   # some stay exact
    for jx, jy, h, (dd, dd2) in zip(jxs.tolist(), jys.tolist(), hs.tolist(), moved.tolist()):
        image = map_xy_to_dopo(XYParams(jx, jy, h))
        for d, exact in ((image, True), (DopoParams(image.j, image.delta + dd, image.d2 + dd2), False)):
            back = map_dopo_to_xy(d, h)
            assert back is not None or not exact, (jx, jy, h)
            if back is not None:
                fwd = map_xy_to_dopo(back)
                assert back.jx >= back.jy > 0.0 and back.h == h, (d, h)
                assert abs(fwd.delta - d.delta) <= 1e-9 and abs(fwd.d2 - d.d2) <= 1e-9, (d, h)


@pytest.mark.parametrize("jx,jy,h", [(2.0, 1.0, 4.0), (1.0, 1.0, 1.5), (3.0, 0.5, 0.0)])
def test_spectral_match_examples(jx, jy, h):
    residual = verify_spectral_match(XYParams(jx, jy, h), build_grid(128))
    assert residual < 1e-10


def test_spectral_rows_equal_one_chain_calls():
    # validate's 209 chains in one (rows, n) pass, each row bit for bit the
    # one-chain residual that verify_spectral_match computed on its own
    from xydopo.sweep import _random_xy

    def one_chain(p, grid):
        e_sq = np.asarray(xy_dispersion(p, grid.points)) ** 2
        om_sq = np.asarray(dopo_omega_squared(map_xy_to_dopo(p), grid.points))
        return float(np.max(np.abs(e_sq - om_sq)))

    grid = build_grid(128)
    chains = [XYParams(jx, jy, h) for jx, jy in ((2.0, 1.0), (1.0, 1.0), (1.0, 0.01))
              for h in (0.5, 1.7, 3.3)] + _random_xy(1234, 200, 1e-3, -6.0, 6.0)
    rows = _spectral_residuals(chains, grid)
    assert rows.shape == (209,)
    for p, row in zip(chains, rows.tolist()):
        assert row == one_chain(p, grid), p
        assert verify_spectral_match(p, grid) == row, p


def _mapped_chains():
    rng = np.random.default_rng(16)
    for _ in range(500):
        jx, jy = rng.uniform(0.05, 3.0, size=2) * rng.choice([-1.0, 1.0])
        yield XYParams(jx, jy, rng.uniform(-6.0, 6.0))
    for j in (0.5, 1.0, 1.7, -1.0):   # isotropic, across the gapless window |h| < 2|j|
        for h in np.linspace(-2.0 * j, 2.0 * j, 21)[1:-1]:
            yield XYParams(j, j, float(h))


def test_mapped_bands_are_the_same_quadratic():
    # the map equates the coefficients of E_k^2 and Omega_k^2, so the two
    # bands agree as quadratics in cos k: values, minimum, gap and kinks
    c = np.linspace(-1.0, 1.0, 101)
    for p in _mapped_chains():
        mapped = map_xy_to_dopo(p)
        chain, network = xy_band(p), dopo_band(mapped)
        size = np.max(np.abs(chain(c)))
        assert np.max(np.abs(chain(c) - network(c))) <= 1e-13 * size, p
        assert abs(chain.minimum() - network.minimum()) <= 1e-13 * size, p
        assert abs(xy_gap(p) - dopo_gap(mapped)) <= 1e-9, p
        assert len(chain.kinks()) == len(network.kinks()) == (p.jx == p.jy), p
        assert np.allclose(chain.kinks(), network.kinks(), rtol=0.0, atol=1e-12), p


def test_round_trip_fuzz():
    rng = np.random.default_rng(41)
    for _ in range(100):
        jx, jy = rng.uniform(1e-2, 4.0, size=2)
        h = rng.uniform(0.1, 6.0) * rng.choice([-1.0, 1.0])
        fwd = map_xy_to_dopo(XYParams(jx, jy, h))
        back = map_dopo_to_xy(fwd, h)
        assert back is not None
        assert back.jx == pytest.approx(max(jx, jy), abs=1e-9)
        assert back.jy == pytest.approx(min(jx, jy), abs=1e-9)


def test_critical_point_transport():
    # at h = h_c the mapped drive is real and delta(h_c) equals the
    # -2j - drive threshold
    rng = np.random.default_rng(43)
    for _ in range(25):
        jx, jy = rng.uniform(0.05, 4.0, size=2)
        p = XYParams(jx, jy, 0.0)
        hc = max(h for h, _ in xy_critical_fields(p).values)
        mapped = map_xy_to_dopo(p.with_h(hc))
        assert mapped.is_physical
        assert abs(mapped.delta - dopo_critical_detuning(mapped)) < 1e-9


def test_isotropic_degeneracy():
    for j in (0.5, 1.0, 2.7):
        for h in (-3.0, 0.0, 1.1):
            assert map_xy_to_dopo(XYParams(j, j, h)).d2 == 0.0


def test_energy_shift_identity_random():
    # paramagnetic-side draws: the mapped network is gapped and stable
    rng = np.random.default_rng(47)
    for _ in range(100):
        jx, jy = rng.uniform(0.2, 3.0, size=2)
        h = jx + jy + rng.uniform(0.2, 3.0)
        rep = map_energy_density(XYParams(jx, jy, h))
        assert rep.stable
        assert abs(rep.residual) <= 2e-10


def test_energy_shift_identity_ordered_side():
    # d2 < 0 here, yet the signed convention keeps the network side defined
    # and the identity exact; the closed-form band minimum decides the report
    rep = map_energy_density(XYParams(2.0, 1.0, 1.0))
    assert rep.stable
    assert rep.e_dopo is not None
    assert abs(rep.residual) < 1e-9


def test_energy_shift_values_both_routes():
    rep = map_energy_density(XYParams(2.0, 1.0, 4.0))
    shift = 4.0 * 3.0 / (2.0 * math.sqrt(2.0))
    assert rep.e_dopo == pytest.approx(-rep.e_xy + shift, abs=1e-9)


@pytest.mark.parametrize("jy", [1e-8, 1e-9])
def test_energy_shift_report_unstable_below_the_floor(jy):
    # next to h_c the mapped network reads unstable by rounding, with both
    # window cosines past -1: the report says so instead of raising
    rep = map_energy_density(XYParams(1.0, jy, 1.0))
    assert rep.stable is False
    assert rep.e_dopo is None and rep.residual is None
    assert rep.e_xy == pytest.approx(-4.0 / math.pi, abs=1e-8)


@pytest.mark.parametrize("j,h", [(1.0, 0.5), (1.0, 1.0), (1.3, -1.9), (0.7, 0.0)])
def test_energy_shift_identity_undriven_network(j, h):
    # isotropic chains map to d2 = 0; both sides are split at their kink
    assert map_xy_to_dopo(XYParams(j, j, h)).d2 == 0.0
    rep = map_energy_density(XYParams(j, j, h))
    assert rep.stable
    assert abs(rep.residual) <= 1e-12
