"""Seeded-fuzz property tests for the chain solver."""

import numpy as np
import pytest

from xydopo.types import XYParams, build_grid
from xydopo.xy import xy_dispersion, xy_energy_density, xy_gap, xy_ground_energy_finite


def test_dispersion_even_in_k():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        jx, jy = rng.uniform(-3.0, 3.0, size=2)
        h = rng.uniform(-5.0, 5.0)
        k = rng.uniform(-np.pi, np.pi)
        p = XYParams(jx, jy, h)
        assert abs(xy_dispersion(p, k) - xy_dispersion(p, -k)) < 1e-12


def test_energy_density_even_in_h():
    rng = np.random.default_rng(11)
    for _ in range(6):
        jx, jy = rng.uniform(0.2, 3.0, size=2)
        h = rng.uniform(0.1, 4.0)
        plus = xy_energy_density(XYParams(jx, jy, h)).value
        minus = xy_energy_density(XYParams(jx, jy, -h)).value
        assert abs(plus - minus) < 5e-10


def test_coupling_swap_symmetry():
    # E_{(jy,jx)}(pi - k, -h) = E_{(jx,jy)}(k, h): the swapped spectrum over a
    # symmetric grid is the same set of values
    rng = np.random.default_rng(13)
    k = np.linspace(-np.pi, np.pi, 101)
    for _ in range(25):
        jx, jy = rng.uniform(0.1, 3.0, size=2)
        h = rng.uniform(-4.0, 4.0)
        direct = xy_dispersion(XYParams(jx, jy, h), k)
        swapped = xy_dispersion(XYParams(jy, jx, -h), np.pi - k)
        np.testing.assert_allclose(direct, swapped, atol=1e-12)
        np.testing.assert_allclose(np.sort(direct), np.sort(swapped), atol=1e-12)


def test_gap_law_anisotropic():
    # gap closes exactly at |h| = jx + jy (the band minimum sits at the band edge)
    # and is open elsewhere for jx != jy
    rng = np.random.default_rng(17)
    for _ in range(20):
        jx = rng.uniform(0.3, 3.0)
        jy = jx + rng.uniform(0.3, 2.0)
        hc = jx + jy
        assert xy_gap(XYParams(jx, jy, hc)) < 1e-9
        assert xy_gap(XYParams(jx, jy, -hc)) < 1e-9
        for off in (0.25, -0.25):
            assert xy_gap(XYParams(jx, jy, hc + off)) > 1e-3


def test_gapless_window_isotropic():
    # the isotropic chain is gapless throughout |h| <= 2j (the transition
    # fields are the window boundary); the band's double zero at
    # cos k* = -h/(2j) gives a gap of exactly zero
    j = 1.3
    for h in (0.0, 0.8, 1.9, 2.6):
        gap = xy_gap(XYParams(j, j, h))
        if abs(h) <= 2 * j:
            assert gap <= 1e-12
        else:
            assert gap == pytest.approx(2 * (abs(h) - 2 * j), rel=1e-6)


@pytest.mark.parametrize("jx,jy,h", [(1.0, 0.0, 2.0), (2.0, 1.0, 1.5), (1.0, 1.0, 1.0)])
def test_finite_size_sum_converges_to_density(jx, jy, h):
    # gapped dispersions converge much faster than 1/n (periodic trapezoid
    # sums), the kinked isotropic case algebraically; 1/n is a safe envelope
    p = XYParams(jx, jy, h)
    e_inf = xy_energy_density(p).value
    devs = []
    for n in (64, 128, 256, 512):
        e_n = xy_ground_energy_finite(p, build_grid(n)) / n
        devs.append(abs(e_n - e_inf))
        assert devs[-1] <= 1.0 / n
    assert devs[-1] <= devs[0] + 1e-12
