import math

import numpy as np
import pytest

from xydopo.types import (
    ANTIPERIODIC,
    PERIODIC,
    DopoParams,
    NonphysicalDriveError,
    Spectrum,
    SPECTRUM_OMEGA_SQUARED,
    XYParams,
    build_grid,
)


def test_periodic_grid_n4():
    g = build_grid(4, PERIODIC)
    np.testing.assert_allclose(g.points, [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-15)


def test_periodic_grid_n2_smallest():
    np.testing.assert_allclose(build_grid(2).points, [0.0, np.pi], atol=1e-15)


def test_antiperiodic_grid_n4():
    # (2m+1)*pi/4 for m = -2..1
    g = build_grid(4, ANTIPERIODIC)
    np.testing.assert_allclose(
        g.points, [-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4], atol=1e-15
    )


@pytest.mark.parametrize("n", [3, 0, -2, 7])
def test_bad_sizes_rejected(n):
    with pytest.raises(ValueError):
        build_grid(n)


@pytest.mark.parametrize("n", [4.0, True])
def test_non_integer_sizes_rejected(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        build_grid(n)


def test_bad_sector_rejected():
    with pytest.raises(ValueError):
        build_grid(4, "open")


@pytest.mark.parametrize("sector", [PERIODIC, ANTIPERIODIC])
@pytest.mark.parametrize("n", [2, 4, 6, 16, 64, 130])
def test_cosine_sum_vanishes(n, sector):
    # used by the energy-shift identity at finite n
    assert abs(np.sum(np.cos(build_grid(n, sector).points))) < 1e-12


def test_grid_negation_symmetry():
    for n in (4, 8, 32):
        periodic = set(np.round(build_grid(n, PERIODIC).points, 12))
        unpaired = {0.0, round(np.pi, 12)}
        paired = periodic - unpaired
        assert {-k for k in paired} == paired
        anti = set(np.round(build_grid(n, ANTIPERIODIC).points, 12))
        assert {-k for k in anti} == anti


def test_grid_points_read_only():
    g = build_grid(4)
    with pytest.raises(ValueError):
        g.points[0] = 0.0


def test_xy_params_derived_quantities():
    p = XYParams(2.0, 1.0, 0.5)
    assert p.js == 3.0 and p.jd == 1.0
    assert p.with_h(4.0) == XYParams(2.0, 1.0, 4.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 pytest.param(np.float64("nan"), id="np-nan"), "x"])
def test_params_must_be_finite(bad):
    with pytest.raises(ValueError, match="^jy must be a finite"):
        XYParams(1.0, bad, 0.0)
    with pytest.raises(ValueError, match="^d2 must be a finite"):
        DopoParams(1.0, 0.0, bad)


@pytest.mark.parametrize("value", [3, np.float64(0.1), np.float32(0.1), True])
def test_params_store_exact_python_floats(value):
    for p in (XYParams(value, value, value), DopoParams(value, value, value)):
        for name in p.__match_args__:
            assert type(getattr(p, name)) is float and getattr(p, name) == float(value)
        with pytest.raises(AttributeError):  # still frozen
            setattr(p, p.__match_args__[0], 2.0)


def test_params_immutable():
    p = XYParams(1.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        p.h = 2.0


def test_signed_drive():
    d = DopoParams(2.0, -4.0, -3.5)
    assert not d.is_physical
    with pytest.raises(NonphysicalDriveError):
        d.drive()
    assert DopoParams(0.0, 0.0, 4.0).drive() == 2.0


def test_spectrum_invariants():
    k = np.array([0.0, 1.0, 2.0])
    Spectrum(k, np.array([1.0, 0.0, 3.0]))
    with pytest.raises(ValueError):
        Spectrum(k, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Spectrum(k[::-1].copy(), np.array([1.0, 0.0, 3.0]))
    with pytest.raises(ValueError):
        Spectrum(k, np.array([1.0, -0.5, 3.0]))
    # signed squared spectra may be negative
    Spectrum(k, np.array([1.0, -0.5, 3.0]), kind=SPECTRUM_OMEGA_SQUARED)
