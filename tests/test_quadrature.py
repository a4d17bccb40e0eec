import math

import numpy as np
import pytest

from xydopo.quadrature import Integral, QuadratureSpec, integrate
from xydopo.types import NumericalError


def test_polynomial():
    res = integrate(lambda x: x ** 5, 0.0, 2.0)
    assert abs(res.value - 64.0 / 6.0) < 1e-12
    assert res.error < 1e-10


def test_smooth_trig():
    res = integrate(np.sin, 0.0, np.pi)
    assert abs(res.value - 2.0) < 1e-13


def test_kinked_integrand():
    # |cos k| has an interior kink at pi/2; with no break given, panel
    # doubling still converges, just algebraically
    spec = QuadratureSpec(tol=1e-10)
    res = integrate(lambda k: np.abs(np.cos(k)), 0.0, np.pi, spec)
    assert abs(res.value - 2.0) < 1e-9
    assert res.error < spec.tol


def test_budget_exhaustion_reports_achieved():
    # kink at pi/2 is not a dyadic fraction of [0, 1.8], so no panel edge
    # ever lands on it and the budget runs out at this tolerance
    spec = QuadratureSpec(tol=1e-14, max_nodes=256)
    with pytest.raises(NumericalError) as err:
        integrate(lambda k: np.abs(np.cos(k)), 0.0, 1.8, spec)
    assert err.value.achieved is not None
    assert err.value.achieved > 1e-14


def test_result_structure():
    res = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert isinstance(res, Integral)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.nodes >= 16


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_nodes=8)
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)


def _kinked(k):
    return np.abs(np.cos(k))


def test_breaks_sum_the_pieces():
    # the kink at pi/2 is a break; each piece gets tol in proportion to its length
    spec = QuadratureSpec(tol=1e-12)
    whole = integrate(_kinked, 0.0, 1.8, spec, breaks=(np.pi / 2, np.pi / 2))
    left = integrate(_kinked, 0.0, np.pi / 2, QuadratureSpec(tol=1e-12 * (np.pi / 2) / 1.8))
    right = integrate(_kinked, np.pi / 2, 1.8,
                      QuadratureSpec(tol=1e-12 * (1.8 - np.pi / 2) / 1.8))
    assert whole == Integral(left.value + right.value, left.error + right.error,
                             left.nodes + right.nodes)
    assert abs(whole.value - (2.0 - math.sin(1.8))) < 1e-14
    assert whole.error < spec.tol
    assert whole.nodes <= 64   # the same tolerance without the break runs out of 256 nodes


def test_breaks_share_one_node_budget():
    # each piece converges in 32 nodes; 48 would be enough for either piece
    # alone but not for both
    res = integrate(_kinked, 0.0, 1.8, QuadratureSpec(tol=1e-10, max_nodes=64),
                    breaks=(np.pi / 2,))
    assert res.nodes == 64
    with pytest.raises(NumericalError) as err:
        integrate(_kinked, 0.0, 1.8, QuadratureSpec(tol=1e-10, max_nodes=48),
                  breaks=(np.pi / 2,))
    assert err.value.achieved > 1e-10


def test_breaks_at_or_outside_the_interval_are_ignored():
    spec = QuadratureSpec()
    plain = integrate(np.sin, 0.0, np.pi, spec)
    assert integrate(np.sin, 0.0, np.pi, spec, breaks=(0.0, np.pi, -1.0, 4.0)) == plain
