import io
import math
import tracemalloc

import numpy as np
import pytest

from xydopo import quadrature
from xydopo.band import CosBand, stack
from xydopo.quadrature import Integral, QuadratureSpec, integrate
from xydopo.sweep import preset_config, run_sweep, write_csv
from xydopo.types import NumericalError


def test_polynomial():
    res = integrate(lambda x: x ** 5, 0.0, 2.0)
    assert abs(res.value - 64.0 / 6.0) < 1e-12
    assert res.error < 1e-10


def test_smooth_trig():
    res = integrate(np.sin, 0.0, np.pi)
    assert abs(res.value - 2.0) < 1e-13


def test_kinked_integrand():
    # |cos k| has an interior kink at pi/2, passed as a break: each piece is
    # analytic, and the first level of both converges
    spec = QuadratureSpec(tol=1e-10)
    res = integrate(lambda k: np.abs(np.cos(k)), 0.0, np.pi, spec, breaks=(np.pi / 2,))
    assert abs(res.value - 2.0) < 1e-14
    assert res.error < spec.tol
    assert res.nodes == 226


def test_budget_exhaustion_reports_achieved(monkeypatch):
    # the kink at pi/2 is not passed as a break, so the rule converges only
    # algebraically: levels 4 and 5 (225 nodes) fall short of this tolerance
    monkeypatch.setattr(quadrature, "_MAX_NODES", 256)
    spec = QuadratureSpec(tol=1e-14)
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
    for tol in (0.0, math.inf):  # an infinite tol would accept the first two estimates
        with pytest.raises(ValueError, match="tol must be positive"):
            QuadratureSpec(tol=tol)
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)



@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)],
                         ids=["plus-inf", "minus-inf", "nan-a", "nan-b"])
def test_non_finite_limits_are_refused_before_any_work(a, b):
    # an infinite or NaN limit would otherwise climb to the node budget on NaN nodes
    calls = []
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda x: calls.append(x) or np.exp(x), a, b)
    assert calls == []


def _kinked(k):
    return np.abs(np.cos(k))


def test_breaks_sum_the_pieces(monkeypatch):
    # the kink at pi/2 is a break (given twice, counted once); the pieces
    # share one tol, so the error is summed over both, and each piece alone
    # gives the same value
    spec = QuadratureSpec(tol=1e-12)
    whole = integrate(_kinked, 0.0, 1.8, spec, breaks=(np.pi / 2, np.pi / 2))
    left = integrate(_kinked, 0.0, np.pi / 2, spec)
    right = integrate(_kinked, np.pi / 2, 1.8, spec)
    assert abs(whole.value - (left.value + right.value)) <= 1e-15
    assert abs(whole.value - (2.0 - math.sin(1.8))) < 1e-14
    assert whole.error < spec.tol
    assert whole.nodes == left.nodes + right.nodes == 226
    monkeypatch.setattr(quadrature, "_MAX_NODES", 1 << 12)
    with pytest.raises(NumericalError):   # the same tolerance without the break
        integrate(_kinked, 0.0, 1.8, spec)


def test_breaks_share_one_node_budget(monkeypatch):
    # both pieces converge on the first level, 113 nodes each: a budget of
    # 225 would hold either piece alone but not both
    spec = QuadratureSpec(tol=1e-10)
    monkeypatch.setattr(quadrature, "_MAX_NODES", 226)
    res = integrate(_kinked, 0.0, 1.8, spec, breaks=(np.pi / 2,))
    assert res.nodes == 226
    monkeypatch.setattr(quadrature, "_MAX_NODES", 225)
    with pytest.raises(NumericalError) as err:
        integrate(_kinked, 0.0, 1.8, spec, breaks=(np.pi / 2,))
    assert err.value.achieved > 1e-10


def test_breaks_at_or_outside_the_interval_are_ignored():
    spec = QuadratureSpec()
    plain = integrate(np.sin, 0.0, np.pi, spec)
    assert integrate(np.sin, 0.0, np.pi, spec, breaks=(0.0, np.pi, -1.0, 4.0)) == plain


# --- the nested levels and their cached tables -------------------------------

def _direct_rule(f, a, b, level):
    # level `level` of tanh-sinh on [a, b] in one sum over its whole grid,
    # built from the substitution itself, with no nesting and no cache
    t = np.arange(-3.5, 3.5 + 2.0 ** -level / 2, 2.0 ** -level)
    s = 0.5 * np.pi * np.sinh(t)
    x = a + (b - a) * (1.0 + np.tanh(s)) / 2.0
    w = (b - a) * 2.0 ** -level * 0.25 * np.pi * np.cosh(t) / np.cosh(s) ** 2
    return float(np.dot(f(x), w))


@pytest.mark.parametrize("f, a, b, breaks", [
    (np.sin, 0.0, np.pi, ()),                                           # level 4
    (lambda k: np.sqrt(np.cos(k) ** 2 + 1e-2), 0.0, np.pi, ()),         # level 8
    (lambda k: np.sqrt(np.cos(k) ** 2 + 1e-4), 0.0, 1.8, (np.pi / 2,)),  # level 5
    (lambda k: np.sqrt(np.cos(k) ** 2 + 1e-4), 0.0, np.pi, ()),         # level 11
], ids=["sin", "band", "break-split", "past-the-cache"])
def test_cached_layouts_match_the_reference_construction(f, a, b, breaks):
    # every level is the previous one halved plus its new nodes: the result
    # equals the whole grid of the level it stopped at, summed directly
    quadrature._table.cache_clear()
    spec = QuadratureSpec(tol=1e-13)
    cold = integrate(f, a, b, spec, breaks)
    assert integrate(f, a, b, spec, breaks) == cold
    edges = [a, *breaks, b]
    per_piece = cold.nodes // (len(edges) - 1)
    level = int(math.log2((per_piece - 1) // 7))
    assert per_piece == 7 * 2 ** level + 1
    direct = sum(_direct_rule(f, lo, hi, level) for lo, hi in zip(edges[:-1], edges[1:]))
    assert abs(cold.value - direct) <= 4e-16 * abs(direct)
    for cached in range(4, min(level, 10) + 1):
        for table in quadrature._table(cached):
            assert not table.flags.writeable
    assert quadrature._table.cache_info().currsize == min(level, 10) - 3


def test_integrand_cannot_write_into_a_cached_layout():
    # the integrand gets a fresh array of abscissae, so writing into it
    # changes no later result
    spec = QuadratureSpec()
    before = integrate(np.sin, 0.0, np.pi, spec)

    def vandal(k):
        k *= 2.0
        return np.sin(k)

    assert abs(integrate(vandal, 0.0, np.pi, spec).value) < 1e-14
    assert integrate(np.sin, 0.0, np.pi, spec) == before


def test_layout_cache_memory_stays_within_its_stated_bound():
    # the module docstring states the tables of levels 4-10: 7,169 nodes,
    # 114,704 bytes of arrays, under 128 KiB with their objects
    cached = sum(quadrature._table(level)[0].size for level in range(4, 11))
    assert cached == 7169 and 2 * 8 * cached == 114_704
    bound = 128 * 2 ** 10
    # an integrand that never converges runs every level up to the budget
    # (level 17, 917,505 nodes); caching a level above 10 would break the bound
    spec = QuadratureSpec(tol=1e-300)
    quadrature._table.cache_clear()
    tracemalloc.start()
    try:
        held_before = tracemalloc.get_traced_memory()[0]
        for i in range(2):
            with pytest.raises(NumericalError, match="within 1048576 nodes"):
                integrate(lambda k: np.sin(1e4 * k), 0.0, 1.0 + i, spec)
        held = tracemalloc.get_traced_memory()[0] - held_before
    finally:
        tracemalloc.stop()
    assert quadrature._table.cache_info().currsize == 7
    assert held <= bound


def test_preset_bytes_do_not_depend_on_the_cache_state():
    def preset_csv(name):
        buf = io.StringIO()
        write_csv(run_sweep(preset_config(name, outputs="e_g,m_z,chi,phase,gap")), buf)
        return buf.getvalue()

    quadrature._table.cache_clear()
    cold = preset_csv("fig2-aniso")
    preset_csv("fig3-right")
    preset_csv("fig2-tfi")
    assert quadrature._table.cache_info().hits > 0
    assert preset_csv("fig2-aniso") == cold


# --- rows: one integrand call per level for several integrals ----------------

def _chain_band(jx, jy, h):
    return CosBand(2.0 * h, 2.0 * (jx + jy), 4.0 * (jx - jy) ** 2)


def _alone_and_as_rows(bands, spec):
    breaks = [(math.acos(band.argmin()),) for band in bands]
    alone = [integrate(band.root, 0.0, math.pi, spec, row) for band, row in zip(bands, breaks)]
    return alone, integrate(stack(bands).root, 0.0, math.pi, spec, breaks)


def test_rows_equal_their_calls_alone_to_the_bit():
    # a 2-piece row at level 4, a 2-piece row that needs level 5, and a row
    # whose break (its band minimum) lies at the interval end pi, so that it has
    # one piece: each row's value, error and nodes are its own call's, bit for bit
    spec = QuadratureSpec()
    bands = [_chain_band(1.0, 0.9, 0.5), _chain_band(1.0, 0.99, 1.0), _chain_band(1.0, 0.9, 2.5)]
    alone, rows = _alone_and_as_rows(bands, spec)
    assert [r.nodes for r in alone] == [226, 450, 113]
    assert math.acos(bands[2].argmin()) == math.pi
    assert rows.value == tuple(r.value for r in alone)
    assert rows.error == tuple(r.error for r in alone)
    assert rows.nodes == sum(r.nodes for r in alone) == 789


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
def test_rows_of_many_pieces_equal_their_calls_alone(order):
    # rows of 2, 5 and 3 pieces, in any order: each is reduced over its own
    # pieces only, so the padding of the narrower rows changes no bit
    eps = np.array([1e-2, 1e-4, 1e-3])[list(order)]
    cuts = [(np.pi / 2,), (0.5, 1.0, np.pi / 2, 2.0), (np.pi / 2, 2.5, 0.0)]
    cuts = [cuts[i] for i in order]
    spec = QuadratureSpec(tol=1e-12)
    alone = [integrate(lambda k, e=e: np.sqrt(np.cos(k) ** 2 + e), 0.0, np.pi, spec, c)
             for e, c in zip(eps, cuts)]
    rows = integrate(lambda k: np.sqrt(np.cos(k) ** 2 + eps[:, None]), 0.0, np.pi, spec, cuts)
    assert rows == (tuple(r.value for r in alone), tuple(r.error for r in alone),
                    sum(r.nodes for r in alone))


def test_a_row_out_of_budget_raises_its_own_achieved_error(monkeypatch):
    # the kinked row without its break runs out of a budget that holds the
    # smooth rows; the call raises what that row raises alone
    monkeypatch.setattr(quadrature, "_MAX_NODES", 256)
    spec = QuadratureSpec(tol=1e-14)
    with pytest.raises(NumericalError) as alone:
        integrate(_kinked, 0.0, 1.8, spec)
    smooth = QuadratureSpec(tol=1e-14)
    assert integrate(np.sin, 0.0, 1.8, smooth).nodes <= 256
    rows = lambda k: np.where(np.arange(3)[:, None] == 1, _kinked(k), np.sin(k))
    with pytest.raises(NumericalError) as together:
        integrate(rows, 0.0, 1.8, spec, [(), (), ()])
    assert together.value.achieved == alone.value.achieved > 1e-14
    assert str(together.value) == str(alone.value)


def test_one_row_is_the_scalar_call():
    # a list holding one row of breaks gives the scalar call's numbers as tuples
    spec = QuadratureSpec()
    plain = integrate(_kinked, 0.0, 1.8, spec, (np.pi / 2,))
    assert integrate(_kinked, 0.0, 1.8, spec, [(np.pi / 2,)]) == \
        ((plain.value,), (plain.error,), plain.nodes)
    assert integrate(_kinked, 0.0, 1.8, spec, [np.array(np.pi / 2)]) == plain  # a 0-d break
