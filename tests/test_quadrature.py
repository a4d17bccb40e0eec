import io
import math
import tracemalloc

import numpy as np
import pytest

from xydopo import quadrature
from xydopo.quadrature import _NODES, _WEIGHTS, Integral, QuadratureSpec, integrate
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
    for tol in (0.0, math.inf):  # an infinite tol would accept the first two estimates
        with pytest.raises(ValueError, match="tol must be positive"):
            QuadratureSpec(tol=tol)
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


# --- the panel layout cache ------------------------------------------------

_CACHED_PANELS = (1, 2, 4, 8, 16, 32, 64, 128, 256)   # every layout of at most 4096 nodes


def _reference_panels(a, b, panels):
    # the layout construction as written before layouts were cached
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (b - a) / panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half * _NODES[None, :]).ravel()
    wts = np.tile(half * _WEIGHTS, panels)
    return pts, wts


def _reference_doubling(f, a, b, tol, max_nodes):
    # panel doubling on layouts built per call on [a, b] itself, as before
    # layouts were cached
    panels, prev, change = 1, np.nan, np.inf
    while panels * 16 <= max_nodes:
        pts, wts = _reference_panels(a, b, panels)
        est = float(np.dot(f(pts), wts))
        if panels > 1:
            change = abs(est - prev)
            if change < tol:
                return Integral(est, change, panels * 16)
        prev = est
        panels *= 2
    return Integral(prev, change, panels // 2 * 16)


@pytest.mark.parametrize("f, a, b, breaks", [
    (np.sin, 0.0, np.pi, ()),
    (lambda k: np.sqrt(1.0 + 0.5 * np.cos(k)), 0.0, np.pi, ()),
    (_kinked, 0.0, 1.8, (np.pi / 2,)),
], ids=["sin", "band", "break-split"])
def test_cached_layouts_match_the_reference_construction(monkeypatch, f, a, b, breaks):
    spec = QuadratureSpec(tol=1e-13)
    quadrature._layout.cache_clear()
    cold = integrate(f, a, b, spec, breaks)
    warm = integrate(f, a, b, spec, breaks)
    for panels in (*_CACHED_PANELS, 512):
        for got, want in zip(quadrature._layout(panels), _reference_panels(0.0, np.pi, panels)):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    monkeypatch.setattr(quadrature, "_panel_doubling", _reference_doubling)
    reference = integrate(f, a, b, spec, breaks)
    assert cold == warm
    if (a, b, breaks) == (0.0, np.pi, ()):
        assert cold == reference    # [0, pi] uses the cached nodes as they are
    else:
        # each piece uses the affine image of the [0, pi] nodes, which rounds
        # differently from nodes built on the piece itself
        assert cold.nodes == reference.nodes
        assert abs(cold.value - reference.value) <= 1e-15
        assert abs(cold.error - reference.error) <= 1e-15


def test_integrand_cannot_write_into_a_cached_layout():
    spec = QuadratureSpec()
    before = integrate(np.sin, 0.0, np.pi, spec)

    def vandal(k):
        k *= 2.0
        return np.sin(k)

    with pytest.raises(ValueError):
        integrate(vandal, 0.0, np.pi, spec)
    assert integrate(np.sin, 0.0, np.pi, spec) == before


def test_layout_cache_holds_at_most_its_entry_bound():
    quadrature._layout.cache_clear()
    for i in range(300):
        kink = 0.5 + 2.0 * i / 300
        integrate(lambda k, c=math.cos(kink): np.abs(np.cos(k) - c), 0.0, np.pi,
                  breaks=(kink,))
        integrate(np.cos, 0.0, 1.0 + i / 300)
        assert quadrature._layout.cache_info().currsize <= len(_CACHED_PANELS)


def test_layout_cache_memory_stays_within_its_stated_bound():
    # the module docstring states 9 layouts, 128 KiB of arrays, under 160 KiB
    # with their objects
    assert sum(p * quadrature._ORDER * 2 * 8 for p in _CACHED_PANELS) <= 128 * 2 ** 10
    bound = 160 * 2 ** 10
    # integrands that never converge drive every interval to a 65,536-node
    # budget; caching any layout above the node cap would break the bound
    spec = QuadratureSpec(tol=1e-300, max_nodes=1 << 16)
    quadrature._layout.cache_clear()
    tracemalloc.start()
    try:
        held_before = tracemalloc.get_traced_memory()[0]
        for i in range(2 * len(_CACHED_PANELS)):
            with pytest.raises(NumericalError):
                integrate(lambda k: np.sin(1e4 * k), 0.0, 1.0 + i, spec)
        held = tracemalloc.get_traced_memory()[0] - held_before
    finally:
        tracemalloc.stop()
    assert quadrature._layout.cache_info().currsize == len(_CACHED_PANELS)
    assert held <= bound


def test_kinked_sweep_reuses_every_layout(monkeypatch):
    # np.tile is called by the layout construction alone, so a counting tile
    # sees every layout built; a kink piece on a new interval builds none
    def sweep(shift):
        cfg = preset_config("fig2-iso", steps=41, start=shift, stop=4.0 + shift,
                            outputs="e_g,m_z,chi")
        return list(run_sweep(cfg))

    sweep(0.0)
    tiles = []
    real_tile = np.tile
    monkeypatch.setattr(np, "tile", lambda a, reps: tiles.append(reps) or real_tile(a, reps))
    sweep(0.3 * 4.0 / 40)
    assert tiles == []
    assert quadrature._layout.cache_info().currsize <= len(_CACHED_PANELS)


def test_preset_bytes_do_not_depend_on_the_cache_state():
    def preset_csv(name):
        buf = io.StringIO()
        write_csv(run_sweep(preset_config(name, outputs="e_g,m_z,chi,phase,gap")), buf)
        return buf.getvalue()

    quadrature._layout.cache_clear()
    cold = preset_csv("fig2-aniso")
    preset_csv("fig3-right")
    preset_csv("fig2-tfi")
    assert quadrature._layout.cache_info().hits > 0
    assert preset_csv("fig2-aniso") == cold
