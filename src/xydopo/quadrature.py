"""Composite Gauss-Legendre quadrature with panel doubling.

The integrand is evaluated on 16-node Gauss-Legendre panels; the panel count
doubles until two successive estimates agree to the requested absolute
tolerance or the node budget is exhausted. The reported error is the last
refinement change.

Panel doubling converges fast only on an integrand that is smooth on the
whole interval. A kink (the gap-closing point of a band) is passed as a
break point: the interval is split there and each smooth piece is doubled on
its own, so the kink always sits on a panel edge.

Panel layouts (abscissae and weights) are built on [0, pi], the interval of
every band energy, and cached read-only by panel count: the 9 layouts of at
most 4096 nodes, 128 KiB of arrays (under 160 KiB with their objects). Larger
layouts are built per call. [0, pi] uses the nodes as they are; any other
interval, a kink piece included, uses their affine image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .types import NumericalError

_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
_LAYOUT_MAX_NODES = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance and node budget for the panel-doubling integrator."""

    tol: float = 1e-10
    max_nodes: int = 1 << 20

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_nodes < _ORDER:
            raise ValueError(f"max_nodes must be at least {_ORDER}, got {self.max_nodes}")


class Integral(NamedTuple):
    value: float
    error: float    # change over the last panel doubling, summed over the pieces
    nodes: int      # node count of the accepted refinement, summed over the pieces


@lru_cache(maxsize=9)  # panel counts 1, 2, 4, ..., 256: every layout of at most 4096 nodes
def _layout(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only abscissae and weights of `panels` equal panels on [0, pi]."""
    edges = np.linspace(0.0, math.pi, panels + 1)
    half = 0.5 * math.pi / panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half * _NODES[None, :]).ravel()
    wts = np.tile(half * _WEIGHTS, panels)
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def _panel_doubling(f, a: float, b: float, tol: float, max_nodes: int) -> Integral:
    """Double the panels on [a, b] until two estimates agree to tol.

    When the budget runs out first, the last estimate comes back with an
    error of at least tol (inf if there was only one estimate).
    """
    scale = (b - a) / math.pi   # exactly 1 on [0, pi], where the nodes are used as they are
    unmapped = (a, b) == (0.0, math.pi)
    panels = 1
    prev = np.nan
    change = np.inf
    while panels * _ORDER <= max_nodes:
        layout = _layout if panels * _ORDER <= _LAYOUT_MAX_NODES else _layout.__wrapped__
        pts, wts = layout(panels)
        x = pts if unmapped else a + scale * pts
        est = scale * float(np.dot(np.asarray(f(x), dtype=float), wts))
        if panels > 1:
            change = abs(est - prev)
            if change < tol:
                return Integral(est, change, panels * _ORDER)
        prev = est
        panels *= 2
    return Integral(prev, change, panels // 2 * _ORDER)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              spec: QuadratureSpec = QuadratureSpec(),
              breaks: Iterable[float] = ()) -> Integral:
    """Integrate a vectorized integrand over [a, b].

    Parameters
    ----------
    f : callable mapping an ndarray of abscissae to an ndarray of values;
        the abscissae may be cached and are then read-only.
    a, b : integration limits, a < b.
    spec : tolerance and node budget, both for the whole integral.
    breaks : points where f has a kink; those strictly inside (a, b) split
        the interval. Each piece gets a share of spec.tol in proportion to
        its length, and the nodes left over by the pieces before it, less
        the 32 each later piece needs to converge at all.

    Returns an Integral(value, error, nodes), each summed over the pieces;
    raises NumericalError carrying the achieved tolerance when the budget
    runs out before convergence.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = [float(a), *sorted({float(x) for x in breaks if a < x < b}), float(b)]
    pieces = len(edges) - 1
    value = error = 0.0
    nodes = 0
    for i in range(pieces):
        lo, hi = edges[i], edges[i + 1]
        tol = spec.tol if pieces == 1 else spec.tol * (hi - lo) / (b - a)
        budget = spec.max_nodes - nodes - 2 * _ORDER * (pieces - 1 - i)
        part = _panel_doubling(f, lo, hi, tol, budget)
        error += part.error
        if not part.error < tol:
            raise NumericalError(
                f"quadrature did not reach tol={spec.tol:g} within {spec.max_nodes} nodes "
                f"(achieved {error:g})",
                achieved=float(error),
            )
        value += part.value
        nodes += part.nodes
    return Integral(value, error, nodes)
