"""Nested tanh-sinh quadrature (Takahasi & Mori, Publ. RIMS 9, 721 (1974)).

Level L is the trapezoidal rule with step 2^-L in t, |t| <= 3.5, after the
substitution x = (1 + tanh((pi/2) sinh t))/2 of the unit interval, mapped
affinely onto each piece of [a, b]. Its nodes cluster double-exponentially at
the ends of a piece, so an integrand that is analytic inside each piece,
however sharply it bends at an end, converges in a few levels.

Level L holds the nodes of level L-1, so each level adds only its new ones.
The first call evaluates all of level 4 (113 nodes a piece) and takes level 3
inside it as the first error estimate. The reported error is the change over
the last level, summed over the pieces.

One call may hold several integrals over [a, b], its rows, each with its own
breaks, tolerance and node budget. All rows share one integrand call per
level, and each row stops at its own level with the bits of a call of its
own: it is reduced over its own pieces only, in that call's BLAS shape.

Node tables are cached read-only up to level 10: 7,169 nodes, 114,704 bytes
of arrays (under 128 KiB with their objects). Higher levels are built per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .types import NumericalError

_FIRST, _CACHED = 4, 10   # the first level, and the last one whose table is cached


def _nodes_through(level: int) -> int:
    """Nodes of one piece up to `level`: t = j/2^level for |t| <= 3.5."""
    return 7 * 2 ** level + 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance and node budget of each integral (each row) of the
    tanh-sinh integrator; the budget must hold the first level of one piece."""

    tol: float = 1e-10
    max_nodes: int = 1 << 20

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_nodes < _nodes_through(_FIRST):
            raise ValueError(f"max_nodes must be at least {_nodes_through(_FIRST)}, "
                             f"got {self.max_nodes}")


class Integral(NamedTuple):
    value: float    # for rows, a tuple of one value per row
    error: float    # change over the last level, summed over the pieces; per row for rows
    nodes: int      # integrand evaluations a row needed, summed over the levels, pieces and rows


@lru_cache(maxsize=_CACHED - _FIRST + 1)
def _table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only unit-interval nodes and step-scaled weights new at `level`,
    the odd multiples of the step; the first level holds all of its nodes,
    those of level 3 first."""
    n = _nodes_through(level) // 2
    j = np.arange(1 - n, n, 2)
    if level == _FIRST:
        j = np.concatenate([np.arange(-n, n + 1, 2), j])
    t = j * 2.0 ** -level
    s = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    w = 0.25 * math.pi * 2.0 ** -level * np.cosh(t) / np.cosh(s) ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              spec: QuadratureSpec = QuadratureSpec(),
              breaks: Iterable[float] | Iterable[Iterable[float]] = ()) -> Integral:
    """Integrate a vectorized integrand over [a, b], as one row or as rows.

    Parameters
    ----------
    f : callable mapping a (rows, n) ndarray of abscissae to values of that
        shape, called once a level with a fresh array: row r holds the new
        nodes of every piece of row r, padded with nodes at b when another
        row has more pieces.
    a, b : integration limits, a < b.
    spec : tolerance and node budget, both for each row.
    breaks : points where f has a kink or bends sharply; those strictly
        inside (a, b) split the interval. An interior kink must be passed
        here: the rule converges fast only where f is analytic inside each
        piece. A sequence of such sequences asks for one row each.

    Returns an Integral(value, error, nodes), each summed over the pieces; for
    rows, value and error are tuples over the rows and nodes is their sum.
    Raises NumericalError carrying a row's achieved tolerance when its budget
    runs out before it converges.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    a, b, breaks = float(a), float(b), list(breaks)
    # one row unless breaks holds sequences; a number or a 0-d array is a break
    single = not breaks or not hasattr(breaks[0], "__iter__") or getattr(breaks[0], "ndim", 1) == 0
    edges = [[a, *sorted({float(x) for x in row if a < x < b}), b]
             for row in ([breaks] if single else breaks)]
    pieces = [len(e) - 1 for e in edges]
    counts = sorted(set(pieces))
    if len(counts) > 1:   # pad each row to the widest with empty pieces at b
        edges = [e + e[-1:] * (counts[-1] - n) for e, n in zip(edges, pieces)]
    edges = np.array(edges)
    lo, width = edges[:, :-1, None], (edges[:, 1:] - edges[:, :-1])[..., None]
    # rows grouped by piece count, so each is reduced in the BLAS call shape it
    # gets alone; one group indexes fx by a slice, no copy
    groups = [(n, rows, rows if len(counts) > 1 else slice(None))
              for n in counts for rows in [[r for r, m in enumerate(pieces) if m == n]]]
    ests = [None] * len(groups)
    value, error, nodes = [None] * len(pieces), [math.inf] * len(pieces), [0] * len(pieces)
    level = _FIRST
    while None in value:
        short = [r for r, n in enumerate(pieces)
                 if value[r] is None and n * _nodes_through(level) > spec.max_nodes]
        if short:
            raise NumericalError(f"quadrature did not reach tol={spec.tol:g} within "
                                 f"{spec.max_nodes} nodes (achieved {error[short[0]]:g})",
                                 achieved=error[short[0]])
        x, w = _table(level) if level <= _CACHED else _table.__wrapped__(level)
        fx = np.asarray(f((lo + width * x).reshape(len(pieces), -1)), dtype=float)
        fx = fx.reshape(*lo.shape[:2], -1)
        for g, (n, rows, select) in enumerate(groups):
            part, span, prev = fx[select, :n], width[select, :n, 0], ests[g]
            new = span * (part @ w)
            if prev is None:   # level 3, nested in the first level, is the first estimate
                coarse = _nodes_through(_FIRST - 1)
                prev, ests[g] = 2.0 * span * (part[..., :coarse] @ w[:coarse]), new
            else:
                ests[g] = 0.5 * prev + new
            changes = np.abs(ests[g] - prev).sum(axis=1).tolist()
            for r, change, total in zip(rows, changes, ests[g].sum(axis=1).tolist()):
                if value[r] is None:   # a converged row is evaluated on but keeps its result
                    error[r] = change
                    if change < spec.tol:
                        value[r], nodes[r] = total, n * _nodes_through(level)
        level += 1
    if single:
        return Integral(value[0], error[0], nodes[0])
    return Integral(tuple(value), tuple(error), sum(nodes))
