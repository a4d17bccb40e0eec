"""Nested tanh-sinh quadrature (Takahasi & Mori, Publ. RIMS 9, 721 (1974)).

Level L is the trapezoidal rule with step 2^-L in t, |t| <= 3.5, after the
substitution x = (1 + tanh((pi/2) sinh t))/2 of the unit interval, mapped
affinely onto each piece of [a, b]. Its nodes cluster double-exponentially at
the ends of a piece, so an integrand that is analytic inside each piece,
however sharply it bends at an end, converges in a few levels.

Level L holds the nodes of level L-1, so each level adds only its new ones.
The first call evaluates all of level 4 (113 nodes a piece) and takes level 3
inside it as the first error estimate. All pieces share one integrand call
per level, one tolerance and one node budget. The reported error is the
change over the last level, summed over the pieces.

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
    """Absolute tolerance and node budget of the tanh-sinh integrator; the
    budget must hold the first level of one piece."""

    tol: float = 1e-10
    max_nodes: int = 1 << 20

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_nodes < _nodes_through(_FIRST):
            raise ValueError(f"max_nodes must be at least {_nodes_through(_FIRST)}, "
                             f"got {self.max_nodes}")


class Integral(NamedTuple):
    value: float
    error: float    # change over the last level, summed over the pieces
    nodes: int      # integrand evaluations, summed over the levels and pieces


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
              breaks: Iterable[float] = ()) -> Integral:
    """Integrate a vectorized integrand over [a, b].

    Parameters
    ----------
    f : callable mapping an ndarray of abscissae to an ndarray of values;
        each call gets a fresh array, the new nodes of every piece at once.
    a, b : integration limits, a < b.
    spec : tolerance and node budget, both for the whole integral.
    breaks : points where f has a kink or bends sharply; those strictly
        inside (a, b) split the interval. An interior kink must be passed
        here: the rule converges fast only where f is analytic inside each
        piece.

    Returns an Integral(value, error, nodes), each summed over the pieces;
    raises NumericalError carrying the achieved tolerance when the budget
    runs out before convergence.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = [float(a), *sorted({float(x) for x in breaks if a < x < b}), float(b)]
    lo, width = np.array(edges[:-1]), np.subtract(edges[1:], edges[:-1])
    level, est, error = _FIRST, None, math.inf
    while width.size * _nodes_through(level) <= spec.max_nodes:
        x, w = _table(level) if level <= _CACHED else _table.__wrapped__(level)
        fx = np.asarray(f((lo[:, None] + np.multiply.outer(width, x)).ravel()), dtype=float)
        fx = fx.reshape(width.size, -1)
        new = width * (fx @ w)
        if est is None:   # level 3, nested in the first level, is the first estimate
            coarse = _nodes_through(_FIRST - 1)
            prev, est = 2.0 * width * (fx[:, :coarse] @ w[:coarse]), new
        else:
            prev, est = est, 0.5 * est + new
        error = float(np.abs(est - prev).sum())
        if error < spec.tol:
            return Integral(float(est.sum()), error, width.size * _nodes_through(level))
        level += 1
    raise NumericalError(
        f"quadrature did not reach tol={spec.tol:g} within {spec.max_nodes} nodes "
        f"(achieved {error:g})",
        achieved=error,
    )
