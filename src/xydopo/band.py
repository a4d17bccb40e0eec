"""The squared mode energy both models share, as a quadratic in c = cos k.

    chain:    E_k^2     = (2*h + 2*js*c)^2 + 4*jd^2*(1 - c^2)
    network:  Omega_k^2 = (delta - 2*j*c)^2 - d2

Both are q(c) = (u + v*c)^2 + w*(1 - c^2) - s, so the band minimum (the gap,
the stability margin) and the kinks of sqrt(q) follow in closed form, and both
energy densities are affine images of I = integral_0^pi sqrt(q(cos k)) dk of
their own band: e_chain = -I/(2*pi), e_net = I/(2*pi) - delta/2. I is split at
the minimum's momentum arccos(argmin) when it is interior: at a kink that is
the kink, and near one the point where sqrt(q) bends sharpest.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class CosBand(NamedTuple):
    """q(c) = (u + v*c)^2 + w*(1 - c^2) - s, with c = cos k."""

    u: float
    v: float
    w: float = 0.0
    s: float = 0.0

    def __call__(self, c: float) -> float:
        return (self.u + self.v * c) ** 2 + self.w * (1.0 - c * c) - self.s

    def root(self, k):
        """The mode energy sqrt(max(q(cos k), 0)), vectorized over k: the clip
        absorbs rounding at a marginal gap. A w or s of exactly 0 is skipped;
        a coefficient may be a column of stack, one value per row of k."""
        c = np.cos(k)
        q = (self.u + self.v * c) ** 2
        if isinstance(self.w, np.ndarray) or self.w:
            q = q + self.w * (1.0 - c * c)
        if isinstance(self.s, np.ndarray) or self.s:
            q = q - self.s
        return np.sqrt(np.maximum(q, 0.0))

    def argmin(self) -> float:
        """The c in [-1, 1] where q is smallest."""
        curvature = self.v * self.v - self.w
        if curvature > 0.0:
            return min(max(-self.u * self.v / curvature, -1.0), 1.0)
        return -1.0 if self(-1.0) <= self(1.0) else 1.0

    def minimum(self) -> float:
        """min of q over c in [-1, 1]; exactly 0 at an interior double zero."""
        return 0.0 if self.kinks() else self(self.argmin())

    def kinks(self) -> tuple[float, ...]:
        """Momenta in (0, pi) where q has a double zero, so that
        sqrt(q) = |u + v*c| has a kink there."""
        if self.w == 0.0 and self.s == 0.0 and abs(self.u) < abs(self.v):
            return (math.acos(-self.u / self.v),)
        return ()


def stack(bands: Sequence[CosBand]) -> CosBand:
    """The bands as one, whose root evaluates band r on row r of a (rows, n) k:
    a coefficient every band shares stays a float, the others are (rows, 1)
    columns."""
    return CosBand(*(c[0] if c.count(c[0]) == len(c) else np.array(c)[:, None]
                     for c in zip(*bands)))
