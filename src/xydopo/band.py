"""The squared band both models share, as a quadratic in c = cos k.

    chain:    E_k^2 / 4 = (h + js*c)^2 + jd^2*(1 - c^2)
    network:  Omega_k^2 = (delta - 2*j*c)^2 - d2

Both are q(c) = (u + v*c)^2 + w*(1 - c^2) - s, so the band minimum (the
gap, the stability margin) and the kinks of sqrt(q) follow in closed form
instead of from a k-scan.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class CosBand(NamedTuple):
    """q(c) = (u + v*c)^2 + w*(1 - c^2) - s, with c = cos k."""

    u: float
    v: float
    w: float = 0.0
    s: float = 0.0

    def __call__(self, c: float) -> float:
        return (self.u + self.v * c) ** 2 + self.w * (1.0 - c * c) - self.s

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
