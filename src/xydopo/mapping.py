"""Exact spectral correspondence between the XY chain and the oscillator network.

Matching the squared spectra

    (E_k)^2    = 4*(h^2 + jd^2) + 8*js*h*cos k + 16*jx*jy*cos^2 k
    (Omega_k)^2 = delta^2 - d2 - 4*delta*j*cos k + 4*j^2*cos^2 k

for all k fixes

    j     = 2*sqrt(jx*jy)
    delta = -h*(jx+jy)/sqrt(jx*jy)
    d2    = (jx-jy)^2 * (h^2/(jx*jy) - 4)

d2 is carried signed so the map is total; the `physical` flag records whether
a real drive amplitude exists (d2 >= 0). The energy densities of the two
models then differ by a known linear shift, checked numerically by
map_energy_density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dopo, xy
from .types import (
    DopoParams,
    MomentumGrid,
    SingularMapError,
    UnstablePhaseError,
    XYParams,
)


@dataclass(frozen=True)
class MappingResult:
    dopo: DopoParams
    physical: bool      # d2 >= 0: the drive amplitude is a real number
    source: XYParams


def map_xy_to_dopo(p: XYParams) -> MappingResult:
    """Forward map; requires jx*jy > 0 (the jy = 0 limit is singular)."""
    prod = p.jx * p.jy
    if prod < 0.0:
        raise ValueError(f"jx*jy must be positive, got jx={p.jx}, jy={p.jy}")
    if prod == 0.0:
        raise SingularMapError(
            "jx*jy = 0: the map is singular; approach the Ising limit with a "
            "small second coupling (e.g. jy = 0.01) instead"
        )
    root = math.sqrt(prod)
    d = DopoParams(
        j=2.0 * root,
        delta=0.0 - p.h * p.js / root,  # 0.0 - x and x + 0.0: an unsigned zero
        d2=p.jd ** 2 * (p.h ** 2 / prod - 4.0) + 0.0,
    )
    return MappingResult(d, d.is_physical, p)


def map_dopo_to_xy(d: DopoParams, h: float) -> XYParams | None:
    """Invert the map at a chosen field h, or return None when no real
    non-negative coupling pair is consistent with (j, delta, d2).

    The couplings solve jx*jy = j^2/4 and jx + jy = -delta*(j/2)/h; the d2
    component is then a consistency check with tolerance 1e-9.
    """
    if not d.j > 0:
        raise ValueError(f"need j > 0, got {d.j}")
    prod = d.j ** 2 / 4.0
    if h == 0.0:
        if d.delta != 0.0:
            return None
        # at h = 0: d2 = -4*jd^2, so jd^2 = -d2/4 and js = sqrt(jd^2 + 4*prod)
        if d.d2 > 1e-9:
            return None
        jd_sq = max(-d.d2, 0.0) / 4.0
        s = math.sqrt(jd_sq + 4.0 * prod)
    else:
        s = -d.delta * (d.j / 2.0) / h
    if s < 0.0:
        return None
    disc = s * s - 4.0 * prod
    if disc < -1e-9:
        return None
    disc = max(disc, 0.0)
    jx = 0.5 * (s + math.sqrt(disc))
    if jx <= 0.0:
        return None
    jy = prod / jx  # avoids cancellation in (s - sqrt(disc))/2
    candidate = XYParams(jx, jy, h)
    implied = map_xy_to_dopo(candidate)
    if abs(implied.dopo.d2 - d.d2) > 1e-9 or abs(implied.dopo.delta - d.delta) > 1e-9:
        return None
    return candidate


def verify_spectral_match(p: XYParams, grid: MomentumGrid) -> float:
    """max_k |(E_k)^2 - (Omega_k)^2| over the grid using the mapped parameters.

    The identity is exact, so the residual is floating rounding only; the
    signed-d2 convention keeps it total even where d2 < 0.
    """
    mapped = map_xy_to_dopo(p)
    e_sq = np.asarray(xy.xy_dispersion(p, grid.points)) ** 2
    om_sq = np.asarray(dopo.dopo_omega_squared(mapped.dopo, grid.points))
    return float(np.max(np.abs(e_sq - om_sq)))


class MapEnergyReport(NamedTuple):
    e_xy: float
    e_dopo: float | None       # None when the mapped network is unstable
    residual: float | None     # e_dopo - (-e_xy + shift), omitted when unstable
    stable: bool


def map_energy_density(p: XYParams) -> MapEnergyReport:
    """Evaluate both sides of the energy-density shift identity independently.

    Each side integrates the root of its own band, the chain's E_k^2 from
    (jx, jy, h) and the network's Omega_k^2 from the mapped (j, delta, d2), at
    the default QuadratureSpec; the report carries their difference against
    the shift h*(jx+jy)/(2*sqrt(jx*jy)), or marks the network side unstable
    and omits the residual when the mapped network has an unstable window.
    """
    mapped = map_xy_to_dopo(p)
    e_xy = xy.xy_energy_density(p).value
    shift = p.h * p.js / (2.0 * math.sqrt(p.jx * p.jy))
    try:
        e_dopo = dopo.dopo_energy_density(mapped.dopo).value
    except UnstablePhaseError:
        return MapEnergyReport(e_xy, None, None, False)
    return MapEnergyReport(e_xy, e_dopo, e_dopo - (-e_xy + shift), True)
