"""Exact spectral correspondence between the XY chain and the oscillator network.

Both squared spectra are quadratics in cos k,

    (E_k)^2     = 4*(h^2 + jd^2) + 8*js*h*cos k + 16*jx*jy*cos^2 k
    (Omega_k)^2 = delta^2 - d2 - 4*delta*j*cos k + 4*j^2*cos^2 k,

and the map equates their cos^2 k, cos k and constant coefficients:

    j = 2*sqrt(jx*jy),  delta = -h*(jx+jy)/sqrt(jx*jy),  d2 = (jx-jy)^2 * (h^2/(jx*jy) - 4)

d2 is carried signed so the map is total; DopoParams.is_physical says whether
a real drive amplitude exists (d2 >= 0). The inverse keeps a coupling pair
only if it maps forward within 1e-9. The energy densities differ by the shift
e_dopo(h) = h*s - e_xy(h), s = (jx+jy)/(2*sqrt(jx*jy)): mapped sweeps apply it
to the chain's energies, map_energy_density checks it on the network's band.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import dopo, xy
from .types import (
    DopoParams,
    MomentumGrid,
    SingularMapError,
    UnstablePhaseError,
    XYParams,
    _require_finite,
)


def map_xy_to_dopo(p: XYParams) -> DopoParams:
    """Forward map; SingularMapError unless jx*jy > 0 (the jy = 0 limit is singular)."""
    prod = p.jx * p.jy
    if not prod > 0.0:
        raise SingularMapError(f"the map needs jx*jy > 0, got jx={p.jx}, jy={p.jy}")
    root = math.sqrt(prod)
    return DopoParams(2.0 * root,
                      0.0 - p.h * p.js / root,  # 0.0 - x and x + 0.0: an unsigned zero
                      p.jd ** 2 * (p.h ** 2 / prod - 4.0) + 0.0)


def _shift_slope(p: XYParams) -> float:
    """s = (jx+jy)/(2*sqrt(jx*jy)): along the map the network's energy density
    is h*s - e_xy(h), the chain's through a linear shift; jx*jy > 0."""
    return p.js / (2.0 * math.sqrt(p.jx * p.jy))


def map_dopo_to_xy(d: DopoParams, h: float) -> XYParams | None:
    """Invert the map at a finite field h: the coupling pair it solves for,
    or None unless that pair is positive and maps forward to (j, delta, d2)
    within 1e-9.

    jx*jy = j^2/4, and s = jx + jy = -delta*(j/2)/h, or at h = 0 (no cos k
    term) s = sqrt(jd^2 + j^2) with jd^2 = -d2/4. The pair is the roots of
    x^2 - s*x + jx*jy, jx >= jy. A negative discriminant is clipped to 0; the
    pair (s/2, j^2/(2*s)) then has jy - jx = |delta residual|*sqrt(jx*jy)/|h|.
    """
    h = _require_finite("h", h)
    if not d.j > 0:
        raise ValueError(f"need j > 0, got {d.j}")
    prod = d.j ** 2 / 4.0
    if h == 0.0:
        s = math.sqrt(max(-d.d2, 0.0) / 4.0 + 4.0 * prod)
    else:
        s = -d.delta * (d.j / 2.0) / h
    if s <= 0.0:
        return None
    jx = 0.5 * (s + math.sqrt(max(s * s - 4.0 * prod, 0.0)))
    candidate = XYParams(jx, prod / jx, h)  # prod/jx avoids cancellation in (s - sqrt)/2
    implied = map_xy_to_dopo(candidate)
    if abs(implied.d2 - d.d2) > 1e-9 or abs(implied.delta - d.delta) > 1e-9:
        return None
    return candidate


def verify_spectral_match(p: XYParams, grid: MomentumGrid) -> float:
    """max_k |(E_k)^2 - (Omega_k)^2| over the grid using the mapped parameters.

    The identity is exact, so the residual is floating rounding only; the
    signed-d2 convention keeps it total even where d2 < 0.
    """
    return float(_spectral_residuals([p], grid)[0])


def _spectral_residuals(chains, grid: MomentumGrid) -> np.ndarray:
    """verify_spectral_match of each chain, in one (rows, n) pass: xy_dispersion
    and dopo_omega_squared each take every chain's or network's coefficients as
    (rows, 1) columns, so each row has a call's own bits."""
    table = np.array([(p.h, p.js, p.jd, d.j, d.delta, d.d2)
                      for p, d in ((p, map_xy_to_dopo(p)) for p in chains)])
    h, js, jd, j, delta, d2 = table.T[:, :, None]
    e_k = xy.xy_dispersion(SimpleNamespace(h=h, js=js, jd=jd), grid.points)
    omega_sq = dopo.dopo_omega_squared(SimpleNamespace(j=j, delta=delta, d2=d2), grid.points)
    return np.max(np.abs(e_k ** 2 - omega_sq), axis=1)


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
    e_xy = xy.xy_energy_density(p).value
    shift = p.h * _shift_slope(p)
    try:
        e_dopo = dopo.dopo_energy_density(map_xy_to_dopo(p)).value
    except UnstablePhaseError:
        return MapEnergyReport(e_xy, None, None, False)
    return MapEnergyReport(e_xy, e_dopo, e_dopo - (-e_xy + shift), True)
