"""Exact spectral solver for the periodic XY chain in a transverse field.

Quasiparticle dispersion

    E_k = 2*sqrt((h + (jx+jy)*cos k)^2 + ((jx-jy)*sin k)^2)

with ground-state energy -(1/2) sum_k E_k at finite size and energy density
-(1/(2*pi)) * integral_0^pi E_k dk in the thermodynamic limit. Field
derivatives (magnetization, susceptibility) are central finite differences of
the energy density, so the divergence at a critical field shows up as
step-dependent growth rather than a special-cased formula. One stencil
(_stencil) serves xy_magnetization, xy_susceptibility and every sweep's m_z, chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .band import CosBand, stack
from .quadrature import Integral, QuadratureSpec, integrate
from .types import (
    ANTIPERIODIC,
    CRITICAL,
    ORDERED,
    PARAMAGNETIC,
    PERIODIC,
    DegenerateModelError,
    MomentumGrid,
    NumericalError,
    Spectrum,
    UnsupportedParameterError,
    XYParams,
    build_grid,
)

ISOTROPIC = "isotropic"
ANISOTROPIC = "anisotropic"
TFI = "tfi"


def xy_dispersion(p: XYParams, k):
    """E_k, vectorized over k; non-negative and even in k."""
    k = np.asarray(k, dtype=float)
    val = 2.0 * np.sqrt((p.h + p.js * np.cos(k)) ** 2 + (p.jd * np.sin(k)) ** 2)
    return val if val.ndim else float(val)


def xy_band(p: XYParams) -> CosBand:
    """E_k^2 = (2*h + 2*js*cos k)^2 + 4*jd^2*sin^2 k as a quadratic in cos k."""
    return CosBand(2.0 * p.h, 2.0 * p.js, 4.0 * p.jd ** 2)


def xy_spectrum(p: XYParams, grid: MomentumGrid) -> Spectrum:
    """Dispersion evaluated on every point of a discrete grid."""
    return Spectrum(grid.points, xy_dispersion(p, grid.points))


def xy_ground_energy_finite(p: XYParams, grid: MomentumGrid) -> float:
    """Total (not per-site) ground energy -(1/2) sum_k E_k on a discrete grid."""
    return -0.5 * float(np.sum(xy_dispersion(p, grid.points)))


def xy_ground_energy_ring(p: XYParams, n: int) -> float:
    """Exact ground energy of the n-site spin ring, the lower of its two
    fermion-parity sectors (Lieb, Schultz & Mattis 1961). The even sector is
    the antiperiodic sum; the odd sector is the periodic sum, raised by
    2 min(|h+js|, |h-js|) when h+js and h-js share a sign. n must be even:
    build_grid raises ValueError otherwise."""
    periodic = xy_ground_energy_finite(p, build_grid(n, PERIODIC))
    anti = xy_ground_energy_finite(p, build_grid(n, ANTIPERIODIC))
    if math.copysign(1.0, p.h + p.js) == math.copysign(1.0, p.h - p.js):
        periodic += 2.0 * min(abs(p.h + p.js), abs(p.h - p.js))
    return min(anti, periodic)


def xy_energy_density(p: XYParams, quad: QuadratureSpec = QuadratureSpec()) -> Integral:
    """Ground-state energy per site, -(1/(2*pi)) * integral_0^pi E_k dk.

    Returns an Integral whose error field is the quadrature refinement change
    scaled like the result. The integral is split at the band minimum when it
    lies inside (0, pi): for an isotropic chain in its gapless window that is
    the kink at k* = arccos(-h/(2*j)), and near it the rounded kink.
    """
    (value,), (error,), nodes = _energies(p, (p.h,), quad)
    return Integral(value, error, nodes)


def _energies(p: XYParams, fields, quad: QuadratureSpec) -> Integral:
    """xy_energy_density of the chain p at each field, one quadrature row
    each: value and error are tuples over the fields, nodes their sum."""
    _, v, w, s = xy_band(p)
    bands = [CosBand(2.0 * h, v, w, s) for h in fields]
    raw = integrate(stack(bands).root, 0.0, math.pi, quad,
                    [(math.acos(band.argmin()),) for band in bands])
    scale = 1.0 / (2.0 * math.pi)
    return Integral(tuple(0.0 - e * scale for e in raw.value),  # no -0
                    tuple(e * scale for e in raw.error), raw.nodes)


class FieldDerivative(NamedTuple):
    value: float
    straddles_critical: bool   # the step window [h-dh, h+dh] contains a critical field


def _stencil(energies, x: float, dh: float, columns, critical):
    """(e_g, m_z, chi, straddles) of an energy function e at x: e(x), the quotients
    (e(x-dh) - e(x+dh))/(2 dh) and (2 e(x) - e(x+dh) - e(x-dh))/dh^2, each None
    unless columns requests it, and whether m_z or chi is requested with |x - c| < dh
    for a critical control c. energies maps a list of controls to their e in one
    call, made only for the controls a requested column reads; a None e (an
    unstable network) makes each column that reads it None."""
    if not dh > 0:
        raise ValueError("dh must be positive")
    derivatives = not columns.isdisjoint(("m_z", "chi"))
    middle = not columns.isdisjoint(("e_g", "chi"))
    xs = [x] * middle + [x - dh, x + dh] * derivatives
    es = list(energies(xs)) if xs else []
    mid = es.pop(0) if middle else None
    lo, hi = es if derivatives else (None, None)
    m_z = (lo - hi) / (2.0 * dh) if "m_z" in columns and None not in (lo, hi) else None
    chi = (2.0 * mid - hi - lo) / (dh * dh) if "chi" in columns and None not in (lo, mid, hi) else None
    return (mid if "e_g" in columns else None, m_z, chi,
            derivatives and any(abs(x - c) < dh for c in critical))


def _critical_fields(p: XYParams) -> tuple[float, ...]:
    """The chain's critical fields -(jx+jy) and jx+jy; none for free spins (jx = jy = 0)."""
    return () if p.jx == 0.0 and p.jy == 0.0 else (-p.js, p.js)


def _chain_derivative(p: XYParams, quad: QuadratureSpec, dh: float, column: str) -> FieldDerivative:
    _, m_z, chi, straddles = _stencil(lambda hs: _energies(p, hs, quad).value,
                                      p.h, dh, {column}, _critical_fields(p))
    return FieldDerivative(m_z if column == "m_z" else chi, straddles)


def xy_magnetization(p: XYParams, quad: QuadratureSpec = QuadratureSpec(),
                     dh: float = 1e-3) -> FieldDerivative:
    """m_z = -de_g/dh by central difference.

    A step window that straddles a critical field is reported through the
    straddles_critical flag, not as an error.
    """
    return _chain_derivative(p, quad, dh, "m_z")


def require_chi_tolerance(quad: QuadratureSpec, dh: float) -> None:
    """Raise NumericalError unless tol <= dh^2 * 1e-3: with a looser
    quadrature the second difference quotient would be noise-dominated."""
    if quad.tol > dh * dh * 1e-3:
        raise NumericalError(
            f"quadrature tol {quad.tol:g} too loose for dh={dh:g}; "
            f"need tol <= {dh * dh * 1e-3:g}",
            achieved=quad.tol,
        )


def xy_susceptibility(p: XYParams, quad: QuadratureSpec = QuadratureSpec(),
                      dh: float = 1e-3) -> FieldDerivative:
    """chi = -d2 e_g/dh2 by central second difference.

    The quadrature tolerance must satisfy tol <= dh^2 * 1e-3 (see
    require_chi_tolerance), checked up front.
    """
    if dh > 0:  # a step that is not positive is the stencil's ValueError
        require_chi_tolerance(quad, dh)
    return _chain_derivative(p, quad, dh, "chi")


@dataclass(frozen=True)
class CriticalFieldSet:
    """Gap-closing fields with their momenta: (h_c, k_star) pairs."""

    values: tuple[tuple[float, float], ...]
    model_case: str


def xy_critical_fields(p: XYParams) -> CriticalFieldSet:
    """Fields where min_k E_k = 0, from the simultaneous conditions
    h + (jx+jy)*cos k = 0 and (jx-jy)*sin k = 0.

    Every chain closes the gap at k = 0 (h_c = -(jx+jy)) and k = pi
    (h_c = jx+jy); for an isotropic chain these are k_star = arccos(-h_c/(2*j)).
    """
    if not (fields := _critical_fields(p)):
        raise DegenerateModelError("jx = jy = 0: free spins, no transition")
    if p.jx == p.jy:
        case = ISOTROPIC
    else:
        case = TFI if (p.jx == 0.0 or p.jy == 0.0) else ANISOTROPIC
    return CriticalFieldSet(tuple(zip(fields, (0.0, math.pi))), case)


def xy_phase(p: XYParams) -> str:
    """Ordered for |h| < jx+jy, paramagnetic for |h| > jx+jy, critical within 1e-12.

    Only ferromagnetic couplings jx, jy >= 0 are classified.
    """
    if p.jx < 0 or p.jy < 0:
        raise UnsupportedParameterError(
            f"phase classification needs jx, jy >= 0, got ({p.jx}, {p.jy})"
        )
    margin = abs(p.h) - p.js
    if abs(margin) <= 1e-12:
        return CRITICAL
    return PARAMAGNETIC if margin > 0 else ORDERED


def xy_gap(p: XYParams) -> float:
    """min_k E_k, from the closed-form minimum of the band over cos k."""
    return math.sqrt(xy_band(p).minimum())
