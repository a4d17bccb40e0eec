"""Exact spectral solver for the periodic XY chain in a transverse field.

Quasiparticle dispersion

    E_k = 2*sqrt((h + (jx+jy)*cos k)^2 + ((jx-jy)*sin k)^2)

with ground-state energy -(1/2) sum_k E_k at finite size and energy density
-(1/(2*pi)) * integral_0^pi E_k dk in the thermodynamic limit. Field
derivatives (magnetization, susceptibility) are central finite differences of
the energy density, so the divergence at a critical field shows up as
step-dependent growth rather than a special-cased formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .band import CosBand
from .quadrature import Integral, QuadratureSpec, integrate
from .types import (
    CRITICAL,
    ORDERED,
    PARAMAGNETIC,
    DegenerateModelError,
    MomentumGrid,
    NumericalError,
    Spectrum,
    UnsupportedParameterError,
    XYParams,
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
    """E_k^2/4 = (h + js*cos k)^2 + jd^2*sin^2 k as a quadratic in cos k."""
    return CosBand(p.h, p.js, p.jd ** 2)


def xy_spectrum(p: XYParams, grid: MomentumGrid) -> Spectrum:
    """Dispersion evaluated on every point of a discrete grid."""
    if grid.is_continuum:
        raise ValueError("xy_spectrum needs a discrete grid, got the continuum marker")
    return Spectrum(grid.points, xy_dispersion(p, grid.points))


def xy_ground_energy_finite(p: XYParams, grid: MomentumGrid) -> float:
    """Total (not per-site) ground energy -(1/2) sum_k E_k on a discrete grid."""
    if grid.is_continuum:
        raise ValueError("finite ground energy needs a discrete grid")
    return -0.5 * float(np.sum(xy_dispersion(p, grid.points)))


def xy_energy_density(p: XYParams, quad: QuadratureSpec = QuadratureSpec()) -> Integral:
    """Ground-state energy per site, -(1/(2*pi)) * integral_0^pi E_k dk.

    Returns an Integral whose error field is the quadrature refinement change
    scaled like the result. An isotropic chain in its gapless window has a
    kink at k* = arccos(-h/(2*j)), where the integral is split.
    """
    if quad.max_nodes < 16:
        raise ValueError("quadrature node budget must be at least 16")
    raw = integrate(lambda k: xy_dispersion(p, k), 0.0, math.pi, quad,
                    breaks=xy_band(p).kinks())
    scale = 1.0 / (2.0 * math.pi)
    return Integral(-raw.value * scale, raw.error * scale, raw.nodes)


class FieldDerivative(NamedTuple):
    value: float
    straddles_critical: bool   # the step window [h-dh, h+dh] contains a critical field


def _straddles(p: XYParams, dh: float) -> bool:
    try:
        crit = xy_critical_fields(p)
    except DegenerateModelError:
        return False
    return any(abs(p.h - hc) < dh for hc, _ in crit.values)


def xy_magnetization(p: XYParams, quad: QuadratureSpec = QuadratureSpec(),
                     dh: float = 1e-3) -> FieldDerivative:
    """m_z = -de_g/dh by central difference.

    A step window that straddles a critical field is reported through the
    straddles_critical flag, not as an error.
    """
    if not dh > 0:
        raise ValueError("dh must be positive")
    e_plus = xy_energy_density(p.with_h(p.h + dh), quad).value
    e_minus = xy_energy_density(p.with_h(p.h - dh), quad).value
    return FieldDerivative(-(e_plus - e_minus) / (2.0 * dh), _straddles(p, dh))


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
    if not dh > 0:
        raise ValueError("dh must be positive")
    require_chi_tolerance(quad, dh)
    e_plus = xy_energy_density(p.with_h(p.h + dh), quad).value
    e_mid = xy_energy_density(p, quad).value
    e_minus = xy_energy_density(p.with_h(p.h - dh), quad).value
    value = -(e_plus - 2.0 * e_mid + e_minus) / (dh * dh)
    return FieldDerivative(value, _straddles(p, dh))


@dataclass(frozen=True)
class CriticalFieldSet:
    """Gap-closing fields with their momenta: (h_c, k_star) pairs."""

    values: tuple[tuple[float, float], ...]
    model_case: str


def xy_critical_fields(p: XYParams) -> CriticalFieldSet:
    """Fields where min_k E_k = 0, from the simultaneous conditions
    h + (jx+jy)*cos k = 0 and (jx-jy)*sin k = 0.

    Isotropic chains report k_star = arccos(-h_c/(2*j)); anisotropic chains
    close the gap at k = 0 (h_c = -(jx+jy)) and k = pi (h_c = jx+jy).
    """
    if p.jx == 0.0 and p.jy == 0.0:
        raise DegenerateModelError("jx = jy = 0: free spins, no transition")
    if p.jx == p.jy:
        two_j = 2.0 * p.jx
        # k_star = arccos(-h_c / (2*j)) picks 0 for -2j and pi for +2j
        values = ((-two_j, 0.0), (two_j, math.pi))
        case = ISOTROPIC
    else:
        values = ((-p.js, 0.0), (p.js, math.pi))
        case = TFI if (p.jx == 0.0 or p.jy == 0.0) else ANISOTROPIC
    return CriticalFieldSet(values, case)


def xy_phase(p: XYParams, tol: float = 1e-12) -> str:
    """Ordered for |h| < jx+jy, paramagnetic for |h| > jx+jy, critical within tol.

    Only ferromagnetic couplings jx, jy >= 0 are classified.
    """
    if p.jx < 0 or p.jy < 0:
        raise UnsupportedParameterError(
            f"phase classification needs jx, jy >= 0, got ({p.jx}, {p.jy})"
        )
    margin = abs(p.h) - p.js
    if abs(margin) <= tol:
        return CRITICAL
    return PARAMAGNETIC if margin > 0 else ORDERED


def xy_gap(p: XYParams) -> float:
    """min_k E_k, from the closed-form minimum of the band over cos k."""
    return 2.0 * math.sqrt(xy_band(p).minimum())
