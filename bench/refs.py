"""Independent references for the benchmark's output checks.

Nothing here imports xydopo: every reference is a closed form or a
scipy/numpy computation written from the physics, so a wrong answer in the
package cannot also hide in its own check.

Chain band (c = cos k):   E_k^2 / 4 = (h + js c)^2 + jd^2 (1 - c^2)
Network band:             Omega_k^2 = (delta - 2 j c)^2 - d2
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special

# Absolute tolerance on an energy density: ten times the package's default
# quadrature tolerance (1e-10 on the raw integral, before the 1/(2 pi) factor).
ENERGY_TOL = 1e-9
# Absolute tolerance on a gap. The package takes the minimum of the band on a
# finite k-scan; a scan of N points is off by O(band curvature * (pi/N)^2),
# about 1e-7 for the presets' 10,001-point chain scan at gapped points.
GAP_TOL = 1e-6
# Absolute tolerance on a finite-ring ground energy (total, not per site).
ED_TOL = 1e-9
# Margins the package itself uses for the critical label, so a point on a
# critical field is labelled the same way by both sides.
XY_CRITICAL_TOL = 1e-12
DOPO_STABILITY_TOL = 1e-10

ORDERED, PARAMAGNETIC, CRITICAL = "ordered", "paramagnetic", "critical"
NORMAL, SUPERRADIANT = "normal", "superradiant"
_NETWORK_PHASE = {ORDERED: SUPERRADIANT, PARAMAGNETIC: NORMAL, CRITICAL: CRITICAL}


def _quad(f) -> float:
    """integral_0^pi f dk by scipy's adaptive QUADPACK routine."""
    with warnings.catch_warnings():
        # asking for 1e-13 can trip the roundoff warning; the bound below holds
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)
    if not err < 1e-11:
        raise ArithmeticError(f"reference quadrature error {err:g}")
    return val


def _quadratic_min(a0: float, a1: float, a2: float) -> float:
    """min over c in [-1, 1] of a0 + a1 c + a2 c^2."""
    candidates = [a0 - a1 + a2, a0 + a1 + a2]
    if a2 > 0.0:
        c0 = -a1 / (2.0 * a2)
        if -1.0 < c0 < 1.0:
            candidates.append(a0 + a1 * c0 + a2 * c0 * c0)
    return min(candidates)


def xy_energy(jx: float, jy: float, h: float) -> float:
    """Thermodynamic-limit ground energy per site of the chain."""
    js, jd = jx + jy, jx - jy
    if jx == jy:  # isotropic: E_k = 2 |h + 2 j cos k|
        j = jx
        if abs(h) >= 2.0 * j:
            return -abs(h)
        ks = math.acos(-h / (2.0 * j))
        return -(h * (2.0 * ks - math.pi) + 4.0 * j * math.sin(ks)) / math.pi
    if jy == 0.0 or jx == 0.0:  # transverse-field Ising, Pfeuty's closed form
        j, a = abs(jx + jy), abs(h)
        return -(2.0 / math.pi) * (j + a) * special.ellipe(4.0 * a * j / (j + a) ** 2)
    val = _quad(lambda k: 2.0 * math.sqrt((h + js * math.cos(k)) ** 2
                                          + (jd * math.sin(k)) ** 2))
    return -val / (2.0 * math.pi)


def mapped_energy(jx: float, jy: float, h: float) -> float:
    """Network energy of the mapped point, by the energy-shift identity
    e_dopo = -e_xy + h (jx+jy) / (2 sqrt(jx jy))."""
    return -xy_energy(jx, jy, h) + h * (jx + jy) / (2.0 * math.sqrt(jx * jy))


def xy_gap(jx: float, jy: float, h: float) -> float:
    js, jd = jx + jy, jx - jy
    q = _quadratic_min(h * h + jd * jd, 2.0 * h * js, js * js - jd * jd)
    return 2.0 * math.sqrt(max(q, 0.0))


def xy_phase(jx: float, jy: float, h: float) -> str:
    margin = abs(h) - (jx + jy)
    if abs(margin) <= XY_CRITICAL_TOL:
        return CRITICAL
    return PARAMAGNETIC if margin > 0 else ORDERED


def mapped_phase(jx: float, jy: float, h: float) -> str:
    return _NETWORK_PHASE[xy_phase(jx, jy, h)]


def dopo_min_omega_squared(j: float, d2: float, delta: float) -> float:
    return _quadratic_min(delta * delta - d2, -4.0 * delta * j, 4.0 * j * j)


def dopo_energy(j: float, d2: float, delta: float) -> float | None:
    """Zero-point energy per site, or None when the band has unstable modes."""
    if dopo_min_omega_squared(j, d2, delta) < 0.0:
        return None
    val = _quad(lambda k: math.sqrt(max((delta - 2.0 * j * math.cos(k)) ** 2 - d2, 0.0)))
    return val / (2.0 * math.pi) - 0.5 * delta


def dopo_gap(j: float, d2: float, delta: float) -> float | None:
    m = dopo_min_omega_squared(j, d2, delta)
    return None if m < -DOPO_STABILITY_TOL else math.sqrt(max(m, 0.0))


def dopo_phase(j: float, d2: float, delta: float) -> str:
    m = dopo_min_omega_squared(j, d2, delta)
    if m < -DOPO_STABILITY_TOL:
        return SUPERRADIANT
    if d2 <= DOPO_STABILITY_TOL and abs(delta) < 2.0 * abs(j) - DOPO_STABILITY_TOL:
        return SUPERRADIANT  # eps_k changes sign inside the band
    return CRITICAL if m <= DOPO_STABILITY_TOL else NORMAL


def sector_sums(jx: float, jy: float, h: float, n: int) -> tuple[float, float]:
    """-(1/2) sum_k E_k on the periodic and antiperiodic n-point grids."""
    js, jd = jx + jy, jx - jy
    periodic = 2.0 * np.pi * np.arange(-(n // 2) + 1, n // 2 + 1) / n
    anti = (2.0 * np.arange(-(n // 2), n // 2) + 1.0) * np.pi / n

    def total(k):
        return -float(np.sum(np.sqrt((h + js * np.cos(k)) ** 2 + (jd * np.sin(k)) ** 2)))

    return total(periodic), total(anti)


def ring_ground_energy(jx: float, jy: float, h: float, n: int) -> float:
    """Exact ground energy of the n-site ring from the parity-resolved
    Jordan-Wigner sums (Lieb, Schultz & Mattis 1961).

    The even-parity sector is the antiperiodic sum. The odd-parity sector is
    the periodic sum, raised by 2 min(|h+js|, |h-js|) when the k = 0 and
    k = pi modes would otherwise both be empty, i.e. when h+js and h-js have
    the same sign.
    """
    js = jx + jy
    periodic, anti = sector_sums(jx, jy, h, n)
    if math.copysign(1.0, h + js) == math.copysign(1.0, h - js):
        periodic += 2.0 * min(abs(h + js), abs(h - js))
    return min(anti, periodic)
