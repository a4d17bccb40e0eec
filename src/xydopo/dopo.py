"""Spectral solver for a ring of N parametrically driven coupled oscillators.

Mode energies come from eps_k = delta - 2*j*cos k and the Bogoliubov-diagonal
spectrum Omega_k = sqrt(eps_k^2 - d2). Omega is exposed as the signed square
Omega_k^2 = eps_k^2 - d2: a negative value marks an imaginary-frequency
(dynamically unstable) mode, which keeps the numerics exact and makes phase
classification a sign test.

With no drive (d2 = 0) the spectrum Omega_k^2 = eps_k^2 never goes negative,
so the symmetry-broken region is instead detected by eps_k changing sign
inside the band: the vacuum stops being the ground state once a mode energy
crosses zero. The classifier handles that boundary case explicitly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .band import CosBand, stack
from .quadrature import Integral, QuadratureSpec, integrate
from .types import (
    CRITICAL,
    NORMAL,
    SUPERRADIANT,
    DopoParams,
    MomentumGrid,
    NoSqueezedVacuumError,
    Spectrum,
    SPECTRUM_OMEGA_SQUARED,
    UnstablePhaseError,
)

# tolerance on Omega^2 separating normal/critical/superradiant:
# below quadrature accuracy, above accumulated rounding
STABILITY_TOL = 1e-10


def dopo_epsilon(p: DopoParams, k):
    """Mode energy eps_k = delta - 2*j*cos k, vectorized over k."""
    k = np.asarray(k, dtype=float)
    val = p.delta - 2.0 * p.j * np.cos(k)
    return val if val.ndim else float(val)


def dopo_omega_squared(p: DopoParams, k):
    """Signed squared quasiparticle energy eps_k^2 - d2 (negative = unstable mode),
    vectorized over k, and over rows if j, delta, d2 are (rows, 1) columns."""
    eps = np.asarray(dopo_epsilon(p, k))
    val = eps * eps - p.d2
    return val if val.ndim else float(val)


def dopo_band(p: DopoParams) -> CosBand:
    """Omega_k^2 = (delta - 2*j*cos k)^2 - d2 as a quadratic in cos k."""
    return CosBand(p.delta, -2.0 * p.j, s=p.d2)


def dopo_spectrum(p: DopoParams, grid: MomentumGrid) -> Spectrum:
    """Omega_k^2 on every point of a discrete grid."""
    return Spectrum(grid.points, dopo_omega_squared(p, grid.points),
                    kind=SPECTRUM_OMEGA_SQUARED)


def dopo_zero_point_energy(p: DopoParams, grid: MomentumGrid) -> float:
    """Zero-point energy (1/2) sum_k (Omega_k - eps_k) on a discrete grid.

    A mode with Omega_k^2 < -STABILITY_TOL is unstable and raises an UnstablePhaseError
    carrying the offending k values; a smaller negative Omega_k^2 is rounding, read as 0.
    """
    omsq = dopo_omega_squared(p, grid.points)
    bad = omsq < -STABILITY_TOL
    if np.any(bad):
        raise UnstablePhaseError(
            f"{int(bad.sum())} grid mode(s) have Omega^2 < 0",
            unstable_k=grid.points[bad],
        )
    eps = dopo_epsilon(p, grid.points)
    return 0.5 * float(np.sum(np.sqrt(np.maximum(omsq, 0.0)) - eps))


def dopo_gap(p: DopoParams) -> float | None:
    """min_k Omega_k from the closed-form band minimum, None when a mode is
    unstable; a minimum within STABILITY_TOL of zero is rounding: gap 0."""
    min_omsq = dopo_band(p).minimum()
    return math.sqrt(max(min_omsq, 0.0)) if min_omsq >= -STABILITY_TOL else None


def _instability_window(p: DopoParams) -> tuple[float, float]:
    """k-interval in [0, pi] where Omega_k^2 < 0, for a network dopo_gap finds unstable."""
    if p.j == 0.0:
        return (0.0, math.pi)  # a flat band: every mode is unstable
    drive = math.sqrt(p.d2)  # the minimum is at least -d2, so d2 > 0 here
    # |eps_k| < drive  <=>  cos k in ((delta-drive)/(2j), (delta+drive)/(2j)), clipped to [-1, 1]
    lo, hi = (min(max(c, -1.0), 1.0) for c in
              sorted(((p.delta - drive) / (2.0 * p.j), (p.delta + drive) / (2.0 * p.j))))
    return (math.acos(hi), math.acos(lo))  # arccos reverses order


def dopo_energy_density(p: DopoParams, quad: QuadratureSpec = QuadratureSpec()) -> Integral:
    """Zero-point energy per site in the thermodynamic limit.

    Computed as (1/(2*pi)) * integral_0^pi Omega_k dk - delta/2, using that
    cos k integrates to zero over the band. Raises UnstablePhaseError (with
    the window endpoints) if any part of [0, pi] is unstable. The integral is
    split at the band minimum when it lies inside (0, pi): with no drive and
    |delta| < 2|j| that is the kink of Omega_k = |eps_k| at
    k* = arccos(delta/(2j)), and near it the rounded kink.
    """
    (value,), (error,), nodes = _energies([(p.j, p.delta, p.d2)], quad)
    if value is None:
        lo, hi = _instability_window(p)
        raise UnstablePhaseError(f"unstable window k in [{lo:.6f}, {hi:.6f}]", unstable_k=(lo, hi))
    return Integral(value, error, nodes)


def _energies(networks, quad: QuadratureSpec) -> Integral:
    """dopo_energy_density of each (j, delta, d2) network, one quadrature row
    each: value and error are tuples over the networks, None for an unstable
    one (by dopo_gap's rule), and nodes their sum."""
    bands = [CosBand(delta, -2.0 * j, s=d2) for j, delta, d2 in networks]
    stable = [band.minimum() >= -STABILITY_TOL for band in bands]
    rows = [band for band, ok in zip(bands, stable) if ok]
    raw = integrate(stack(rows).root, 0.0, math.pi, quad,
                    [(math.acos(band.argmin()),) for band in rows]) if rows else Integral((), (), 0)
    scale = 1.0 / (2.0 * math.pi)
    values, errors = iter(raw.value), iter(raw.error)   # a band's u is its delta
    return Integral(tuple(next(values) * scale - 0.5 * band.u if ok else None
                          for band, ok in zip(bands, stable)),
                    tuple(next(errors) * scale if ok else None for ok in stable), raw.nodes)


class SqueezingParams(NamedTuple):
    k: float
    r: float       # squeezing magnitude, r = (1/2) artanh(drive/|eps_k|)
    theta: float   # squeezing phase; drive phase is fixed to 0, so always pi/2


def dopo_squeezing(p: DopoParams, k: float) -> SqueezingParams:
    """Squeezing parameters of the mode at momentum k.

    Defined only below threshold: needs d2 >= 0, eps_k != 0 and
    sqrt(d2) < |eps_k|. The sign of eps_k is folded out: r is a magnitude.
    """
    drive = p.drive()  # raises NonphysicalDriveError when d2 < 0
    eps = abs(dopo_epsilon(p, float(k)))
    if eps == 0.0 or drive >= eps:
        raise NoSqueezedVacuumError(
            f"mode at k={k:g} is at/beyond threshold (|eps|={eps:g}, drive={drive:g})"
        )
    return SqueezingParams(float(k), 0.5 * math.atanh(drive / eps), math.pi / 2.0)


def dopo_critical_detuning(p: DopoParams) -> float:
    """Threshold detuning -2|j| - sqrt(d2), the lowest of the four, reached
    first when the detuning rises from the normal phase."""
    return dopo_threshold_detunings(p)[0]


def dopo_threshold_detunings(p: DopoParams) -> tuple[float, float, float, float]:
    """All four algebraic thresholds {+-2j +- sqrt(d2)}, sorted ascending."""
    drive = p.drive()
    two_j = 2.0 * abs(p.j)
    return tuple(sorted((0.0 - two_j - drive, -two_j + drive, two_j - drive, two_j + drive)))


def dopo_classify_phase(p: DopoParams) -> str:
    """Normal / superradiant / critical from the closed-form band minimum.

    superradiant: min_k Omega_k^2 < -STABILITY_TOL (exactly the points where
    dopo_energy_density raises), or (d2 = 0 boundary) eps_k changes sign
    strictly inside its band [delta - 2|j|, delta + 2|j|]; critical: the
    spectrum touches zero without a sign change; normal otherwise.
    """
    m = dopo_band(p).minimum()
    tol = STABILITY_TOL
    if m < -tol:
        return SUPERRADIANT
    if p.d2 <= tol and p.delta - 2.0 * abs(p.j) < -tol and p.delta + 2.0 * abs(p.j) > tol:
        # a zero of eps lies strictly inside the band; Omega^2 = -d2 <= 0 there
        return SUPERRADIANT
    if m <= tol:
        return CRITICAL
    return NORMAL
