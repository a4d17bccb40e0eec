"""Shared domain types: model parameters, momentum grids, spectra, sweep records.

All parameter objects are immutable value objects. Energies are dimensionless
(reference coupling J0 = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# momentum-grid sectors of the fermionized periodic ring
PERIODIC = "periodic"           # k = 2*pi*m/n,   m = -n/2+1 ... n/2
ANTIPERIODIC = "antiperiodic"   # k = (2m+1)*pi/n, m = -n/2 ... n/2-1

# phase labels
ORDERED = "ordered"
PARAMAGNETIC = "paramagnetic"
NORMAL = "normal"
SUPERRADIANT = "superradiant"
CRITICAL = "critical"


class DegenerateModelError(ValueError):
    """The model has no transition to locate (e.g. both couplings zero)."""


class UnsupportedParameterError(ValueError):
    """Parameters outside the supported convention (e.g. negative couplings)."""


class SingularMapError(ValueError):
    """The chain-to-oscillator map is undefined for these parameters (jx*jy <= 0)."""


class NonphysicalDriveError(ValueError):
    """Operation needs a real drive amplitude but the squared drive is negative."""


class NoSqueezedVacuumError(ValueError):
    """No squeezed-vacuum solution: the mode is at or beyond threshold."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its requested accuracy."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class UnstablePhaseError(RuntimeError):
    """An operation that requires a stable spectrum hit imaginary-frequency modes."""

    def __init__(self, message: str, unstable_k=()):
        super().__init__(message)
        self.unstable_k = tuple(float(k) for k in np.atleast_1d(unstable_k))


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except ValueError:
        raise ValueError(f"{name} must be a finite real number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


def _require_finite_fields(params) -> None:
    """Store each field of a frozen parameter dataclass as a finite float; its
    __match_args__ names the fields without the tuple dataclasses.fields builds per call.
    A field that already is a finite float (not a subclass, such as np.float64) is left
    as it is, and the others are written through the instance __dict__, which frozen
    leaves writable."""
    fields = params.__dict__
    for name in params.__match_args__:
        value = fields[name]
        if type(value) is not float or not math.isfinite(value):
            fields[name] = _require_finite(name, value)


@dataclass(frozen=True)
class XYParams:
    """Couplings and transverse field of the spin chain.

    The sum and difference couplings are derived on access, never stored.
    """

    jx: float
    jy: float
    h: float

    __post_init__ = _require_finite_fields

    @property
    def js(self) -> float:
        return self.jx + self.jy

    @property
    def jd(self) -> float:
        return self.jx - self.jy

    def with_h(self, h: float) -> "XYParams":
        return XYParams(self.jx, self.jy, h)


@dataclass(frozen=True)
class DopoParams:
    """Coupled-oscillator network parameters: hopping j, detuning delta, squared drive d2.

    d2 is carried as a signed real so the spin-chain map stays total; a physical
    drive amplitude exists only when d2 >= 0.
    """

    j: float
    delta: float
    d2: float

    __post_init__ = _require_finite_fields

    @property
    def is_physical(self) -> bool:
        return self.d2 >= 0.0

    def drive(self) -> float:
        """Drive magnitude sqrt(d2); raises when d2 < 0."""
        if not self.is_physical:
            raise NonphysicalDriveError(
                f"d2 = {self.d2} < 0 has no real drive amplitude"
            )
        return math.sqrt(self.d2)

    def with_delta(self, delta: float) -> "DopoParams":
        return DopoParams(self.j, delta, self.d2)


@dataclass(frozen=True)
class MomentumGrid:
    """The n discrete momentum points in (-pi, pi] of one boundary sector."""

    n: int
    sector: str
    points: np.ndarray = field(compare=False)


def build_grid(n: int, sector: str = PERIODIC) -> MomentumGrid:
    """Build the n-point momentum grid for one boundary sector.

    periodic sector:     k = 2*pi*m/n    for m = -n/2+1 ... n/2
    antiperiodic sector: k = (2m+1)*pi/n for m = -n/2 ... n/2-1

    n must be a positive even integer.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer >= 2, got {n}")
    if sector == PERIODIC:
        m = np.arange(-(n // 2) + 1, n // 2 + 1)
        points = 2.0 * np.pi * m / n
    elif sector == ANTIPERIODIC:
        m = np.arange(-(n // 2), n // 2)
        points = (2 * m + 1) * np.pi / n
    else:
        raise ValueError(f"unknown sector {sector!r}")
    points.flags.writeable = False
    return MomentumGrid(int(n), sector, points)


SPECTRUM_ENERGY = "energy"          # real quasiparticle energies E_k >= 0
SPECTRUM_OMEGA_SQUARED = "omega2"   # signed squared energies, any sign


@dataclass(frozen=True)
class Spectrum:
    """Paired (k, value) arrays: energies E_k or signed squared energies."""

    k: np.ndarray
    value: np.ndarray
    kind: str = SPECTRUM_ENERGY

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        value = np.asarray(self.value, dtype=float)
        if k.shape != value.shape or k.ndim != 1:
            raise ValueError("k and value must be 1-d arrays of equal length")
        if not np.all(np.diff(k) > 0):
            raise ValueError("k must be strictly increasing")
        if self.kind == SPECTRUM_ENERGY and np.any(value < 0):
            raise ValueError("energy spectrum entries must be non-negative")
        k.flags.writeable = False
        value.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class SweepRecord:
    """One control point of a sweep; unrequested/undefined entries are None."""

    control: float
    h: float | None = None
    delta: float | None = None
    e_g: float | None = None
    m_z: float | None = None
    chi: float | None = None
    phase: str | None = None
    gap: float | None = None
    flags: str = ""
