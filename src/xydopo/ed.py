"""Brute-force exact diagonalization of the spin ring, the independent oracle.

H = -sum_i (jx * sx_i sx_{i+1} + jy * sy_i sy_{i+1}) - h * sum_i sz_i

on a periodic ring of n spin-1/2 sites, in the sz product basis (bit = 0 means
spin up). Both coupling terms flip a pair of bits and have real matrix
elements (the two imaginary sy factors multiply out), so everything stays in
real arithmetic:

    aligned pair      |00> <-> |11>   amplitude  jy - jx
    anti-aligned pair |01> <-> |10>   amplitude -(jx + jy)

A pair flip keeps the parity prod_i sz_i (Lieb, Schultz & Mattis 1961), so
each parity sector is a closed block of 2^(n-1) states, solved on its own and
merged afterwards. The dense method diagonalizes each block as a full matrix
(about 33 MB per block at n = 12, the dense limit); the Lanczos method runs
ARPACK's implicitly restarted Lanczos (scipy's eigsh) on the sparse block and
goes to n = 20. scipy is imported only when a ring is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ANTIPERIODIC, PERIODIC, NumericalError, XYParams, build_grid
from .xy import xy_ground_energy_finite

DENSE = "dense"
LANCZOS = "lanczos"
EVEN = "even"
ODD = "odd"

_DENSE_MAX = 12
_LANCZOS_MAX = 20
_DENSE_LEVELS = 8        # lowest levels kept per block by the dense method
_ARPACK_MIN_DIM = 64     # blocks near ARPACK's 20-vector Krylov space or below go dense
_ARPACK_SEED = 20240917  # fixed start vector: repeated calls give equal results
_ARPACK_TOL = 1e-12      # relative residual, so each level is within 1e-12 |E|
_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class EdResult:
    n: int
    ground_energy: float    # lowest level over both parity sectors
    ground_m_z: float       # <sum_i sz_i>/n, averaged over the degenerate ground group
    parity: str             # sector of the ground level, EVEN on a cross-sector tie
    gap: float              # E1 - E0 over both sectors (about 0 if degenerate)


def _hamiltonian_rows(p: XYParams, n: int, states: np.ndarray, shift: int):
    """Rows of H on states, a set that every pair flip maps into itself, with
    state s at index s >> shift: a (len(states), n + 1) array of column
    indices and one of amplitudes, the diagonal first and then one per bond.
    H is symmetric, so the flips out of s give the entries of its row."""
    cols = [states >> shift]
    amps = [-p.h * (n - 2.0 * np.bitwise_count(states))]  # bit=0 -> sz=+1
    for i in range(n):
        j = (i + 1) % n
        aligned = (((states >> i) ^ (states >> j)) & 1) == 0
        cols.append((states ^ ((1 << i) | (1 << j))) >> shift)
        amps.append(np.where(aligned, p.jy - p.jx, -(p.jx + p.jy)))
    return np.stack(cols, axis=1), np.stack(amps, axis=1)


def _dense(cols: np.ndarray, amps: np.ndarray) -> np.ndarray:
    dim = len(cols)
    ham = np.zeros((dim, dim))
    np.add.at(ham, (np.arange(dim)[:, None], cols), amps)  # n = 2: both bonds flip one pair
    return ham


def spin_hamiltonian_dense(p: XYParams, n: int) -> np.ndarray:
    """Full 2^n x 2^n real symmetric Hamiltonian matrix."""
    return _dense(*_hamiltonian_rows(p, n, np.arange(1 << n, dtype=np.int64), 0))


def _sector_levels(p: XYParams, n: int, odd: int, method: str):
    """Lowest levels of one parity sector and each level's sum_i sz_i."""
    # the upper n-1 bits index the state; the lowest bit fixes its parity
    upper = np.arange(1 << (n - 1), dtype=np.int64)
    states = (upper << 1) | ((np.bitwise_count(upper) & 1) ^ odd)
    dim = len(states)
    cols, amps = _hamiltonian_rows(p, n, states, 1)
    if method == DENSE or dim < _ARPACK_MIN_DIM:
        import scipy.linalg

        # the block is symmetric, so its transpose is the same matrix in the
        # Fortran order that LAPACK can overwrite without taking a copy
        levels, vecs = scipy.linalg.eigh(
            _dense(cols, amps).T, overwrite_a=True,
            subset_by_index=(0, min(_DENSE_LEVELS, dim) - 1))
    else:
        import scipy.sparse
        import scipy.sparse.linalg

        indptr = np.arange(0, amps.size + 1, n + 1)
        ham = scipy.sparse.csr_matrix((amps.ravel(), cols.ravel(), indptr), shape=(dim, dim))
        v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(dim)
        try:
            levels, vecs = scipy.sparse.linalg.eigsh(ham, k=2, which="SA", v0=v0,
                                                   tol=_ARPACK_TOL)
        except scipy.sparse.linalg.ArpackError as exc:  # includes ArpackNoConvergence
            raise NumericalError(
                f"ARPACK failed for {p} at n={n} ({ODD if odd else EVEN} sector): {exc}"
            ) from exc
    return levels, (vecs * vecs).T @ (n - 2.0 * np.bitwise_count(states))


def ed_ground_state(p: XYParams, n: int, method: str = DENSE) -> EdResult:
    """Ground energy, magnetization, parity and gap of the n-site ring.

    Both methods solve the even and odd parity sectors separately and merge
    their lowest levels, so the gap spans both sectors. The dense method
    covers n <= 12 (two 2^(n-1) blocks, ~33 MB each at the limit); the sparse
    ARPACK method covers n <= 20. m_z is averaged over the degenerate ground
    group among the levels each method keeps (8 per sector dense, 2 ARPACK).
    The zero Hamiltonian is answered exactly, without building a block.
    """
    if not 2 <= n <= _LANCZOS_MAX:
        raise ValueError(f"n must be in 2..{_LANCZOS_MAX}, got {n}")
    if method == DENSE and n > _DENSE_MAX:
        raise ValueError(f"dense method is limited to n <= {_DENSE_MAX}, got {n}")
    if method not in (DENSE, LANCZOS):
        raise ValueError(f"unknown method {method!r}")
    if p.jx == 0.0 and p.jy == 0.0 and p.h == 0.0:
        # H = 0: every state is a ground state. Each parity sector averages
        # sum_i sz_i to 0 for n >= 2, so m_z = 0 over the degenerate space.
        return EdResult(n, 0.0, 0.0, EVEN, 0.0)
    (even, even_sz), (odd, odd_sz) = (_sector_levels(p, n, s, method) for s in (0, 1))
    levels = np.concatenate([even, odd])
    order = np.argsort(levels, kind="stable")
    levels, sz = levels[order], np.concatenate([even_sz, odd_sz])[order]
    e0 = levels[0]
    group = levels - e0 <= _DEGENERACY_TOL  # its average m_z does not depend on the basis
    parity = EVEN if even.min() - e0 <= _DEGENERACY_TOL else ODD
    return EdResult(n, float(e0), float(np.mean(sz[group])) / n, parity,
                    float(levels[1] - e0))


@dataclass(frozen=True)
class SectorComparison:
    """ED ground energy against -(1/2) sum_k E_k on both momentum sectors.

    The fermionized ring's admissible grid depends on the ground state's
    parity sector, which the closed-form sum by itself does not know; this
    report settles it empirically per parameter point.
    """

    n: int
    ed_energy: float
    periodic_sum: float
    antiperiodic_sum: float
    residual_periodic: float
    residual_antiperiodic: float
    matched_sector: str     # sector with the smaller absolute residual


def ed_vs_analytic(p: XYParams, n: int, method: str | None = None) -> SectorComparison:
    """Compare ED against the closed-form sector sums (report, not an assert)."""
    if n % 2:
        raise ValueError(f"sector sums need even n, got {n}")
    if method is None:
        method = DENSE if n <= _DENSE_MAX else LANCZOS
    ed = ed_ground_state(p, n, method)
    periodic = xy_ground_energy_finite(p, build_grid(n, PERIODIC))
    anti = xy_ground_energy_finite(p, build_grid(n, ANTIPERIODIC))
    res_p = ed.ground_energy - periodic
    res_a = ed.ground_energy - anti
    matched = PERIODIC if abs(res_p) <= abs(res_a) else ANTIPERIODIC
    return SectorComparison(n, ed.ground_energy, periodic, anti, res_p, res_a, matched)
