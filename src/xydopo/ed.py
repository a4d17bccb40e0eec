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
merged afterwards. _rows (couplings-free) and _block (the amplitudes above)
are the one statement of H's rows for every block. Each block is built once,
as the solver that takes it reads it: a dense array for LAPACK, a CSR matrix
for ARPACK. The dense method diagonalizes every block as a full matrix
(about 33 MB per block at n = 12, the dense limit) and is the reference. The
Lanczos method does the same for blocks of at most 128 states (n <= 8), where
that is faster, and runs ARPACK's implicitly restarted Lanczos (scipy's eigsh)
on the sparse block above that, to n = 20: at n = 12, about 0.017 s against
1.6 s dense on one BLAS thread of a 2-vCPU x86 host, with energies equal to
about 1e-13. ed_ground_state is dense unless asked otherwise and keeps eight
levels per dense block, two per ARPACK block, for its gap and m_z.
ed_vs_analytic, and through it validate's ED table, finds one level per sector
on a block about 2n times smaller (see its docstring), with ARPACK started from
the block's positive state: 1,162 and 1,088 states against 32,768 at n = 16,
0.005-0.011 s against 0.3-0.9 s, and 0.05-0.14 s at n = 20. That block's
couplings-free structure and start are built once per (n, parity) and cached,
10.2 MB for every even n to 20 and 0.7 MB to n = 16. scipy is imported only
when a block is solved, and scipy.sparse only for an ARPACK block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types import ANTIPERIODIC, PERIODIC, NumericalError, XYParams, build_grid
from .xy import xy_ground_energy_finite

DENSE = "dense"
LANCZOS = "lanczos"
EVEN = "even"
ODD = "odd"

_DENSE_MAX = 12
_LANCZOS_MAX = 20
_DENSE_BLOCK_MAX = 128   # n <= 8: the Lanczos method solves blocks this small dense, faster
_DENSE_LEVELS = 8        # lowest levels kept per block by the dense solver
_ARPACK_SEED = 20240917  # the parity blocks' fixed Gaussian start: repeated calls give equal results
_ARPACK_TOL = 1e-12      # relative residual, so each level is within 1e-12 |E|
_DEGENERACY_TOL = 1e-9   # times the largest of |jx|, |jy|, |h|: levels this close tie


def _degeneracy_tol(p: XYParams) -> float:
    """How close two levels of p's ring must be to tie: H is homogeneous in (jx, jy, h),
    so the bound scales with them, and a chain scaled by any factor ties the same levels."""
    return _DEGENERACY_TOL * max(abs(p.jx), abs(p.jy), abs(p.h))


@dataclass(frozen=True)
class EdResult:
    n: int
    ground_energy: float    # lowest level over both parity sectors
    ground_m_z: float       # <sum_i sz_i>/n, averaged over the degenerate ground group
    parity: str             # sector of the ground level, EVEN on a cross-sector tie
    gap: float              # E1 - E0 over both sectors (about 0 if degenerate)


def _rows(n: int, states: np.ndarray, shift: int):
    """H's couplings-free rows on states, a set that every pair flip maps into itself,
    state s at index s >> shift: column indices (the diagonal first, then one per bond),
    each bond's aligned-pair mask and each state's sum_i sz_i (bit 0 is sz = +1). H is
    symmetric, so the flips out of s give the entries of its row."""
    cols, aligned = [states >> shift], []
    for i in range(n):
        j = (i + 1) % n
        aligned.append((((states >> i) ^ (states >> j)) & 1) == 0)
        cols.append((states ^ ((1 << i) | (1 << j))) >> shift)
    return np.stack(cols, axis=1), np.stack(aligned, axis=1), n - 2.0 * np.bitwise_count(states)


def _block(cols, aligned, sz, a: float, b: float, h: float, weight=1.0, dense=False):
    """The rows from _rows as a CSR matrix, or an array if dense, for couplings (a, b) =
    (jx, jy) or a sign frame of them: -h sum_i sz_i on the diagonal, b - a on an aligned
    pair and -(a + b) on an anti-aligned one, times the bond's weight. Entries of a row that
    share a column add up (at n = 2), in CSR toarray's order when dense: the same bits.
    int32 cols become the CSR matrix's own indices, with no copy or range check."""
    amps = np.column_stack([-h * sz, np.where(aligned, b - a, -(a + b)) * weight])
    dim = len(cols)
    if dense:  # bincount adds the weights of each row-major flat index in order
        flat = cols + np.arange(0, dim * dim, dim)[:, None]
        return np.bincount(flat.ravel(), amps.ravel(), dim * dim).reshape(dim, dim)
    import scipy.sparse

    indptr = np.arange(0, amps.size + 1, amps.shape[1], dtype=cols.dtype)
    return scipy.sparse.csr_matrix((amps.ravel(), cols.ravel(), indptr), shape=(dim, dim))


def spin_hamiltonian_dense(p: XYParams, n: int) -> np.ndarray:
    """Full 2^n x 2^n real symmetric Hamiltonian matrix."""
    return _block(*_rows(n, np.arange(1 << n, dtype=np.int64), 0), p.jx, p.jy, p.h, dense=True)


def _sector_states(n: int, odd: int) -> np.ndarray:
    """The 2^(n-1) states of one parity sector, state s at index s >> 1: the
    upper n-1 bits index the state and the lowest bit fixes its parity."""
    upper = np.arange(1 << (n - 1), dtype=np.int64)
    return (upper << 1) | ((np.bitwise_count(upper) & 1) ^ odd)


def _lowest(ham, k: int, p: XYParams, n: int, odd: int, v0):
    """The lowest levels and vectors of a block of sector odd of (p, n): up to k
    by LAPACK for a dense array, else min(k, 2) by ARPACK on the CSR matrix,
    started from v0 (a dense array takes none)."""
    dim = ham.shape[0]
    if isinstance(ham, np.ndarray):
        import scipy.linalg

        # the block is symmetric, so its transpose is the same matrix in the
        # Fortran order that LAPACK can overwrite without taking a copy
        return scipy.linalg.eigh(ham.T, overwrite_a=True, subset_by_index=(0, min(k, dim) - 1))
    import scipy.sparse.linalg

    # the CSR product itself, the same bits: eigsh would wrap the matrix in an
    # operator that sends each of its ~100 products through four more calls
    op = scipy.sparse.linalg.LinearOperator(ham.shape, matvec=ham.__matmul__, dtype=ham.dtype)
    try:
        return scipy.sparse.linalg.eigsh(op, k=min(k, 2), which="SA", v0=v0, tol=_ARPACK_TOL)
    except scipy.sparse.linalg.ArpackError as exc:  # includes ArpackNoConvergence
        raise NumericalError(
            f"ARPACK failed for {p} at n={n} ({ODD if odd else EVEN} sector): {exc}"
        ) from exc


def _sector_levels(p: XYParams, n: int, odd: int, method: str):
    """The lowest levels of one parity sector and each level's sum_i sz_i:
    8 on a dense block and 2 on an ARPACK one. A field-only chain
    (jx = jy = 0) is answered exactly, without building a block, by its
    distinct levels -h*(n - 2m), where the m flipped spins have the sector's
    parity (C(n, m) states each). The zero Hamiltonian keeps one level 0: each
    parity sector averages sum_i sz_i to 0 for n >= 2, so m_z = 0 over it."""
    if p.jx == 0.0 and p.jy == 0.0:
        if p.h == 0.0:
            return np.zeros(1), np.zeros(1)
        sz = n - 2.0 * np.arange(odd, n + 1, 2)  # as _rows' sum_i sz_i
        sz = sz[np.argsort(-p.h * sz)]
        return -p.h * sz, sz
    cols, aligned, sz = _rows(n, _sector_states(n, odd), 1)
    dense = method == DENSE or len(cols) <= _DENSE_BLOCK_MAX
    # ARPACK starts from a seeded Gaussian, not from a symmetric state: this block
    # is not symmetrized and two levels are asked for, and a start symmetric under
    # rotations and reflections keeps the Krylov space in the k = 0 reflection-even
    # states, which may not hold the first excited level, so the gap could be wrong
    v0 = None if dense else np.random.default_rng(_ARPACK_SEED).standard_normal(len(cols))
    levels, vecs = _lowest(_block(cols, aligned, sz, p.jx, p.jy, p.h, dense=dense),
                           _DENSE_LEVELS, p, n, odd, v0)
    return levels, (vecs * vecs).T @ sz


@lru_cache(maxsize=20)  # even n in 2..20, both parities: 10.2 MB in all, 0.7 MB for n <= 16
def _dihedral_block(n: int, odd: int):
    """The couplings-free part of sector odd's dihedral-symmetric block of an even
    ring, read-only: orbit-mapped columns (the diagonal first) as int32, the CSR
    matrix's own indices, the aligned-pair mask and weights sqrt(|O_row|/|O_col|) of
    each bond, sum_i sz_i, and ARPACK's start sqrt(|O|): the sector's uniform
    superposition in the block's normalized orbit states, strictly positive."""
    states = _sector_states(n, odd)
    # orbit representative: the least of the n rotations of s and of its reversal
    rep = states
    for t in (states, sum(((states >> i) & 1) << (n - 1 - i) for i in range(n))):
        for _ in range(n):
            t = ((t << 1) | (t >> (n - 1))) & ((1 << n) - 1)
            rep = np.minimum(rep, t)
    reps, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    cols, aligned, sz = _rows(n, reps, 0)
    cols = orbit[cols >> 1].astype(np.int32)
    weight = np.sqrt(size[:, None] / size[cols[:, 1:]])
    start = np.sqrt(size.astype(float))
    for array in (cols, aligned, weight, sz, start):
        array.flags.writeable = False
    return cols, aligned, weight, sz, start


def _perron_level(p: XYParams, n: int, odd: int) -> float:
    """The lowest level of sector odd of an even ring, from its dihedral-symmetric
    block (see ed_vs_analytic) with the couplings in the sign frame (a, b); a
    field-only chain's is _sector_levels' exact one. ARPACK starts from the block's
    positive state: the level's eigenvector is nonnegative and nonzero, so the
    start overlaps it by construction, not just almost surely as a random one does,
    and fewer restarts reach it."""
    if p.jx == 0.0 and p.jy == 0.0:
        return float(_sector_levels(p, n, odd, LANCZOS)[0][0])
    a, b = (p.jx, p.jy) if abs(p.jx) >= abs(p.jy) else (p.jy, p.jx)
    if a < 0.0:
        a, b = -a, -b
    cols, aligned, weight, sz, start = _dihedral_block(n, odd)
    ham = _block(cols, aligned, sz, a, b, p.h, weight, dense=len(cols) <= _DENSE_BLOCK_MAX)
    return float(_lowest(ham, 1, p, n, odd, start)[0][0])


def ed_ground_state(p: XYParams, n: int, method: str = DENSE) -> EdResult:
    """Ground energy, magnetization, parity and gap of the n-site ring.

    Both methods solve the even and odd parity sectors separately and merge
    their lowest levels, so the gap spans both sectors. The dense method
    covers n <= 12 (two 2^(n-1) blocks, ~33 MB each at the limit); the Lanczos
    method covers n <= 20, dense on blocks of at most 128 states and ARPACK
    above. m_z is averaged over the degenerate ground group among the levels
    each block's solver keeps (8 per block dense, 2 ARPACK).
    A field-only chain (jx = jy = 0) is answered exactly, without building a block.
    """
    if not 2 <= n <= _LANCZOS_MAX:
        raise ValueError(f"n must be in 2..{_LANCZOS_MAX}, got {n}")
    if method == DENSE and n > _DENSE_MAX:
        raise ValueError(f"dense method is limited to n <= {_DENSE_MAX}, got {n}")
    if method not in (DENSE, LANCZOS):
        raise ValueError(f"unknown method {method!r}")
    (even, even_sz), (odd, odd_sz) = (_sector_levels(p, n, s, method) for s in (0, 1))
    levels = np.concatenate([even, odd])
    order = np.argsort(levels, kind="stable")
    levels, sz = levels[order], np.concatenate([even_sz, odd_sz])[order]
    e0, tol = levels[0], _degeneracy_tol(p)
    group = levels - e0 <= tol  # its average m_z does not depend on the basis
    parity = EVEN if even.min() - e0 <= tol else ODD
    return EdResult(n, float(e0), float(np.mean(sz[group])) / n, parity,
                    float(levels[1] - e0))


@dataclass(frozen=True)
class SectorComparison:
    """ED ground energy against -(1/2) sum_k E_k on both momentum sectors.

    The fermionized ring's admissible grid depends on the ground state's
    parity sector, which the closed-form sum by itself does not know. The
    parity identity settles it: the even sector of prod_i sz_i takes the
    antiperiodic grid, the odd one the periodic grid (Lieb, Schultz & Mattis
    1961). The residuals report how far each sum is from ED.
    """

    n: int
    ed_energy: float
    periodic_sum: float
    antiperiodic_sum: float
    residual_periodic: float
    residual_antiperiodic: float
    matched_sector: str     # the grid of the ED ground state's parity sector


def ed_vs_analytic(p: XYParams, n: int) -> SectorComparison:
    """Compare ED against the closed-form sector sums (report, not an assert).
    A cross-sector tie matches the antiperiodic grid, as in ed_ground_state.

    Each sector's lowest level is solved on its block of states symmetric under
    rotations and reflections. The sign frame (a, b) swaps jx and jy when
    |jy| > |jx| (a pi/2 rotation about z), then negates both when the larger is
    negative (a pi rotation about z of the odd sites, n even): both maps are
    diagonal in sz, so each sector keeps its spectrum, and every pair-flip
    amplitude (b - a, -(a + b)) is <= 0. By Perron-Frobenius, even when
    reducible, the sector's lowest level then has a nonnegative eigenvector,
    whose average over rotations and reflections is nonzero and symmetric."""
    if n % 2 or not 2 <= n <= _LANCZOS_MAX:
        raise ValueError(f"sector sums need even n in 2..{_LANCZOS_MAX}, got {n}")
    even, odd = (_perron_level(p, n, s) for s in (0, 1))
    e0 = float(min(even, odd))
    periodic = xy_ground_energy_finite(p, build_grid(n, PERIODIC))
    anti = xy_ground_energy_finite(p, build_grid(n, ANTIPERIODIC))
    matched = ANTIPERIODIC if even - e0 <= _degeneracy_tol(p) else PERIODIC
    return SectorComparison(n, e0, periodic, anti, e0 - periodic, e0 - anti, matched)
