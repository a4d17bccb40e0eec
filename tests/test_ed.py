import os
import subprocess
import sys

import numpy as np
import pytest

import xydopo

from xydopo.ed import (
    _ARPACK_SEED,
    DENSE,
    EVEN,
    ODD,
    _block,
    _dihedral_block,
    _lowest,
    _perron_level,
    _rows,
    _sector_levels,
    _sector_states,
    ed_ground_state,
    ed_vs_analytic,
    spin_hamiltonian_dense,
)
from xydopo.types import ANTIPERIODIC, PERIODIC, NumericalError, XYParams, build_grid
from xydopo.xy import (
    xy_energy_density,
    xy_ground_energy_finite,
    xy_ground_energy_ring,
    xy_magnetization,
)


def test_hamiltonian_is_exactly_symmetric():
    for p in (XYParams(1.0, 0.0, 0.5), XYParams(2.0, 1.0, 1.3), XYParams(0.7, 0.7, 0.0)):
        ham = spin_hamiltonian_dense(p, 6)
        assert np.array_equal(ham, ham.T)


@pytest.mark.parametrize("point", [(1.0, 0.0, 0.5), (2.0, 1.0, 1.3), (0.7, 0.7, 0.0),
                                   (1.0, 1.0, 3.0), (0.0, 0.0, 0.0)])
def test_hamiltonian_matches_scatter_construction(point):
    # the dense block against np.add.at over the same rows,
    # bit for bit (at n = 2 both bonds add to one entry)
    p = XYParams(*point)
    for n in range(2, 9):
        dim = 1 << n
        cols, aligned, sz = _rows(n, np.arange(dim, dtype=np.int64), 0)
        amps = np.column_stack([-p.h * sz, np.where(aligned, p.jy - p.jx, -(p.jx + p.jy))])
        want = np.zeros((dim, dim))
        np.add.at(want, (np.arange(dim)[:, None], cols), amps)
        assert spin_hamiltonian_dense(p, n).tobytes() == want.tobytes(), n


def _dense_equals_csr(rows, rng, weight=1.0):
    # random couplings of either sign, their sign frame (every pair-flip amplitude
    # <= 0) and the special values: a zero field (signed zeros on the diagonal),
    # jx = jy (aligned amplitude 0) and jx = -jy (anti-aligned amplitude 0)
    jx, jy, h = rng.uniform(-2.5, 2.5, size=3)
    a, b = (jx, jy) if abs(jx) >= abs(jy) else (jy, jx)
    a, b = (-a, -b) if a < 0.0 else (a, b)
    for couplings in ((jx, jy, h), (a, b, h), (1.0, 1.0, 0.0), (1.0, -1.0, 0.6), (0.0, 1.0, -0.0)):
        dense = _block(*rows, *couplings, weight, dense=True)
        assert isinstance(dense, np.ndarray), couplings
        assert dense.tobytes() == _block(*rows, *couplings, weight).toarray().tobytes(), couplings


def test_dense_assembly_equals_csr_toarray():
    # every block the dense solver sees is assembled dense, without a CSR matrix;
    # at n = 2 both bonds flip one pair, so a row repeats a column
    rng = np.random.default_rng(28)
    for n in range(2, 13):
        for odd in (0, 1):
            _dense_equals_csr(_rows(n, _sector_states(n, odd), 1), rng)
            if n % 2 == 0:
                cols, aligned, weight, sz, _ = _dihedral_block(n, odd)
                _dense_equals_csr((cols, aligned, sz), rng, weight)
        if n <= 10:
            _dense_equals_csr(_rows(n, np.arange(1 << n, dtype=np.int64), 0), rng)


def test_free_spins_align_with_field():
    res = ed_ground_state(XYParams(0.0, 0.0, 1.0), 4)
    assert res.ground_energy == pytest.approx(-4.0, abs=1e-12)
    assert res.ground_m_z == pytest.approx(1.0, abs=1e-12)
    assert res.parity == EVEN
    assert res.gap == pytest.approx(2.0, abs=1e-12)


def test_classical_ising_ring():
    # -jx per bond, 4 bonds
    res = ed_ground_state(XYParams(1.0, 0.0, 0.0), 4)
    assert res.ground_energy == pytest.approx(-4.0, abs=1e-12)
    # zero-field ground state carries no z magnetization
    assert abs(res.ground_m_z) < 1e-9


def test_ground_energy_close_to_thermodynamic_density():
    p = XYParams(1.0, 0.0, 2.0)
    res = ed_ground_state(p, 10)
    e_inf = xy_energy_density(p).value
    assert abs(res.ground_energy / 10 - e_inf) < 0.05


def test_sector_comparison_ising_paramagnet():
    cmp = ed_vs_analytic(XYParams(1.0, 0.0, 2.0), 8)
    assert cmp.matched_sector == ANTIPERIODIC
    assert abs(cmp.residual_antiperiodic) < 1e-9
    assert abs(cmp.residual_periodic) > 1e-4  # deviates at O(1/n)


@pytest.mark.parametrize("point, n, sector", [
    *[((1.0, 1.0, 3.0), n, ANTIPERIODIC) for n in (4, 6, 8, 10)],  # polarized: a tie
    *[((1.0, 0.0, 0.0), n, ANTIPERIODIC) for n in (4, 6, 8, 10)],  # Ising at h = 0: a tie
    ((1.0, 1.0, 0.7), 8, PERIODIC), ((2.0, 1.0, 1.5), 4, PERIODIC),
])
def test_matched_sector_follows_ground_state_parity(point, n, sector):
    # an even ground state takes the antiperiodic grid, an odd one the periodic
    # grid, also where both sector sums equal the ED energy
    cmp = ed_vs_analytic(XYParams(*point), n)
    assert cmp.matched_sector == sector
    matched = cmp.residual_antiperiodic if sector == ANTIPERIODIC else cmp.residual_periodic
    assert abs(matched) < 1e-12


def test_sector_comparison_runs_on_two_sites():
    # boundary-dominated smallest ring: report only, no agreement asserted
    cmp = ed_vs_analytic(XYParams(1.0, 1.0, 0.3), 2)
    assert cmp.n == 2
    assert np.isfinite(cmp.residual_periodic) and np.isfinite(cmp.residual_antiperiodic)


def test_sector_comparison_rejects_odd_n():
    with pytest.raises(ValueError):
        ed_vs_analytic(XYParams(1.0, 0.0, 1.0), 5)
    with pytest.raises(ValueError):
        ed_vs_analytic(XYParams(1.0, 0.0, 1.0), 22)  # above the Lanczos limit


def test_sector_sums_bound_ground_energy():
    rng = np.random.default_rng(53)
    for _ in range(8):
        jx, jy = rng.uniform(0.1, 2.5, size=2)
        h = rng.uniform(0.0, 4.0)
        p = XYParams(jx, jy, h)
        for n in (6, 8):
            ed = ed_ground_state(p, n).ground_energy
            sums = [
                xy_ground_energy_finite(p, build_grid(n, s))
                for s in (PERIODIC, ANTIPERIODIC)
            ]
            assert min(sums) >= ed - 1e-9


@pytest.mark.parametrize("jx,jy,h", [(1.0, 0.0, 1.5), (2.0, 1.0, 4.5)])
def test_convergence_toward_density_gapped(jx, jy, h):
    p = XYParams(jx, jy, h)
    e_inf = xy_energy_density(p).value
    devs = [abs(ed_ground_state(p, n).ground_energy / n - e_inf) for n in (6, 8, 10)]
    assert devs[0] > devs[1] > devs[2]


def test_magnetization_non_decreasing_in_field():
    p0 = XYParams(1.0, 0.0, 0.0)
    fields = np.linspace(0.0, 2.0, 20)
    values = [ed_ground_state(p0.with_h(h), 8).ground_m_z for h in fields]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-10)


def test_magnetization_magnitude_bounded():
    rng = np.random.default_rng(59)
    for _ in range(5):
        p = XYParams(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-3, 3))
        assert abs(ed_ground_state(p, 6).ground_m_z) <= 1.0 + 1e-12


def test_parity_paramagnetic_ground():
    assert ed_ground_state(XYParams(1.0, 0.0, 2.0), 8).parity == EVEN


def test_degenerate_ground_is_deterministic():
    a = ed_ground_state(XYParams(0.0, 0.0, 0.0), 4)   # fully degenerate
    b = ed_ground_state(XYParams(0.0, 0.0, 0.0), 4)
    assert a == b
    assert abs(a.ground_m_z) <= 1.0


@pytest.mark.parametrize("n, method", [(4, "dense"), (8, "dense"), (14, "lanczos")])
def test_zero_hamiltonian_is_exact(n, method):
    # every state is a ground state; m_z is the average over that whole space
    p = XYParams(0.0, 0.0, 0.0)
    res = ed_ground_state(p, n, method)
    assert (res.ground_energy, res.ground_m_z, res.parity, res.gap) == (0.0, 0.0, EVEN, 0.0)
    cmp = ed_vs_analytic(p, n)
    assert (cmp.ed_energy, cmp.matched_sector) == (0.0, ANTIPERIODIC)


@pytest.mark.parametrize("h", [0.5, -0.5, 1.3, -2.0, 1e-3])
def test_field_only_chain_is_exact(h):
    # H = -h sum_i sz_i is diagonal, so both methods give the same closed-form
    # levels; ARPACK on that block restarted from a random vector of its own
    # and moved the gap in its last digits from call to call
    p = XYParams(0.0, 0.0, h)
    for n in range(9, 13):
        assert ed_ground_state(p, n, "lanczos") == ed_ground_state(p, n, "dense"), n
    if h in (0.5, -0.5, -2.0):   # dyadic: -h*(n - 2) - (-h*n) rounds to nothing
        assert ed_ground_state(p, 20, "lanczos").gap == 2.0 * abs(h)
    cmp = ed_vs_analytic(p, 16)
    assert (cmp.residual_periodic, cmp.residual_antiperiodic) == (0.0, 0.0)


def test_lanczos_matches_dense():
    # n = 10 and 12 are the sizes the default solver choice moved to ARPACK
    rng = np.random.default_rng(61)
    for _ in range(4):
        p = XYParams(rng.uniform(0.2, 2), rng.uniform(0.2, 2), rng.uniform(0.3, 3))
        for n in (10, 12):
            dense = ed_ground_state(p, n, "dense")
            lanczos = ed_ground_state(p, n, "lanczos")
            assert lanczos.ground_energy == pytest.approx(dense.ground_energy, abs=1e-11)
            assert lanczos.gap == pytest.approx(dense.gap, abs=1e-11)
            assert lanczos.ground_m_z == pytest.approx(dense.ground_m_z, abs=1e-6)


@pytest.mark.parametrize("n", [7, 8])
def test_lanczos_solves_blocks_of_up_to_128_states_dense(n):
    rng = np.random.default_rng(73)
    points = [(2.0, 1.0, 1.5), (1.0, 1.0, 0.7), (1.0, 0.0, 2.0)]
    points += [tuple(rng.uniform(0.1, 2.5, size=2)) + (rng.uniform(-3.0, 3.0),) for _ in range(3)]
    for point in points:
        p = XYParams(*point)
        assert ed_ground_state(p, n, "lanczos") == ed_ground_state(p, n, "dense"), point


def test_lanczos_runs_arpack_on_larger_blocks(monkeypatch):
    import scipy.sparse.linalg

    calls, starts = [], []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(a, *args, **kwargs):
        calls.append((a.shape[0], kwargs["k"]))
        starts.append(kwargs["v0"])
        return eigsh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    p = XYParams(2.0, 1.0, 1.5)
    ed_ground_state(p, 9, "lanczos")
    # both parity blocks of the 9-site ring, two levels each for the gap and m_z,
    # started from the seeded Gaussian, which no symmetry confines
    assert calls == [(256, 2), (256, 2)]
    gaussian = np.random.default_rng(_ARPACK_SEED).standard_normal(256)
    assert all(np.array_equal(v0, gaussian) for v0 in starts)
    calls.clear()
    starts.clear()
    # the sector comparison reads one level of each sector's dihedral-symmetric
    # block: 44 and 34 states at n = 10, solved dense, 1162 and 1088 at n = 16,
    # started from a strictly positive state, which overlaps the level's
    # nonnegative eigenvector
    ed_vs_analytic(p, 10)
    assert calls == []
    ed_vs_analytic(p, 16)
    assert calls == [(1162, 1), (1088, 1)]
    assert [v0.shape for v0 in starts] == [(1162,), (1088,)]
    assert all(v0.min() > 0.0 for v0 in starts)


@pytest.mark.parametrize("jx,jy", [(2.0, 1.0), (1.0, 1.0), (1.0, 0.0)],
                         ids=["anisotropic", "isotropic", "ising"])
def test_sector_comparison_agrees_with_ground_state(jx, jy):
    hc = jx + jy
    for n in (10, 12, 14):
        for h in (0.0, hc / 2, hc, 1.5 * hc):
            p = XYParams(jx, jy, h)
            cmp, res = ed_vs_analytic(p, n), ed_ground_state(p, n, "lanczos")
            assert abs(cmp.ed_energy - res.ground_energy) < 1e-10, (p, n)
            assert (cmp.matched_sector == ANTIPERIODIC) == (res.parity == EVEN), (p, n)


def test_perron_block_holds_each_sector_ground_level(monkeypatch):
    # ed_vs_analytic solves each parity sector on its block of dihedral-symmetric
    # states, in a sign frame where every pair-flip amplitude is <= 0, so that
    # the sector's lowest level has a nonnegative eigenvector (Perron-Frobenius).
    # Without the frame the odd sector misses by 4.49 at (-1, -0.5, 0.3), n = 8.
    blocks = []

    def spy(ham, *args):
        blocks.append(ham.copy())  # dense, and LAPACK may overwrite ham
        return _lowest(ham, *args)

    monkeypatch.setattr(xydopo.ed, "_lowest", spy)
    rng = np.random.default_rng(79)
    points = [(-1.0, -0.5, 0.3), (1.0, -2.0, 0.4), (0.5, 1.5, -0.7), (-2.0, 0.3, 1.1),
              (1.0, 1.0, 0.6), (1.0, -1.0, 0.6), (0.0, 1.0, 0.8)]  # the last three reducible
    points += [tuple(rng.uniform(-2.5, 2.5, size=3)) for _ in range(6)]
    for n in range(2, 13, 2):
        for point in points if n < 12 else points[1:2]:  # a dense n = 12 sector takes 0.8 s
            p = XYParams(*point)
            for odd in (0, 1):
                blocks.clear()
                level = _perron_level(p, n, odd)
                want = _sector_levels(p, n, odd, DENSE)[0][0]
                assert abs(level - want) <= 1e-12 * max(1.0, abs(want)), (point, n, odd)
                if n <= 10:  # every level of the symmetric block is a level of the sector
                    parity = np.linalg.eigvalsh(
                        _block(*_rows(n, _sector_states(n, odd), 1), p.jx, p.jy, p.h).toarray())
                    perron = np.linalg.eigvalsh(blocks[0])
                    miss = np.abs(perron[:, None] - parity[None, :]).min(axis=1)
                    assert miss.max() <= 1e-12 * max(1.0, np.abs(parity).max()), (point, n, odd)


def test_arpack_perron_level_is_the_block_lowest_level(monkeypatch):
    # at n = 14 ARPACK solves the symmetric block, started from its positive state;
    # the level it returns is LAPACK's lowest of the same block, in every sign frame
    # (none, swap, negate, both), on reducible blocks and on random chains
    blocks = []

    def spy(ham, *args):
        blocks.append(ham)
        return _lowest(ham, *args)

    monkeypatch.setattr(xydopo.ed, "_lowest", spy)
    rng = np.random.default_rng(83)
    points = [(2.0, 1.0, 1.5), (0.5, 1.5, -0.7), (-2.0, 0.3, 1.1), (1.0, -2.0, 0.4),
              (1.0, 1.0, 0.6), (0.0, 1.0, 0.8)]  # the last two reducible
    points += [tuple(rng.uniform(-2.5, 2.5, size=3)) for _ in range(6)]
    for point in points:
        p = XYParams(*point)
        for odd in (0, 1):
            blocks.clear()
            level = _perron_level(p, 14, odd)
            assert not isinstance(blocks[0], np.ndarray), (point, odd)  # ARPACK's CSR block
            want = np.linalg.eigvalsh(blocks[0].toarray())[0]
            assert abs(level - want) <= 1e-12 * max(1.0, abs(want)), (point, odd)


@pytest.mark.parametrize("point, n", [
    ((2.0, 1.0, 1.5), 8), ((1.0, 0.0, 0.5), 6), ((1.0, 1.0, 0.7), 8),
    ((1.0, 1.0, 3.0), 8), ((1.0, 0.0, 0.0), 8), ((0.7, 1.9, -0.4), 10), ((0.0, 0.0, 1.3), 6),
])
def test_ed_is_scale_invariant(point, n):
    # H is homogeneous in (jx, jy, h): scaling the chain by lam scales every level
    # by lam and leaves the ground state, its parity and its sector unchanged, so
    # which levels tie may not depend on the scale (polarized and Ising ties included)
    ref = ed_ground_state(XYParams(*point), n)
    ref_cmp = ed_vs_analytic(XYParams(*point), n)
    for lam in (1e-10, 1e-8, 1e-6, 1e6):
        p = XYParams(*(lam * x for x in point))
        res, cmp = ed_ground_state(p, n), ed_vs_analytic(p, n)
        assert (res.parity, cmp.matched_sector) == (ref.parity, ref_cmp.matched_sector), lam
        assert abs(res.ground_m_z - ref.ground_m_z) <= 1e-9, lam
        for energy, want in ((res.ground_energy, ref.ground_energy),
                             (cmp.ed_energy, ref_cmp.ed_energy)):
            assert abs(energy / lam - want) <= 1e-12 * abs(want), lam


def test_dihedral_block_cache_is_couplings_free_and_read_only():
    # the cached block structure depends on (n, parity) only: a level solved on
    # an entry that another chain built equals, bit for bit, one solved cold
    warm_up = XYParams(1.0, 0.3, 0.5)
    chains = [XYParams(0.5, 1.2, 0.3), XYParams(-1.3, 0.6, -0.4), XYParams(0.4, -1.7, 0.9)]
    for n in range(2, 15, 2):  # to n = 14, where ARPACK solves the blocks
        for odd in (0, 1):
            for p in chains:  # the sign frame swaps, negates, or does both
                _dihedral_block.cache_clear()
                cold = _perron_level(p, n, odd)
                _dihedral_block.cache_clear()
                _perron_level(warm_up, n, odd)
                assert _perron_level(p, n, odd) == cold, (p, n, odd)
                assert _dihedral_block.cache_info()[:2] == (1, 1)  # (hits, misses)
    for array in _dihedral_block(8, 1):
        with pytest.raises(ValueError):
            array[0] = array[1]
    _dihedral_block.cache_clear()
    p = XYParams(2.0, 1.0, 1.4)
    assert ed_vs_analytic(p, 16) == ed_vs_analytic(p, 16)


@pytest.mark.parametrize("jx,jy", [(2.0, 1.0), (1.0, 1.0), (1.0, 0.0)],
                         ids=["anisotropic", "isotropic", "ising"])
def test_sector_comparison_on_larger_rings(jx, jy):
    p = XYParams(jx, jy, 0.7 * (jx + jy))
    for n in (18, 20):
        assert abs(ed_vs_analytic(p, n).ed_energy - xy_ground_energy_ring(p, n)) < 1e-9, n
    assert ed_vs_analytic(p, 16) == ed_vs_analytic(p, 16)


def test_lanczos_larger_ring_against_sector_sum():
    p = XYParams(1.0, 0.0, 2.0)
    res = ed_ground_state(p, 14, "lanczos")
    expected = xy_ground_energy_finite(p, build_grid(14, ANTIPERIODIC))
    assert res.ground_energy == pytest.approx(expected, abs=1e-8)


def test_ed_matches_finite_difference_magnetization():
    p = XYParams(1.0, 0.0, 4.0)
    ed_mz = ed_ground_state(p, 12).ground_m_z
    fd_mz = xy_magnetization(p, dh=1e-4).value
    assert abs(ed_mz - fd_mz) < 2e-2


def test_size_and_method_validation():
    with pytest.raises(ValueError):
        ed_ground_state(XYParams(1, 0, 1), 1)
    with pytest.raises(ValueError):
        ed_ground_state(XYParams(1, 0, 1), 21, "lanczos")
    with pytest.raises(ValueError):
        ed_ground_state(XYParams(1, 0, 1), 13, "dense")
    with pytest.raises(ValueError):
        ed_ground_state(XYParams(1, 0, 1), 8, "sparse")


def test_ring_energy_rejects_odd_n():
    with pytest.raises(ValueError):
        xy_ground_energy_ring(XYParams(1.0, 0.0, 1.0), 7)


_RANDOM_CHAIN = tuple(float(j) for j in np.random.default_rng(67).uniform(0.2, 2.0, size=2))


@pytest.mark.parametrize("jx,jy", [(2.0, 1.0), (1.0, 1.0), (1.0, 0.0), _RANDOM_CHAIN],
                         ids=["anisotropic", "isotropic", "ising", "random"])
def test_ground_energy_matches_parity_resolved_ring_energy(jx, jy):
    runs = [(n, "dense", np.linspace(-4.0, 4.0, 17)) for n in (4, 6, 8, 10)]
    runs += [(n, "lanczos", np.linspace(-4.0, 4.0, 9)) for n in (12, 14)]
    parities = set()
    for n, method, fields in runs:
        for h in fields:
            p = XYParams(jx, jy, float(h))
            res = ed_ground_state(p, n, method)
            assert abs(res.ground_energy - xy_ground_energy_ring(p, n)) < 1e-10, (p, n, method)
            parities.add(res.parity)
    if jx == jy:
        # the isotropic ground state changes sector with h inside this grid,
        # so a solver that searched one sector only would miss levels here
        assert parities == {EVEN, ODD}


def test_lanczos_ordered_ising_ring_is_exact():
    p = XYParams(1.0, 0.0, 0.5)
    res = ed_ground_state(p, 16, "lanczos")
    assert abs(res.ground_energy - xy_ground_energy_ring(p, 16)) < 1e-9


def test_sector_merge_matches_full_space():
    """gap, parity and m_z are those of the whole spectrum, not of one sector."""
    n = 8
    sz = np.array([n - 2 * bin(s).count("1") for s in range(1 << n)], dtype=float)
    signs = np.array([(-1) ** bin(s).count("1") for s in range(1 << n)], dtype=float)
    rng = np.random.default_rng(71)
    points = [(1.0, 0.0, 0.5), (1.0, 0.0, 2.0), (2.0, 1.0, 1.5), (2.0, 1.0, 4.5),
              (1.0, 1.0, 0.7), (1.0, 1.0, 3.0)]
    points += [tuple(rng.uniform(0.1, 2.5, size=2)) + (rng.uniform(-3.0, 3.0),)
               for _ in range(6)]
    for point in points:
        p = XYParams(*point)
        w, v = np.linalg.eigh(spin_hamiltonian_dense(p, n))
        assert w[1] - w[0] > 1e-6 and w[2] - w[1] > 1e-6, point  # non-degenerate
        res = ed_ground_state(p, n)
        assert res.gap == pytest.approx(w[1] - w[0], abs=1e-10)
        assert res.parity == (EVEN if signs @ v[:, 0] ** 2 > 0 else ODD)
        assert res.ground_m_z == pytest.approx(sz @ v[:, 0] ** 2 / n, abs=1e-10)


def test_lanczos_is_deterministic():
    p = XYParams(1.3, 0.4, 0.9)
    assert ed_ground_state(p, 14, "lanczos") == ed_ground_state(p, 14, "lanczos")
    assert ed_vs_analytic(p, 14) == ed_vs_analytic(p, 14)


def test_import_loads_no_scipy():
    # scipy is needed by ED only, and ED imports it when a ring is solved
    src = os.path.dirname(os.path.dirname(xydopo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, xydopo; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_validate_full_loads_no_scipy_sparse():
    # every block of validate's ED table has at most 122 states, so each is
    # assembled dense and solved by LAPACK; scipy.sparse is for ARPACK only
    src = os.path.dirname(os.path.dirname(xydopo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys; from xydopo.sweep import run_validate; assert run_validate('full').passed; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_lanczos_failure_raises_numerical_error(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="n=14"):
        ed_ground_state(XYParams(1.0, 0.0, 0.5), 14, "lanczos")
    with pytest.raises(NumericalError, match="n=16"):
        ed_vs_analytic(XYParams(1.0, 0.0, 0.5), 16)
