import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xydopo

from xydopo.ed import (
    EVEN,
    ODD,
    ed_ground_state,
    ed_vs_analytic,
    spin_hamiltonian_dense,
)
from xydopo.types import ANTIPERIODIC, PERIODIC, NumericalError, XYParams, build_grid
from xydopo.xy import xy_energy_density, xy_ground_energy_finite, xy_magnetization


def test_hamiltonian_is_exactly_symmetric():
    for p in (XYParams(1.0, 0.0, 0.5), XYParams(2.0, 1.0, 1.3), XYParams(0.7, 0.7, 0.0)):
        ham = spin_hamiltonian_dense(p, 6)
        assert np.array_equal(ham, ham.T)


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


def test_sector_comparison_runs_on_two_sites():
    # boundary-dominated smallest ring: report only, no agreement asserted
    cmp = ed_vs_analytic(XYParams(1.0, 1.0, 0.3), 2)
    assert cmp.n == 2
    assert np.isfinite(cmp.residual_periodic) and np.isfinite(cmp.residual_antiperiodic)


def test_sector_comparison_rejects_odd_n():
    with pytest.raises(ValueError):
        ed_vs_analytic(XYParams(1.0, 0.0, 1.0), 5)


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


@pytest.mark.parametrize("n, method", [(8, "dense"), (14, "lanczos")])
def test_zero_hamiltonian_is_exact(n, method):
    # every state is a ground state; m_z is the average over that whole space
    res = ed_ground_state(XYParams(0.0, 0.0, 0.0), n, method)
    assert (res.ground_energy, res.ground_m_z, res.parity, res.gap) == (0.0, 0.0, EVEN, 0.0)


def test_lanczos_matches_dense():
    rng = np.random.default_rng(61)
    for _ in range(4):
        p = XYParams(rng.uniform(0.2, 2), rng.uniform(0.2, 2), rng.uniform(0.3, 3))
        dense = ed_ground_state(p, 10, "dense")
        lanczos = ed_ground_state(p, 10, "lanczos")
        assert lanczos.ground_energy == pytest.approx(dense.ground_energy, abs=1e-8)
        assert lanczos.ground_m_z == pytest.approx(dense.ground_m_z, abs=1e-6)


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


def _ring_energy(p, n):
    """Exact ring ground energy from the parity-resolved Jordan-Wigner sums:
    the even sector is the antiperiodic sum; the odd sector is the periodic
    sum, raised by 2 min(|h+js|, |h-js|) when h+js and h-js share a sign."""
    js = p.jx + p.jy
    periodic = xy_ground_energy_finite(p, build_grid(n, PERIODIC))
    anti = xy_ground_energy_finite(p, build_grid(n, ANTIPERIODIC))
    if math.copysign(1.0, p.h + js) == math.copysign(1.0, p.h - js):
        periodic += 2.0 * min(abs(p.h + js), abs(p.h - js))
    return min(anti, periodic)


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
            assert abs(res.ground_energy - _ring_energy(p, n)) < 1e-10, (p, n, method)
            parities.add(res.parity)
    if jx == jy:
        # the isotropic ground state changes sector with h inside this grid,
        # so a solver that searched one sector only would miss levels here
        assert parities == {EVEN, ODD}


def test_lanczos_ordered_ising_ring_is_exact():
    p = XYParams(1.0, 0.0, 0.5)
    res = ed_ground_state(p, 16, "lanczos")
    assert abs(res.ground_energy - _ring_energy(p, 16)) < 1e-9


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


def test_import_loads_no_scipy():
    # scipy is needed by ED only, and ED imports it when a ring is solved
    src = os.path.dirname(os.path.dirname(xydopo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, xydopo; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_lanczos_failure_raises_numerical_error(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="n=14"):
        ed_ground_state(XYParams(1.0, 0.0, 0.5), 14, "lanczos")
