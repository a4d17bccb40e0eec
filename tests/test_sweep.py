import io
import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from xydopo.dopo import dopo_energy_density, dopo_gap, dopo_squeezing
from xydopo.mapping import map_xy_to_dopo
from xydopo.quadrature import QuadratureSpec
from xydopo.sweep import (
    CSV_HEADER,
    PRESETS,
    ConfigError,
    SweepConfig,
    config_from_dict,
    preset_config,
    run_critical,
    run_sweep,
    run_validate,
    write_csv,
    write_json,
)
from xydopo.types import (
    CRITICAL,
    NORMAL,
    ORDERED,
    PARAMAGNETIC,
    SUPERRADIANT,
    DopoParams,
    NumericalError,
    UnstablePhaseError,
    XYParams,
)
from xydopo.xy import _stencil, xy_energy_density, xy_magnetization, xy_susceptibility


def small_xy_config(**kw):
    base = dict(model="xy", jx=1.0, jy=0.0, start=0.0, stop=2.0, steps=5)
    base.update(kw)
    return config_from_dict(base)


# --- configuration --------------------------------------------------------

def test_config_validation_messages():
    with pytest.raises(ConfigError, match="model"):
        config_from_dict(dict(model="spin", jx=1, jy=0, start=0, stop=1, steps=3))
    with pytest.raises(ConfigError, match="steps"):
        config_from_dict(dict(model="xy", jx=1, jy=0, start=0, stop=1, steps=1))
    with pytest.raises(ConfigError, match="control range"):
        config_from_dict(dict(model="xy", jx=1, jy=0, start=2, stop=1, steps=3))
    with pytest.raises(ConfigError, match="dh"):
        config_from_dict(dict(model="xy", jx=1, jy=0, start=0, stop=1, steps=3, dh=0))
    with pytest.raises(ConfigError, match="outputs"):
        config_from_dict(dict(model="xy", jx=1, jy=0, start=0, stop=1, steps=3,
                              outputs="e_g,banana"))
    with pytest.raises(ConfigError, match="couplings"):
        config_from_dict(dict(model="xy", jx=-1, jy=0, start=0, stop=1, steps=3))
    with pytest.raises(ConfigError, match="jx\\*jy"):
        config_from_dict(dict(model="mapped", jx=1, jy=0, start=0, stop=1, steps=3))
    # the map is asked only once the sign check passes: one message per bad input
    with pytest.raises(ConfigError, match="^params: couplings must be non-negative for sweeps$"):
        config_from_dict(dict(model="mapped", jx=-1, jy=0, start=0, stop=1, steps=3))
    with pytest.raises(ConfigError, match=re.escape("params: ('j', 'd2') required for 'dopo'")):
        SweepConfig("dopo", XYParams(1, 0, 0), 0.0, 1.0, 3)
    with pytest.raises(ConfigError, match="format: must be csv or json"):
        config_from_dict(dict(model="xy", jx=1, jy=0, start=0, stop=1, steps=3, format="xml"))
    # a directly built config is not converted: a mistyped field is named, not a TypeError
    for key, value in (("start", "0"), ("stop", "1"), ("dh", "1e-3"), ("steps", 3.0)):
        fields = {"start": 0.0, "stop": 1.0, "steps": 3, "dh": 1e-3, key: value}
        with pytest.raises(ConfigError, match=f"^{key}: must be"):
            run_sweep(SweepConfig("xy", XYParams(1, 0, 0), **fields))
    # no sweep key takes a boolean, though bool is a Real and an Integral
    for key, value in (("start", True), ("stop", True), ("steps", True), ("dh", True)):
        fields = {"start": 0.0, "stop": 2.0, "steps": 3, "dh": 1e-3, key: value}
        with pytest.raises(ConfigError, match=f"^{key}: must be"):
            SweepConfig("xy", XYParams(1, 0, 0), **fields).validate()
    for key, value in (("jx", True), ("dh", True), ("start", False), ("steps", True),
                       ("tol", True), ("outputs", True), ("note", False)):
        raw = {**dict(model="xy", jx=1, jy=0, start=0, stop=1, steps=3), key: value}
        with pytest.raises(ConfigError, match=f"^{key}: must not be a boolean"):
            config_from_dict(raw)


def test_replace_rechecks_the_config():
    # a config is checked when it is built, a replace copy included
    with pytest.raises(ConfigError, match="steps: must be >= 2"):
        replace(preset_config("fig2-tfi"), steps=1)
    assert not hasattr(SweepConfig, "validate")


def test_chi_tolerance_is_checked_on_construction():
    # a rule on the config's own fields: it fails when the config is built, not in run_sweep
    with pytest.raises(NumericalError, match="too loose for dh"):
        SweepConfig("xy", XYParams(1, 0, 0), 0.0, 1.0, 3, outputs=("chi",),
                     quad=QuadratureSpec(tol=1e-3))


def test_outputs_string_parsing():
    cfg = small_xy_config(outputs="e_g, phase")
    assert cfg.outputs == ("e_g", "phase")


def test_presets_build():
    assert set(PRESETS) == {
        "fig2-aniso", "fig2-iso", "fig2-tfi", "fig3-left", "fig3-middle", "fig3-right",
    }
    for name in PRESETS:
        cfg = preset_config(name)
    tfi = preset_config("fig2-tfi")
    assert (tfi.params.jx, tfi.params.jy) == (1.0, 0.0)
    assert (tfi.start, tfi.stop, tfi.steps) == (0.0, 2.0, 401)
    right = preset_config("fig3-right")
    assert right.params.jy == 0.01
    assert "10.1" in right.note


def test_preset_overrides():
    cfg = preset_config("fig2-tfi", steps=11, stop=1.5)
    assert cfg.steps == 11 and cfg.stop == 1.5


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("fig9")


# --- sweeps ----------------------------------------------------------------

def test_xy_sweep_values_and_flags():
    records = list(run_sweep(small_xy_config()))
    assert [r.control for r in records] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    direct = xy_energy_density(XYParams(1.0, 0.0, 0.5)).value
    assert records[1].e_g == pytest.approx(direct, abs=1e-12)
    assert records[0].phase == ORDERED
    assert records[2].phase == CRITICAL
    assert records[4].phase == PARAMAGNETIC
    # h_c = 1 sits exactly on the grid: flagged, and the dh window straddles it
    assert "critical" in records[2].flags and "straddle" in records[2].flags
    assert records[1].flags == ""
    assert records[0].delta is None


def test_xy_sweep_requested_columns_only():
    records = list(run_sweep(small_xy_config(outputs="e_g")))
    assert records[0].m_z is None and records[0].chi is None and records[0].phase is None


def test_xy_sweep_gap_column():
    records = list(run_sweep(small_xy_config(outputs="gap,phase")))
    assert records[2].gap == pytest.approx(0.0, abs=1e-9)   # gap closes at h_c
    assert records[4].gap == pytest.approx(2.0, abs=1e-6)   # 2|h - js| at the band edge


def test_mapped_sweep_dual_axes_and_phase_flip():
    cfg = config_from_dict(dict(model="mapped", jx=1.0, jy=1.0, start=0.0, stop=4.0,
                                steps=9, outputs="e_g,phase"))
    records = list(run_sweep(cfg))
    for r in records:
        assert r.delta == pytest.approx(-2.0 * r.h, abs=1e-12)
    phases = [r.phase for r in records]
    assert phases == [SUPERRADIANT] * 4 + [CRITICAL] + [NORMAL] * 4
    assert "critical" in records[4].flags
    # network-side energy equals the shifted chain energy
    e_xy = xy_energy_density(XYParams(1.0, 1.0, 3.0)).value
    assert records[6].e_g == pytest.approx(-e_xy + 3.0 * 2.0 / 2.0, abs=1e-9)


def test_mapped_sweep_at_the_exact_critical_field():
    # fig3-left: h = 3 is on the grid and keeps its energy and critical label
    cfg = config_from_dict(dict(model="mapped", jx=2.0, jy=1.0, start=2.0, stop=4.0,
                                steps=3, outputs="e_g,phase,gap"))
    record = list(run_sweep(cfg))[1]
    assert record.phase == CRITICAL
    e_xy = xy_energy_density(XYParams(2.0, 1.0, 3.0)).value
    assert record.e_g == pytest.approx(-e_xy + 9.0 / (2.0 * math.sqrt(2.0)), abs=1e-9)
    assert record.gap == 0.0   # the chain's closed-form band minimum at h_c


def test_mapped_sweep_gap_closed_in_the_gapless_window():
    cfg = config_from_dict(dict(model="mapped", jx=1.0, jy=1.0, start=0.3, stop=2.7,
                                steps=5, outputs="gap"))
    gaps = [r.gap for r in run_sweep(cfg)]
    assert all(g <= 1e-12 for g in gaps[:3])                   # |h| < 2j
    assert gaps[4] == pytest.approx(2.0 * (2.7 - 2.0), abs=1e-12)


@pytest.mark.parametrize("raw", [
    dict(model="mapped", jx=1.0, jy=1.0, start=0.0, stop=2.0),
    dict(model="dopo", j=1.0, d2=0.0, start=-2.0, stop=2.0),
], ids=["mapped-isotropic", "dopo-undriven"])
def test_gapless_network_gap_is_exactly_zero(raw):
    # the band closes at a kink for every control here; the gap is the
    # closed-form band minimum, not Omega^2 evaluated at arccos(argmin)
    gaps = [r.gap for r in run_sweep(config_from_dict(dict(raw, steps=201, outputs="gap")))]
    assert gaps == [0.0] * 201


def test_dopo_sweep_unstable_points_keep_streaming():
    cfg = config_from_dict(dict(model="dopo", j=2.0, d2=1.0, start=-6.0, stop=-4.0,
                                steps=5, outputs="e_g,phase"))
    records = list(run_sweep(cfg))
    # delta_c = -5: stable below, unstable above
    assert [r.phase for r in records] == [NORMAL, NORMAL, CRITICAL, SUPERRADIANT, SUPERRADIANT]
    assert records[0].e_g is not None
    assert records[3].e_g is None and records[4].e_g is None
    assert records[2].control == pytest.approx(-5.0)
    assert "critical" in records[2].flags
    assert records[0].h is None


def test_dopo_sweep_derivative_steps_near_instability():
    cfg = config_from_dict(dict(model="dopo", j=2.0, d2=1.0, start=-5.5, stop=-4.5,
                                steps=3, dh=0.6, outputs="m_z"))
    records = list(run_sweep(cfg))
    assert records[1].m_z is None
    assert "unstable-step" in records[1].flags


@pytest.mark.parametrize("j, d2, delta", [(2.0, 1.0, 6.0), (2.0, 1.0, -6.0), (2.0, 1.0, 10.0),
                                          (1.0, 0.5, 2.9), (1.0, 0.5, -2.9), (0.7, 0.2, -2.0),
                                          (2.0, 0.0, 5.0), (2.0, 0.0, -5.0)])
def test_dopo_magnetization_is_the_squeezed_photon_number(j, d2, delta):
    # Hellmann-Feynman: -de/d(delta) is -nbar where every eps_k > 0 and 1 + nbar
    # where every eps_k < 0, nbar = (1/pi) int_0^pi sinh^2 r_k dk the mean
    # squeezed-photon number per oscillator; the miss is the O(dh^2) truncation
    from scipy.integrate import quad

    cfg = config_from_dict(dict(model="dopo", j=j, d2=d2, start=delta - 0.25,
                                stop=delta + 0.25, steps=3, outputs="m_z"))
    r = list(run_sweep(cfg))[1]
    p = DopoParams(j, r.delta, d2)
    nbar = quad(lambda k: math.sinh(dopo_squeezing(p, k).r) ** 2, 0.0, math.pi,
                epsabs=1e-13, epsrel=1e-13)[0] / math.pi
    want = -nbar if delta > 0 else 1.0 + nbar
    assert r.m_z == pytest.approx(want, abs=1e-12 if d2 == 0.0 else 1e-6)


@pytest.mark.parametrize("d2, boundaries", [(1.0, [-5.0, 5.0]), (0.0, [-4.0, 4.0])],
                         ids=["driven", "undriven"])
def test_dopo_sweep_flags_only_the_phase_boundaries(d2, boundaries):
    # the inner thresholds -+(2|j| - sqrt(d2)) lie inside the superradiant window
    cfg = config_from_dict(dict(model="dopo", j=2.0, d2=d2, start=-6.0, stop=6.0, steps=13))
    records = list(run_sweep(cfg))
    for token in ("critical", "straddle"):
        assert [r.control for r in records if token in r.flags.split(";")] == boundaries, token


def test_unrequested_phase_stays_empty():
    dopo = config_from_dict(dict(model="dopo", j=2.0, d2=1.0, start=-6.0, stop=-4.0,
                                 steps=5, outputs="e_g"))
    records = list(run_sweep(dopo))
    assert records[3].e_g is None and records[4].e_g is None   # unstable network
    assert all(r.phase is None for r in records)
    mapped = config_from_dict(dict(model="mapped", jx=1.0, jy=1.0, start=0.0, stop=4.0,
                                   steps=9, outputs="e_g,m_z,chi,gap"))
    assert all(r.phase is None for r in run_sweep(mapped))


@pytest.mark.parametrize("raw", [
    dict(model="xy", jx=2.0, jy=1.0, start=0.0, stop=6.0),
    dict(model="dopo", j=2.0, d2=1.0, start=-8.0, stop=-2.0),
    dict(model="mapped", jx=2.0, jy=1.0, start=0.0, stop=6.0),
], ids=["xy", "dopo", "mapped"])
def test_each_stencil_energy_computed_once(monkeypatch, raw):
    import xydopo.dopo
    import xydopo.sweep
    import xydopo.xy

    # count the energies, the rows of each energies call, at the sweep's lookup
    # names and at the defining modules' names, which the chain derivatives in
    # xydopo.xy go through; the chain's controls are its second argument, the
    # network's (j, delta, d2) rows its first
    rows = []
    for module, name, at in ((xydopo.sweep, "_xy_energies", 1), (xydopo.xy, "_energies", 1),
                             (xydopo.sweep, "_dopo_energies", 0), (xydopo.dopo, "_energies", 0)):
        def counted(*args, _original=getattr(module, name), _at=at):
            args = list(args)
            args[_at] = list(args[_at])
            rows.append(len(args[_at]))
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    cfg = config_from_dict(dict(raw, steps=7, outputs="e_g,m_z,chi,phase,gap"))
    per_record = []
    for _ in run_sweep(cfg):
        per_record.append(sum(rows))
        rows.clear()
    assert len(per_record) == 7 and sum(per_record) > 0
    assert max(per_record) <= 3, per_record


def test_chain_derivative_columns_match_the_public_functions():
    # the sweep's own stencil must give what xy_magnetization and
    # xy_susceptibility give at the same quad and dh, to the last bit
    mismatches = []
    for name in ("fig2-aniso", "fig2-iso", "fig2-tfi"):
        cfg = preset_config(name, steps=41)
        for r in run_sweep(cfg):
            p = cfg.params.with_h(r.h)
            m_z = xy_magnetization(p, cfg.quad, cfg.dh)
            chi = xy_susceptibility(p, cfg.quad, cfg.dh)
            if (r.m_z, r.chi, "straddle" in r.flags.split(";")) \
                    != (m_z.value, chi.value, m_z.straddles_critical):
                mismatches.append((name, r.h))
    assert mismatches == []


@pytest.mark.parametrize("cfg", [
    config_from_dict(dict(model="dopo", j=2.0, d2=1.0, start=-8.0, stop=8.0, steps=41,
                          outputs="e_g,m_z,chi,phase,gap")),
], ids=["dopo-unstable-window"])
def test_network_columns_match_the_public_functions(cfg):
    # the sweep's network energies must be the public scalar dopo_energy_density
    # of each point's network, and its m_z and chi the stencil over that scalar
    # energy, to the last bit; an unstable network keeps None and unstable-step
    def energy(x):
        try:
            return dopo_energy_density(cfg.params.with_delta(x), cfg.quad).value
        except UnstablePhaseError:
            return None

    mismatches, unstable = [], 0
    for r in run_sweep(cfg):
        _, m_z, chi, _ = _stencil(lambda xs: [energy(x) for x in xs], r.control, cfg.dh,
                                  {"m_z", "chi"}, ())
        unstable += r.e_g is None
        if (r.e_g, r.m_z, r.chi, "unstable-step" in r.flags.split(";")) \
                != (energy(r.control), m_z, chi, None in (m_z, chi)):
            mismatches.append(r.control)
    assert mismatches == []
    assert unstable > 0   # unstable for -5 < delta < 5


_FIG3 = ("fig3-left", "fig3-middle", "fig3-right")


@pytest.mark.parametrize("name", _FIG3)
def test_mapped_sweep_is_the_chain_sweep_through_the_shift(name):
    # along the map the network's energy is h*s - e_xy(h): a mapped record is
    # the chain's record on the same grid with e_g = h*s - e_xy, m_z = -m_z,xy - s
    # and chi = -chi_xy, to the last bit, its phase translated and its delta mapped
    cfg = preset_config(name, steps=41, outputs="e_g,m_z,chi,phase,gap")
    jx, jy = cfg.params.jx, cfg.params.jy
    s = (jx + jy) / (2.0 * math.sqrt(jx * jy))
    translated = {ORDERED: SUPERRADIANT, PARAMAGNETIC: NORMAL, CRITICAL: CRITICAL}
    chain = run_sweep(replace(cfg, model="xy"))
    for r, x in zip(run_sweep(cfg), chain, strict=True):
        want = replace(x, delta=map_xy_to_dopo(cfg.params.with_h(x.h)).delta,
                       e_g=x.h * s - x.e_g, m_z=-x.m_z - s, chi=0.0 - x.chi,
                       phase=translated[x.phase])
        assert r == want, x.h


@pytest.mark.parametrize("name", _FIG3)
def test_mapped_columns_match_the_network_functions(name):
    # the correspondence itself: each record against dopo_energy_density of its
    # mapped network, dopo_gap, and the stencil over the network energies
    cfg = preset_config(name, steps=41, outputs="e_g,m_z,chi,phase,gap")

    def network(h):
        return map_xy_to_dopo(cfg.params.with_h(h))

    misses = {"e_g": 0.0, "gap": 0.0, "m_z": 0.0, "chi": 0.0}
    for r in run_sweep(cfg):
        e_g, m_z, chi, _ = _stencil(
            lambda hs: [dopo_energy_density(network(h), cfg.quad).value for h in hs],
            r.h, cfg.dh, {"e_g", "m_z", "chi"}, ())
        assert "unstable-step" not in r.flags.split(";")
        misses["e_g"] = max(misses["e_g"], abs(r.e_g - e_g))
        misses["gap"] = max(misses["gap"], abs(r.gap - dopo_gap(network(r.h))))
        misses["m_z"] = max(misses["m_z"], abs(r.m_z - m_z))
        misses["chi"] = max(misses["chi"], abs(r.chi - chi) / max(1.0, abs(chi)))
    assert misses["e_g"] <= 1e-12 and misses["gap"] <= 1e-10, misses
    assert misses["m_z"] <= 1e-10 and misses["chi"] <= 1e-7, misses


@pytest.mark.parametrize("jy", [1e-6, 1e-9, 1e-12])
def test_mapped_sweep_has_no_jy_floor(jy):
    # the network band of a near-Ising map cancels h^2/(jx*jy) terms; the
    # chain's own band does not, so every record keeps its energy
    cfg = config_from_dict(dict(model="mapped", jx=1.0, jy=jy, start=0.0, stop=2.0,
                                steps=401, outputs="e_g,m_z,chi,phase,gap"))
    records = list(run_sweep(cfg))
    assert len(records) == 401
    assert all(r.e_g is not None and "unstable-step" not in r.flags.split(";") for r in records)


def test_workers_do_not_change_output():
    cfg = small_xy_config(steps=7)
    serial = list(run_sweep(cfg, workers=1))
    parallel = list(run_sweep(cfg, workers=2))
    assert serial == parallel


def test_sweep_is_streaming():
    gen = run_sweep(small_xy_config())
    assert iter(gen) is gen
    first = next(gen)
    assert first.control == 0.0
    gen.close()


# --- serialization ---------------------------------------------------------

def test_csv_header_and_determinism():
    cfg = small_xy_config()
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    # empty cells for undefined columns (delta, gap), 12 significant digits
    cells = lines[2].split(",")
    assert cells[2] == "" and cells[7] == ""
    assert len(cells) == 9


def test_record_schema_is_pinned():
    # the literal, not CSV_HEADER: a reordered SweepRecord must fail here
    columns = ["control", "h", "delta", "e_g", "m_z", "chi", "phase", "gap", "flags"]
    assert CSV_HEADER == ",".join(columns)
    cfg = small_xy_config(steps=2)
    buf = io.StringIO()
    write_json(cfg, run_sweep(cfg), buf)
    assert [list(r) for r in json.loads(buf.getvalue())["records"]] == [columns, columns]


def test_csv_twelve_digit_format():
    buf = io.StringIO()
    write_csv(run_sweep(small_xy_config(outputs="e_g", steps=2, start=0.0, stop=1.0)), buf)
    row = buf.getvalue().splitlines()[2].split(",")
    assert row[3] == format(xy_energy_density(XYParams(1, 0, 1.0)).value, ".12g")


def test_no_signed_zero_cells():
    # exact zeros (m_z at h = 0, chi where e(h) is linear, a mapped delta at
    # h = 0) are written unsigned
    for preset in PRESETS:
        cfg = preset_config(preset, outputs="e_g,m_z,chi,phase,gap")
        records = list(run_sweep(cfg))
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_csv(records, csv_buf)
        write_json(replace(cfg, format="json"), records, json_buf)
        cells = [c for line in csv_buf.getvalue().splitlines() for c in line.split(",")]
        tokens = re.split(r"[\s,:\[\]{}]+", json_buf.getvalue())
        assert "0" in cells and "-0" not in cells, preset
        assert "0.0" in tokens and "-0.0" not in tokens, preset


def test_json_output_shape():
    cfg = preset_config("fig3-right", steps=3, stop=0.5, outputs="phase")
    buf = io.StringIO()
    write_json(cfg, run_sweep(cfg), buf)
    doc = json.loads(buf.getvalue())
    assert doc["meta"]["model"] == "mapped"
    assert doc["meta"]["params"] == {"jx": 1.0, "jy": 0.01}
    assert "10.1" in doc["meta"]["note"]
    assert doc["meta"]["version"]
    assert len(doc["records"]) == 3
    assert doc["records"][0]["phase"] == SUPERRADIANT


# --- critical report and validation ----------------------------------------

def test_run_critical_xy():
    rep = run_critical(XYParams(2.0, 1.0, 0.0))
    assert rep["model_case"] == "anisotropic"
    assert sorted(r["h_c"] for r in rep["critical_fields"]) == [-3.0, 3.0]
    for row in rep["mapped"]:
        assert row["physical"]
        assert abs(row["residual"]) < 1e-9


def test_run_critical_matches_the_threshold_on_the_mapped_side():
    # both couplings negative: h_c > 0 maps to a positive delta, so the
    # matching threshold is the highest one, not the lowest
    for row in run_critical(XYParams(-1.0, -0.5, 0.0))["mapped"]:
        assert row["physical"] and abs(row["residual"]) < 1e-12, row
        assert math.copysign(1.0, row["delta_c"]) == math.copysign(1.0, row["delta_at_hc"])
    # positive couplings keep their report
    assert run_critical(XYParams(1.0, 0.5, 0.0))["mapped"] == [
        {"h_c": -1.5, "delta_at_hc": 3.181980515339464, "physical": True,
         "delta_c": 3.1819805153394642, "residual": -4.440892098500626e-16},
        {"h_c": 1.5, "delta_at_hc": -3.181980515339464, "physical": True,
         "delta_c": -3.1819805153394642, "residual": 4.440892098500626e-16},
    ]


def test_run_critical_has_no_mapped_rows_without_a_map():
    for jy in (0.0, -0.5):
        assert "mapped" not in run_critical(XYParams(1.0, jy, 0.0))


def test_run_critical_dopo():
    rep = run_critical(DopoParams(2.0, 0.0, 0.0))
    assert rep["delta_c"] == -4.0
    assert rep["thresholds"] == [-4.0, -4.0, 4.0, 4.0]


def test_validate_quick_passes():
    report = run_validate("quick")
    assert report.passed, report.format_text()
    assert len(report.checks) >= 5


@pytest.mark.parametrize("args", [(1234, 200, 1e-3, -6.0, 6.0), (99, 100, 1e-2, 0.2, 6.0)])
def test_random_chains_keep_the_sequential_draw_stream(args):
    # validate's random chains come from one draw, which must be the stream a
    # chain-by-chain draw gives: jx and jy, then h, bit for bit
    from xydopo.sweep import _random_xy

    seed, count, j_low, h_low, h_high = args
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(count):
        jx, jy = rng.uniform(j_low, 4.0, size=2)
        want.append(XYParams(jx, jy, rng.uniform(h_low, h_high)))
    assert list(_random_xy(*args)) == want


def test_validate_rejects_unknown_level():
    with pytest.raises(ConfigError):
        run_validate("paranoid")


def test_validate_detects_corruption(monkeypatch):
    import xydopo.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_spectral_residuals", lambda chains, grid: [1.0] * len(chains))
    report = run_validate("quick")
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["spectral match (presets)"]
    assert "XYParams(jx=2.0, jy=1.0, h=0.5)" in failed[0].detail
    assert "bound 1e-09" in failed[0].detail


def _nan_energy(monkeypatch, sweep_mod):
    exact = sweep_mod.xy_energy_density
    monkeypatch.setattr(sweep_mod, "xy_energy_density",
                        lambda *a: exact(*a)._replace(value=math.nan))


def _nan_shift_residual(monkeypatch, sweep_mod):
    exact = sweep_mod.map_energy_density
    monkeypatch.setattr(sweep_mod, "map_energy_density",
                        lambda *a: exact(*a)._replace(residual=math.nan))


def _nan_couplings(monkeypatch, sweep_mod):
    monkeypatch.setattr(sweep_mod, "map_dopo_to_xy",
                        lambda d, h: SimpleNamespace(jx=math.nan, jy=math.nan, h=h))


@pytest.mark.parametrize("corrupt, check", [
    (_nan_energy, "closed-form anchors"),
    (_nan_shift_residual, "energy-shift identity (presets)"),
    (_nan_couplings, "map round trip"),
], ids=["energy", "shift-residual", "couplings"])
def test_validate_fails_a_nan(monkeypatch, corrupt, check):
    import xydopo.sweep as sweep_mod

    corrupt(monkeypatch, sweep_mod)
    report = run_validate("quick")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [check]
    assert ": nan (bound" in failed[0].detail


def test_validate_completes_when_a_check_raises(monkeypatch):
    import xydopo.sweep as sweep_mod

    def boom(*args):
        raise RuntimeError("corrupted")

    monkeypatch.setattr(sweep_mod, "map_energy_density", boom)
    report = run_validate("quick")
    assert [c.name for c in report.checks] == _QUICK_CHECKS
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["energy-shift identity (presets)"]
    assert failed[0].detail.startswith("raised RuntimeError: corrupted")


_QUICK_CHECKS = ["grid cosine sums", "closed-form anchors", "spectral match (presets)",
                 "energy-shift identity (presets)", "critical points", "map round trip"]
_FULL_CHECKS = _QUICK_CHECKS + ["spectral match (random)", "map round trip (random)",
                                "ED convergence table", "ED sector comparison"]


def test_validate_full_passes_in_documented_order():
    report = run_validate("full")
    assert report.passed, report.format_text()
    assert [c.name for c in report.checks] == _FULL_CHECKS
    assert [c.name for c in run_validate("quick").checks] == _QUICK_CHECKS


def test_validate_full_builds_no_large_dense_block(monkeypatch):
    import scipy.linalg
    import scipy.sparse.linalg

    sizes, arpack = [], []
    eigh, eigsh = scipy.linalg.eigh, scipy.sparse.linalg.eigsh

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    def arpack_spy(a, *args, **kwargs):
        arpack.append(a.shape[0])
        return eigsh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", arpack_spy)
    assert run_validate("full").passed
    # every ring goes dense on its dihedral-symmetric blocks, the largest the
    # even sector of 12 sites (122 states); none is large enough for ARPACK
    assert max(sizes) == 122
    assert arpack == []


def test_validate_full_holds_ed_to_exact_ring_energy(monkeypatch):
    import xydopo.sweep as sweep_mod

    exact = sweep_mod.xy_ground_energy_ring
    monkeypatch.setattr(sweep_mod, "xy_ground_energy_ring", lambda p, n: exact(p, n) + 1e-9)
    report = run_validate("full")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["ED convergence table"]
    assert "|E_ED - E_ring| at XYParams(" in failed[0].detail
    assert ": 1.00e-09 (bound 1e-10)" in failed[0].detail
