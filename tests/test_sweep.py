import io
import json
import math

import numpy as np
import pytest

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
    XYParams,
)
from xydopo.xy import xy_energy_density


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


def test_outputs_string_parsing():
    cfg = small_xy_config(outputs="e_g, phase")
    assert cfg.outputs == ("e_g", "phase")


def test_presets_build():
    assert set(PRESETS) == {
        "fig2-aniso", "fig2-iso", "fig2-tfi", "fig3-left", "fig3-middle", "fig3-right",
    }
    for name in PRESETS:
        cfg = preset_config(name)
        cfg.validate()
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
    assert record.gap == 0.0   # min Omega^2 = -7e-16 is rounding, clipped to 0


def test_mapped_sweep_gap_closed_in_the_gapless_window():
    cfg = config_from_dict(dict(model="mapped", jx=1.0, jy=1.0, start=0.3, stop=2.7,
                                steps=5, outputs="gap"))
    gaps = [r.gap for r in run_sweep(cfg)]
    assert all(g <= 1e-12 for g in gaps[:3])                   # |h| < 2j
    assert gaps[4] == pytest.approx(2.0 * (2.7 - 2.0), abs=1e-12)


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

    # count at the sweep's lookup names and at the defining modules' names,
    # which the chain derivatives in xydopo.xy go through
    calls = []
    for module, name in ((xydopo.sweep, "xy_energy_density"), (xydopo.xy, "xy_energy_density"),
                         (xydopo.sweep, "dopo_energy_density"),
                         (xydopo.dopo, "dopo_energy_density")):
        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cfg = config_from_dict(dict(raw, steps=7, outputs="e_g,m_z,chi,phase,gap"))
    per_record = []
    for _ in run_sweep(cfg):
        per_record.append(len(calls))
        calls.clear()
    assert len(per_record) == 7 and sum(per_record) > 0
    assert max(per_record) <= 3, per_record


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


def test_csv_twelve_digit_format():
    buf = io.StringIO()
    write_csv(run_sweep(small_xy_config(outputs="e_g", steps=2, start=0.0, stop=1.0)), buf)
    row = buf.getvalue().splitlines()[2].split(",")
    assert row[3] == format(xy_energy_density(XYParams(1, 0, 1.0)).value, ".12g")


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


def test_run_critical_dopo():
    rep = run_critical(DopoParams(2.0, 0.0, 0.0))
    assert rep["delta_c"] == -4.0
    assert rep["thresholds"] == [-4.0, -4.0, 4.0, 4.0]


def test_validate_quick_passes():
    report = run_validate("quick")
    assert report.passed, report.format_text()
    assert len(report.checks) >= 5


def test_validate_rejects_unknown_level():
    with pytest.raises(ConfigError):
        run_validate("paranoid")


def test_validate_detects_corruption(monkeypatch):
    import xydopo.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "verify_spectral_match", lambda *a, **k: 1.0)
    report = run_validate("quick")
    assert not report.passed
