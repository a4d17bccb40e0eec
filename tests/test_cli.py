import json
import re

import pytest

from xydopo import quadrature
from xydopo.cli import build_parser, main
from xydopo.sweep import CSV_HEADER, SWEEP_KEYS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_critical_xy(capsys):
    code, out, _ = run_cli(capsys, "critical", "--jx", "2", "--jy", "1")
    assert code == 0
    assert "h_c = +3" in out and "anisotropic" in out


def test_critical_mapped_h_c_to_12_digits(capsys):
    code, out, _ = run_cli(capsys, "critical", "--jx", "1", "--jy", "1.000000001")
    assert code == 0
    assert "mapped: delta(h_c=+2.000000001) = -4.000000002," in out


def test_critical_dopo_json(capsys):
    code, out, _ = run_cli(capsys, "critical", "--j", "2", "--d2", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_c"] == -4.0


def test_map_forward(capsys):
    code, out, _ = run_cli(capsys, "map", "--jx", "2", "--jy", "1", "--h", "3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dopo"]["j"] == pytest.approx(2.8284271247461903)
    assert doc["physical"] is True


def test_map_invert(capsys):
    code, out, _ = run_cli(capsys, "map", "--invert", "--j", "2", "--delta", "-2",
                           "--d2", "0", "--h", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["xy"]["jx"] == pytest.approx(1.0)


def test_map_invert_no_solution(capsys):
    code, out, _ = run_cli(capsys, "map", "--invert", "--j", "2", "--delta", "-5",
                           "--d2", "-1", "--h", "1")
    assert code == 1
    assert "no-solution" in out


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_map_invert_refuses_a_non_finite_field(capsys, h):
    code, out, err = run_cli(capsys, "map", "--invert", "--j", "2", "--delta", "-2",
                             "--d2", "0", "--h", h)
    assert code == 2
    assert out == "" and "h must be a finite real number" in err


def test_map_missing_arguments(capsys):
    code, _, err = run_cli(capsys, "map", "--jx", "2")
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("argv", [
    ("map", "--jx", "1", "--jy", "1", "--h", "0"),
    ("sweep", "--model", "xy", "--jx", "0", "--jy", "0", "--start", "-1", "--stop", "1",
     "--steps", "3", "--outputs", "e_g,m_z,chi,phase,gap"),
    ("critical", "--j", "0"),
], ids=["map-isotropic-h0", "sweep-zero-couplings", "critical-j0"])
@pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["default", "json"])
def test_zero_is_written_unsigned(capsys, argv, fmt):
    code, out, _ = run_cli(capsys, *argv, *fmt)
    assert code == 0
    tokens = re.split(r"[\s,:=\[\]{}]+", out)
    assert {"0", "0.0"} & set(tokens) and not {"-0", "-0.0"} & set(tokens), out


@pytest.mark.parametrize("argv", [
    ("sweep", "--model", "xy", "--jx", "1", "--jy", "0", "--start", "-1e-3", "--stop", "1",
     "--steps", "3"),
    ("spectrum", "--model", "dopo", "--j", "2", "--delta", "-5e0", "--d2", "1"),
], ids=["sweep-start", "spectrum-delta"])
def test_negative_exponent_notation_is_a_value(capsys, argv):
    # argparse alone reads -1e-3 after a flag as a flag of its own and exits 2;
    # the output is that of the --start=-1e-3 spelling, which argparse reads
    code, out, _ = run_cli(capsys, *argv)
    i = next(i for i, token in enumerate(argv) if token[:1] == "-" and token[1:2].isdigit())
    spelled = (*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:])
    assert code == 0 and out and run_cli(capsys, *spelled)[:2] == (0, out)


def test_spectrum_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "xy", "--jx", "1", "--jy", "0",
                           "--h", "1", "--n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 9


def test_spectrum_dopo(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "dopo", "--j", "2",
                           "--delta", "-3", "--d2", "4", "--n", "8")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert any(v < 0 for v in values)  # signed squared spectrum


def test_sweep_preset_to_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig2-tfi", "--steps", "5",
                         "--outputs", "e_g,phase", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6


def test_sweep_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "xy", "jx": 1.0, "jy": 0.0,
        "start": 0.0, "stop": 1.0, "steps": 5, "outputs": "phase",
    }))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--steps", "7")
    assert code == 0
    assert len(out.splitlines()) == 8  # header + 7 records: flag wins over file


def test_sweep_bad_config_exit_code(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "xy", "--jx", "1", "--jy", "0",
                           "--start", "0", "--stop", "1", "--steps", "1")
    assert code == 2
    assert "steps" in err


def test_sweep_numerical_error_exit_code(capsys, monkeypatch):
    # jy = 0.999 is a near-kink: the band is split at its interior minimum,
    # and the first level of both pieces, 226 nodes, does not fit in 113
    monkeypatch.setattr(quadrature, "_MAX_NODES", 113)
    code, _, err = run_cli(capsys, "sweep", "--model", "xy", "--jx", "1", "--jy", "0.999",
                           "--start", "1.0", "--stop", "1.5", "--steps", "2",
                           "--outputs", "e_g", "--tol", "1e-12")
    assert code == 3
    # the error names the point: model, couplings and control
    assert "numerical" in err and "jy=0.999" in err and "h=1.0" in err


_XY_ISING = ["sweep", "--model", "xy", "--jx", "1", "--jy", "0", "--start", "0", "--steps", "3"]


@pytest.mark.parametrize("argv", [
    _XY_ISING + ["--stop", "1", "--dh", "1e200", "--outputs", "e_g,m_z"],
    _XY_ISING + ["--stop", "1e200", "--outputs", "e_g,m_z"],
    ["sweep", "--model", "dopo", "--j", "1", "--d2", "0", "--start", "0", "--stop", "1e200",
     "--steps", "3"],
    ["critical", "--jx", "1e200", "--jy", "1e200"],
], ids=["sweep-dh", "sweep-stop", "dopo-stop", "critical"])
def test_float_overflow_exits_3(capsys, argv):
    # a scale whose square overflows a float is a numerical error, not a failed validation
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("numerical error:") and err.count("\n") == 1


@pytest.mark.parametrize("override", [("--stop", "inf"), ("--start", "-inf"),
                                      ("--dh", "inf"), ("--dh", "nan")],
                         ids=["stop-inf", "start-minus-inf", "dh-inf", "dh-nan"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_non_finite_range_fails_before_output(tmp_path, capsys, override, to_file):
    flags = {"--start": "0", "--stop": "1", "--dh": "1e-3", override[0]: override[1]}
    path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "sweep", "--model", "xy", "--jx", "1", "--jy", "0",
                             "--steps", "3", *[f"{k}={v}" for k, v in flags.items()],
                             *(["--out", str(path)] if to_file else []))
    assert code == 2
    assert err.startswith("config error:") and "finite" in err
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_chi_tolerance_fails_before_output(tmp_path, capsys, fmt, to_file):
    path = tmp_path / f"out.{fmt}"
    for model in (["xy", "--jx", "1", "--jy", "0"], ["mapped", "--jx", "1", "--jy", "1"],
                  ["dopo", "--j", "1"]):
        code, out, err = run_cli(capsys, "sweep", "--model", *model,
                                 "--start", "0", "--stop", "1", "--steps", "3",
                                 "--outputs", "e_g,chi", "--tol", "1e-3", "--format", fmt,
                                 *(["--out", str(path)] if to_file else []))
        assert code == 3, model
        assert "too loose for dh" in err
        assert out == ""
        assert not path.exists()


_XY = {"model": "xy", "jx": 1.0, "jy": 0.0, "start": 0.0, "stop": 1.0, "steps": 3}


@pytest.mark.parametrize("config, argv, named", [
    (None, ["--preset", "fig2-tfi", "--model", "dopo"], "jx: not a sweep key"),
    ({**_XY, "j": 2.0}, [], "j: not a sweep key"),
    ({**_XY, "step": 401}, [], "step: not a sweep key"),
    ({k: v for k, v in _XY.items() if k != "start"}, [], "start: required"),
    ({k: v for k, v in _XY.items() if k != "stop"}, [], "stop: required"),
    ({k: v for k, v in _XY.items() if k != "steps"}, [], "steps: required"),
    ({k: v for k, v in _XY.items() if k != "jy"}, [], "jy: required"),
    (None, ["--model", "dopo", "--start", "0", "--stop", "1", "--steps", "3"], "j: required"),
    ({**_XY, "steps": 3.9}, [], "steps: must be an integer"),
    ({**_XY, "max_nodes": 4096.5}, [], "max_nodes: not a sweep key"),
    ({**_XY, "jx": "one"}, [], "jx: could not convert"),
    ({**_XY, "dh": True}, [], "dh: must not be a boolean"),
    (_XY, ["--tol", "0"], "tol must be positive"),
    (_XY, ["--tol", "inf"], "tol must be positive"),
    (_XY, ["--max-nodes", "8"], "unrecognized arguments: --max-nodes 8"),
    ([_XY], [], "not a JSON object"),
    (None, ["--model", "dopo", "--j", "2", "--d2", "-1", "--start", "-3", "--stop", "3",
            "--steps", "3", "--outputs", "e_g,phase,gap"], "d2: must be >= 0"),
    (None, ["--model", "mapped", "--jx", "1", "--jy", "0", "--start", "0", "--stop", "1",
            "--steps", "3"], "jx*jy > 0, got jx=1.0, jy=0.0\n"),
], ids=["foreign-preset", "foreign-key", "unknown-key", "no-start", "no-stop", "no-steps",
        "no-jy", "no-j", "steps-3.9", "max-nodes-fraction", "jx-string", "dh-boolean", "tol-zero",
        "tol-inf", "max-nodes-small", "config-array", "dopo-negative-d2", "mapped-jy-zero"])
def test_sweep_schema_rejects_before_output(tmp_path, capsys, config, argv, named):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json"), *argv]
    path = tmp_path / "out.csv"
    for out_flag in ([], ["--out", str(path)]):
        try:
            code, out, err = run_cli(capsys, "sweep", *argv, *out_flag)
            prefix = "config error:"
        except SystemExit as exc:   # argparse refuses a flag the sweep does not have
            (out, err), code, prefix = capsys.readouterr(), exc.code, "usage: xydopo "
        assert code == 2
        assert err.startswith(prefix) and named in err
        assert out == ""
        assert not path.exists()


@pytest.mark.parametrize("argv, named", [
    (["critical", "--jx", "2", "--jy", "1", "--j", "3"], "--jx: not a field of DopoParams"),
    (["critical", "--jx", "2", "--jy", "1", "--d2", "1"], "--d2: not a field of XYParams"),
    (["spectrum", "--model", "xy", "--jx", "1", "--jy", "0.5", "--j", "5"],
     "--j: not a field of XYParams"),
    (["spectrum", "--model", "dopo", "--j", "2", "--delta", "-3", "--h", "1"],
     "--h: not a field of DopoParams"),
    (["map", "--jx", "2", "--jy", "1", "--h", "3", "--d2", "7"], "--d2: not a field of XYParams"),
    (["map", "--invert", "--j", "2", "--delta", "-2", "--d2", "0", "--h", "1", "--jx", "5"],
     "--jx: not a field of DopoParams"),
    (["map", "--invert", "--j", "2", "--delta", "-2", "--d2", "0"], "--h: required"),
], ids=["critical-j", "critical-d2", "spectrum-xy", "spectrum-dopo", "map", "map-invert",
        "map-invert-no-h"])
def test_flag_of_the_other_model_exits_2(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:") and named in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("critical", "--jx", "2", "--jy", "1", "--format", "csv"),
    ("validate", "--format", "csv"),
    ("sweep", "--preset", "fig2-tfi", "--workers", "1"),
], ids=["critical-csv", "validate-csv", "sweep-workers"])
def test_option_without_an_effect_exits_2(capsys, argv):
    # critical and validate have no CSV form, and sweeps run in one process
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--model", "xy", "--jx", "1", "--jy", "0", "--n", "3"], "error: n must be "),
    (["sweep", "--preset", "fig2-tfi", "--steps", "5", "--out", "{tmp}/missing/out.csv"],
     "error: [Errno 2] "),
], ids=["spectrum-odd-n", "sweep-missing-directory"])
def test_value_and_os_errors_exit_2(tmp_path, capsys, argv, named):
    code, out, err = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert err.startswith(named) and out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_flags_are_the_sweep_keys():
    flags = set(vars(build_parser().parse_args(["sweep"]))) - {"command"}
    assert flags == set(SWEEP_KEYS) - {"note"} | {"preset", "config", "out"}


def test_validate_quick_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "validate", "--level", "quick")
    assert code == 0
    assert "all checks passed" in out


def test_validate_full_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "validate", "--level", "full")
    assert code == 0
    assert out.rstrip().endswith("validate (full): all checks passed")


def test_validate_corrupted_build_exits_nonzero(capsys, monkeypatch):
    import xydopo.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_spectral_residuals", lambda chains, grid: [1.0] * len(chains))
    code, out, _ = run_cli(capsys, "validate", "--level", "quick")
    assert code == 1
    assert "FAIL" in out


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"]


@pytest.mark.parametrize("argv, keys, first_line, code", [
    (["spectrum", "--model", "xy", "--jx", "1", "--jy", "0.5", "--h", "0.7", "--n", "8"],
     ["k", "value", "kind"], "k,value", 0),
    (["spectrum", "--model", "dopo", "--j", "2", "--delta", "-3", "--d2", "4", "--n", "8"],
     ["k", "value", "kind"], "k,value", 0),
    (["map", "--jx", "2", "--jy", "1", "--h", "3"],
     ["dopo", "physical"], "j,delta,d2,physical", 0),
    (["map", "--invert", "--j", "2", "--delta", "-2", "--d2", "0", "--h", "1"],
     ["xy"], "jx,jy,h", 0),
    (["map", "--invert", "--j", "2", "--delta", "-5", "--d2", "-1", "--h", "1"],
     ["xy"], "no-solution", 1),
    (["critical", "--jx", "2", "--jy", "1"],
     ["model", "model_case", "critical_fields", "mapped"], "model case: anisotropic", 0),
    (["critical", "--j", "2", "--d2", "1"],
     ["model", "delta_c", "thresholds"], "delta_c = -5", 0),
    # the thresholds depend on |j| only, as in sweeps and the classifier
    (["critical", "--j", "-2", "--d2", "1"],
     ["model", "delta_c", "thresholds"], "delta_c = -5", 0),
    (["validate", "--level", "quick"],
     ["level", "passed", "checks"], "[ok] grid cosine sums: ", 0),
], ids=["spectrum-xy", "spectrum-dopo", "map-forward", "map-invert", "map-no-solution",
        "critical-xy", "critical-dopo", "critical-dopo-negative-j", "validate-quick"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_command_output_contract(capsys, argv, keys, first_line, code, fmt):
    if fmt == "json":
        got, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert out.endswith("\n") and out.count("\n") == 1
        assert list(json.loads(out)) == keys
    else:
        got, out, _ = run_cli(capsys, *argv)
        assert out.splitlines()[0].startswith(first_line)
    assert got == code
