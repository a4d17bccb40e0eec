"""Command-line driver: sweeps, mapping queries, critical points, validation.

Exit codes: 0 success, 1 validation failure, 2 bad configuration,
3 numerical error, an overflow of a float included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from dataclasses import fields

from .dopo import dopo_spectrum
from .mapping import map_dopo_to_xy, map_xy_to_dopo
from .sweep import (
    MODELS,
    PRESETS,
    SWEEP_KEYS,
    ConfigError,
    config_from_dict,
    format_critical,
    run_critical,
    run_sweep,
    run_validate,
    write_csv,
    write_json,
)
from .types import (
    ANTIPERIODIC,
    PERIODIC,
    DopoParams,
    NumericalError,
    UnstablePhaseError,
    XYParams,
    build_grid,
)
from .xy import xy_spectrum


# a negative number, -1e-3 too, that follows a flag is that flag's value
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
# the parameter flags of spectrum, map and critical: the fields of both models
_PARAM_FLAGS = tuple(f.name for cls in (XYParams, DopoParams) for f in fields(cls))


def _add_common(sub, json_only=False):
    # critical and validate write a text report or JSON; they have no CSV form
    sub.add_argument("--format", choices=("json",) if json_only else ("csv", "json"), default=None)
    sub.add_argument("--out", default="-", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xydopo")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="parameter sweep over h or delta")
    sweep.add_argument("--preset", choices=sorted(PRESETS))
    sweep.add_argument("--config", help="JSON config file; flags override its values")
    for key in SWEEP_KEYS:  # config_from_dict converts and checks each value
        if key not in ("format", "note"):  # --format comes with --out below
            sweep.add_argument("--" + key.replace("_", "-"),
                               choices=MODELS if key == "model" else None)
    _add_common(sweep)

    spectrum = subs.add_parser("spectrum", help="dump E_k or Omega_k^2 over a grid")
    spectrum.add_argument("--model", choices=("xy", "dopo"), required=True)
    spectrum.add_argument("--n", type=int, default=128)
    spectrum.add_argument("--sector", choices=(PERIODIC, ANTIPERIODIC), default=PERIODIC)
    mp = subs.add_parser("map", help="chain <-> network parameter map")
    mp.add_argument("--invert", action="store_true", help="map network parameters back")
    crit = subs.add_parser("critical", help="critical fields / detunings")

    # critical finds the control values itself, so it has no --h or --delta
    for sub, keys in ((spectrum, _PARAM_FLAGS), (mp, _PARAM_FLAGS),
                      (crit, ("jx", "jy", "j", "d2"))):
        for key in keys:
            sub.add_argument("--" + key, type=float)
        _add_common(sub, json_only=sub is crit)

    val = subs.add_parser("validate", help="run the built-in validation suite")
    val.add_argument("--level", choices=("quick", "full"), default="quick")
    _add_common(val, json_only=True)

    return parser


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _emit(args, payload, text: str) -> None:
    """Write payload as one JSON line under --format json, else text and a newline."""
    with _open_out(args.out) as out:
        out.write((json.dumps(payload) if args.format == "json" else text) + "\n")


def _cmd_sweep(args) -> int:
    raw: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: not a JSON object of sweep keys")
    flags = {k: v for k, v in vars(args).items() if k in SWEEP_KEYS and v is not None}
    cfg = config_from_dict({**PRESETS.get(args.preset, {}), **raw, **flags})
    records = run_sweep(cfg)
    with _open_out(args.out) as out:
        if cfg.format == "json":
            write_json(cfg, records, out)
        else:
            write_csv(records, out)
    return 0


def _params(args, cls, extra=(), **defaults):
    """cls from the flags named after its fields, a default standing in for a
    flag left out; extra names flags the command reads itself. ConfigError
    names each flag that is missing and each parameter flag cls does not take."""
    wanted = [f.name for f in fields(cls)] + list(extra)
    given = {k: getattr(args, k) for k in _PARAM_FLAGS if getattr(args, k, None) is not None}
    values = {**defaults, **given}
    problems = [f"--{k}: required" for k in wanted if k not in values]
    problems += [f"--{k}: not a field of {cls.__name__}" for k in given if k not in wanted]
    if problems:
        raise ConfigError(f"{args.command}: " + "; ".join(problems))
    return cls(**{k: values[k] for k in wanted if k not in extra})


def _cmd_spectrum(args) -> int:
    grid = build_grid(args.n, args.sector)
    if args.model == "xy":
        spec = xy_spectrum(_params(args, XYParams, h=0.0), grid)
    else:
        spec = dopo_spectrum(_params(args, DopoParams, d2=0.0), grid)
    _emit(args, {"k": list(spec.k), "value": list(spec.value), "kind": spec.kind},
          "\n".join(["k,value"] + [f"{k:.12g},{v:.12g}" for k, v in zip(spec.k, spec.value)]))
    return 0


def _cmd_map(args) -> int:
    if args.invert:
        back = map_dopo_to_xy(_params(args, DopoParams, extra=("h",)), args.h)
        if back is None:
            _emit(args, {"xy": None}, "no-solution")
            return 1
        _emit(args, {"xy": {"jx": back.jx, "jy": back.jy, "h": back.h}},
              f"jx,jy,h\n{back.jx:.12g},{back.jy:.12g},{back.h:.12g}")
        return 0
    d = map_xy_to_dopo(_params(args, XYParams))
    _emit(args, {"dopo": {"j": d.j, "delta": d.delta, "d2": d.d2}, "physical": d.is_physical},
          f"j,delta,d2,physical\n{d.j:.12g},{d.delta:.12g},{d.d2:.12g},"
          f"{str(d.is_physical).lower()}")
    return 0


def _cmd_critical(args) -> int:
    if args.j is not None:
        report = run_critical(_params(args, DopoParams, delta=0.0, d2=0.0))
    else:
        report = run_critical(_params(args, XYParams, h=0.0))
    _emit(args, report, format_critical(report))
    return 0


def _cmd_validate(args) -> int:
    report = run_validate(args.level)
    _emit(args, report.to_dict(), report.format_text())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse reads -1 and -1.5 as values, -1e-3 as a flag
        if argv[i - 1][:2] == "--" and "=" not in argv[i - 1] and _NEGATIVE_NUMBER.fullmatch(argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "spectrum": _cmd_spectrum,
        "map": _cmd_map,
        "critical": _cmd_critical,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, UnstablePhaseError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
