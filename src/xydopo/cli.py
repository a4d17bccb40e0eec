"""Command-line driver: sweeps, mapping queries, critical points, validation.

Exit codes: 0 success, 1 validation failure, 2 bad configuration,
3 numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .dopo import dopo_spectrum
from .mapping import map_dopo_to_xy, map_xy_to_dopo
from .quadrature import QuadratureSpec
from .sweep import (
    PRESETS,
    ConfigError,
    config_from_dict,
    format_critical,
    preset_config,
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


def _add_common(sub):
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--out", default="-", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xydopo")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="parameter sweep over h or delta")
    sweep.add_argument("--preset", choices=sorted(PRESETS))
    sweep.add_argument("--config", help="JSON config file; flags override its values")
    sweep.add_argument("--model", choices=("xy", "dopo", "mapped"))
    sweep.add_argument("--jx", type=float)
    sweep.add_argument("--jy", type=float)
    sweep.add_argument("--j", type=float)
    sweep.add_argument("--d2", type=float)
    sweep.add_argument("--start", type=float)
    sweep.add_argument("--stop", type=float)
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--dh", type=float)
    sweep.add_argument("--tol", type=float)
    sweep.add_argument("--max-nodes", type=int, dest="max_nodes")
    sweep.add_argument("--outputs", help="comma list from e_g,m_z,chi,phase,gap")
    sweep.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; sweeps run in one process")
    _add_common(sweep)

    spectrum = subs.add_parser("spectrum", help="dump E_k or Omega_k^2 over a grid")
    spectrum.add_argument("--model", choices=("xy", "dopo"), required=True)
    spectrum.add_argument("--jx", type=float)
    spectrum.add_argument("--jy", type=float)
    spectrum.add_argument("--h", type=float, default=0.0)
    spectrum.add_argument("--j", type=float)
    spectrum.add_argument("--delta", type=float)
    spectrum.add_argument("--d2", type=float, default=0.0)
    spectrum.add_argument("--n", type=int, default=128)
    spectrum.add_argument("--sector", choices=(PERIODIC, ANTIPERIODIC), default=PERIODIC)
    _add_common(spectrum)

    mp = subs.add_parser("map", help="chain <-> network parameter map")
    mp.add_argument("--invert", action="store_true", help="map network parameters back")
    mp.add_argument("--jx", type=float)
    mp.add_argument("--jy", type=float)
    mp.add_argument("--h", type=float)
    mp.add_argument("--j", type=float)
    mp.add_argument("--delta", type=float)
    mp.add_argument("--d2", type=float)
    _add_common(mp)

    crit = subs.add_parser("critical", help="critical fields / detunings")
    crit.add_argument("--jx", type=float)
    crit.add_argument("--jy", type=float)
    crit.add_argument("--j", type=float)
    crit.add_argument("--d2", type=float, default=0.0)
    _add_common(crit)

    val = subs.add_parser("validate", help="run the built-in validation suite")
    val.add_argument("--level", choices=("quick", "full"), default="quick")
    _add_common(val)

    return parser


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


_SWEEP_KEYS = ("model", "jx", "jy", "j", "d2", "start", "stop", "steps",
               "dh", "tol", "max_nodes", "outputs", "format")


def _cmd_sweep(args) -> int:
    raw: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            raw.update(json.load(handle))
    flag_overrides = {k: getattr(args, k) for k in _SWEEP_KEYS if getattr(args, k) is not None}
    if args.preset:
        cfg = preset_config(args.preset, **{**raw, **flag_overrides})
    else:
        cfg = config_from_dict({**raw, **flag_overrides})
    records = run_sweep(cfg)
    with _open_out(args.out) as out:
        if cfg.format == "json":
            write_json(cfg, records, out)
        else:
            write_csv(records, out)
    return 0


def _cmd_spectrum(args) -> int:
    grid = build_grid(args.n, args.sector)
    if args.model == "xy":
        if args.jx is None or args.jy is None:
            raise ConfigError("spectrum --model xy needs --jx and --jy")
        spec = xy_spectrum(XYParams(args.jx, args.jy, args.h), grid)
    else:
        if args.j is None or args.delta is None:
            raise ConfigError("spectrum --model dopo needs --j and --delta")
        spec = dopo_spectrum(DopoParams(args.j, args.delta, args.d2), grid)
    with _open_out(args.out) as out:
        if args.format == "json":
            json.dump({"k": list(spec.k), "value": list(spec.value), "kind": spec.kind}, out)
            out.write("\n")
        else:
            out.write("k,value\n")
            for k, v in zip(spec.k, spec.value):
                out.write(f"{k:.12g},{v:.12g}\n")
    return 0


def _cmd_map(args) -> int:
    if args.invert:
        if args.j is None or args.delta is None or args.d2 is None or args.h is None:
            raise ConfigError("map --invert needs --j, --delta, --d2 and --h")
        back = map_dopo_to_xy(DopoParams(args.j, args.delta, args.d2), args.h)
        payload = (None if back is None
                   else {"jx": back.jx, "jy": back.jy, "h": back.h})
        with _open_out(args.out) as out:
            if args.format == "json":
                json.dump({"xy": payload}, out)
                out.write("\n")
            elif payload is None:
                out.write("no-solution\n")
            else:
                out.write("jx,jy,h\n")
                out.write(f"{back.jx:.12g},{back.jy:.12g},{back.h:.12g}\n")
        return 0 if payload is not None else 1
    if args.jx is None or args.jy is None or args.h is None:
        raise ConfigError("map needs --jx, --jy and --h")
    res = map_xy_to_dopo(XYParams(args.jx, args.jy, args.h))
    with _open_out(args.out) as out:
        if args.format == "json":
            json.dump({"dopo": {"j": res.dopo.j, "delta": res.dopo.delta,
                                "d2": res.dopo.d2}, "physical": res.physical}, out)
            out.write("\n")
        else:
            out.write("j,delta,d2,physical\n")
            out.write(f"{res.dopo.j:.12g},{res.dopo.delta:.12g},"
                      f"{res.dopo.d2:.12g},{str(res.physical).lower()}\n")
    return 0


def _cmd_critical(args) -> int:
    if args.j is not None:
        report = run_critical(DopoParams(args.j, 0.0, args.d2))
    elif args.jx is not None and args.jy is not None:
        report = run_critical(XYParams(args.jx, args.jy, 0.0))
    else:
        raise ConfigError("critical needs either --jx/--jy or --j [--d2]")
    with _open_out(args.out) as out:
        if args.format == "json":
            json.dump(report, out)
            out.write("\n")
        else:
            out.write(format_critical(report) + "\n")
    return 0


def _cmd_validate(args) -> int:
    report = run_validate(args.level)
    with _open_out(args.out) as out:
        if args.format == "json":
            json.dump(report.to_dict(), out)
            out.write("\n")
        else:
            out.write(report.format_text() + "\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
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
    except (NumericalError, UnstablePhaseError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
