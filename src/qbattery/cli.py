"""Command-line front end: evolve, sweep, maxima, nonmarkov, figure.

Exit codes: 0 ok, 2 usage error (also an output too large for memory),
3 I/O error, 4 numerical guard triggered (divergent or truncated backflow
measure, a computed population outside [0, 1], an expansion that is not
finite, or a root whose relative residual |p(s)| / sum_k |p_k| |s|^k
exceeds 1e-10).  Times on the command line are the dimensionless
Omega*tau used on every figure axis, and --gamma and --lambda are ratios
to Omega, so no command takes Omega itself.
Environment variables are never consulted; precedence is flags > config
file > defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .figures import FIGURE_NAMES, figure_bundle
from .metrics import blp_nonmarkovianity, maximize_over_tau
from .model import make_params
from .propagator import NumericalGuardError, trajectory
from .sweep import (QUANTITIES, SweepSpec, run_sweep, sweep_csv, sweep_json,
                    table_to_csv, trajectory_csv, trajectory_json)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GUARD = 4


def _parse_lambda(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_axis(text: str) -> tuple[float, ...]:
    """Axis spec: 'start:stop:count[:log|lin]', a comma list, or one value.
    'inf' is accepted as a list entry (memoryless)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad axis spec {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        scale = parts[3] if len(parts) == 4 else "lin"
        if count < 1:
            raise ValueError("axis count must be >= 1")
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise ValueError("log axis needs positive endpoints")
            return tuple(np.logspace(math.log10(start), math.log10(stop),
                                     count))
        if scale == "lin":
            return tuple(np.linspace(start, stop, count))
        raise ValueError(f"unknown axis scale {scale!r}")
    return tuple(_parse_lambda(tok) for tok in text.split(","))


def _load_config(path: str, subparsers: dict) -> dict:
    """Values of a key=value file.  A key is an option's destination
    ('-' may stand for '_') and sets that option of every command that
    takes it; its value is converted and checked as the flag value is."""
    options = {a.dest: a for sub in subparsers.values() for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        key = key.replace("-", "_")
        action = options.get(key)
        if action is None:
            raise ValueError(f"unknown config key: {key!r}")
        try:
            value = action.type(val) if action.type else val
        except ValueError:
            raise ValueError(f"bad config value {key} = {val!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"bad config value {key} = {val!r}; choose "
                             f"from {', '.join(action.choices)}")
        cfg[key] = value
    return cfg


def _write_output(out: str, chunks) -> None:
    """Write the text ``chunks`` to the file ``out``, or to stdout for '-',
    each as it is made.  A reader that closes stdout early ends the output
    quietly: the command keeps its exit code."""
    if out == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # what stdout still buffers goes to devnull, so that its flush
            # at exit cannot fail on the closed pipe too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out, "w") as file:
            file.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None,
                     help="optional key=value config file (defaults layer)")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gamma", type=float, default=None,
                     help="cavity-environment coupling / Omega units")
    sub.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                     help="spectral width (use 'inf' for memoryless)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Cavity-mediated quantum battery charging toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("evolve", help="charging trajectory table")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_params(p)
    p.add_argument("--omega0", type=float, default=1.0,
                   help="energy unit of the energy columns")
    p.add_argument("--tmax", type=float, default=25.0,
                   help="horizon in Omega*tau")
    p.add_argument("--steps", type=int, default=1001)

    p = subs.add_parser("sweep", help="quantity over a parameter grid")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--gamma-axis", dest="gamma_axis", required=False,
                   default=None, help="start:stop:count[:log|lin] or list")
    p.add_argument("--lambda-axis", dest="lambda_axis", required=False,
                   default=None, help="axis spec; entries may be 'inf'")
    p.add_argument("--quantity", choices=QUANTITIES, default=None)
    p.add_argument("--tmax", type=float, default=None,
                   help="horizon in Omega*tau (quantity default otherwise)")
    p.add_argument("--grid", type=int, default=None,
                   help="BLP scan points (nonmarkovianity only)")
    p.add_argument("--workers", type=int, default=1)

    p = subs.add_parser("maxima", help="optimal charging values")
    _add_common(p)
    _add_params(p)
    p.add_argument("--omega0", type=float, default=1.0,
                   help="energy unit of delta_e_max and w_max")
    p.add_argument("--tmax", type=float, default=None)

    p = subs.add_parser("nonmarkov", help="BLP backflow measure")
    _add_common(p)
    _add_params(p)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)

    p = subs.add_parser("figure", help="data bundle for one figure panel")
    p.add_argument("name", help="one of: " + ", ".join(FIGURE_NAMES))
    p.add_argument("--config", default=None)
    p.add_argument("--outdir", default=".")

    return parser, subs.choices


def _require(args, parser, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"missing required option --{name.replace('_', '-')}")


def _make_params(args, omega0: float):
    """The cell of the ratio flags, built at Omega = 1 so that the engine
    reads them exactly."""
    return make_params(omega0, 1.0, args.gamma, args.lam)


def _header(args, **options) -> dict:
    """The keys that evolve, maxima and nonmarkov output begin with: the
    command, the version, the command's own ``options`` and the ratios."""
    return {"command": args.command, "tool_version": __version__,
            **options, "gamma": args.gamma, "lambda": args.lam}


def _cmd_evolve(args, parser) -> int:
    _require(args, parser, "gamma", "lam")
    params = _make_params(args, args.omega0)
    traj = trajectory(params, tmax=args.tmax, steps=args.steps)
    metadata = {**_header(args, omega0=args.omega0),
                "tmax_Omega_tau": args.tmax, "steps": args.steps}
    writer = trajectory_csv if args.format == "csv" else trajectory_json
    _write_output(args.out, writer(traj, metadata))
    return 0


def _cmd_sweep(args, parser) -> int:
    _require(args, parser, "gamma_axis", "lambda_axis", "quantity")
    spec = SweepSpec(_parse_axis(args.gamma_axis),
                     _parse_axis(args.lambda_axis), args.quantity,
                     tmax=args.tmax, grid=args.grid)
    result = run_sweep(spec, workers=args.workers)
    writer = sweep_csv if args.format == "csv" else sweep_json
    _write_output(args.out, writer(result))
    return 0


def _cmd_maxima(args, parser) -> int:
    _require(args, parser, "gamma", "lam")
    report = maximize_over_tau(_make_params(args, args.omega0),
                               tmax=args.tmax)
    payload = {**_header(args, omega0=args.omega0),
               "delta_e_max": report.delta_e_max, "w_max": report.w_max,
               "tau_at_e_max": report.tau_at_e_max,
               "tau_at_w_max": report.tau_at_w_max,
               "at_boundary": report.at_boundary}
    _write_output(args.out, [json.dumps(payload, indent=2) + "\n"])
    return 0


def _cmd_nonmarkov(args, parser) -> int:
    _require(args, parser, "gamma", "lam")
    report = blp_nonmarkovianity(_make_params(args, 1.0), tmax=args.tmax,
                                 grid=args.grid)
    payload = {**_header(args),
               "measure": report.measure if math.isfinite(report.measure)
               else "divergent",
               "backflow_intervals": [list(iv)
                                      for iv in report.backflow_intervals],
               "divergent": report.divergent, "truncated": report.truncated}
    _write_output(args.out, [json.dumps(payload, indent=2) + "\n"])
    return EXIT_GUARD if (report.divergent or report.truncated) else 0


def _cmd_figure(args, parser) -> int:
    try:
        bundle = figure_bundle(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.outdir) / bundle.name
    comments = [f"figure={bundle.name}", f"tool_version={__version__}"]
    outputs = [("manifest.json", [json.dumps(bundle.manifest, indent=2)
                                  + "\n"])]
    outputs += [(fname, table_to_csv(comments, cols, table))
                for fname, (cols, table) in bundle.tables.items()]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write bundle: {exc}", file=sys.stderr)
        return EXIT_IO
    for fname, chunks in outputs:
        _write_output(str(outdir / fname), chunks)
    return 0


_COMMANDS = {"evolve": _cmd_evolve, "sweep": _cmd_sweep,
             "maxima": _cmd_maxima, "nonmarkov": _cmd_nonmarkov,
             "figure": _cmd_figure}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    # config layer: its values become defaults, so flags keep precedence
    if args.config is not None:
        try:
            cfg = _load_config(args.config, subparsers)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            parser.error(str(exc))
        for sub in subparsers.values():
            sub.set_defaults(**cfg)
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except NumericalGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
