"""Command-line front end: solve, matrix, weights, verify, figure.

``figure N`` is ``solve`` on catalogue entry N's recipe: both parse to a
:class:`SolveCommand` whose :class:`SolverConfig` describes the whole run,
and the meta sidecar is written from that config alone.

Outputs are bit-stable: floating-point values are written in scientific
notation with 17 significant digits, which round-trips ``float64`` exactly,
and repeated invocations of the same command produce byte-identical files.
Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import os

# No command calls a threaded BLAS routine (every dot goes through operators._dot;
# dtpsv and dtbsv run on one thread), yet a second OpenBLAS thread spins after
# start-up, taking time from the main one.  OpenBLAS reads these three in turn.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# The package's modules first: after the standard library's, they raised peak RSS 0.1-0.2 MiB.
from .errors import FracDiffError, UsageError
from .grunwald import DerivativeForm, grunwald_weights
from .operators import (BoundaryCondition, SchemeSpec, _read_whole, _require_dense_fits,
                        _require_fits, build_matrix)
from .timestepper import InitialCondition, Method, SolverConfig, run_simulation

import argparse
import enum
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

from .emit import emit_matrix_csv, emit_timeseries_csv, emit_weights_csv

__all__ = [
    "FIGURE_PROTOCOLS",
    "CliCommand",
    "FigureListCommand",
    "MatrixCommand",
    "SolveCommand",
    "VerifyCommand",
    "WeightsCommand",
    "emit_matrix_csv",
    "emit_timeseries_csv",
    "emit_weights_csv",
    "main",
    "parse_args",
    "run_command",
]


def _spellings(kind: type[enum.Enum]) -> list[str]:
    """A flag's choices: the enum's values, which the meta sidecar writes."""
    return sorted(member.value for member in kind)


# Catalogue of reproducible demonstration runs: derivative form, boundary
# pair, initial profile, and snapshot times, all at alpha = 1.5, C = 1.
# Ids 1-6 cover the Riemann-Liouville and Patie-Simon boundary cases; id 7
# is the Caputo run whose solution goes negative.
FIGURE_PROTOCOLS: dict[int, tuple[str, str, str, str, tuple[float, ...]]] = {
    1: ("rl", "absorbing", "absorbing", "tent", (0.0, 0.05, 0.1, 0.5)),
    2: ("rl", "reflecting", "reflecting", "tent", (0.0, 0.05, 0.1, 0.5)),
    3: ("rl", "reflecting", "absorbing", "tent", (0.0, 0.05, 0.1, 0.5)),
    4: ("rl", "absorbing", "reflecting", "tent", (0.0, 0.05, 0.1, 0.5)),
    5: ("ps", "reflecting", "reflecting", "tent", (0.0, 0.05, 0.1, 0.5)),
    6: ("ps", "reflecting", "absorbing", "tent", (0.0, 0.05, 0.1, 0.5)),
    7: ("caputo", "absorbing", "absorbing", "bump", (0.0, 0.01, 0.04, 0.2)),
}


@dataclass(frozen=True)
class SolveCommand:
    config: SolverConfig
    out: Path


@dataclass(frozen=True)
class MatrixCommand:
    spec: SchemeSpec
    out: Path


@dataclass(frozen=True)
class WeightsCommand:
    order: float
    m: int
    out: Path


@dataclass(frozen=True)
class VerifyCommand:
    suite: str


@dataclass(frozen=True)
class FigureListCommand:
    """``figure --list``: print the catalogue."""


CliCommand = Union[SolveCommand, MatrixCommand, WeightsCommand, VerifyCommand,
                   FigureListCommand]


# A negative number as a command line spells it, exponent form included:
# -1, -1.5, -.5, -1e3, -1E-3, -.5e2.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse that raises :class:`UsageError` instead of exiting, and
    takes every negative number as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse before Python 3.13 takes "-1e3" for an option, so
        # "--order -1e3" would lack its value.  No option is named like a
        # number, so a word that reads as one is always a value.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracdiff1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one simulation and emit CSV")
    solve.add_argument("--config", type=Path, default=None,
                       help="JSON file supplying any of the flags below")
    solve.add_argument("--alpha", type=float, default=None)
    solve.add_argument("--c", type=float, default=None)
    solve.add_argument("--n", type=int, default=None)
    solve.add_argument("--dt", type=float, default=None)
    solve.add_argument("--t-end", dest="t_end", type=float, default=None)
    solve.add_argument("--deriv", choices=_spellings(DerivativeForm), default=None)
    solve.add_argument("--left", choices=_spellings(BoundaryCondition), default=None)
    solve.add_argument("--right", choices=_spellings(BoundaryCondition), default=None)
    solve.add_argument("--ic", type=str, default=None,
                       help="tent | bump | uniform | file:PATH")
    solve.add_argument("--method", choices=_spellings(Method), default=None)
    solve.add_argument("--snapshots", type=str, default=None,
                       help="comma-separated times, e.g. 0,0.05,0.1,0.5")
    solve.add_argument("--allow-unstable", action="store_true", default=None)
    solve.add_argument("--out", type=Path, default=None)

    matrix = sub.add_parser("matrix", help="emit one iteration matrix as CSV")
    matrix.add_argument("--alpha", type=float, required=True)
    matrix.add_argument("--c", type=float, default=1.0)
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--deriv", choices=_spellings(DerivativeForm), required=True)
    matrix.add_argument("--left", choices=_spellings(BoundaryCondition), required=True)
    matrix.add_argument("--right", choices=_spellings(BoundaryCondition), required=True)
    matrix.add_argument("--out", type=Path, required=True)

    weights = sub.add_parser("weights", help="emit Grünwald weights as CSV")
    weights.add_argument("--order", type=float, required=True)
    weights.add_argument("--m", type=int, required=True)
    weights.add_argument("--out", type=Path, required=True)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("suite", type=str)

    figure = sub.add_parser("figure", help="rerun a catalogued demonstration")
    figure.add_argument("figure_id", type=int, nargs="?", default=None)
    figure.add_argument("--list", action="store_true", dest="list_only",
                        help="print the id <-> protocol mapping")
    figure.add_argument("--n", type=int, default=None)
    figure.add_argument("--dt", type=float, default=None)
    figure.add_argument("--method", choices=_spellings(Method), default=None)
    figure.add_argument("--out", type=Path, default=None)

    return parser


# Built once: a parser built per call leaves reference cycles that hold
# tens of KB until the garbage collector runs.
_PARSER = _build_parser()


def _parse_snapshots(raw: str | Sequence[float]) -> tuple[float, ...]:
    parts = raw.split(",") if isinstance(raw, str) else raw
    try:
        times = tuple(float(t) for t in parts if t != "")
    except ValueError as exc:
        raise UsageError(f"bad snapshot list {raw!r}: {exc}") from None
    if not times:  # a run that records no snapshot writes no row
        raise UsageError(f"empty snapshot list {raw!r}")
    return times

# Flag defaults applied after merging a --config file; --alpha has no
# default and must come from a figure's recipe, the file or the flag.
_SOLVE_DEFAULTS = {
    "c": 1.0,
    "n": 1000,
    "dt": 1e-3,
    "t_end": 0.5,
    "deriv": "rl",
    "left": "absorbing",
    "right": "absorbing",
    "ic": "tent",
    "method": "implicit",
    "snapshots": (0.0, 0.05, 0.1, 0.5),
    "allow_unstable": False,
}
# Every key a solve flag or a --config file may set.
_SOLVE_KEYS = (*_SOLVE_DEFAULTS, "alpha", "out")


def _default_snapshots(t_end: float) -> tuple[float, ...]:
    """The default snapshot times within ``[0, t_end]``: a horizon short
    of the last default keeps the earlier ones and ends at ``t_end``."""
    times = _SOLVE_DEFAULTS["snapshots"]
    if t_end < times[-1]:
        return tuple(t for t in times if t < t_end) + (t_end,)
    return times


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_value(key: str, value) -> None:
    """Reject a JSON config value whose type differs from what its flag
    parses to (a string ``"false"`` is not ``false``; ``20.7`` is not an
    integer)."""
    if key == "allow_unstable":
        ok = isinstance(value, bool)
    elif key == "n":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif key in ("alpha", "c", "dt", "t_end"):
        ok = _is_number(value)
    elif key == "snapshots":
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(_is_number(t) for t in value))
    else:
        ok = isinstance(value, str)
    if not ok:
        raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")


def _scheme_spec(values) -> SchemeSpec:
    """The scheme named by the ``deriv``/``left``/``right``/``alpha``/``c``/``n``
    entries of ``values`` (parsed flags or a merged recipe)."""
    return SchemeSpec(
        form=DerivativeForm(values["deriv"]),
        left=BoundaryCondition(values["left"]),
        right=BoundaryCondition(values["right"]),
        alpha=float(values["alpha"]),
        c=float(values["c"]),
        n=values["n"],
    )


def _solve_command(args: argparse.Namespace, base: dict) -> SolveCommand:
    """Merge one run's recipe, later layers winning: ``_SOLVE_DEFAULTS``,
    ``base`` (a figure's catalogue entry), the ``--config`` file, the
    flags."""
    merged = dict(base)
    if getattr(args, "config", None) is not None:
        try:
            # json.loads peaks under 48 bytes per byte of the file, text
            # included: nested one-item lists, its densest objects, take 45.
            loaded = json.loads(_read_whole(args.config, 48))
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - set(_SOLVE_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value)
        merged.update(loaded)
    for key in _SOLVE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if "snapshots" not in merged and "t_end" in merged:
        merged["snapshots"] = _default_snapshots(merged["t_end"])
    for key, default in _SOLVE_DEFAULTS.items():
        merged.setdefault(key, default)
    if "alpha" not in merged:
        raise UsageError("solve needs --alpha (flag or config file)")
    if "out" not in merged:
        raise UsageError(f"{args.command} needs --out")
    try:
        config = SolverConfig(
            spec=_scheme_spec(merged),
            dt=float(merged["dt"]),
            t_end=float(merged["t_end"]),
            method=Method(merged["method"]),
            snapshot_times=_parse_snapshots(merged["snapshots"]),
            initial=InitialCondition.parse(merged["ic"]),
            allow_unstable=merged["allow_unstable"],
        )
    except FracDiffError as exc:
        raise UsageError(str(exc)) from None
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad value: {exc}") from None
    return SolveCommand(config=config, out=Path(merged["out"]))


def parse_args(argv: Sequence[str]) -> CliCommand:
    """Parse a full command line into a validated command object.

    Raises :class:`UsageError` (exit code 2) on any malformed input,
    including a spec the package rejects or one beyond physical memory.
    """
    args = _PARSER.parse_args(list(argv))
    try:
        return _command(args)
    except FracDiffError as exc:
        raise UsageError(str(exc)) from None


def _command(args: argparse.Namespace) -> CliCommand:
    """The validated command object of parsed flags."""
    if args.command == "solve":
        return _solve_command(args, {})
    if args.command == "matrix":
        spec = _scheme_spec(vars(args))
        _require_dense_fits(spec.n)
        return MatrixCommand(spec=spec, out=args.out)
    if args.command == "weights":
        if args.m < 0:
            raise UsageError(f"weight count must be nonnegative, got {args.m}")
        if not math.isfinite(args.order):
            raise UsageError(f"order must be finite, got {args.order}")
        # The recursion holds four arrays of m + 1 floats, the emit one.
        _require_fits(f"m={args.m}", 4 * (args.m + 1), "the m + 1 weights")
        return WeightsCommand(order=args.order, m=args.m, out=args.out)
    if args.command == "verify":
        from .verify import SUITE_NAMES

        if args.suite not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {args.suite!r}; pick one of {', '.join(SUITE_NAMES)}"
            )
        return VerifyCommand(suite=args.suite)
    if args.command == "figure":
        if args.list_only:
            return FigureListCommand()
        if args.figure_id is None:
            raise UsageError("figure needs an id (or --list)")
        if args.figure_id not in FIGURE_PROTOCOLS:
            raise UsageError(
                f"unknown figure id {args.figure_id}; known ids are "
                f"{sorted(FIGURE_PROTOCOLS)}"
            )
        deriv, left, right, ic, snapshots = FIGURE_PROTOCOLS[args.figure_id]
        return _solve_command(args, {
            "alpha": 1.5, "deriv": deriv, "left": left, "right": right,
            "ic": ic, "snapshots": snapshots, "t_end": snapshots[-1],
        })
    raise UsageError(f"unknown command {args.command!r}")


def run_suite(name: str) -> list:
    """:func:`fracdiff1d.verify.run_suite`, whose module (and with it the
    diagnostics) loads on the first call, so no other command compiles it.
    ``run_command`` calls it through this module, where
    ``perfbench/traced.py`` wraps it."""
    from . import verify

    return verify.run_suite(name)


def run_command(cmd: CliCommand, stdout=None) -> int:
    """Execute a parsed command; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    if isinstance(cmd, SolveCommand):
        emit_timeseries_csv(run_simulation(cmd.config), cmd.out)
        return 0
    if isinstance(cmd, MatrixCommand):
        emit_matrix_csv(build_matrix(cmd.spec), cmd.out)
        return 0
    if isinstance(cmd, WeightsCommand):
        emit_weights_csv(grunwald_weights(cmd.order, cmd.m), cmd.out)
        return 0
    if isinstance(cmd, VerifyCommand):
        results = run_suite(cmd.suite)
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  {r.detail}", file=out)
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
        return 0 if failed == 0 else 1
    if isinstance(cmd, FigureListCommand):
        for fid, (deriv, left, right, ic, snaps) in FIGURE_PROTOCOLS.items():
            times = ",".join(str(t) for t in snaps)
            print(f"{fid}: {deriv} {left}/{right} ic={ic} alpha=1.5 c=1 "
                  f"snapshots={times}", file=out)
        return 0
    raise UsageError(f"unhandled command {cmd!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command = parse_args(argv)
        return run_command(command)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FracDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
