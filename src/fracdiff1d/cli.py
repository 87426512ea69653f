"""Command-line front end: solve, matrix, weights, verify, figure.

Outputs are bit-stable: floating-point values are written in scientific
notation with 17 significant digits, which round-trips ``float64`` exactly,
and repeated invocations of the same command produce byte-identical files.
Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

from .diagnostics import DiagnosticsReport
from .errors import FracDiffError, UsageError
from .grunwald import DerivativeForm, GrunwaldWeights, grunwald_weights
from .operators import BoundaryCondition, IterationMatrix, SchemeSpec, build_matrix
from .timestepper import (
    InitialCondition,
    Method,
    SolverConfig,
    TimeSeries,
    run_simulation,
)
from .verify import SUITE_NAMES, run_suite

__all__ = [
    "FIGURE_PROTOCOLS",
    "CliCommand",
    "FigureCommand",
    "MatrixCommand",
    "SolveCommand",
    "VerifyCommand",
    "WeightsCommand",
    "emit_matrix_csv",
    "emit_timeseries_csv",
    "emit_weights_csv",
    "main",
    "parse_args",
    "report_to_csv_rows",
    "report_to_text",
    "run_command",
]

_FORMS = {
    "rl": DerivativeForm.RIEMANN_LIOUVILLE,
    "ps": DerivativeForm.PATIE_SIMON,
    "caputo": DerivativeForm.CAPUTO,
}
_BCS = {
    "absorbing": BoundaryCondition.ABSORBING,
    "reflecting": BoundaryCondition.REFLECTING,
}
_METHODS = {"explicit": Method.EXPLICIT, "implicit": Method.IMPLICIT}

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
class FigureCommand:
    figure_id: int | None
    out: Path | None
    n: int
    dt: float
    method: Method
    list_only: bool = False


CliCommand = Union[SolveCommand, MatrixCommand, WeightsCommand, VerifyCommand,
                   FigureCommand]


def _fmt(value: float) -> str:
    return format(float(value), ".16e")


class _Parser(argparse.ArgumentParser):
    """argparse that raises :class:`UsageError` instead of exiting."""

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
    solve.add_argument("--deriv", choices=sorted(_FORMS), default=None)
    solve.add_argument("--left", choices=sorted(_BCS), default=None)
    solve.add_argument("--right", choices=sorted(_BCS), default=None)
    solve.add_argument("--ic", type=str, default=None,
                       help="tent | bump | uniform | file:PATH")
    solve.add_argument("--method", choices=sorted(_METHODS), default=None)
    solve.add_argument("--snapshots", type=str, default=None,
                       help="comma-separated times, e.g. 0,0.05,0.1,0.5")
    solve.add_argument("--allow-unstable", action="store_true", default=None)
    solve.add_argument("--out", type=Path, default=None)

    matrix = sub.add_parser("matrix", help="emit one iteration matrix as CSV")
    matrix.add_argument("--alpha", type=float, required=True)
    matrix.add_argument("--c", type=float, default=1.0)
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--deriv", choices=sorted(_FORMS), required=True)
    matrix.add_argument("--left", choices=sorted(_BCS), required=True)
    matrix.add_argument("--right", choices=sorted(_BCS), required=True)
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
    figure.add_argument("--n", type=int, default=1000)
    figure.add_argument("--dt", type=float, default=1e-3)
    figure.add_argument("--method", choices=sorted(_METHODS), default="implicit")
    figure.add_argument("--out", type=Path, default=None)

    return parser


def _parse_snapshots(raw: str | Sequence[float]) -> tuple[float, ...]:
    if isinstance(raw, str):
        try:
            return tuple(float(part) for part in raw.split(",") if part != "")
        except ValueError as exc:
            raise UsageError(f"bad snapshot list {raw!r}: {exc}") from None
    return tuple(float(t) for t in raw)

# Flag defaults applied after merging a --config file; --alpha has no
# default and must come from one of the two sources.
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


def _solve_command(args: argparse.Namespace) -> SolveCommand:
    merged: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - set(_SOLVE_DEFAULTS) - {"alpha", "out"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value)
        merged.update(loaded)
    for key in ("alpha", "c", "n", "dt", "t_end", "deriv", "left", "right",
                "ic", "method", "snapshots", "allow_unstable", "out"):
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    for key, default in _SOLVE_DEFAULTS.items():
        merged.setdefault(key, default)
    if "alpha" not in merged:
        raise UsageError("solve needs --alpha (flag or config file)")
    if "out" not in merged:
        raise UsageError("solve needs --out")
    try:
        spec = SchemeSpec(
            form=_FORMS[merged["deriv"]],
            left=_BCS[merged["left"]],
            right=_BCS[merged["right"]],
            alpha=float(merged["alpha"]),
            c=float(merged["c"]),
            n=merged["n"],
        )
        config = SolverConfig(
            spec=spec,
            dt=float(merged["dt"]),
            t_end=float(merged["t_end"]),
            method=_METHODS[merged["method"]],
            snapshot_times=_parse_snapshots(merged["snapshots"]),
            initial=InitialCondition.parse(merged["ic"]),
            allow_unstable=merged["allow_unstable"],
        )
    except (KeyError, OverflowError) as exc:
        raise UsageError(f"bad value: {exc}") from None
    except FracDiffError as exc:
        raise UsageError(str(exc)) from None
    return SolveCommand(config=config, out=Path(merged["out"]))


def parse_args(argv: Sequence[str]) -> CliCommand:
    """Parse a full command line into a validated command object.

    Raises :class:`UsageError` (exit code 2) on any malformed input.
    """
    args = _build_parser().parse_args(list(argv))
    if args.command == "solve":
        return _solve_command(args)
    if args.command == "matrix":
        try:
            spec = SchemeSpec(
                form=_FORMS[args.deriv],
                left=_BCS[args.left],
                right=_BCS[args.right],
                alpha=args.alpha,
                c=args.c,
                n=args.n,
            )
        except FracDiffError as exc:
            raise UsageError(str(exc)) from None
        return MatrixCommand(spec=spec, out=args.out)
    if args.command == "weights":
        if args.m < 0:
            raise UsageError(f"weight count must be nonnegative, got {args.m}")
        return WeightsCommand(order=args.order, m=args.m, out=args.out)
    if args.command == "verify":
        if args.suite not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {args.suite!r}; pick one of {', '.join(SUITE_NAMES)}"
            )
        return VerifyCommand(suite=args.suite)
    if args.command == "figure":
        if args.list_only:
            return FigureCommand(figure_id=None, out=None, n=args.n,
                                 dt=args.dt, method=_METHODS[args.method],
                                 list_only=True)
        if args.figure_id is None:
            raise UsageError("figure needs an id (or --list)")
        if args.figure_id not in FIGURE_PROTOCOLS:
            raise UsageError(
                f"unknown figure id {args.figure_id}; known ids are "
                f"{sorted(FIGURE_PROTOCOLS)}"
            )
        if args.out is None:
            raise UsageError("figure needs --out")
        return FigureCommand(figure_id=args.figure_id, out=args.out, n=args.n,
                             dt=args.dt, method=_METHODS[args.method])
    raise UsageError(f"unknown command {args.command!r}")


def emit_timeseries_csv(series: TimeSeries, path: Path) -> None:
    """Write long-format ``t,x,u`` rows (snapshot-major) plus a meta sidecar.

    The sidecar ``<path>.meta.json`` carries the full run identity, the mass
    trace, the absorption ledger, and the actual snapshot times.
    """
    n = series.spec.n
    lines = ["t,x,u"]
    for t, snap in zip(series.times, series.snapshots):
        t_str = _fmt(t)
        for j in range(n + 1):
            lines.append(f"{t_str},{_fmt(j / n)},{_fmt(snap.values[j])}")
    Path(path).write_text("\n".join(lines) + "\n")
    config = series.config
    meta = {
        "alpha": series.spec.alpha,
        "c": series.spec.c,
        "n": series.spec.n,
        "deriv": series.spec.form.value,
        "left": series.spec.left.value,
        "right": series.spec.right.value,
        "dt": None if config is None else config.dt,
        "t_end": None if config is None else config.t_end,
        "ic": None if config is None else config.initial.label(),
        "method": None if config is None else config.method.value,
        "mass_trace": list(series.mass_trace),
        "absorbed_cumulative": list(series.absorbed_cumulative),
        "requested_snapshot_times": list(series.requested_times),
        "actual_snapshot_times": list(series.times),
    }
    Path(f"{path}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def emit_matrix_csv(matrix: IterationMatrix, path: Path) -> None:
    """One matrix row per line, full-precision scientific notation."""
    lines = [",".join(_fmt(v) for v in row) for row in matrix.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def emit_weights_csv(weights: GrunwaldWeights, path: Path) -> None:
    """``i,g`` rows for the weight prefix."""
    lines = ["i,g"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(weights.values)]
    Path(path).write_text("\n".join(lines) + "\n")


def report_to_text(report: DiagnosticsReport) -> str:
    """Flat ``key = value`` block for one diagnostics report."""
    lines = [
        f"min_value = {_fmt(report.min_value)}",
        f"min_time_index = {report.min_time_index}",
        f"min_node_index = {report.min_node_index}",
        f"steady_state_kind = {report.steady_state_kind.value}",
        f"decay_rate = {'' if report.decay_rate is None else _fmt(report.decay_rate)}",
        "boundary_flux_left = "
        + ("" if report.boundary_flux is None else _fmt(report.boundary_flux[0])),
        "boundary_flux_right = "
        + ("" if report.boundary_flux is None else _fmt(report.boundary_flux[1])),
        "convergence_order = "
        + ("" if report.convergence_order is None else _fmt(report.convergence_order)),
        "mass_trace = " + ",".join(_fmt(m) for m in report.mass_trace),
        "steady_state_distance = "
        + ",".join(_fmt(d) for d in report.steady_state_distance),
    ]
    return "\n".join(lines) + "\n"


def report_to_csv_rows(report: DiagnosticsReport) -> list[str]:
    """``index,mass,steady_distance`` rows, one per snapshot."""
    rows = ["index,mass,steady_distance"]
    for k, (m, d) in enumerate(zip(report.mass_trace, report.steady_state_distance)):
        rows.append(f"{k},{_fmt(m)},{_fmt(d)}")
    return rows


def _figure_config(cmd: FigureCommand) -> SolverConfig:
    deriv, left, right, ic, snaps = FIGURE_PROTOCOLS[cmd.figure_id]
    spec = SchemeSpec(form=_FORMS[deriv], left=_BCS[left], right=_BCS[right],
                      alpha=1.5, c=1.0, n=cmd.n)
    return SolverConfig(
        spec=spec,
        dt=cmd.dt,
        t_end=snaps[-1],
        method=cmd.method,
        snapshot_times=snaps,
        initial=InitialCondition.parse(ic),
    )


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
    if isinstance(cmd, FigureCommand):
        if cmd.list_only:
            for fid, (deriv, left, right, ic, snaps) in FIGURE_PROTOCOLS.items():
                times = ",".join(str(t) for t in snaps)
                print(f"{fid}: {deriv} {left}/{right} ic={ic} alpha=1.5 c=1 "
                      f"snapshots={times}", file=out)
            return 0
        emit_timeseries_csv(run_simulation(_figure_config(cmd)), cmd.out)
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
