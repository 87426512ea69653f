import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracdiff1d import factor, operators
from fracdiff1d import (
    GridFunction,
    InitialCondition,
    Method,
    SchemeSpec,
    SolverConfig,
    TimeSeries,
    UsageError,
    build_matrix,
    grunwald_weights,
    run_simulation,
)
from fracdiff1d.cli import (
    FIGURE_PROTOCOLS,
    FigureListCommand,
    MatrixCommand,
    SolveCommand,
    VerifyCommand,
    WeightsCommand,
    emit_matrix_csv,
    emit_timeseries_csv,
    emit_weights_csv,
    main,
    parse_args,
)
from fracdiff1d.emit import _CsvWriter
from fracdiff1d.grunwald import GrunwaldWeights
from fracdiff1d.operators import IterationMatrix
from support import PS, RL, A, R, child_env, traced_peak

FIGURE2_ARGV = [
    "solve", "--alpha", "1.5", "--c", "1", "--n", "1000", "--deriv", "rl",
    "--left", "reflecting", "--right", "reflecting", "--ic", "tent",
    "--method", "implicit", "--dt", "0.01", "--t-end", "0.5",
    "--snapshots", "0,0.05,0.1,0.5", "--out", "run.csv",
]


# The checks `fracdiff1d verify all` prints, in order.
DESK_CHECKS = (
    [f"identities/{check} alpha={alpha}" for alpha in (1.2, 1.5, 1.8)
     for check in ("recursion", "cumulative-sum", "tail-asymptote")]
    + ["matrices/lower-bandwidth-one", "matrices/reflecting-row-sums rl",
       "matrices/reflecting-row-sums ps", "matrices/ps-reflecting-column-sums",
       "matrices/left-absorbing-row-equality"]
    + [f"conservation/mass-constant {form} {method}" for form in ("rl", "ps")
       for method in ("explicit", "implicit")]
    + ["conservation/ledger-closure rl absorbing"]
    + [f"positivity/min {form} {bcs}" for form in ("rl", "ps")
       for bcs in ("aa", "ar", "ra", "rr")]
    + ["steady/steady-distance rl", "steady/steady-distance ps"]
    + [f"decay/decay rl-{bcs}" for bcs in ("aa", "ar", "ra")]
    + ["decay/no-decay rl-rr", "caputo-negativity/caputo-goes-negative"]
)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


class TestParse:
    def test_solve_mirrors_reflecting_protocol(self):
        cmd = parse_args(FIGURE2_ARGV)
        assert isinstance(cmd, SolveCommand)
        config = cmd.config
        assert config.spec.form is RL
        assert config.spec.left is R
        assert config.spec.right is R
        assert config.spec.alpha == 1.5
        assert config.spec.c == 1.0
        assert config.spec.n == 1000
        assert config.dt == 0.01
        assert config.t_end == 0.5
        assert config.method is Method.IMPLICIT
        assert config.snapshot_times == (0.0, 0.05, 0.1, 0.5)
        assert str(cmd.out) == "run.csv"

    def test_weights_command(self):
        cmd = parse_args(["weights", "--order", "1.5", "--m", "2", "--out", "w.csv"])
        assert cmd == WeightsCommand(order=1.5, m=2, out=cmd.out)
        assert str(cmd.out) == "w.csv"

    def test_negative_numbers_in_exponent_form_are_values(self):
        # argparse before Python 3.13 took these for options.
        for value, order in (("-1e3", -1e3), ("-1E-3", -1e-3), ("-.5e2", -50.0),
                             ("-2", -2.0), ("-.5", -0.5)):
            cmd = parse_args(["weights", "--order", value, "--m", "2", "--out", "w.csv"])
            assert cmd.order == order, value

    def test_alpha_out_of_range_is_usage_error(self):
        argv = list(FIGURE2_ARGV)
        argv[argv.index("--alpha") + 1] = "2.5"
        with pytest.raises(UsageError):
            parse_args(argv)

    def test_missing_alpha_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["solve", "--out", "x.csv"])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["solve", "--alpha", "1.5", "--out", "x.csv", "--bogus"])

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["verify", "bogus"])

    def test_known_suites_parse(self):
        for suite in ("identities", "matrices", "conservation", "positivity",
                      "steady", "decay", "caputo-negativity", "all"):
            assert parse_args(["verify", suite]) == VerifyCommand(suite=suite)

    def test_matrix_command(self):
        cmd = parse_args(["matrix", "--alpha", "1.5", "--n", "2", "--deriv", "rl",
                          "--left", "absorbing", "--right", "absorbing",
                          "--out", "b.csv"])
        assert isinstance(cmd, MatrixCommand)
        assert cmd.spec.n == 2

    @pytest.mark.parametrize("fid", sorted(FIGURE_PROTOCOLS))
    @pytest.mark.parametrize("flags,n,dt,method", [
        ([], 1000, 1e-3, "implicit"),
        (["--method", "explicit", "--dt", "1e-5", "--n", "200"], 200, 1e-5, "explicit"),
    ])
    def test_figure_is_the_solve_command_of_its_recipe(self, fid, flags, n, dt,
                                                      method):
        # The solve flags spell the run as the figure's meta sidecar does.
        deriv, left, right, ic, snapshots = FIGURE_PROTOCOLS[fid]
        figure = parse_args(["figure", str(fid), *flags, "--out", "fig.csv"])
        solve = parse_args([
            "solve", "--alpha", "1.5", "--c", "1.0", "--n", str(n), "--dt", repr(dt),
            "--t-end", repr(snapshots[-1]),
            "--snapshots", ",".join(repr(t) for t in snapshots),
            "--deriv", deriv, "--left", left, "--right", right,
            "--method", method, "--ic", ic, "--out", "fig.csv"])
        assert isinstance(figure, SolveCommand)
        assert figure == solve

    def test_figure_list_command(self):
        assert parse_args(["figure", "--list"]) == FigureListCommand()

    def test_figure_unknown_id(self):
        with pytest.raises(UsageError):
            parse_args(["figure", "9", "--out", "x.csv"])

    def test_ic_file_syntax(self):
        argv = list(FIGURE2_ARGV)
        argv[argv.index("--ic") + 1] = "file:some/profile.txt"
        cmd = parse_args(argv)
        assert cmd.config.initial.label() == "file:some/profile.txt"

    def test_config_file_supplies_and_flags_override(self, tmp_path):
        config = {
            "alpha": 1.5, "n": 64, "dt": 0.01, "t_end": 0.1,
            "deriv": "ps", "left": "reflecting", "right": "reflecting",
            "ic": "tent", "method": "implicit", "snapshots": [0.0, 0.1],
            "out": str(tmp_path / "from_config.csv"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        cmd = parse_args(["solve", "--config", str(path)])
        assert cmd.config.spec.form is PS
        assert cmd.config.spec.n == 64
        overridden = parse_args(["solve", "--config", str(path), "--n", "32"])
        assert overridden.config.spec.n == 32

    def test_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"alpha": 1.5, "typo": 1}))
        with pytest.raises(UsageError):
            parse_args(["solve", "--config", str(path)])


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_NUMBER = st.integers() | st.floats()
# Values of the type each key's flag parses to, often inside its valid range.
_WELL_TYPED = {
    "alpha": _NUMBER | st.floats(1.0, 2.0),
    "c": _NUMBER | st.floats(0.1, 10.0),
    "n": st.integers() | st.integers(-2, 300),
    "dt": _NUMBER | st.floats(1e-6, 1e-2),
    "t_end": _NUMBER | st.floats(0.0, 1.0),
    "deriv": st.sampled_from(["rl", "ps", "caputo"]) | st.text(max_size=8),
    "left": st.sampled_from(["absorbing", "reflecting"]) | st.text(max_size=8),
    "right": st.sampled_from(["absorbing", "reflecting"]) | st.text(max_size=8),
    "ic": st.sampled_from(["tent", "bump", "uniform", "file:p.txt"]) | st.text(max_size=8),
    "method": st.sampled_from(["explicit", "implicit"]) | st.text(max_size=8),
    "snapshots": st.lists(_NUMBER | st.floats(0.0, 0.01), max_size=3)
    | st.text(max_size=12),
    "allow_unstable": st.booleans(),
    "out": st.text(max_size=8),
}
# Mostly well-typed, so that most examples reach the library's own checks.
_CONFIGS = st.fixed_dictionaries({}, optional={
    key: st.sampled_from([typed] * 9 + [_ANY_JSON]).flatmap(lambda s: s)
    for key, typed in _WELL_TYPED.items()
})


class TestConfigProperty:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=_CONFIGS,
           flags=st.sampled_from([[], ["--alpha", "1.5"], ["--out", "x.csv"],
                                  ["--alpha", "1.5", "--out", "x.csv"]]))
    # Recipes whose beta or step count overflows, which a search rarely meets.
    @example(config={"n": 8, "c": 1e308}, flags=["--alpha", "1.5", "--out", "x.csv"])
    @example(config={"n": 8, "t_end": 1e308, "dt": 1e-308},
             flags=["--alpha", "1.5", "--out", "x.csv"])
    def test_config_parses_or_is_usage_error(self, tmp_path, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        try:
            cmd = parse_args(["solve", "--config", str(path), *flags])
        except UsageError:
            return
        assert isinstance(cmd, SolveCommand)
        parsed = cmd.config
        assert math.isfinite(parsed.beta) and math.isfinite(parsed.t_end / parsed.dt)


def recipe(spec, times):
    return SolverConfig(spec=spec, dt=1e-3, t_end=max(times[-1], 1e-3),
                        method=Method.IMPLICIT, snapshot_times=times,
                        initial=InitialCondition.tent())


class TestEmission:
    def zero_series(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 2)
        snap = GridFunction(2, np.zeros(3))
        return TimeSeries(config=recipe(spec, (0.0,)), times=(0.0,),
                          snapshots=(snap,), mass_trace=(0.0,),
                          absorbed_cumulative=(0.0,))

    def test_zero_run_layout(self, tmp_path):
        out = tmp_path / "zero.csv"
        emit_timeseries_csv(self.zero_series(), out)
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(u == 0.0 for _, _, u in rows)

    def test_meta_sidecar_keys(self, tmp_path):
        out = tmp_path / "zero.csv"
        emit_timeseries_csv(self.zero_series(), out)
        meta = json.loads((tmp_path / "zero.csv.meta.json").read_text())
        for key in ("alpha", "c", "n", "dt", "t_end", "deriv", "left", "right",
                    "ic", "method", "mass_trace", "absorbed_cumulative",
                    "requested_snapshot_times", "actual_snapshot_times"):
            assert key in meta
        assert meta["deriv"] == "rl"
        assert meta["n"] == 2
        assert (meta["dt"], meta["ic"], meta["method"]) == (1e-3, "tent", "implicit")

    def test_roundtrip_is_bit_exact(self, tmp_path):
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, 64)
        config = SolverConfig(spec=spec, dt=1e-3, t_end=0.02, method=Method.IMPLICIT,
                              snapshot_times=(0.0, 0.01, 0.02),
                              initial=InitialCondition.tent())
        series = run_simulation(config)
        out = tmp_path / "run.csv"
        emit_timeseries_csv(series, out)
        rows = read_rows(out)
        k = 0
        for t, snap in zip(series.times, series.snapshots):
            for j in range(65):
                rt, rx, ru = rows[k]
                assert rt == t and rx == j / 64 and ru == snap.values[j]
                k += 1

    def test_emit_memory_does_not_grow_with_snapshots(self, tmp_path):
        n = 2000
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, n)
        snap = GridFunction(n, np.random.default_rng(0).random(n + 1))

        def emit_peak(count):
            times = tuple(k * 1e-3 for k in range(count))
            series = TimeSeries(config=recipe(spec, times), times=times,
                                snapshots=(snap,) * count, mass_trace=(1.0,) * count,
                                absorbed_cumulative=(0.0,) * count)
            return traced_peak(lambda: emit_timeseries_csv(series, tmp_path / "run.csv"))

        assert emit_peak(50) <= 2 * emit_peak(2)

    def test_matrix_csv_roundtrip(self, tmp_path):
        spec = SchemeSpec(PS, R, R, 1.5, 1.0, 8)
        matrix = build_matrix(spec)
        out = tmp_path / "b.csv"
        emit_matrix_csv(matrix, out)
        parsed = np.loadtxt(out, delimiter=",")
        assert np.array_equal(parsed, matrix.entries)

    def test_weights_csv(self, tmp_path):
        out = tmp_path / "w.csv"
        emit_weights_csv(grunwald_weights(1.5, 2), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "i,g"
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert parsed == [1.0, -1.5, 0.375]


# The per-row f-string formatting that the CSV writer replaced, kept as the
# reference for its bytes.
def f_string_timeseries(series) -> bytes:
    n = series.spec.n
    rows = ["t,x,u\n"]
    for t, snap in zip(series.times, series.snapshots):
        rows += (f"{t:.16e},{j / n:.16e},{v:.16e}\n"
                 for j, v in enumerate(snap.values.tolist()))
    return "".join(rows).encode()


def f_string_matrix(matrix) -> bytes:
    return "".join(",".join(f"{v:.16e}" for v in row.tolist()) + "\n"
                   for row in matrix.entries).encode()


def f_string_weights(weights) -> bytes:
    return ("i,g\n" + "".join(f"{i},{v:.16e}\n"
                              for i, v in enumerate(map(float, weights.values)))).encode()


# Negative values, both zeros, subnormals, and three-digit exponents at
# both ends of the range.
EDGE_VALUES = (-1.5, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e100, -3.7e250, 1.7976931348623157e308, 1e-100, -4.2e-300, 1 / 3)


def edge_values(size: int, seed: int) -> np.ndarray:
    """``size`` values of every sign and exponent, ``EDGE_VALUES`` first
    and, reversed, last."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    k = min(size, len(EDGE_VALUES))
    values[:k] = EDGE_VALUES[:k]
    values[size - k :] = EDGE_VALUES[::-1][:k]
    return values


# Row counts below, at and above one and two blocks of the writer.
BLOCK_EDGES = [_CsvWriter.ROWS - 1, _CsvWriter.ROWS, _CsvWriter.ROWS + 1,
               2 * _CsvWriter.ROWS]


class TestCsvWriter:
    """Every CSV of the package is byte for byte its per-row f-string text."""

    @pytest.mark.parametrize("nodes", [3, *BLOCK_EDGES])
    def test_timeseries(self, tmp_path, nodes):
        n = nodes - 1
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, n)
        times = (0.0, 1e-300, 0.05)
        series = TimeSeries(
            config=recipe(spec, times), times=times,
            snapshots=tuple(GridFunction(n, edge_values(nodes, k)) for k in range(3)),
            mass_trace=(1.0,) * 3, absorbed_cumulative=(0.0,) * 3)
        out = tmp_path / "run.csv"
        emit_timeseries_csv(series, out)
        assert out.read_bytes() == f_string_timeseries(series)

    @pytest.mark.parametrize("rows", [3, *BLOCK_EDGES[:3]])
    def test_matrix(self, tmp_path, rows):
        matrix = IterationMatrix(rows - 1, edge_values(rows * rows, rows).reshape(rows, rows))
        out = tmp_path / "b.csv"
        emit_matrix_csv(matrix, out)
        assert out.read_bytes() == f_string_matrix(matrix)

    @pytest.mark.parametrize("rows", [1, *BLOCK_EDGES, 3 * _CsvWriter.ROWS + 5])
    def test_weights(self, tmp_path, rows):
        weights = GrunwaldWeights(1.5, edge_values(rows, rows))
        out = tmp_path / "w.csv"
        emit_weights_csv(weights, out)
        assert out.read_bytes() == f_string_weights(weights)


class TestMain:
    def test_usage_errors_exit_two(self, capsys, monkeypatch):
        # 10**12 weights need 7.3 TiB: rejected before allocating.
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 8 * 2**30)
        assert main(["verify", "bogus"]) == 2
        assert main(["solve", "--alpha", "2.5", "--out", "x.csv"]) == 2
        for order, m in (("1.5", "-3"), ("nan", "5"), ("1.5", "1" + "0" * 20),
                         ("1.5", "1" + "0" * 12)):
            assert main(["weights", "--order", order, "--m", m, "--out", "w.csv"]) == 2
        # The last two overflow beta and the step count t_end / dt.
        for flags in (["--dt", "nan"], ["--t-end", "inf"], ["--snapshots", "0,nan"],
                      ["--c", "nan"], ["--ic", "bogus"], ["--ic", "file:"], ["--c", "1e308"],
                      ["--t-end", "1e308", "--dt", "1e-308"]):
            assert main(["solve", "--alpha", "1.5", "--n", "20", *flags,
                         "--out", "x.csv"]) == 2
        # A finite step count past the cap: 10**300 steps would run until killed.
        assert main(["solve", "--alpha", "1.5", "--n", "8", "--t-end", "1", "--dt", "1e-300",
                     "--snapshots", "0,1", "--out", "x.csv"]) == 2
        # One step past the cap, 10**9 + 1 steps of dt = 0.5.
        assert main(["solve", "--alpha", "1.5", "--n", "8", "--method", "implicit",
                     "--dt", "0.5", "--t-end", repr(0.5 * (10**9 + 1)),
                     "--snapshots", "0", "--out", "x.csv"]) == 2
        assert "asks for 1000000001 steps" in capsys.readouterr().err
        assert main(["solve", "--alpha", "1.5", "--n", "1" + "0" * 400,
                     "--out", "x.csv"]) == 2
        assert main(["figure", "2", "--dt", "nan", "--out", "x.csv"]) == 2
        assert main(["figure", "2", "--n", "1", "--out", "x.csv"]) == 2
        capsys.readouterr()

    def test_only_dense_paths_are_bounded_by_memory(self, tmp_path, capsys, monkeypatch):
        # On an 8 GiB host an explicit run at n = 40000 needs a few MiB and an
        # implicit one the 40 MiB of its factor's triangles, about
        # (_HALF + 1) / 2 floats a node, while the dense (n+1)^2 matrix
        # would take 11.9 GiB.
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 8 * 2**30)
        out = tmp_path / "run.csv"
        one_step = ["--alpha", "1.5", "--n", "40000", "--dt", "1e-9", "--t-end", "1e-9",
                    "--snapshots", "0,1e-9", "--out", str(out)]
        assert main(["solve", *one_step, "--method", "explicit"]) == 0
        assert len(read_rows(out)) == 2 * 40001
        out.unlink()
        implicit = [["solve", *one_step, "--method", "implicit"],
                    ["figure", "2", "--n", "40000", "--out", str(out)]]
        # Parsed only: the implicit runs would take seconds.  With twice
        # the bytes of their triangles they fit, with those bytes alone not.
        triangles = 8 * sum((b - a) * (b - a + 1) // 2 for a, b in factor._blocks(40001))
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 2 * triangles)
        for argv in implicit:
            assert isinstance(parse_args(argv), SolveCommand)
        matrix = ["matrix", "--alpha", "1.5", "--n", "40000", "--deriv", "rl",
                  "--left", "absorbing", "--right", "absorbing", "--out", str(out)]
        for memory, argv in ((8 * 2**30, matrix), *((triangles, argv) for argv in implicit)):
            monkeypatch.setattr(operators, "_MEMORY_BYTES", memory)
            assert main(argv) == 2
            assert "physical memory" in capsys.readouterr().err
            assert not out.exists()
        # With 4 MiB, the 0.3 MiB state fits but the explicit run's ~8 MiB
        # of stencil, FFT buffers and states does not.
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 4 * 2**20)
        assert main(["solve", *one_step, "--method", "explicit"]) == 2
        assert "an explicit run recording 2 states" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["matrix", "--alpha", "1.5", "--n", "200", "--deriv", "caputo",
         "--left", "absorbing", "--right", "absorbing"],
        ["weights", "--order", "1.5", "--m", "8000"],
    ])
    def test_memory_bound_covers_the_command(self, tmp_path, capsys, monkeypatch, argv):
        # The check before allocating counts all the command holds: the
        # dense matrix or the weights' work arrays, and the CSV text.  Twice
        # the peak passes it (parsed only: the run above already wrote).
        # The sizes are about the smallest at which the arrays outweigh the
        # fixed allowance enough for that (twice the peak of m = 8000 is
        # 1.1 times the check), while an emit that held its whole text
        # would peak at 1.7 times the check.
        out = tmp_path / "out.csv"
        argv = [*argv, "--out", str(out)]
        peak = traced_peak(lambda: main(argv))
        out.unlink()
        monkeypatch.setattr(operators, "_MEMORY_BYTES", peak - 1)
        assert main(argv) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 2 * peak)
        assert isinstance(parse_args(argv), (MatrixCommand, WeightsCommand))

    @pytest.mark.parametrize("n,states", [(n, states) for n in (16, 64, 200, 600)
                                          for states in (4, 10, 40)]
                             + [(2, 2000), (64, 2000), (1100, 4)])
    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    def test_memory_bound_covers_the_solve(self, tmp_path, capsys, monkeypatch,
                                           method, n, states):
        # The run check counts all a solve holds, its parse and CSV text
        # included: at small n those outweigh the run's arrays, and with
        # many snapshots each one's bookkeeping and meta JSON outweigh its
        # n + 1 values.  A first run fills the import and FFT caches, which
        # a second does not.  At n = 600 and 1100 an implicit factor has a
        # tail from row 22 and 31: its head is one block, coupled to the
        # tail through the stencil, and its tail takes an FFT a step.
        dt, steps = (1e-5, 40) if states <= 40 else (1e-6, states)
        times = ",".join(repr(k * steps // (states - 1) * dt) for k in range(states))
        out = tmp_path / "run.csv"
        argv = ["solve", "--alpha", "1.5", "--n", str(n), "--method", method,
                "--dt", str(dt), "--t-end", repr(steps * dt), "--snapshots", times,
                "--out", str(out)]
        assert main(argv) == 0
        peak = traced_peak(lambda: main(argv))
        out.unlink()
        monkeypatch.setattr(operators, "_MEMORY_BYTES", peak - 1)
        assert main(argv) == 2
        assert f"recording {states} states" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["weights", "--order", "1.5", "--m", "100", "--out", "w.csv"],
        ["matrix", "--alpha", "1.5", "--n", "8", "--deriv", "caputo",
         "--left", "absorbing", "--right", "absorbing", "--out", "b.csv"],
    ])
    def test_parse_leaves_no_garbage(self, argv):
        # What a parse leaves traced, before the garbage collector runs, is
        # carried by the command's peak: a parser built per call left its
        # reference cycles, 39-60 KB.
        parse_args(argv)
        gc.disable()
        tracemalloc.start()
        try:
            command = parse_args(argv)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert isinstance(command, (MatrixCommand, WeightsCommand))
        assert held < 16_000, held

    def test_default_snapshots_end_at_a_shorter_t_end(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["solve", "--alpha", "1.5", "--n", "64", "--t-end", "0.2",
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["requested_snapshot_times"] == [0.0, 0.05, 0.1, 0.2]
        assert meta["actual_snapshot_times"] == pytest.approx([0.0, 0.05, 0.1, 0.2])
        assert len(read_rows(out)) == 4 * 65
        for t_end, times in ((0.1, (0.0, 0.05, 0.1)), (0.5, (0.0, 0.05, 0.1, 0.5)),
                             (2.0, (0.0, 0.05, 0.1, 0.5))):
            cmd = parse_args(["solve", "--alpha", "1.5", "--t-end", str(t_end),
                              "--out", str(out)])
            assert cmd.config.snapshot_times == times
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": 1.5, "t_end": 0.01}))
        cmd = parse_args(["solve", "--config", str(config), "--out", str(out)])
        assert cmd.config.snapshot_times == (0.0, 0.01)

    def test_profile_is_read_only_if_it_fits(self, tmp_path, capsys, monkeypatch):
        # The profile's size at np.loadtxt's per-byte peak, as
        # InitialCondition.sample bounds it, is checked by the read: one
        # byte less memory stops the run with exit code 1 and no file.
        n = 1000
        profile = tmp_path / "profile.txt"
        values = np.random.default_rng(n).random(n + 1)
        profile.write_text("".join(f"{v:.16e}\n" for v in values))
        needs = 8 * (5 * profile.stat().st_size // 2 + operators._OVERHEAD_FLOATS)
        out = tmp_path / "run.csv"
        argv = ["solve", "--alpha", "1.5", "--n", str(n), "--method", "explicit",
                "--left", "reflecting", "--right", "reflecting", "--dt", "1e-7",
                "--t-end", "1e-7", "--snapshots", "0,1e-7", "--ic", f"file:{profile}",
                "--out", str(out)]
        monkeypatch.setattr(operators, "_MEMORY_BYTES", needs - 1)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profile} (") and "physical memory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.txt"]
        monkeypatch.setattr(operators, "_MEMORY_BYTES", needs)
        assert main(argv) == 0
        assert [u for _, _, u in read_rows(out)[: n + 1]] == values.tolist()

    def test_config_is_read_only_if_it_fits(self, tmp_path, capsys, monkeypatch):
        # Padding makes reading the file, not the run, the largest need.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": 1.5, "n": 20, "method": "explicit",
                                      "dt": 1e-4, "t_end": 1e-3}) + " " * 2**16)
        needs = 8 * (6 * config.stat().st_size + operators._OVERHEAD_FLOATS)
        out = tmp_path / "run.csv"
        argv = ["solve", "--config", str(config), "--out", str(out)]
        monkeypatch.setattr(operators, "_MEMORY_BYTES", needs - 1)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {config}: ")
        assert "physical memory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        monkeypatch.setattr(operators, "_MEMORY_BYTES", needs)
        assert main(argv) == 0
        assert out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_inputs_are_read_only_as_far_as_they_fit(self, tmp_path, capsys,
                                                              monkeypatch):
        # A device or a pipe reports size 0, so the read itself stops one
        # byte past what fits: 1 MiB beside the fixed allowance fits 51 KiB
        # of a profile and 21 KiB of a config.
        monkeypatch.setattr(operators, "_MEMORY_BYTES",
                            8 * operators._OVERHEAD_FLOATS + 2**20)
        out = tmp_path / "run.csv"
        solve = ["solve", "--alpha", "1.5", "--n", "16", "--method", "explicit",
                 "--dt", "1e-4", "--t-end", "1e-3", "--out", str(out)]
        for flags, code, start in (
                (["--config", "/dev/zero"], 2, "error: cannot read config /dev/zero: "),
                (["--ic", "file:/dev/zero"], 1, "error: /dev/zero (over ")):
            codes = []
            assert traced_peak(lambda: codes.append(main([*solve, *flags]))) < 2**20
            assert codes == [code]
            err = capsys.readouterr().err
            assert err.startswith(start) and err.count("\n") == 1
            assert "physical memory" in err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
    def test_config_may_come_from_a_pipe(self, tmp_path):
        read, write = os.pipe()
        with os.fdopen(write, "w") as pipe:
            pipe.write(json.dumps({"alpha": 1.5, "n": 20}))
        try:
            cmd = parse_args(["solve", "--config", f"/dev/fd/{read}",
                              "--out", str(tmp_path / "run.csv")])
        finally:
            os.close(read)
        assert cmd.config.spec.n == 20

    @pytest.mark.parametrize("item", ["{}", "[{}]", "[]", "[" * 50 + "0" + "]" * 50])
    def test_config_bound_covers_its_read(self, tmp_path, item):
        # The densest JSON objects per byte: json.loads and the text peak
        # under the 48 bytes per byte the bound counts, beside the fixed
        # overhead.
        config = tmp_path / "run.json"
        config.write_text("[" + ",".join([item] * (2**17 // len(item))) + "]")
        needs = 8 * (6 * config.stat().st_size + operators._OVERHEAD_FLOATS)

        def parse():
            with pytest.raises(UsageError, match="must hold a JSON object"):
                parse_args(["solve", "--config", str(config), "--out", "x.csv"])

        assert traced_peak(parse) <= needs

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["solve", "--config", str(config), "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {config}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"allow_unstable": "false", "n": 20, "dt": 0.5, "t_end": 5.0,
         "method": "explicit", "snapshots": [0.0, 5.0]},
        {"n": 20.7},
        {"snapshots": 5},
        {"alpha": "x"},
    ])
    def test_config_values_of_the_wrong_type_exit_two(self, tmp_path, capsys, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"alpha": 1.5, **config}))
        out = tmp_path / "run.csv"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--snapshots", ""], None),
        (["--snapshots", ","], None),
        ([], {"snapshots": []}),
        ([], {"snapshots": ""}),
    ])
    def test_an_empty_snapshot_list_exits_two_and_runs_nothing(self, tmp_path, capsys,
                                                                flags, config):
        # A run that records no snapshot would write a CSV of its header alone.
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            flags = ["--config", str(path)]
        out = tmp_path / "run.csv"
        assert main(["solve", "--alpha", "1.5", "--n", "8", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: empty snapshot list")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_blown_up_explicit_run_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # dt = 0.5 is far above the CFL limit at n = 20; the state overflows
        # around step 150.
        out = tmp_path / "run.csv"
        code = main(["solve", "--alpha", "1.5", "--n", "20", "--method", "explicit",
                     "--dt", "0.5", "--t-end", "100", "--snapshots", "0,100",
                     "--allow-unstable", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step 150" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    def test_non_finite_ic_file_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                             method):
        profile = tmp_path / "profile.txt"
        profile.write_text("\n".join(["0.0"] * 10 + ["nan"] + ["1.0"] * 10))
        out = tmp_path / "run.csv"
        code = main(["solve", "--alpha", "1.5", "--n", "20", "--method", method,
                     "--dt", "1e-4", "--t-end", "1e-3", "--snapshots", "0,1e-3",
                     "--ic", f"file:{profile}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.txt"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [None, "", " \n\t\n", "# no values\n#\n"])
    def test_a_profile_without_values_ends_with_one_error_line(self, tmp_path, capsys, text):
        # None reads the null device.
        profile = Path(os.devnull) if text is None else tmp_path / "profile.txt"
        if text is not None:
            profile.write_text(text)
        out = tmp_path / "run.csv"
        assert main(["solve", "--alpha", "1.5", "--n", "4", "--ic", f"file:{profile}",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {profile} holds 0 values, grid needs 5\n"
        assert not out.exists()

    def test_weights_command_writes_file(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--order", "0.5", "--m", "3", "--out", str(out)]) == 0
        parsed = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert parsed == [1.0, -0.5, -0.125, -0.0625]

    def test_a_spaced_negative_order_writes_the_file_of_a_joined_one(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["weights", "--order", "-1e3", "--m", "3", "--out", str(spaced)]) == 0
        assert main(["weights", "--order=-1e3", "--m", "3", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_a_negative_dt_in_exponent_form_reaches_the_config_check(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["solve", "--alpha", "1.5", "--dt", "-1e-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dt must be positive and finite, got -0.001\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("order", ("1e308", "2000"))
    def test_overflowing_weights_exit_one(self, tmp_path, capsys, order):
        # 1e308 overflows to inf; the integer order 2000 overflows and then
        # meets its zero factor, which makes NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["weights", "--order", order, "--m", "2100",
                         "--out", str(tmp_path / "w.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_matrix_command_writes_file(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["matrix", "--alpha", "1.5", "--n", "2", "--deriv", "rl",
                     "--left", "reflecting", "--right", "reflecting",
                     "--out", str(out)])
        assert code == 0
        parsed = np.loadtxt(out, delimiter=",")
        expected = np.array([[-0.5, 0.375, 0.125], [1.0, -1.5, 0.5], [0.0, 1.0, -1.0]])
        assert np.max(np.abs(parsed - expected)) <= 1e-15

    def test_solve_writes_csv_and_meta(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["solve", "--alpha", "1.5", "--n", "64", "--dt", "0.001",
                     "--t-end", "0.01", "--snapshots", "0,0.01",
                     "--deriv", "rl", "--left", "reflecting", "--right", "reflecting",
                     "--out", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "run.csv.meta.json").exists()
        rows = read_rows(out)
        assert len(rows) == 2 * 65

    @pytest.mark.parametrize("fid,method,dt", [(3, "implicit", "1e-3"),
                                               (6, "explicit", "2e-4"),
                                               (7, "implicit", "1e-3")])
    def test_meta_spellings_parse_back_to_the_same_run(self, tmp_path, fid, method, dt):
        # One run per form: the meta sidecar's spellings, fed back as solve
        # flags, repeat the run byte for byte.
        first, second = tmp_path / "figure.csv", tmp_path / "solve.csv"
        assert main(["figure", str(fid), "--n", "64", "--dt", dt,
                     "--method", method, "--out", str(first)]) == 0
        meta = json.loads((tmp_path / "figure.csv.meta.json").read_text())
        snapshots = ",".join(repr(t) for t in meta["requested_snapshot_times"])
        assert main(["solve", "--alpha", repr(meta["alpha"]), "--c", repr(meta["c"]),
                     "--n", str(meta["n"]), "--dt", repr(meta["dt"]),
                     "--t-end", repr(meta["t_end"]), "--snapshots", snapshots,
                     *(arg for key in ("deriv", "left", "right", "method", "ic")
                       for arg in (f"--{key}", meta[key])),
                     "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_figure_list_covers_catalogue(self, capsys):
        assert main(["figure", "--list"]) == 0
        listing = capsys.readouterr().out
        for fid, (deriv, left, right, ic, _) in FIGURE_PROTOCOLS.items():
            assert f"{fid}: {deriv} {left}/{right} ic={ic}" in listing
        assert len(FIGURE_PROTOCOLS) == 7

    def test_figure_two_contains_tent_peak(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "2", "--n", "128", "--dt", "0.01",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == (0.0, 0.0, 0.0)
        assert (0.0, 0.5, 5.0) in rows

    @pytest.mark.parametrize("suite,names", [("all", DESK_CHECKS),
                                             ("identities", DESK_CHECKS[:9])])
    def test_verify_prints_the_desk_checks_in_order(self, capsys, suite, names):
        assert main(["verify", suite]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        # "STATUS  name<padding>  detail"; names hold no double space.
        assert [line[6:].split("  ")[0] for line in lines] == names
        assert all(line.startswith("PASS  ") for line in lines)
        assert summary == f"{len(names)}/{len(names)} checks passed"

    def test_verify_caputo_negativity_passes_with_negative_minimum(self, capsys):
        assert main(["verify", "caputo-negativity"]) == 0
        report = capsys.readouterr().out
        assert "PASS" in report
        minimum = float(report.split("min=")[1].split(" ")[0])
        assert minimum < 0.0


def test_no_command_loads_scipy(tmp_path):
    # Implicit steps call numpy's bundled OpenBLAS, so scipy serves only the
    # tests: no command, implicit runs and `verify all` included, imports it.
    env = child_env()
    profile = tmp_path / "profile.txt"
    profile.write_text("".join(f"{v:.16e}\n" for v in np.linspace(0.0, 1.0, 65)))
    out = str(tmp_path / "out.csv")
    commands = [
        ["solve", "--alpha", "1.5", "--n", "64", "--method", "explicit", "--dt", "1e-4",
         "--t-end", "1e-3", "--left", "absorbing", "--right", "absorbing",
         "--ic", f"file:{profile}", "--out", out],
        ["figure", "2", "--method", "explicit", "--n", "64", "--out", out],
        ["matrix", "--alpha", "1.5", "--n", "8", "--deriv", "rl", "--left", "absorbing",
         "--right", "reflecting", "--out", out],
        ["weights", "--order", "1.5", "--m", "10", "--out", out],
        ["verify", "identities"], ["verify", "matrices"], ["verify", "positivity"],
        ["figure", "--list"],
        ["solve", "--alpha", "1.5", "--n", "64", "--t-end", "1e-2", "--out", out],
        ["figure", "2", "--n", "64", "--out", out],
        ["verify", "all"],
    ]
    code = (
        "import json, sys\n"
        "from fracdiff1d.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert loaded == []


def test_a_run_loads_neither_verify_nor_the_diagnostics(tmp_path):
    # solve and figure never call them, so a launch does not compile them;
    # verify still runs, and a star import still binds every public name.
    env = child_env()
    out = str(tmp_path / "out.csv")
    runs = [["solve", "--alpha", "1.5", "--n", "16", "--method", method, "--t-end", "0.01",
             "--out", out] for method in ("explicit", "implicit")]
    runs.append(["figure", "2", "--n", "16", "--out", out])
    code = (
        "import json, sys\n"
        "from fracdiff1d.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "loaded = [m for m in ('fracdiff1d.verify', 'fracdiff1d.diagnostics')\n"
        "          if m in sys.modules]\n"
        "import fracdiff1d\n"
        "names = {}\n"
        "exec('from fracdiff1d import *', names)\n"
        "unbound = [name for name in fracdiff1d.__all__ if name not in names]\n"
        "codes.append(main(['verify', 'identities']))\n"
        "print(json.dumps([codes, loaded, unbound]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    codes, loaded, unbound = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * 4
    assert loaded == []
    assert unbound == []
