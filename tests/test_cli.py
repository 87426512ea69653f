import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracdiff1d import (
    BoundaryCondition,
    DerivativeForm,
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
    summarize,
    total_mass,
)
from fracdiff1d.cli import (
    FIGURE_PROTOCOLS,
    FigureCommand,
    MatrixCommand,
    SolveCommand,
    VerifyCommand,
    WeightsCommand,
    emit_matrix_csv,
    emit_timeseries_csv,
    emit_weights_csv,
    main,
    parse_args,
    report_to_csv_rows,
    report_to_text,
)

FIGURE2_ARGV = [
    "solve", "--alpha", "1.5", "--c", "1", "--n", "1000", "--deriv", "rl",
    "--left", "reflecting", "--right", "reflecting", "--ic", "tent",
    "--method", "implicit", "--dt", "0.01", "--t-end", "0.5",
    "--snapshots", "0,0.05,0.1,0.5", "--out", "run.csv",
]


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


class TestParse:
    def test_solve_mirrors_reflecting_protocol(self):
        cmd = parse_args(FIGURE2_ARGV)
        assert isinstance(cmd, SolveCommand)
        config = cmd.config
        assert config.spec.form is DerivativeForm.RIEMANN_LIOUVILLE
        assert config.spec.left is BoundaryCondition.REFLECTING
        assert config.spec.right is BoundaryCondition.REFLECTING
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

    def test_figure_command_and_list(self):
        cmd = parse_args(["figure", "2", "--out", "fig2.csv"])
        assert isinstance(cmd, FigureCommand)
        assert cmd.figure_id == 2 and not cmd.list_only
        listing = parse_args(["figure", "--list"])
        assert listing.list_only

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
        assert cmd.config.spec.form is DerivativeForm.PATIE_SIMON
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
    def test_config_parses_or_is_usage_error(self, tmp_path, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        try:
            cmd = parse_args(["solve", "--config", str(path), *flags])
        except UsageError:
            return
        assert isinstance(cmd, SolveCommand)


class TestEmission:
    def zero_series(self):
        spec = SchemeSpec(DerivativeForm.RIEMANN_LIOUVILLE,
                          BoundaryCondition.ABSORBING, BoundaryCondition.ABSORBING,
                          1.5, 1.0, 2)
        snap = GridFunction(2, np.zeros(3))
        return TimeSeries(spec=spec, requested_times=(0.0,), times=(0.0,),
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
                    "actual_snapshot_times"):
            assert key in meta
        assert meta["deriv"] == "rl"
        assert meta["n"] == 2

    def test_roundtrip_is_bit_exact(self, tmp_path):
        spec = SchemeSpec(DerivativeForm.RIEMANN_LIOUVILLE,
                          BoundaryCondition.REFLECTING, BoundaryCondition.REFLECTING,
                          1.5, 1.0, 64)
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

    def test_matrix_csv_roundtrip(self, tmp_path):
        spec = SchemeSpec(DerivativeForm.PATIE_SIMON, BoundaryCondition.REFLECTING,
                          BoundaryCondition.REFLECTING, 1.5, 1.0, 8)
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

    def test_report_serializations(self):
        spec = SchemeSpec(DerivativeForm.RIEMANN_LIOUVILLE,
                          BoundaryCondition.ABSORBING, BoundaryCondition.ABSORBING,
                          1.5, 1.0, 64)
        config = SolverConfig(spec=spec, dt=1e-3, t_end=0.05, method=Method.IMPLICIT,
                              snapshot_times=tuple(k * 1e-2 for k in range(6)),
                              initial=InitialCondition.tent())
        report = summarize(run_simulation(config))
        text = report_to_text(report)
        assert "min_value" in text and "mass_trace" in text
        rows = report_to_csv_rows(report)
        assert rows[0] == "index,mass,steady_distance"
        assert len(rows) == 1 + len(report.mass_trace)


class TestMain:
    def test_usage_errors_exit_two(self, capsys):
        assert main(["verify", "bogus"]) == 2
        assert main(["solve", "--alpha", "2.5", "--out", "x.csv"]) == 2
        assert main(["weights", "--order", "1.5", "--m", "-3", "--out", "w.csv"]) == 2
        for flags in (["--dt", "nan"], ["--t-end", "inf"], ["--snapshots", "0,nan"],
                      ["--c", "nan"], ["--ic", "bogus"]):
            assert main(["solve", "--alpha", "1.5", "--n", "20", *flags,
                         "--out", "x.csv"]) == 2
        capsys.readouterr()

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

    def test_weights_command_writes_file(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--order", "0.5", "--m", "3", "--out", str(out)]) == 0
        parsed = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert parsed == [1.0, -0.5, -0.125, -0.0625]

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

    def test_verify_identities_passes(self, capsys):
        assert main(["verify", "identities"]) == 0
        report = capsys.readouterr().out
        assert "PASS" in report and "FAIL" not in report

    def test_verify_caputo_negativity_passes_with_negative_minimum(self, capsys):
        assert main(["verify", "caputo-negativity"]) == 0
        report = capsys.readouterr().out
        assert "PASS" in report
        minimum = float(report.split("min=")[1].split(" ")[0])
        assert minimum < 0.0
