import math

import numpy as np
import pytest

from fracdiff1d import (
    DegenerateInput,
    DimensionMismatch,
    EmptySeries,
    GridFunction,
    InitialCondition,
    InvalidSpec,
    Method,
    SchemeSpec,
    SolverConfig,
    SteadyStateKind,
    SteadyStateReference,
    TimeSeries,
    UnsupportedForm,
    boundary_flux_check,
    decay_rate,
    l1_distance_interior,
    negativity_scan,
    run_simulation,
    steady_state_reference,
    tent_profile,
)
from support import CAP, PS, RL, A, R


def series_from_values(spec, times, value_arrays):
    n = spec.n
    snaps = tuple(GridFunction(n, v) for v in value_arrays)
    masses = tuple(s.h * float(s.values.sum()) for s in snaps)
    config = SolverConfig(spec=spec, dt=1e-3, t_end=max(times, default=1.0),
                          method=Method.IMPLICIT, snapshot_times=tuple(times),
                          initial=InitialCondition.tent())
    return TimeSeries(config=config, times=tuple(times), snapshots=snaps,
                      mass_trace=masses, absorbed_cumulative=tuple(0.0 for _ in times))


def stacked_argmin(values):
    """``negativity_scan`` by one ``argmin`` over the stacked states."""
    stacked = np.stack(values)
    t_idx, node = divmod(int(np.argmin(stacked)), stacked.shape[1])
    return float(stacked[t_idx, node]), t_idx, node


def polyfit_rate(series):
    """``decay_rate`` by ``np.polyfit``, on the same window."""
    h = 1.0 / series.spec.n
    norms = np.array([h * np.abs(s.values).sum() for s in series.snapshots])
    start = min(len(norms) // 2, len(norms) - 3)
    return float(np.polyfit(series.times[start:], np.log(norms[start:]), 1)[0])


def run_scheme(form, left, right, *, n=128, dt=1e-3, steps=500, every=25,
               ic=None, method=Method.IMPLICIT):
    spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
    config = SolverConfig(
        spec=spec, dt=dt, t_end=steps * dt, method=method,
        snapshot_times=tuple(k * dt for k in range(0, steps + 1, every)),
        initial=ic or InitialCondition.tent(),
    )
    return run_simulation(config)


class TestSteadyStateReference:
    def test_rl_reflecting_power_law(self):
        ref = steady_state_reference(SchemeSpec(RL, R, R, 1.5, 1.0, 8))
        assert ref.kind is SteadyStateKind.POWER_LAW
        x = np.arange(1, 9) / 8
        assert ref.values == pytest.approx(0.5 * x**-0.5, rel=1e-14)

    def test_ps_reflecting_constant(self):
        ref = steady_state_reference(SchemeSpec(PS, R, R, 1.5, 1.0, 8))
        assert ref.kind is SteadyStateKind.CONSTANT
        assert np.all(ref.values == 1.0)

    @pytest.mark.parametrize("left,right", [(R, A), (A, R), (A, A)])
    def test_any_absorbing_side_drains(self, left, right):
        ref = steady_state_reference(SchemeSpec(RL, left, right, 1.3, 1.0, 8))
        assert ref.kind is SteadyStateKind.ZERO
        assert np.all(ref.values == 0.0)

    def test_caputo_absorbing_drains(self):
        ref = steady_state_reference(SchemeSpec(CAP, A, A, 1.5, 1.0, 8))
        assert ref.kind is SteadyStateKind.ZERO

    def test_reference_values_are_immutable(self):
        ref = steady_state_reference(SchemeSpec(RL, R, R, 1.5, 1.0, 8))
        with pytest.raises(ValueError):
            ref.values[0] = 3.0

    def test_reference_shape_is_checked(self):
        with pytest.raises(DimensionMismatch):
            SteadyStateReference(SteadyStateKind.ZERO, 8, np.zeros(9))


class TestL1Distance:
    def test_exact_match_is_zero(self):
        ref = steady_state_reference(SchemeSpec(PS, R, R, 1.5, 1.0, 16))
        u = GridFunction(16, np.concatenate(([7.0], ref.values)))
        assert l1_distance_interior(u, ref) == 0.0

    def test_unit_offset_integrates_to_one(self):
        ref = steady_state_reference(SchemeSpec(PS, R, R, 1.5, 1.0, 16))
        u = GridFunction(16, np.concatenate(([0.0], ref.values + 1.0)))
        assert l1_distance_interior(u, ref) == pytest.approx(1.0, abs=1e-14)

    def test_matches_bruteforce_summation(self):
        n = 1000
        u = GridFunction.sample(tent_profile, n)
        ref = steady_state_reference(SchemeSpec(PS, R, R, 1.5, 1.0, n))
        expected = sum(abs(u.values[j] - 1.0) for j in range(1, n + 1)) / n
        assert l1_distance_interior(u, ref) == pytest.approx(expected, rel=1e-12)

    def test_rejects_mismatched_grids(self):
        ref = steady_state_reference(SchemeSpec(PS, R, R, 1.5, 1.0, 16))
        with pytest.raises(DimensionMismatch):
            l1_distance_interior(GridFunction(8, np.zeros(9)), ref)


class TestNegativityScan:
    def test_zero_series(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 4)
        series = series_from_values(spec, (0.0, 0.1), [np.zeros(5), np.zeros(5)])
        assert negativity_scan(series) == (0.0, 0, 0)

    def test_finds_first_dip(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 4)
        dip = np.array([0.0, 1.0, -0.25, 1.0, 0.0])
        series = series_from_values(spec, (0.0, 0.1), [np.zeros(5), dip])
        assert negativity_scan(series) == (-0.25, 1, 2)

    def test_empty_series_is_rejected(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 4)
        series = series_from_values(spec, (), [])
        with pytest.raises(EmptySeries):
            negativity_scan(series)

    @pytest.mark.parametrize("values, expected", [
        # A tie across snapshots: the first snapshot holding the minimum.
        ([np.ones(5), [0.0, 1.0, -0.5, 1.0, 0.0], [0.0, -0.5, 1.0, 1.0, 0.0]], (-0.5, 1, 2)),
        # A tie within a snapshot: its first node.
        ([np.zeros(5), [0.0, 1.0, -0.5, 1.0, -0.5]], (-0.5, 1, 2)),
    ])
    def test_ties_report_the_first_location(self, values, expected):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 4)
        values = [np.asarray(v) for v in values]
        series = series_from_values(spec, tuple(0.1 * k for k in range(len(values))), values)
        assert negativity_scan(series) == expected == stacked_argmin(values)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_stacked_argmin(self, seed):
        # Small integers make ties across and within snapshots common.
        rng = np.random.default_rng(seed)
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 6)
        values = list(rng.integers(-3, 4, size=(5, 7)).astype(float))
        series = series_from_values(spec, tuple(0.1 * k for k in range(5)), values)
        assert negativity_scan(series) == stacked_argmin(values)

    def test_a_nan_is_the_minimum_as_argmin_has_it(self):
        # The first NaN of the first snapshot holding one, even before a
        # lower number.
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 4)
        values = [np.ones(5), np.array([0.0, -1.0, np.nan, np.nan, 0.0]),
                  np.full(5, -5.0), np.full(5, np.nan)]
        series = series_from_values(spec, (0.0, 0.1, 0.2, 0.3), values)
        value, t_idx, node = negativity_scan(series)
        assert math.isnan(value) and (t_idx, node) == stacked_argmin(values)[1:] == (1, 2)

    def test_cfl_respecting_run_stays_nonnegative(self):
        from fracdiff1d import stability_limit

        dt = stability_limit(1.5, 1.0, 1.0 / 128) / 2
        series = run_scheme(RL, A, A, dt=dt, steps=400, every=1,
                            method=Method.EXPLICIT)
        assert negativity_scan(series).value >= -1e-12


class TestDecayRate:
    def test_recovers_synthetic_exponential(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 8)
        times = tuple(0.1 * k for k in range(12))
        values = [math.exp(-2.0 * t) * np.ones(9) for t in times]
        series = series_from_values(spec, times, values)
        assert decay_rate(series) == pytest.approx(-2.0, abs=1e-9)

    def test_needs_three_snapshots(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 8)
        series = series_from_values(spec, (0.0, 0.1), [np.ones(9), np.ones(9)])
        with pytest.raises(DegenerateInput):
            decay_rate(series)

    # The mean of three 0.1s is not 0.1, so their centred sum of squares
    # is 5.8e-34, not 0.
    @pytest.mark.parametrize("time", [0.5, 0.1])
    def test_times_that_do_not_vary_are_rejected(self, time):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 8)
        values = [k * np.ones(9) for k in (1.0, 2.0, 3.0)]
        series = series_from_values(spec, (time, time, time), values)
        with pytest.raises(DegenerateInput):
            decay_rate(series)

    def test_zero_norms_are_rejected(self):
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 8)
        times = (0.0, 0.1, 0.2, 0.3)
        values = [np.ones(9), np.ones(9), np.zeros(9), np.zeros(9)]
        series = series_from_values(spec, times, values)
        with pytest.raises(DegenerateInput):
            decay_rate(series)

    def test_absorbing_run_decays(self):
        series = run_scheme(RL, A, A, steps=1000, every=50)
        assert decay_rate(series) < 0.0

    def test_reflecting_run_does_not(self):
        series = run_scheme(RL, R, R, steps=1000, every=50)
        assert abs(decay_rate(series)) < 1e-6

    # The decay suite's runs at the desk scale.
    @pytest.mark.parametrize("left, right", [(A, A), (A, R), (R, A), (R, R)])
    def test_matches_polyfit_on_the_decay_suite(self, left, right):
        series = run_scheme(RL, left, right, steps=1000, every=50)
        expected = polyfit_rate(series)
        assert abs(decay_rate(series) - expected) <= 1e-12 * (1.0 + abs(expected))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_polyfit_on_noisy_data(self, seed):
        rng = np.random.default_rng(seed)
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, 8)
        size = int(rng.integers(3, 30))
        # Far from zero, with repeats, to stress the centring.
        times = tuple(np.sort(rng.choice(np.arange(40), size)) * 0.25 + 1e3 * seed)
        logs = rng.normal(0.0, 5.0) * np.asarray(times) + rng.normal(0.0, 0.1, size)
        series = series_from_values(
            spec, times, [math.exp(y - logs.max()) * np.ones(9) for y in logs])
        expected = polyfit_rate(series)
        assert abs(decay_rate(series) - expected) <= 1e-12 * (1.0 + abs(expected))


class TestBoundaryFlux:
    def test_zero_solution_has_zero_flux(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("\n".join(["0.0"] * 65))
        series = run_scheme(RL, R, R, n=64, steps=20, every=10,
                            ic=InitialCondition.from_file(path))
        assert boundary_flux_check(series) == (0.0, 0.0)

    def test_reflecting_steady_state_flux_vanishes(self):
        series = run_scheme(RL, R, R, steps=2000, every=500)
        left, right = boundary_flux_check(series)
        assert abs(right) < 1e-6
        assert abs(left) < 1e-4

    def test_ps_steady_state_flux_and_slope_vanish(self):
        series = run_scheme(PS, R, R, steps=2000, every=500)
        left, right = boundary_flux_check(series)
        assert abs(left) < 1e-6
        assert abs(right) < 1e-2
        u = series.snapshots[-1].values
        slope = (u[1] - u[0]) * series.spec.n
        assert abs(slope) < 1e-6

    def test_rl_steady_state_keeps_nonzero_first_difference(self):
        # The power-law steady state has a steep left slope; the constant
        # steady state of the Caputo-flux model does not.
        rl = run_scheme(RL, R, R, steps=2000, every=500).snapshots[-1].values
        ps = run_scheme(PS, R, R, steps=2000, every=500).snapshots[-1].values
        rl_slope = abs(rl[1] - rl[0]) * 128
        ps_slope = abs(ps[1] - ps[0]) * 128
        assert rl_slope > 10.0 * ps_slope

    def test_right_flux_improves_as_grid_refines(self):
        # The reflecting steady state carries zero flux; the discrete value
        # at the right wall shrinks roughly in half as n doubles.
        fluxes = []
        for n in (128, 256):
            series = run_scheme(RL, R, R, n=n, steps=2000, every=1000)
            fluxes.append(abs(boundary_flux_check(series)[1]))
        assert fluxes[1] < 0.7 * fluxes[0]

    def test_caputo_is_rejected(self):
        series = run_scheme(CAP, A, A, n=64, steps=20, every=10,
                            ic=InitialCondition.sine_bump())
        with pytest.raises(UnsupportedForm):
            boundary_flux_check(series)

    def test_needs_a_reflecting_side(self):
        series = run_scheme(RL, A, A, n=64, steps=20, every=10)
        with pytest.raises(InvalidSpec):
            boundary_flux_check(series)


class TestSteadyApproach:
    @pytest.mark.parametrize("form", (RL, PS))
    def test_distance_trend_over_three_horizons(self, form):
        # Distances to the steady reference at t = 0.5, 1, 2 trend downward.
        # Once a run reaches its discretization floor (the gap between the
        # discrete steady state and the continuum reference) the values can
        # wiggle at that floor, so the later comparisons carry a small slack.
        spec = SchemeSpec(form, R, R, 1.5, 1.0, 512)
        config = SolverConfig(spec=spec, dt=1e-3, t_end=2.0, method=Method.IMPLICIT,
                              snapshot_times=(0.5, 1.0, 2.0),
                              initial=InitialCondition.tent())
        series = run_simulation(config)
        ref = steady_state_reference(spec)
        d = [l1_distance_interior(s, ref) for s in series.snapshots]
        slack = 1e-3 * d[0]
        assert d[1] <= d[0] + slack
        assert d[2] <= d[1] + slack
        assert d[2] < d[0]

