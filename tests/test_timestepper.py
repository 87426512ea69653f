import builtins
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from fracdiff1d import (
    BoundaryCondition,
    DerivativeForm,
    DimensionMismatch,
    GridFunction,
    InitialCondition,
    InvalidSpec,
    Method,
    SchemeSpec,
    SingularSystem,
    SolverConfig,
    StabilityViolation,
    build_matrix,
    explicit_step,
    implicit_step,
    run_simulation,
    sine_bump_profile,
    stability_limit,
    tent_profile,
    total_mass,
)
from fracdiff1d import operators, timestepper
from fracdiff1d.cli import emit_timeseries_csv
from fracdiff1d.operators import _FFT_MIN_N, _stencil
from fracdiff1d.timestepper import _Stepper
from fracdiff1d.verify import run_suite

RL = DerivativeForm.RIEMANN_LIOUVILLE
PS = DerivativeForm.PATIE_SIMON
CAP = DerivativeForm.CAPUTO
A = BoundaryCondition.ABSORBING
R = BoundaryCondition.REFLECTING
SUPPORTED = [(form, left, right) for form in (RL, PS)
             for left in (A, R) for right in (A, R)] + [(CAP, A, A)]


def make_config(form=RL, left=R, right=R, alpha=1.5, c=1.0, n=64, dt=None,
                steps=100, method=Method.IMPLICIT, ic=None, snap_every=None,
                snapshot_times=None, allow_unstable=False):
    spec = SchemeSpec(form=form, left=left, right=right, alpha=alpha, c=c, n=n)
    if dt is None:
        dt = stability_limit(alpha, c, spec.h) / 2
    t_end = steps * dt
    if snapshot_times is None:
        every = snap_every or max(1, steps // 10)
        snapshot_times = tuple(k * dt for k in range(0, steps + 1, every))
    return SolverConfig(spec=spec, dt=dt, t_end=t_end, method=method,
                        snapshot_times=snapshot_times,
                        initial=ic or InitialCondition.tent(),
                        allow_unstable=allow_unstable)


class TestStabilityLimit:
    def test_classical_limit_at_order_two(self):
        for h in (0.1, 0.01, 0.002):
            assert stability_limit(2.0, 1.0, h) == h**2 / 2

    def test_fractional_value(self):
        assert stability_limit(1.5, 1.0, 0.001) == pytest.approx(2.1082e-5, abs=1e-9)

    def test_linear_in_inverse_diffusivity(self):
        assert stability_limit(1.5, 2.0, 0.01) == stability_limit(1.5, 1.0, 0.01) / 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidSpec):
            stability_limit(2.5, 1.0, 0.01)
        with pytest.raises(InvalidSpec):
            stability_limit(1.5, -1.0, 0.01)


class TestSteps:
    def test_explicit_step_keeps_zero(self):
        B = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, 8))
        out = explicit_step(GridFunction(8, np.zeros(9)), B, 0.3)
        assert np.all(out.values == 0.0)

    def test_explicit_step_hand_reflecting(self):
        B = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, 2))
        out = explicit_step(GridFunction(2, [0.0, 1.0, 0.0]), B, 0.1)
        assert out.values == pytest.approx([0.1, 0.85, 0.05], abs=1e-15)
        assert float(out.values.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_explicit_step_hand_absorbing(self):
        B = build_matrix(SchemeSpec(RL, A, A, 1.5, 1.0, 2))
        out = explicit_step(GridFunction(2, [0.0, 1.0, 0.0]), B, 0.1)
        assert out.values == pytest.approx([0.0, 0.85, 0.0], abs=1e-15)
        # The removed mass (0.15 per unit h) is what the run ledger books.
        h = 0.5
        assert h * float(1.0 - out.values.sum()) == pytest.approx(0.15 * h, abs=1e-15)

    def test_explicit_step_rejects_mismatched_grid(self):
        B = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, 4))
        with pytest.raises(DimensionMismatch):
            explicit_step(GridFunction(2, np.zeros(3)), B, 0.1)

    def test_implicit_step_identity_at_zero_beta(self):
        B = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, 16))
        u = GridFunction(16, np.linspace(0.0, 1.0, 17))
        out = implicit_step(u, B, 0.0)
        assert np.array_equal(out.values, u.values)

    def test_implicit_matches_explicit_for_tiny_beta(self):
        n = 64
        B = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, n))
        u = GridFunction.sample(tent_profile, n)
        imp = implicit_step(u, B, 1e-6).values
        exp = explicit_step(u, B, 1e-6).values
        assert float(np.abs(imp - exp).max()) <= 1e-9 * float(np.abs(u.values).max())

    def test_implicit_far_beyond_limit_stays_bounded(self):
        n = 64
        spec = SchemeSpec(RL, A, A, 1.5, 1.0, n)
        B = build_matrix(spec)
        beta = 10.0 * 1.5**-1.0  # 10x the explicit budget alpha*beta = 1
        u = GridFunction.sample(tent_profile, n)
        norms = [float(np.abs(u.values).sum())]
        for _ in range(100):
            u = implicit_step(u, B, beta)
            assert np.all(np.isfinite(u.values))
            norms.append(float(np.abs(u.values).sum()))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestImplicitSolveOracle:
    """One implicit step of the run path against a dense, partially pivoted
    LU of ``I - beta B^T``.  Only single steps are gated: over many steps
    two stable solvers drift apart relative to the decaying state (2.9e-12
    after 200 absorbing steps at n = 1000, alpha = 1.8).  At n = 2048 only
    the backward error is gated: the forward error there reaches 1.2e-12
    (Caputo, alpha = 1.8) while the backward error stays at roundoff, so it
    measures the conditioning of the system, not the solver."""

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_one_step_matches_dense_lu(self, form, left, right, alpha):
        for n in (2, 3, 8, 64, 257, 512, 1000, 2048):
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            beta = n**alpha * 1e-3  # dt = 1e-3, c = 1
            u = np.random.default_rng(n).random(n + 1)
            v, _ = _Stepper(_stencil(spec), beta, Method.IMPLICIT).step(u)
            system = np.eye(n + 1) - beta * build_matrix(spec).entries.T
            backward = np.abs(system @ v - u).max() / (
                np.abs(system).sum(axis=1).max() * np.abs(v).max())
            assert backward <= 1e-15, (n, backward)
            if n <= 1000:
                expected = lu_solve(lu_factor(system), u)
                error = np.abs(v - expected).max() / np.abs(expected).max()
                assert error <= 1e-12, (n, error)

    def test_overflowing_factorization_is_singular(self):
        spec = SchemeSpec(CAP, A, A, 1.5, 1.0, 8)
        u = GridFunction.sample(tent_profile, 8)
        with pytest.raises(SingularSystem):
            implicit_step(u, build_matrix(spec), 1e308)
        with pytest.raises(SingularSystem):
            _Stepper(_stencil(spec), 1e308, Method.IMPLICIT)

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A)])
    def test_steps_import_nothing(self, monkeypatch, form, left, right):
        # The BLAS pair is imported once, when the system is factored: `verify
        # all` takes ~12,100 steps at n = 128, where a lookup per step shows.
        n = 128
        spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
        beta = n**1.5 * 1e-3
        start = np.random.default_rng(n).random(n + 1)

        def ten_steps(stepper):
            u, trail = start.copy(), []
            for _ in range(10):
                u, increment = stepper.step(u)
                trail.append((u, increment))
            return trail

        def no_import(name, *args, **kwargs):
            raise AssertionError(f"a step imported {name}")

        expected = ten_steps(_Stepper(_stencil(spec), beta, Method.IMPLICIT))
        stepper = _Stepper(_stencil(spec), beta, Method.IMPLICIT)
        monkeypatch.setattr(builtins, "__import__", no_import)
        try:
            got = ten_steps(stepper)
        finally:
            monkeypatch.undo()
        for (u, increment), (v, expected_increment) in zip(got, expected, strict=True):
            assert bit_equal(u, v)
            assert bit_equal(np.float64(increment), np.float64(expected_increment))


STENCIL_SIZES = (2, 3, 8, 64, 257, 512, 1000, 2048)


def bit_equal(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStencilOracle:
    """The run path's O(n) stencil against the dense ``build_matrix``, on
    both sides of the FFT crossover."""

    def test_sizes_straddle_the_fft_crossover(self):
        assert min(STENCIL_SIZES) < _FFT_MIN_N <= max(STENCIL_SIZES)

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_rows_are_bit_identical(self, form, left, right, alpha):
        for n in STENCIL_SIZES:
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            stencil, entries = _stencil(spec), build_matrix(spec).entries
            for k in range(n + 1):
                assert bit_equal(stencil.row(k), entries[k, max(k - 1, 0):]), (n, k)

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_implicit_system_is_bit_identical(self, form, left, right, alpha):
        # The packed factor repeats, bit for bit, a row-axpy elimination of
        # the dense I - beta B in place.
        for n in STENCIL_SIZES:
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            beta = n**alpha * 1e-3
            packed, band = timestepper._hessenberg_lu(_stencil(spec), beta)
            U = -beta * build_matrix(spec).entries
            U.flat[:: n + 2] += 1.0
            multipliers = np.zeros(n + 1)
            for k in range(1, n + 1):
                multipliers[k] = U[k, k - 1] / U[k - 1, k - 1]
                U[k, k:] -= multipliers[k] * U[k - 1, k:]
            assert bit_equal(packed, np.concatenate([U[k, k:] for k in range(n + 1)])), n
            assert bit_equal(band[0], multipliers) and not band[1].any(), n

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_explicit_step_matches_dense_step(self, form, left, right, alpha):
        # The step, not bare u B: cancellation in u B leaves ~1e-12 relative.
        for n in STENCIL_SIZES:
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            beta = 0.5 / alpha  # half the explicit budget alpha * beta = 1
            u = np.random.default_rng(n).random(n + 1)
            got, _ = _Stepper(_stencil(spec), beta, Method.EXPLICIT).step(u)
            expected = explicit_step(GridFunction(n, u), build_matrix(spec), beta).values
            error = np.abs(got - expected).max() / np.abs(expected).max()
            assert error <= 1e-12, (n, error)

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_row_sums_match_dense(self, form, left, right, alpha):
        for n in STENCIL_SIZES:
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            dense = build_matrix(spec).entries.sum(axis=1)
            gap = np.abs(_stencil(spec).row_sums() - dense).max()
            assert gap <= 1e-14, (n, gap)


class TestInitialConditions:
    def test_tent_shape(self):
        n = 1000
        u = InitialCondition.tent().sample(n)
        x = u.x
        assert u.values[x.tolist().index(0.5)] == 5.0
        assert np.all(u.values[(x <= 0.3) | (x >= 0.7)] == 0.0)
        assert np.all(u.values >= 0.0)
        assert total_mass(u) == pytest.approx(1.0, abs=1e-12)

    def test_sine_bump_shape(self):
        u = InitialCondition.sine_bump().sample(1024)
        x = u.x
        assert np.all(u.values >= 0.0)
        assert np.all(u.values[x >= 0.25] == 0.0)
        assert total_mass(u) == pytest.approx(1.0, abs=1e-3)

    def test_uniform(self):
        u = InitialCondition.uniform().sample(10)
        assert np.all(u.values == 1.0)

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "profile.txt"
        values = np.linspace(0.0, 1.0, 9)
        path.write_text("\n".join(str(v) for v in values))
        u = InitialCondition.from_file(path).sample(8)
        assert np.array_equal(u.values, values)

    def test_from_file_wrong_length(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(DimensionMismatch):
            InitialCondition.from_file(path).sample(8)

    def test_from_file_rejects_non_finite_and_non_numeric_values(self, tmp_path):
        path = tmp_path / "bad.txt"
        for bad in ("nan", "inf", "abc"):
            path.write_text("\n".join(["0.0"] * 4 + [bad] + ["0.0"] * 4))
            with pytest.raises(InvalidSpec):
                InitialCondition.from_file(path).sample(8)

    @pytest.mark.parametrize("layout", ["{:.16e}\n", "{:.0f}\n", "{:.0f} "])
    def test_from_file_bound_covers_the_read(self, tmp_path, layout):
        # The read's bound, 20 bytes per byte of the file plus the fixed
        # overhead, covers the peak of reading it, whatever the layout:
        # one-digit values on one line peak near 18 bytes per byte.
        n = 2**17
        path = tmp_path / "profile.txt"
        path.write_text("".join(layout.format(v) for v in np.zeros(n + 1)))
        needs = 8 * (5 * path.stat().st_size // 2 + operators._OVERHEAD_FLOATS)
        profile = InitialCondition.from_file(path)
        assert traced_peak(lambda: profile.sample(n)) <= needs

    def test_label_parse_roundtrip(self):
        for label in ("tent", "bump", "uniform", "file:some/profile.txt"):
            ic = InitialCondition.parse(label)
            assert ic.label() == label
            assert InitialCondition.parse(ic.label()) == ic
        with pytest.raises(InvalidSpec):
            InitialCondition.parse("bogus")

    def test_from_file_requires_path(self):
        from fracdiff1d.timestepper import Profile
        with pytest.raises(InvalidSpec):
            InitialCondition(Profile.FROM_FILE)


class TestConfigValidation:
    def test_explicit_above_limit_is_rejected(self):
        limit = stability_limit(1.5, 1.0, 1.0 / 64)
        with pytest.raises(StabilityViolation):
            make_config(method=Method.EXPLICIT, dt=2 * limit, steps=10)

    def test_override_flag_allows_unstable_step(self):
        limit = stability_limit(1.5, 1.0, 1.0 / 64)
        config = make_config(method=Method.EXPLICIT, dt=2 * limit, steps=10,
                             allow_unstable=True)
        assert config.dt == 2 * limit

    def test_implicit_is_not_limited(self):
        limit = stability_limit(1.5, 1.0, 1.0 / 64)
        make_config(method=Method.IMPLICIT, dt=100 * limit, steps=10)

    def test_rejects_bad_windows(self):
        with pytest.raises(InvalidSpec):
            make_config(dt=-1e-3, steps=10)
        with pytest.raises(InvalidSpec):
            make_config(dt=1e-3, steps=10, snapshot_times=(0.0, 1.0))
        with pytest.raises(InvalidSpec):
            make_config(dt=1e-3, steps=10, snapshot_times=(5e-3, 1e-3))
        with pytest.raises(InvalidSpec):
            make_config(dt=float("nan"), steps=10, snapshot_times=())
        with pytest.raises(InvalidSpec):
            make_config(dt=1e-3, steps=10, snapshot_times=(0.0, float("nan")))
        with pytest.raises(InvalidSpec):
            dataclasses.replace(make_config(dt=1e-3, steps=10), t_end=float("inf"))


class TestRunSimulation:
    def test_zero_initial_condition_stays_zero(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("\n".join(["0.0"] * 65))
        config = make_config(form=RL, left=A, right=A, ic=InitialCondition.from_file(path),
                             steps=20, method=Method.IMPLICIT, dt=1e-3)
        series = run_simulation(config)
        assert all(m == 0.0 for m in series.mass_trace)
        assert all(np.all(s.values == 0.0) for s in series.snapshots)

    def test_reflecting_mass_stays_at_unity(self):
        # Tent kinks sit on nodes at n = 1000, so the discrete mass is
        # exactly 1 and stays there.
        config = make_config(form=RL, left=R, right=R, n=1000, dt=0.01, steps=50,
                             method=Method.IMPLICIT,
                             snapshot_times=(0.0, 0.05, 0.1, 0.5))
        series = run_simulation(config)
        assert series.mass_trace[0] == pytest.approx(1.0, abs=1e-12)
        for mass in series.mass_trace:
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_absorbing_run_books_its_losses(self):
        config = make_config(form=RL, left=A, right=A, n=128, dt=1e-3, steps=500,
                             method=Method.IMPLICIT, snap_every=25)
        series = run_simulation(config)
        masses = series.mass_trace
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))
        assert masses[-1] < masses[0]
        absorbed = series.absorbed_cumulative
        assert all(b >= a - 1e-12 for a, b in zip(absorbed, absorbed[1:]))
        for m, a in zip(masses, absorbed):
            assert m + a == pytest.approx(masses[0], abs=1e-9)

    def test_methods_agree_at_first_order(self):
        n = 64
        limit = stability_limit(1.5, 1.0, 1.0 / n)
        diffs = []
        for dt in (limit / 10, limit / 20):
            steps = int(round(0.005 / dt))
            snaps = (steps * dt,)
            runs = []
            for method in (Method.EXPLICIT, Method.IMPLICIT):
                config = make_config(form=RL, left=R, right=R, n=n, dt=dt,
                                     steps=steps, method=method,
                                     snapshot_times=snaps)
                runs.append(run_simulation(config).snapshots[-1].values)
            diffs.append(float(np.abs(runs[0] - runs[1]).sum()) / n)
        ratio = diffs[0] / diffs[1]
        assert 1.5 < ratio < 2.5

    def test_snapshots_land_on_first_step_at_or_after_request(self):
        config = make_config(form=RL, left=R, right=R, n=64, dt=0.01, steps=10,
                             method=Method.IMPLICIT,
                             snapshot_times=(0.0, 0.034, 0.1))
        series = run_simulation(config)
        assert series.config.snapshot_times == (0.0, 0.034, 0.1)
        assert series.times == pytest.approx((0.0, 0.04, 0.1), abs=1e-12)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("form,left,right",
                             [case for case in SUPPORTED if A in case[1:]])
    def test_absorbing_nodes_pinned_to_zero(self, form, left, right, method):
        # Zeroed once, as in the initial data of a run, an absorbing node
        # stays +0.0 through every step: its zero column of B pins it.
        for n in (64, _FFT_MIN_N):
            spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
            beta = 0.5 / 1.5 if method is Method.EXPLICIT else n**1.5 * 1e-3
            stepper = _Stepper(_stencil(spec), beta, method)
            absorbing = [node for node, side in ((0, left), (n, right)) if side is A]
            u = np.random.default_rng(n).random(n + 1)
            u[absorbing] = 0.0
            for k in range(20):
                u, _ = stepper.step(u)
                nodes = u[absorbing]
                assert np.all(nodes == 0.0) and not np.signbit(nodes).any(), (n, k)

    def test_state_overflowing_on_the_last_step_is_not_recorded(self, tmp_path):
        # The last step's increment is booked from the finite state before
        # it, so only the snapshot mass sees the overflow.
        path = tmp_path / "huge.txt"
        path.write_text("\n".join(["0.0"] * 4 + ["1e308"] + ["0.0"] * 4))
        limit = stability_limit(1.5, 1.0, 1.0 / 8)
        config = make_config(form=RL, left=R, right=R, n=8, dt=100 * limit, steps=1,
                             method=Method.EXPLICIT, ic=InitialCondition.from_file(path),
                             snapshot_times=(0.0, 100 * limit), allow_unstable=True)
        with pytest.raises(StabilityViolation, match="at step 1$"):
            run_simulation(config)

    def test_left_absorbing_forms_produce_identical_explicit_runs(self):
        runs = []
        for form in (RL, PS):
            config = make_config(form=form, left=A, right=A, n=128, steps=200,
                                 method=Method.EXPLICIT, snap_every=50)
            runs.append(run_simulation(config))
        for a, b in zip(runs[0].snapshots, runs[1].snapshots):
            assert np.array_equal(a.values, b.values)


def traced_peak(call) -> int:
    """Peak bytes traced while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunMemory:
    def test_explicit_run_allocates_no_dense_matrix(self):
        n = 2000
        config = make_config(form=RL, left=A, right=A, n=n, steps=5,
                             method=Method.EXPLICIT, snap_every=5)
        peak = traced_peak(lambda: run_simulation(config))
        assert peak < 2**20, peak  # one dense matrix: 8 (n+1)^2 = 32 MiB

    @pytest.mark.parametrize("n", [300, _FFT_MIN_N, 5000])
    @pytest.mark.parametrize("form,left,right", [(PS, R, R), (CAP, A, A)])
    def test_explicit_memory_bound_covers_the_run(self, monkeypatch, tmp_path,
                                                  form, left, right, n):
        config = make_config(form=form, left=left, right=right, n=n, steps=4,
                             method=Method.EXPLICIT, snap_every=1)
        out = tmp_path / "run.csv"
        peak = traced_peak(lambda: emit_timeseries_csv(run_simulation(config), out))
        # Physical memory just below the peak of the run and its CSV emit
        # rejects it, before any allocation; twice the peak admits it.
        monkeypatch.setattr(operators, "_MEMORY_BYTES", peak - 1)
        SchemeSpec(form, left, right, 1.5, 1.0, n)
        with pytest.raises(InvalidSpec, match="physical memory"):
            dataclasses.replace(config)
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 2 * peak)
        dataclasses.replace(config)

    @pytest.mark.parametrize("n", [300, _FFT_MIN_N, 1025])
    @pytest.mark.parametrize("form,left,right", [(PS, R, R), (CAP, A, A)])
    def test_implicit_memory_bound_covers_the_run(self, monkeypatch, form, left, right, n):
        # 512 and 1025 lie just past powers of two, where an FFT transform
        # would be largest for its n: the bound leaves it out, as implicit
        # runs take no FFT (test_implicit_runs_take_no_fft).
        config = make_config(form=form, left=left, right=right, n=n, steps=4,
                             method=Method.IMPLICIT, snap_every=1)
        peak = traced_peak(lambda: run_simulation(config))
        monkeypatch.setattr(operators, "_MEMORY_BYTES", peak - 1)
        with pytest.raises(InvalidSpec, match="an implicit run recording 5 states"):
            dataclasses.replace(config)
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 2 * peak)
        dataclasses.replace(config)

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A)])
    def test_implicit_run_holds_half_a_dense_matrix(self, form, left, right):
        # The packed factor is (n+1)(n+2)/2 floats; a dense B is (n+1)^2.
        n = 1000
        config = make_config(form=form, left=left, right=right, n=n, steps=5,
                             method=Method.IMPLICIT, snap_every=5)
        peak = traced_peak(lambda: run_simulation(config))
        assert peak <= 0.6 * 8 * (n + 1) ** 2, peak

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_runs_never_expand_the_stencil(self, monkeypatch, form, left, right, method):
        def refuse(stencil):
            raise AssertionError("a run expanded the dense B")

        monkeypatch.setattr(operators._Stencil, "dense", refuse)
        config = make_config(form=form, left=left, right=right, n=64, steps=10,
                             method=method)
        assert len(run_simulation(config)) == len(config.snapshot_times)

    def test_verify_never_expands_the_stencil(self, monkeypatch):
        # The desk checks read B from the stencil the runs step.
        def refuse(stencil):
            raise AssertionError("verify expanded the dense B")

        monkeypatch.setattr(operators._Stencil, "dense", refuse)
        results = run_suite("all")
        assert len(results) == 34 and all(r.passed for r in results), \
            [r.name for r in results if not r.passed]

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_implicit_runs_take_no_fft(self, monkeypatch, form, left, right):
        # The stencil's FFT transform serves only the explicit apply.
        def refuse(*args, **kwargs):
            raise AssertionError("an implicit run took an FFT")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        config = make_config(form=form, left=left, right=right, n=_FFT_MIN_N,
                             steps=10, method=Method.IMPLICIT)
        assert len(run_simulation(config)) == len(config.snapshot_times)
