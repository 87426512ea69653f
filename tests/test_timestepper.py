import dataclasses

import numpy as np
import pytest

from fracdiff1d import (
    BoundaryCondition,
    DerivativeForm,
    DimensionMismatch,
    GridFunction,
    InitialCondition,
    InvalidSpec,
    Method,
    SchemeSpec,
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

RL = DerivativeForm.RIEMANN_LIOUVILLE
PS = DerivativeForm.PATIE_SIMON
CAP = DerivativeForm.CAPUTO
A = BoundaryCondition.ABSORBING
R = BoundaryCondition.REFLECTING


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
        assert series.requested_times == (0.0, 0.034, 0.1)
        assert series.times == pytest.approx((0.0, 0.04, 0.1), abs=1e-12)

    def test_absorbing_nodes_pinned_to_zero(self):
        config = make_config(form=RL, left=A, right=A, n=64, dt=1e-3, steps=50,
                             method=Method.IMPLICIT, snap_every=10)
        series = run_simulation(config)
        for snap in series.snapshots:
            assert snap.values[0] == 0.0
            assert snap.values[64] == 0.0

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
