import builtins
import ctypes
import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dtbsv, dtpsv

from fracdiff1d import (
    DimensionMismatch,
    GridFunction,
    InitialCondition,
    InvalidSpec,
    IterationMatrix,
    Method,
    SchemeSpec,
    SingularSystem,
    SolverConfig,
    StabilityViolation,
    build_matrix,
    run_simulation,
    stability_limit,
    tent_profile,
)
from fracdiff1d import factor, operators, timestepper
from fracdiff1d.cli import emit_timeseries_csv, main
from fracdiff1d.operators import _FFT_MIN_N, _stencil
from fracdiff1d.timestepper import _Stepper, explicit_step, implicit_step
from fracdiff1d.verify import run_suite
from support import (
    CAP,
    LONG_DOUBLE_IS_WIDER,
    PS,
    RL,
    SUPPORTED,
    A,
    R,
    compensated_residual,
    dense_backward_error,
    long_double_residual,
    stencil_norm,
    stencil_residual,
    traced_peak,
)


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

    def test_implicit_step_rejects_a_matrix_the_factor_cannot_read(self):
        # The factor reads rows 2 to n as row 2's stencil shifted; the dense
        # explicit step takes any matrix.
        n = 6
        u = GridFunction.sample(tent_profile, n)
        hessenberg = np.triu(np.random.default_rng(n).random((n + 1, n + 1)), -1)
        below = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, n)).entries.copy()
        below[4, 1] = 0.5
        for entries in (hessenberg, below):
            matrix = IterationMatrix(n, entries)
            with pytest.raises(InvalidSpec):
                implicit_step(u, matrix, 0.1)
            expected = u.values + 0.1 * (u.values @ entries)
            assert bit_equal(explicit_step(u, matrix, 0.1).values, expected)

    def test_implicit_step_rejects_a_grid_without_a_stencil_row(self):
        # n = 1 has rows 0 and 1 only, and no scheme defines it.
        u = GridFunction(1, [1.0, 0.5])
        matrix = IterationMatrix(1, [[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(InvalidSpec, match="n >= 2"):
            implicit_step(u, matrix, 0.1)
        assert bit_equal(explicit_step(u, matrix, 0.1).values, np.array([0.95, 0.55]))

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_implicit_step_is_the_run_step(self, form, left, right):
        for n in (2, 3, 64, 1100):
            spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
            beta = n**1.5 * 1e-3
            u = np.random.default_rng(n).random(n + 1)
            expected, _ = _Stepper(_stencil(spec), beta, Method.IMPLICIT).step(u)
            got = implicit_step(GridFunction(n, u), build_matrix(spec), beta).values
            assert bit_equal(got, expected), n

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


class TestStencilResidual:
    """The dense-free oracle of the large-n gate below, against the dense
    matrix."""

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_residual_and_norm_are_those_of_the_dense_matrix(self, form, left, right):
        for n in (2, 3, 64):
            spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
            beta = n**1.5 * 1e-3
            M = np.eye(n + 1) - beta * build_matrix(spec).entries.astype(np.longdouble)
            rng = np.random.default_rng(n)
            u, v = rng.random(n + 1), rng.random(n + 1)
            norm = stencil_norm(_stencil(spec), beta)
            dense = u - v.astype(np.longdouble) @ M
            gap = np.abs(stencil_residual(_stencil(spec), beta, u, v) - dense).max()
            assert gap <= 1e-18 * norm * np.abs(v).max(), (n, gap)
            exact = float(np.abs(M).sum(axis=0).max())
            assert norm >= exact * (1 - 1e-15)
            if form is RL:
                assert norm == pytest.approx(exact, rel=1e-15)

    @pytest.mark.skipif(not LONG_DOUBLE_IS_WIDER,
                        reason="long double is no wider than a double here")
    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_compensated_residual_is_the_long_double_one(self, form, left, right):
        # The fallback of a platform whose long double is a double, at
        # what the gates measure: the residual of an implicit step, which
        # cancels to under 1e-15 of its terms.  Gaps measured: 2e-21 to
        # 3.2e-20 of them, against residuals of 1.3e-17 to 3.8e-16.
        cases = [(n, n**1.5 * 1e-3) for n in (2, 3, 64)]
        if (form, left, right) == (RL, R, R):
            cases.append((16384, 16384**1.5 * 0.1))  # the gate's 33 blocks
        for n, beta in cases:
            stencil = _stencil(SchemeSpec(form, left, right, 1.5, 1.0, n))
            u = np.random.default_rng(n).random(n + 1)
            v, _ = _Stepper(stencil, beta, Method.IMPLICIT).step(u)
            scale = stencil_norm(stencil, beta) * np.abs(v).max()
            gap = np.abs(compensated_residual(stencil, beta, u, v)
                         - long_double_residual(stencil, beta, u, v)).max()
            assert gap <= 1e-18 * scale, (n, gap / scale)


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
        # From n = 512 on, U is stored and solved in triangles: the first
        # block of 512 rows, then halves of 256.
        cases = [(n, n**alpha * 1e-3)  # dt = 1e-3, c = 1
                 for n in (2, 3, 8, 64, 257, 512, 1000, 1024, 2048)]
        if (form, left, right, alpha) == (RL, R, R, 1.5):
            cases += FIXED_POINTS.values()
        for n, beta in cases:
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            u = np.random.default_rng(n).random(n + 1)
            v, _ = _Stepper(_stencil(spec), beta, Method.IMPLICIT).step(u)
            system = np.eye(n + 1) - beta * build_matrix(spec).entries.T
            backward = dense_backward_error(system, u, v)
            assert backward <= 1e-15, (n, backward)
            if n < 2048:
                expected = lu_solve(lu_factor(system), u)
                error = np.abs(v - expected).max() / np.abs(expected).max()
                assert error <= 1e-12, (n, error)

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A)])
    def test_blocks_without_a_tail_match_dense_lu(self, form, left, right):
        # dt = 0.1 leaves no fixed point: three or seven blocks, each
        # coupled to the solved rows above it through the stencil, up to
        # row n, which at n = 1024 is a block of its own; each block but the
        # first and a last one of at most 256 rows is two halves, coupled
        # through its seed.
        for n in (1024, 3073):
            spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
            beta = n**1.5 * 0.1
            stepper = _Stepper(_stencil(spec), beta, Method.IMPLICIT)
            assert factor._hessenberg_lu(_stencil(spec), beta).tail is None
            u = np.random.default_rng(n).random(n + 1)
            v, _ = stepper.step(u)
            system = -beta * build_matrix(spec).entries.T
            system.flat[:: n + 2] += 1.0
            backward = dense_backward_error(system, u, v)
            assert backward <= 1e-15, (n, backward)

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A), (PS, R, A)])
    def test_two_head_blocks_and_a_tail_match_dense_lu(self, form, left, right):
        # The fixed point K is 1125, 1398 and 1267: the head is two full
        # blocks and a short third, each coupled to the ones above it, the
        # second as two halves and the third as one or two (K = 1398), and
        # the tail is coupled to all of them.
        n = 3000
        spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
        beta = n**1.5 * 1e-3
        lu = factor._hessenberg_lu(_stencil(spec), beta)
        head = n - lu.tail.p.size
        assert len(lu.triangles) == 4 + (head > 1280) == len(lu.seeds) + 3
        u = np.random.default_rng(n).random(n + 1)
        v, _ = _Stepper(_stencil(spec), beta, Method.IMPLICIT).step(u)
        system = -beta * build_matrix(spec).entries.T
        system.flat[:: n + 2] += 1.0
        backward = dense_backward_error(system, u, v)
        assert backward <= 1e-15, backward

    @pytest.mark.parametrize("dt,tail", [(1e-3, 10454), (0.1, None)])
    def test_one_step_at_n_16384_is_backward_stable(self, dt, tail):
        # Figure 2's scheme where no dense matrix fits a test: a tail of
        # N = 10,454 rows, whose column-n dot sums two chunks (dt = 1e-3),
        # and no fixed point, so 33 blocks in 64 triangles whose couplings
        # reach row n (dt = 0.1).  Backward errors measured: 1.3e-17 and
        # 3.2e-17, by either residual (see stencil_residual).
        n = 16384
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, n)
        beta = n**1.5 * dt
        stencil = _stencil(spec)
        lu = factor._hessenberg_lu(stencil, beta)
        assert (lu.tail and lu.tail.p.size) == tail
        u = np.random.default_rng(n).random(n + 1)
        v, _ = _Stepper(stencil, beta, Method.IMPLICIT).step(u)
        backward = float(np.abs(stencil_residual(stencil, beta, u, v)).max()) / (
            stencil_norm(stencil, beta) * np.abs(v).max())
        assert backward <= 1e-16, backward

    def test_figure_two_run_matches_dense_lu(self):
        # Figure 2's 500 steps at n = 1000, whose factor keeps rows 381 to
        # 1000 as a tail, against the same steps by a dense LU.
        n, dt = 1000, 1e-3
        config = make_config(form=RL, left=R, right=R, n=n, dt=dt, steps=500,
                             snapshot_times=(0.0, 0.05, 0.1, 0.5))
        spec = config.spec
        beta = spec.c * spec.h**-spec.alpha * dt
        assert factor._hessenberg_lu(_stencil(spec), beta).tail.p.size == n - 381
        series = run_simulation(config)
        dense = lu_factor(np.eye(n + 1) - beta * build_matrix(spec).entries.T)
        expected, step = series.snapshots[0].values, 0
        for t, snapshot in zip(series.times, series.snapshots, strict=True):
            for _ in range(round(t / dt) - step):
                expected = lu_solve(dense, expected)
            step = round(t / dt)
            error = np.abs(snapshot.values - expected).max() / np.abs(expected).max()
            assert error <= 1e-12, (t, error)
            assert snapshot.values.min() >= -1e-12, t
        assert step == 500

    def test_overflowing_factorization_is_singular(self):
        spec = SchemeSpec(CAP, A, A, 1.5, 1.0, 8)
        u = GridFunction.sample(tent_profile, 8)
        with pytest.raises(SingularSystem):
            implicit_step(u, build_matrix(spec), 1e308)
        with pytest.raises(SingularSystem):
            _Stepper(_stencil(spec), 1e308, Method.IMPLICIT)

    def test_a_tail_whose_inverse_series_overflows_is_singular(self):
        # q = 1/P grows as (-3)^j: it overflows long before 1000 terms.
        p = np.zeros(1000)
        p[:2] = 1.0, 3.0
        tail = factor._Tail(p, np.zeros(1000), 1.0)
        with pytest.raises(SingularSystem):
            factor._tail_solve(tail, np.zeros(1001))

    def test_inverse_series_matches_substitution(self):
        # Newton's iteration against substitution, the reference:
        # q_0 = 1/p_0 and p_0 q_j = -(p_1 q_{j-1} + ... + p_j q_0), a dot
        # product a term.  On figure 2's tails at n = 1000 and 4000 (619 and
        # 2536 terms, which fall by 2e5 and 5e5), within 4 u of the largest
        # term (measured 1 u) and 1e-12 of each (measured under 430 ulps):
        # unscaled, the smallest terms carried up to 1.3e5 ulps.
        for n in (1000, 4000):
            spec = SchemeSpec(RL, R, R, 1.5, 1.0, n)
            p = factor._hessenberg_lu(_stencil(spec), n**1.5 * 1e-3).tail.p
            reference = np.empty(p.size)
            reference[0] = 1.0 / p[0]
            for j in range(1, p.size):
                reference[j] = -float(p[1 : j + 1] @ reference[j - 1 :: -1]) / p[0]
            gap = np.abs(factor._inverse_series(p) - reference)
            assert gap.max() <= 4 * 2.0**-52 * np.abs(reference).max(), n
            assert np.all(gap <= 1e-12 * np.abs(reference)), n

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


@pytest.fixture
def without_openblas(monkeypatch):
    """Steppers built under it cannot load numpy's BLAS, as with a numpy
    built against another BLAS, so they bind scipy's routines."""

    def unloadable(*args, **kwargs):
        raise OSError("no library")

    factor._blas_routines.cache_clear()
    monkeypatch.setattr(factor.ctypes, "CDLL", unloadable)
    yield
    factor._blas_routines.cache_clear()


def chained_steps(stepper, start, steps=50):
    u, trail = start, []
    for _ in range(steps):
        u, increment = stepper.step(u)
        trail.append((u, increment))
    return trail


class TestBlasFallback:
    # From n = 1000 at dt = 1e-3 the factor has a tail; at n = 2049 and
    # dt = 0.1 it has five blocks, the later ones coupled through a dtbsv,
    # three of them as halves coupled through another.
    @pytest.mark.parametrize("n,dt", [(128, 1e-3), (1000, 1e-3), (2048, 1e-3), (2049, 0.1)])
    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A), (PS, R, A)])
    def test_scipy_solve_is_bit_identical(self, request, form, left, right, n, dt):
        spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
        beta = n**1.5 * dt
        start = np.random.default_rng(n).random(n + 1)
        bundled = chained_steps(_Stepper(_stencil(spec), beta, Method.IMPLICIT), start)
        request.getfixturevalue("without_openblas")
        assert factor._blas_routines()[2] is ctypes.c_int  # scipy's integers
        fallback = chained_steps(_Stepper(_stencil(spec), beta, Method.IMPLICIT), start)
        for (u, increment), (v, other) in zip(bundled, fallback, strict=True):
            assert bit_equal(u, v)
            assert bit_equal(np.float64(increment), np.float64(other))

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (PS, R, A)])
    def test_blocked_solve_repeats_bit_for_bit(self, form, left, right):
        # Five blocks, eight triangles and no tail: four couplings from the
        # rows above and three from a first half a step.
        n = 2100
        spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
        beta = n**1.5 * 0.1
        start = np.random.default_rng(n).random(n + 1)
        first, second = (chained_steps(_Stepper(_stencil(spec), beta, Method.IMPLICIT),
                                       start) for _ in range(2))
        for (u, increment), (v, other) in zip(first, second, strict=True):
            assert bit_equal(u, v)
            assert bit_equal(np.float64(increment), np.float64(other))

    def test_numpy_bundled_openblas_is_bound_without_scipy(self, monkeypatch):
        # A numpy that renamed the symbols would bind scipy's instead, with
        # no error, and every implicit command would import scipy.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas}")
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, 64)
        imported, real_import = [], builtins.__import__

        def record(name, *args, **kwargs):
            imported.append(name)
            return real_import(name, *args, **kwargs)

        factor._blas_routines.cache_clear()
        monkeypatch.setattr(builtins, "__import__", record)
        try:
            _Stepper(_stencil(spec), 1.0, Method.IMPLICIT).step(np.ones(65))
        finally:
            monkeypatch.undo()
        assert factor._blas_routines()[2] is ctypes.c_int64
        assert [name for name in imported if name.split(".")[0] == "scipy"] == []

    def test_without_any_blas_an_implicit_solve_exits_one(
            self, without_openblas, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(sys.modules, "scipy.linalg.cython_blas", None)
        out = tmp_path / "run.csv"
        assert main(["solve", "--alpha", "1.5", "--n", "64", "--t-end", "1e-2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "neither was found" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestStepperInput:
    """An implicit step hands BLAS only the stepper's own buffer: it reads a
    caller's state of any layout or numeric type through a copy and returns
    a fresh array."""

    n = 128

    def stepper(self):
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, self.n)
        return _Stepper(_stencil(spec), self.n**1.5 * 1e-3, Method.IMPLICIT)

    def test_strided_and_integer_states_match_their_float_copy(self):
        rng = np.random.default_rng(self.n)
        big = rng.random(2 * self.n + 2)
        counts = rng.integers(0, 10, self.n + 1)
        for u in (big[::2], counts):
            expected = self.stepper().step(np.ascontiguousarray(u, dtype=float))
            before = u.copy()
            v, increment = self.stepper().step(u)
            assert bit_equal(v, expected[0])
            assert bit_equal(np.float64(increment), np.float64(expected[1]))
            assert np.array_equal(u, before)

    def test_wrong_length_is_rejected(self):
        stepper = self.stepper()
        for size in (self.n, self.n + 2):
            with pytest.raises(DimensionMismatch):
                stepper.step(np.ones(size))

    @pytest.mark.parametrize("source", ("bundled", "without_openblas"))
    def test_blas_takes_only_arrays_of_the_factor_layout(self, request, source):
        if source != "bundled":
            request.getfixturevalue(source)
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, self.n)
        lu = factor._hessenberg_lu(_stencil(spec), self.n**1.5 * 1e-3)
        (triangle,) = lu.triangles
        assert lu.tail is None
        bind = factor._in_place_solve
        for x in (np.empty(self.n), np.empty(self.n + 1, dtype=np.float32),
                  np.empty(2 * self.n + 2)[::2]):
            with pytest.raises(ValueError):
                bind(lu, x)
        with pytest.raises(ValueError):
            bind(lu._replace(band=np.zeros((2, self.n + 1))), np.empty(self.n + 1))
        for wrong in ([triangle[:-1]], [triangle.astype(np.float32)],
                      [np.repeat(triangle, 2)[::2]], [], [triangle, triangle[:1]]):
            with pytest.raises(ValueError):
                bind(lu._replace(triangles=wrong), np.empty(self.n + 1))
        x = np.zeros(self.n + 1)
        bind(lu, x)()
        assert not x.any()

    def test_blas_takes_only_the_head_of_a_factor_with_a_tail(self):
        # The head's triangles follow from the tail's size: a factor bound
        # without its tail, or with another's, is refused before any call.
        n = 1000
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, n)
        lu = factor._hessenberg_lu(_stencil(spec), n**1.5 * 1e-3)
        assert lu.tail is not None
        shorter = lu.tail._replace(p=lu.tail.p[1:], column=lu.tail.column[1:])
        for wrong in (None, shorter):
            with pytest.raises(ValueError):
                factor._in_place_solve(lu._replace(tail=wrong), np.empty(n + 1))
        x = np.zeros(n + 1)
        factor._in_place_solve(lu, x)()
        assert not x.any()

    def test_a_returned_state_is_not_changed_by_later_steps(self):
        stepper = self.stepper()
        u, _ = stepper.step(np.random.default_rng(self.n).random(self.n + 1))
        kept = u.copy()
        v, _ = stepper.step(u)
        stepper.step(v)
        assert bit_equal(u, kept)
        assert not np.shares_memory(u, v)


STENCIL_SIZES = (2, 3, 8, 64, 257, 512, 1000, 2048)


def bit_equal(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# The schemes whose factor and solve are checked across block edges too: a
# reflecting patch on both columns, two patched rows, a patched row.
BLOCK_EDGE_SCHEMES = [(RL, R, R), (CAP, A, A), (PS, R, A)]
# K: (n, beta) at which RL r/r, alpha = 1.5, reaches its fixed point at
# K, found by a search over beta in steps of 1/64: K = 512, the first
# block's edge, where its triangle is not shortened; 513, a head of one
# row past it; 768, the edge of the second block's halves, which then has
# no second half and no seed; 900, inside that second half, whose triangle
# and seed are shortened.
FIXED_POINTS = {512: (1100, 50.875), 513: (1030, 55.421875), 768: (1300, 103.25),
                900: (1500, 131.875)}


def assert_triangles(triangles, seeds, U):
    """``triangles`` hold, bit for bit, the diagonal triangles of the upper
    trapezoid ``U``, the first rows of the factor: the first block of at
    most ``factor._BLOCK`` rows, then halves of at most ``factor._HALF``,
    each one's rows from the diagonal up to its end, end to end, and
    nothing of ``U`` right of them.  ``seeds`` hold, for each second half
    ``[s, t)``, ``U[s - factor._HALF - 1, s:t]``."""
    rows, block, half = U.shape[0], factor._BLOCK, factor._HALF
    bounds = [(0, min(block, rows))] + [(a, min(a + half, rows))
                                        for a in range(block, rows, half)]
    assert factor._blocks(rows) == bounds
    assert len(triangles) == len(bounds), rows
    for (a, b), triangle in zip(bounds, triangles):
        expected = np.concatenate([U[k, k:b] for k in range(a, b)])
        assert bit_equal(triangle, expected), (rows, a)
    halves = [(s, t) for s, t in bounds if s % block == half]
    assert len(seeds) == len(halves), rows
    for (s, t), seed in zip(halves, seeds):
        assert bit_equal(seed, U[s - half - 1, s:t]), (rows, s)


def dense_elimination(spec, beta):
    """``U`` and the multipliers of ``L`` of ``I - beta B``, by a row-axpy
    elimination of the dense matrix in place."""
    n = spec.n
    U = -beta * build_matrix(spec).entries
    U.flat[:: n + 2] += 1.0
    multipliers = np.zeros(n + 1)
    for k in range(1, n + 1):
        multipliers[k] = U[k, k - 1] / U[k - 1, k - 1]
        U[k, k:] -= multipliers[k] * U[k - 1, k:]
    return U, multipliers


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
        # The factor repeats, bit for bit, a row-axpy elimination of the
        # dense I - beta B in place, of which it stores the diagonal
        # triangles of the first block and of each later block's halves,
        # and each second half's seed: n = 512 puts the last block at one
        # row, 1025 at two, and at dt = 0.1, without a fixed point, 1024
        # puts row n alone in a block after a block of two halves, and 1300
        # ends in a block of a half and a second half of 21 rows whose seed
        # reaches column n.  From the elimination's fixed point K on, with
        # 512 rows or more after it, only the tail is kept: P, which every
        # later row repeats shifted, column n and the last pivot; the
        # triangle that holds K, and a second half's seed, end there, or are
        # whole when K is a triangle's edge (FIXED_POINTS).  Every scheme has
        # a tail at n = 1000 and 2048 from alpha = 1.2 and 1.5, with a head
        # past the first block at n = 2048 and alpha = 1.5; none has one up
        # to n = 512 or at n = 1000 from alpha = 1.8, where the factor is
        # two blocks, and at n = 2048 from it some have a head of three
        # blocks.
        cases = [(n, n**alpha * 1e-3) for n in STENCIL_SIZES]
        block = factor._BLOCK
        untailed = [(n, n**alpha * 0.1) for n in (2 * block, 1300)]
        if (form, left, right) in BLOCK_EDGE_SCHEMES:
            cases += [(n, n**alpha * 1e-3) for n in (block - 1, block, 2 * block + 1)]
            cases += untailed
        fixed_points = {}
        if (form, left, right, alpha) == (RL, R, R, 1.5):
            fixed_points = {case: K for K, case in FIXED_POINTS.items()}
            cases += fixed_points
        for n, beta in cases:
            spec = SchemeSpec(form, left, right, alpha, 1.0, n)
            triangles, seeds, band, _, tail = factor._hessenberg_lu(_stencil(spec), beta)
            U, multipliers = dense_elimination(spec, beta)
            if n <= _FFT_MIN_N or (n == 1000 and alpha == 1.8) or (n, beta) in untailed:
                assert tail is None, n
            elif n in (1000, 2048) and alpha < 1.8:
                assert tail is not None, n
            elif (n, beta) in fixed_points:
                assert tail is not None and n - tail.p.size == fixed_points[n, beta], n
            if tail is None:
                assert_triangles(triangles, seeds, U)
            else:
                head = n - tail.p.size
                assert head >= 3 and tail.p.size >= _FFT_MIN_N
                assert_triangles(triangles, seeds, U[:head])
                for k in range(head, n):
                    assert bit_equal(U[k, k:n], tail.p[: n - k]), (n, k)
                assert bit_equal(tail.column, U[head:n, n]), n
                assert bit_equal(np.float64(tail.pivot), U[n, n]), n
            assert bit_equal(band[0], multipliers) and not band[1].any(), n

    @pytest.mark.parametrize("form,left,right", BLOCK_EDGE_SCHEMES)
    def test_a_head_of_at_most_512_rows_is_one_triangle_solved_as_before(
            self, form, left, right):
        # The verify scale (n = 128), 512 rows without a tail (n = 511 at
        # dt = 0.1), figure 2 at its defaults (K = 381 for RL r/r) and a
        # head of 512 rows with a tail (K = 512): one triangle, no seed, and
        # a solve that is, bit for bit, one dtpsv of the head, its coupling
        # into the tail and the tail's convolution, then one dtbsv, here by
        # scipy's BLAS.
        cases = [(128, 128**1.5 * 1e-3), (511, 511**1.5 * 0.1), (1000, 1000**1.5 * 1e-3)]
        if (form, left, right) == (RL, R, R):
            cases.append(FIXED_POINTS[512])
        for n, beta in cases:
            spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
            lu = factor._hessenberg_lu(_stencil(spec), beta)
            (triangle,), size = lu.triangles, n + 1
            assert lu.seeds == []
            head = size if lu.tail is None else n - lu.tail.p.size
            u = np.random.default_rng(n).random(size)
            expected = u.copy()
            expected[:head] = dtpsv(head, triangle, expected[:head], lower=1)
            if lu.tail is not None:
                z = dtbsv(1, lu.band[:, :head], expected[:head], diag=1)
                expected[head:] -= lu.coupling.product(z, size)
                factor._tail_solve(lu.tail, expected[head:])()
            expected = dtbsv(1, lu.band, expected, diag=1)
            x = u.copy()
            factor._in_place_solve(lu, x)()
            assert bit_equal(x, expected), n

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_coupling_is_the_dense_product(self, form, left, right):
        # The solve reads w[:a] U[:a, a:c] as z M[:a, a:c] from the stencil:
        # rows 0 and 1 (patched for PS and Caputo), the stencil rows and
        # column n, at the splits it takes (the block edges and K, the
        # fixed point) and the least it could.  Each entry is a sum of
        # a products, within a rounding error of (a u) |z| |M|.
        n, block = 2048, factor._BLOCK
        spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
        beta = n**1.5 * 1e-3
        coupling, tail = factor._hessenberg_lu(_stencil(spec), beta)[3:]
        M = -beta * build_matrix(spec).entries
        head = n - tail.p.size
        for a in (2, 3, block, 2 * block, head):
            z = np.random.default_rng(a).random(a) - 0.5
            for c in (a + 1, min(a + block, n), n + 1):
                got = coupling.product(z, c)
                expected = z @ M[:a, a:c]
                bound = a * 2.0**-52 * (np.abs(z) @ np.abs(M[:a, a:c]))
                assert got.shape == expected.shape, (a, c)
                assert np.all(np.abs(got - expected) <= bound), (a, c)

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_seeded_coupling_is_the_dense_product(self, form, left, right):
        # A second half [s, t) reads w[a:s] U[a:s, s:t], a = s - 256, as
        # y M[a:s, s:t] - y_0 m_a U[a-1, s:t] with y L[a:s, a:s] = w[a:s],
        # from the stencil and the seed.  At dt = 0.1, n = 1300 has two
        # second halves, the last of 21 rows up to column n; RL r/r has a
        # second half cut to end at its fixed point at n = 1500.  Measured
        # within 1.6 u |w| |U[a:s, s:t]| of the dense elimination's product.
        cases = [(1300, 1300**1.5 * 0.1)]
        if (form, left, right) == (RL, R, R):
            cases.append(FIXED_POINTS[900])
        for n, beta in cases:
            spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
            lu = factor._hessenberg_lu(_stencil(spec), beta)
            U, multipliers = dense_elimination(spec, beta)
            head = n + 1 if lu.tail is None else n - lu.tail.p.size
            halves = [(s, t) for s, t in factor._blocks(head) if s % factor._BLOCK]
            assert len(halves) == len(lu.seeds) == (1 if lu.tail else 2)
            for (s, t), seed in zip(halves, lu.seeds):
                a = s - factor._HALF
                w = np.random.default_rng(s).random(s - a) - 0.5
                y = w.copy()
                for k in range(s - a - 2, -1, -1):  # y L[a:s, a:s] = w
                    y[k] -= multipliers[a + k + 1] * y[k + 1]
                got = lu.coupling.seeded(y, s, seed, lu.band[0, a])
                expected = w @ U[a:s, s:t]
                bound = 16 * 2.0**-52 * (np.abs(w) @ np.abs(U[a:s, s:t]))
                assert got.shape == expected.shape, (n, s)
                assert np.all(np.abs(got - expected) <= bound), (n, s)

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A), (PS, R, A)])
    def test_coupling_is_the_exact_product_to_roundoff(self, form, left, right):
        # Against exactly rounded sums, entry by entry, at splits of at most
        # 64 stencil rows (a <= 66) or more, at the block edges, up to
        # c < n, to the next block edge (a window the coupling's FFT period
        # is fitted to), to c = 1027, whose 1024 lags fill the period of
        # 1024, or to column n, with rows 0 and 1 of each form.
        # The direct sums stay within a few
        # u sum_i |z_i M_ij|.  The FFT's roundoff scales with the norms of
        # what it transforms, not with each entry, so the far rows may add
        # a few u |z| |g|, g the stencil past lag 64, under 1e-4 of its
        # largest entry: an FFT that carried the nearer lags would not meet
        # this, nor would a purely componentwise gate be met by any FFT.
        n = 1500
        spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
        beta = n**1.5 * 1e-3
        coupling = factor._hessenberg_lu(_stencil(spec), beta).coupling
        M = -beta * build_matrix(spec).entries
        far = np.linalg.norm(M[2, 64 + 3 : n])  # lags 65 .. n - 3
        block = factor._BLOCK
        for a in (3, 40, 66, 67, 300, block, 2 * block, n - 1, n):
            z = np.random.default_rng(a).random(a) - 0.5
            edge = min((a // block + 1) * block, n + 1)
            for c in sorted(c for c in {a + 1, min(a + 100, n - 1), edge, 1027, n + 1}
                            if c > a):
                got = coupling.product(z, c)
                exact = np.array([math.fsum(z * M[:a, j]) for j in range(a, c)])
                bound = 4 * 2.0**-52 * (np.abs(z) @ np.abs(M[:a, a:c])
                                        + np.linalg.norm(z[2:]) * far)
                assert got.shape == exact.shape, (a, c)
                assert np.all(np.abs(got - exact) <= bound), (a, c)

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
        x = np.arange(n + 1) / n
        assert u.values[x.tolist().index(0.5)] == 5.0
        assert np.all(u.values[(x <= 0.3) | (x >= 0.7)] == 0.0)
        assert np.all(u.values >= 0.0)
        assert u.h * u.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sine_bump_shape(self):
        u = InitialCondition.sine_bump().sample(1024)
        x = np.arange(1025) / 1024
        assert np.all(u.values >= 0.0)
        assert np.all(u.values[x >= 0.25] == 0.0)
        assert u.h * u.values.sum() == pytest.approx(1.0, abs=1e-3)

    def test_uniform(self):
        u = InitialCondition.parse("uniform").sample(10)
        assert np.all(u.values == 1.0)

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "profile.txt"
        values = np.linspace(0.0, 1.0, 9)
        path.write_text("\n".join(str(v) for v in values))
        u = InitialCondition.from_file(path).sample(8)
        assert np.array_equal(u.values, values)

    def test_from_file_reads_any_newlines(self, tmp_path):
        path = tmp_path / "profile.txt"
        values = np.linspace(0.0, 1.0, 9)
        for newline in ("\r\n", "\r"):
            path.write_bytes(newline.join(str(v) for v in values).encode())
            assert np.array_equal(InitialCondition.from_file(path).sample(8).values, values)

    def test_from_file_wrong_length(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(DimensionMismatch):
            InitialCondition.from_file(path).sample(8)
        # Nine values for the nine nodes, but in three lines of three.
        path.write_text("1 2 3\n4 5 6\n7 8 9\n")
        with pytest.raises(DimensionMismatch, match="3 lines x 3 columns"):
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
        # Path("") would name the working directory.
        with pytest.raises(InvalidSpec, match="needs a path"):
            InitialCondition.from_file("")
        with pytest.raises(InvalidSpec, match="needs a path"):
            InitialCondition.parse("file:")


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

    def test_step_cap_admits_its_count_and_refuses_one_more(self):
        # dt = 0.5 divides both horizons exactly.  Neither config is run.
        config = make_config(dt=0.5, steps=1, snapshot_times=(0.0,))
        admitted = dataclasses.replace(config, t_end=0.5 * timestepper._MAX_STEPS)
        assert admitted.steps == timestepper._MAX_STEPS == 10**9
        with pytest.raises(InvalidSpec, match="asks for 1000000001 steps, "
                                              "more than the 1000000000 "):
            dataclasses.replace(config, t_end=0.5 * (timestepper._MAX_STEPS + 1))

    def test_steps_is_the_count_the_run_takes(self, monkeypatch):
        # t_end = 10.5 dt: the run steps to the first step at or after it.
        steppers = []

        class Counted(_Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                steppers.append(self)

        monkeypatch.setattr(timestepper, "_Stepper", Counted)
        config = dataclasses.replace(make_config(dt=1e-3, steps=10, snapshot_times=(0.0,)),
                                     t_end=0.0105, snapshot_times=(0.0, 0.0105))
        series = run_simulation(config)
        assert [stepper.steps for stepper in steppers] == [config.steps] == [11]
        assert series.times[-1] == 11 * 1e-3


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
        # stays +0.0 through every step: its zero column of B pins it.  At
        # n = 1000 an implicit factor has a tail, which solves node n.
        for n in (64, _FFT_MIN_N, 1000):
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


class TestRunMemory:
    def test_explicit_run_allocates_no_dense_matrix(self):
        n = 2000
        config = make_config(form=RL, left=A, right=A, n=n, steps=5,
                             method=Method.EXPLICIT, snap_every=5)
        peak = traced_peak(lambda: run_simulation(config))
        assert peak < 2**20, peak  # one dense matrix: 8 (n+1)^2 = 32 MiB

    # At n = 2048 the apply's period is 5120, where a power of two above 2n
    # would be 8192.
    @pytest.mark.parametrize("n", [300, _FFT_MIN_N, 2048, 5000])
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

    @pytest.mark.parametrize("dt", [None, 0.1])
    @pytest.mark.parametrize("n", [300, _FFT_MIN_N, 553, 1300])
    @pytest.mark.parametrize("form,left,right", [(PS, R, R), (CAP, A, A)])
    def test_implicit_memory_bound_covers_the_run(self, monkeypatch, form, left, right,
                                                  n, dt):
        # The bound leaves out the stencil's FFT transform, which implicit
        # runs never take
        # (test_implicit_runs_never_take_the_explicit_convolution), and
        # counts the couplings' transforms and the block triangles of every
        # row.
        # n = 512 puts row n in a block of its own.  n = 553 is the least
        # grid whose fixed point at half the explicit limit (K = 33 and 40)
        # leaves the 512 rows of a tail: stored in O(n) floats and an FFT a
        # step, but the block that holds the fixed point, the first, is
        # allocated whole before the pass finds it, so the run holds about
        # the bound's triangles.  dt = 0.1 has no fixed point, and the
        # factor is two blocks, coupled by one FFT, or at n = 1300 three,
        # the later two as halves, each second half coupled through its
        # seed by the transform of period 512.  At half the explicit limit
        # n = 1300 has a tail from row 33 and 40.
        config = make_config(form=form, left=left, right=right, n=n, dt=dt, steps=4,
                             method=Method.IMPLICIT, snap_every=1)
        spec = config.spec
        beta = spec.c * spec.h**-spec.alpha * config.dt
        tail = factor._hessenberg_lu(_stencil(spec), beta).tail
        assert (tail is not None) == (n in (553, 1300) and dt is None)
        peak = traced_peak(lambda: run_simulation(config))
        monkeypatch.setattr(operators, "_MEMORY_BYTES", peak - 1)
        with pytest.raises(InvalidSpec, match="an implicit run recording 5 states"):
            dataclasses.replace(config)
        monkeypatch.setattr(operators, "_MEMORY_BYTES", 2 * peak)
        dataclasses.replace(config)

    @pytest.mark.parametrize("form,left,right", [(RL, R, R), (CAP, A, A)])
    def test_implicit_run_holds_the_block_triangles(self, form, left, right):
        # Without a fixed point (dt = 0.1) the factor is seven blocks: the
        # first block's triangle, _BLOCK^2 / 4 floats more than the
        # (_HALF + 1) / 2 = 128.5 floats a node that the later halves'
        # triangles take at most, and half a float a node of seeds; the
        # whole packed U would take (n + 2) / 2 = 1537 floats a node, a
        # dense B n + 1.
        n = 3073
        config = make_config(form=form, left=left, right=right, n=n, dt=0.1, steps=5,
                             method=Method.IMPLICIT, snap_every=5)
        peak = traced_peak(lambda: run_simulation(config))
        assert peak <= 8 * ((factor._HALF / 2 + 28) * (n + 1) + factor._BLOCK**2 / 4), peak

    def test_a_tail_is_not_stored_as_rows(self):
        # Figure 2 at n = 4000 keeps rows 1464 to 4000 of U as a tail of
        # O(n) floats: the stepper peaks at under 5/8 of the triangles of
        # every row (measured 0.57), with the half that holds row 1464
        # allocated whole.
        n = 4000
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, n)
        beta = spec.c * spec.h**-spec.alpha * 1e-3
        peak = traced_peak(lambda: _Stepper(_stencil(spec), beta, Method.IMPLICIT))
        triangles = sum((b - a) * (b - a + 1) / 2 for a, b in factor._blocks(n + 1))
        assert peak < 5 / 8 * 8 * triangles, peak

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

    @pytest.mark.parametrize("n,dt", [(_FFT_MIN_N, None), (2049, 0.1)])
    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    def test_implicit_runs_never_take_the_explicit_convolution(self, monkeypatch, form,
                                                              left, right, n, dt):
        # The stencil's convolution serves only the explicit apply.  At
        # n = 512 the factor takes no FFT at all: a tail needs 512 rows
        # after the fixed point, which no grid of 512 intervals has, and
        # the block after the first holds row n alone, coupled by one dot
        # product.  At dt = 0.1 no grid of 2049 has a fixed point, and its
        # five blocks are coupled, each coupling with one FFT.
        def refuse(*args, **kwargs):
            raise AssertionError("an implicit run took an FFT")

        monkeypatch.setattr(operators._Stencil, "convolution", property(refuse))
        if n == _FFT_MIN_N:
            monkeypatch.setattr(np.fft, "rfft", refuse)
        config = make_config(form=form, left=left, right=right, n=n, dt=dt,
                             steps=10, method=Method.IMPLICIT)
        assert len(run_simulation(config)) == len(config.snapshot_times)

    def test_a_coupling_transforms_at_a_period_fitted_to_its_window(self, monkeypatch):
        # Figure 2 at n = 4000: the head is blocks [0, 512), [512, 1024)
        # and [1024, 1464), the tail rows 1464 to 4000.  The coupling of
        # z[2:1024] into the 440 columns of the third block needs a period
        # of 1461 lags, not the n - 3 of the whole range; the tail's coupling
        # and the tail's own convolution do take the whole range.  Each
        # first half's 256 rows reach its second half at a period of 512.
        n = 4000
        spec = SchemeSpec(RL, R, R, 1.5, 1.0, n)
        stepper = _Stepper(_stencil(spec), spec.c * spec.h**-spec.alpha * 1e-3,
                           Method.IMPLICIT)
        calls, rfft = [], np.fft.rfft

        def record(a, n=None, *args, **kwargs):
            calls.append((len(a), n))
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", record)
        stepper.step(np.random.default_rng(n).random(n + 1))
        couplings = {size: period for size, period in calls
                     if size in (256, 510, 1022, 1462)}
        assert couplings == {256: 512, 510: 1024, 1022: 1536, 1462: 4096}, calls
        assert [size for size, _ in calls].count(256) == 2
        assert couplings[1022] < n / 2

    def test_the_couplings_transforms_fit_the_memory_bound(self, monkeypatch):
        # Without a fixed point (dt = 0.1), n = 4097 is eight blocks and a
        # block of two rows, coupled at windows that end at 1024, 1536, ...,
        # 4096 and n, and seven blocks of two halves, whose first halves
        # reach their second at a period of 512.  Their transforms take the
        # seven periods of the ladder from 512 to 4096, 3.6 (n+1) floats,
        # under the 6.4 (n+1) the bound counts for them, and the run fits
        # the bound.
        n = 8 * factor._BLOCK + 1
        config = make_config(form=RL, left=R, right=R, n=n, dt=0.1, steps=4,
                             method=Method.IMPLICIT, snap_every=1)
        factors = []

        def keep(operator, beta):
            factors.append(factor._hessenberg_lu(operator, beta))
            return factors[-1]

        monkeypatch.setattr(timestepper, "_hessenberg_lu", keep)
        peak = traced_peak(lambda: run_simulation(config))
        (lu,) = factors
        assert lu.tail is None and len(lu.triangles) == 16 and len(lu.seeds) == 7
        transforms = lu.coupling.convolution.transforms
        assert sorted(transforms) == [512, 1024, 1536, 2048, 2560, 3072, 4096]
        assert sum(transform.size for transform in transforms.values()) * 2 < 6.4 * (n + 1)
        monkeypatch.setattr(operators, "_MEMORY_BYTES", peak - 1)
        with pytest.raises(InvalidSpec, match="an implicit run recording 5 states"):
            dataclasses.replace(config)
