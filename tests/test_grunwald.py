import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff1d import (
    DimensionMismatch,
    GridFunction,
    GrunwaldWeights,
    InvalidOrder,
    InvalidSpec,
    IterationMatrix,
    SteadyStateKind,
    SteadyStateReference,
    UnsupportedForm,
    caputo_derivative_grid,
    flux_profile,
    grunwald_weights,
    ps_derivative_grid,
    rl_derivative_grid,
    weight_recursion_gap,
    weight_sum_gap,
    weight_tail_gap,
)
from support import CAP, PS, RL

ALPHAS = (1.2, 1.5, 1.8)


def power_derivative(p: float, order: float, x: float) -> float:
    """Oracle: fractional derivative of x**p of order in (1, 2).

    Integrate x**p up by 2 - order with the power rule for the fractional
    integral, then differentiate the resulting power twice by hand.
    """
    q = p + 2.0 - order  # power after fractional integration
    coeff = math.gamma(p + 1.0) / math.gamma(q + 1.0)
    return coeff * q * (q - 1.0) * x ** (q - 2.0)


def grid(profile, n: int) -> GridFunction:
    x = np.arange(n + 1) / n
    return GridFunction(n, profile(x))


class TestWeights:
    def test_prefix_for_order_three_halves(self):
        w = grunwald_weights(1.5, 2)
        assert w.values.tolist() == [1.0, -1.5, 0.375]

    def test_integer_order_terminates(self):
        w = grunwald_weights(1.0, 3)
        assert w.values.tolist() == [1.0, -1.0, 0.0, 0.0]

    def test_hand_recursion_order_half(self):
        w = grunwald_weights(0.5, 3)
        assert w.values.tolist() == [1.0, -0.5, -0.125, -0.0625]

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidSpec):
            grunwald_weights(1.5, -1)

    def test_rejects_non_finite_order(self):
        with pytest.raises(InvalidOrder):
            grunwald_weights(math.inf, 4)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(min_value=1.01, max_value=1.99))
    def test_recursion_holds_to_tight_tolerance(self, alpha):
        w = grunwald_weights(alpha, 2000)
        assert weight_recursion_gap(w) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(min_value=1.01, max_value=1.99))
    def test_partial_sums_equal_lowered_order_weight(self, alpha):
        assert weight_sum_gap(alpha, 2000) <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sign_pattern_for_order_between_one_and_two(self, alpha):
        w = grunwald_weights(alpha, 200).values
        assert w[0] == 1.0
        assert w[1] < 0.0
        assert np.all(w[2:] > 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cumulative_identity_at_ten_thousand(self, alpha):
        assert weight_sum_gap(alpha, 10_000) <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_tail_matches_power_law_beyond_thousand(self, alpha):
        w = grunwald_weights(alpha - 1.0, 10_000)
        gaps = weight_tail_gap(w, np.arange(1000, 10_001))
        assert float(gaps.max()) < 0.01


class TestRiemannLiouville:
    def test_zero_function_maps_to_zero(self):
        f = GridFunction(64, np.zeros(65))
        for shifted in (True, False):
            out = rl_derivative_grid(f, 1.7, shifted=shifted)
            assert np.all(out.values == 0.0)

    def test_square_near_right_edge_matches_power_oracle(self):
        # Exact value 2 / Gamma(1.5) * x**0.5 evaluated at the last interior
        # node; the shifted stencil is first-order accurate there.
        n = 1024
        f = grid(lambda x: x**2, n)
        out = rl_derivative_grid(f, 1.5, shifted=True)
        x_last = (n - 1) / n
        exact = power_derivative(2.0, 1.5, x_last)
        assert exact == pytest.approx(2.2567583341910251 * x_last**0.5, rel=1e-12)
        assert abs(out.values[n - 1] - exact) < 3.0 / n

    def test_square_error_shrinks_first_order(self):
        errs = []
        for n in (256, 512, 1024):
            f = grid(lambda x: x**2, n)
            out = rl_derivative_grid(f, 1.5, shifted=True)
            errs.append(abs(out.values[n - 1] - power_derivative(2.0, 1.5, (n - 1) / n)))
        assert errs[1] < 0.7 * errs[0]
        assert errs[2] < 0.7 * errs[1]

    def test_unshifted_square_at_right_endpoint(self):
        # The unshifted sum at x = 1 uses interior samples only and converges
        # to the same power-oracle value.
        n = 1024
        f = grid(lambda x: x**2, n)
        out = rl_derivative_grid(f, 1.5, shifted=False)
        assert abs(out.values[n] - 2.2567583341910251) < 3.0 / n

    def test_steady_power_law_is_annihilated_interior(self):
        # x**(alpha-1) is in the kernel; interior magnitudes fall as n doubles.
        maxima = []
        for n in (256, 512, 1024):
            f = grid(lambda x: x**0.5, n)
            out = rl_derivative_grid(f, 1.5, shifted=True)
            maxima.append(float(np.abs(out.values[n // 4 : 3 * n // 4]).max()))
        assert maxima[1] < maxima[0]
        assert maxima[2] < maxima[1]

    @pytest.mark.parametrize("alpha", (1.0, 2.0, 2.5, 0.3))
    def test_rejects_order_outside_open_interval(self, alpha):
        f = GridFunction(8, np.zeros(9))
        with pytest.raises(InvalidOrder):
            rl_derivative_grid(f, alpha)


class TestPatieSimon:
    def test_zero_function_maps_to_zero(self):
        out = ps_derivative_grid(GridFunction(32, np.zeros(33)), 1.5)
        assert np.all(out.values == 0.0)

    def test_constants_are_annihilated(self):
        # Constants cancel exactly up to roundoff amplified by h**-alpha.
        for n in (256, 512):
            out = ps_derivative_grid(GridFunction(n, np.ones(n + 1)), 1.5)
            assert float(np.abs(out.values[1:n]).max()) < 1e-8

    def test_linear_function_at_midpoint(self):
        # D of x for order 1.5 at x = 0.5 equals 0.5**-0.5 / Gamma(0.5).
        target = 0.5**-0.5 / math.gamma(0.5)
        assert target == pytest.approx(0.7978845608028654, rel=1e-12)
        errs = []
        for n in (256, 512, 1024):
            out = ps_derivative_grid(grid(lambda x: x, n), 1.5)
            errs.append(abs(out.values[n // 2] - target))
        assert errs[-1] < 3.0 / 1024
        assert errs[1] < 0.7 * errs[0] and errs[2] < 0.7 * errs[1]

    def test_relation_to_riemann_liouville(self):
        # ps - rl + f(0) x**-alpha / Gamma(1-alpha) -> 0 for smooth f with
        # f(0) != 0; residual at fixed interior nodes halves as n doubles.
        alpha = 1.5
        residuals = []
        for n in (256, 512, 1024):
            f = grid(np.cos, n)
            x = np.arange(1, n) / n
            resid = (
                ps_derivative_grid(f, alpha).values[1:n]
                - rl_derivative_grid(f, alpha, shifted=True).values[1:n]
                + 1.0 * x**-alpha / math.gamma(1.0 - alpha)
            )
            residuals.append(float(np.abs(resid[n // 4 : 3 * n // 4]).max()))
        assert residuals[1] < 0.7 * residuals[0]
        assert residuals[2] < 0.7 * residuals[1]

    def test_rejects_order_outside_open_interval(self):
        with pytest.raises(InvalidOrder):
            ps_derivative_grid(GridFunction(8, np.zeros(9)), 2.0)


class TestCaputo:
    def test_constants_are_annihilated(self):
        for n in (256, 512):
            out = caputo_derivative_grid(GridFunction(n, np.ones(n + 1)), 1.5)
            assert float(np.abs(out.values[1:n]).max()) < 1e-8

    def test_affine_functions_are_annihilated(self):
        maxima = []
        for n in (256, 512, 1024):
            out = caputo_derivative_grid(grid(lambda x: x, n), 1.5)
            maxima.append(float(np.abs(out.values[n // 4 : 3 * n // 4]).max()))
        assert maxima[1] < 0.7 * maxima[0]
        assert maxima[2] < 0.7 * maxima[1]

    def test_square_matches_riemann_liouville_value(self):
        # With f(0) = f'(0) = 0 the Caputo and Riemann-Liouville values agree.
        n = 1024
        out = caputo_derivative_grid(grid(lambda x: x**2, n), 1.5)
        exact = power_derivative(2.0, 1.5, (n - 1) / n)
        assert abs(out.values[n - 1] - exact) < 3.0 / n

    def test_relation_to_patie_simon(self):
        # caputo - ps + f'(0) x**(1-alpha) / Gamma(2-alpha) -> 0 for f = exp.
        alpha = 1.5
        residuals = []
        for n in (256, 512, 1024):
            f = grid(np.exp, n)
            x = np.arange(1, n) / n
            resid = (
                caputo_derivative_grid(f, alpha).values[1:n]
                - ps_derivative_grid(f, alpha).values[1:n]
                + 1.0 * x ** (1.0 - alpha) / math.gamma(2.0 - alpha)
            )
            residuals.append(float(np.abs(resid[n // 4 : 3 * n // 4]).max()))
        assert residuals[1] < 0.7 * residuals[0]
        assert residuals[2] < 0.7 * residuals[1]


class TestFluxProfile:
    def test_zero_concentration_has_zero_flux(self):
        u = GridFunction(32, np.zeros(33))
        for form in (RL, PS):
            q = flux_profile(u, 1.5, 1.0, form)
            assert np.all(q.values == 0.0)

    def test_constant_concentration_rl_flux(self):
        # q = -C x**(1-alpha) / Gamma(2-alpha) for u = 1.
        alpha = 1.5
        rel_errs = []
        for n in (256, 512):
            q = flux_profile(GridFunction(n, np.ones(n + 1)), alpha, 1.0, RL)
            x = np.arange(1, n + 1) / n
            ref = -(x ** (1.0 - alpha)) / math.gamma(2.0 - alpha)
            rel = np.abs((q.values[1:] - ref) / ref)[n // 8 :]
            rel_errs.append(float(rel.max()))
        assert rel_errs[0] < 0.01
        assert rel_errs[1] < 0.7 * rel_errs[0]

    def test_constant_concentration_ps_flux_vanishes_exactly(self):
        # The Caputo-flux correction cancels the cumulative weight sums.
        q = flux_profile(GridFunction(200, np.ones(201)), 1.5, 2.0, PS)
        assert float(np.abs(q.values).max()) < 1e-11

    def test_sampled_steady_state_flux_improves(self):
        # 0.5 x**-0.5 sampled at nodes 1..n (0 at node 0) has vanishing flux;
        # interior magnitudes shrink as n doubles.
        maxima = []
        for n in (256, 512, 1024):
            x = np.arange(n + 1) / n
            u = np.zeros(n + 1)
            u[1:] = 0.5 * x[1:] ** -0.5
            q = flux_profile(GridFunction(n, u), 1.5, 1.0, RL)
            maxima.append(float(np.abs(q.values[n // 8 :]).max()))
        assert maxima[1] < maxima[0]
        assert maxima[2] < maxima[1]

    def test_caputo_form_has_no_flux(self):
        with pytest.raises(UnsupportedForm):
            flux_profile(GridFunction(8, np.zeros(9)), 1.5, 1.0, CAP)

    def test_rejects_nonpositive_diffusivity(self):
        with pytest.raises(InvalidSpec):
            flux_profile(GridFunction(8, np.zeros(9)), 1.5, 0.0, RL)


class TestValueArrays:
    """Every value type holds a read-only float64 copy of what it is given
    and names the shape it expected."""

    BUILDERS = {
        "weights": (lambda v: GrunwaldWeights(1.5, v), (3,)),
        "grid": (lambda v: GridFunction(2, v), (3,)),
        "matrix": (lambda v: IterationMatrix(2, v), (3, 3)),
        "reference": (lambda v: SteadyStateReference(SteadyStateKind.ZERO, 3, v), (3,)),
    }

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_values_are_a_read_only_float_copy(self, kind):
        build, shape = self.BUILDERS[kind]
        given_values = np.arange(math.prod(shape)).reshape(shape)
        held = build(given_values)
        held = held.entries if kind == "matrix" else held.values
        given_values[0] = 7
        assert held.dtype == np.float64 and not held.flags.writeable
        assert np.array_equal(held, np.arange(math.prod(shape)).reshape(shape))

    @pytest.mark.parametrize("kind,message", [
        ("grid", "expected 3 nodal values, got shape (4,)"),
        ("matrix", "expected shape (3, 3), got (4,)"),
        ("reference", "reference needs 3 interior values, got shape (4,)"),
    ])
    def test_a_wrong_shape_names_the_expected_one(self, kind, message):
        with pytest.raises(DimensionMismatch) as raised:
            self.BUILDERS[kind][0](np.zeros(4))
        assert str(raised.value) == message
