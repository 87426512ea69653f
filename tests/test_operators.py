import numpy as np
import pytest

from fracdiff1d import (
    BoundaryCondition,
    DerivativeForm,
    DimensionMismatch,
    InvalidSpec,
    IterationMatrix,
    SchemeSpec,
    UnsupportedCombination,
    absorbed_rates,
    build_matrix,
    grunwald_weights,
    row_sums,
)

RL = DerivativeForm.RIEMANN_LIOUVILLE
PS = DerivativeForm.PATIE_SIMON
CAP = DerivativeForm.CAPUTO
A = BoundaryCondition.ABSORBING
R = BoundaryCondition.REFLECTING

ALPHAS = (1.2, 1.5, 1.8)
SIZES = (2, 8, 64)
SUPPORTED = [(form, left, right) for form in (RL, PS)
             for left in (A, R) for right in (A, R)] + [(CAP, A, A)]


def spec(form, left, right, alpha=1.5, n=2, c=1.0):
    return SchemeSpec(form=form, left=left, right=right, alpha=alpha, c=c, n=n)


# Hand-evaluated 3x3 cases for alpha = 1.5, where the weight prefixes are
# g^1.5 = [1, -1.5, 0.375] and g^0.5 = [1, -0.5, -0.125].
HAND_RL_AA = np.array([
    [0.0, 0.375, 0.0],
    [0.0, -1.5, 0.0],
    [0.0, 1.0, 0.0],
])
HAND_RL_RR = np.array([
    [-0.5, 0.375, 0.125],
    [1.0, -1.5, 0.5],
    [0.0, 1.0, -1.0],
])
HAND_PS_RR = np.array([
    [-1.0, 0.5, 0.5],
    [1.0, -1.5, 0.5],
    [0.0, 1.0, -1.0],
])


class TestHandMatrices:
    def test_rl_absorbing_absorbing(self):
        B = build_matrix(spec(RL, A, A))
        assert np.max(np.abs(B.entries - HAND_RL_AA)) <= 1e-15

    def test_rl_reflecting_reflecting(self):
        B = build_matrix(spec(RL, R, R))
        assert np.max(np.abs(B.entries - HAND_RL_RR)) <= 1e-15
        assert np.max(np.abs(row_sums(B))) <= 1e-15

    def test_ps_reflecting_reflecting(self):
        B = build_matrix(spec(PS, R, R))
        assert np.max(np.abs(B.entries - HAND_PS_RR)) <= 1e-15
        assert np.max(np.abs(row_sums(B))) <= 1e-15


def loop_reference(s):
    """Column-by-column assembly of the nine cases, entry for entry."""
    n, alpha = s.n, s.alpha
    g = grunwald_weights(alpha, n + 1).values
    g1 = grunwald_weights(alpha - 1.0, n + 1).values
    g2 = grunwald_weights(alpha - 2.0, n + 1).values
    B = np.zeros((n + 1, n + 1))
    if s.form is RL:
        for j in range(1, n):
            B[: j + 2, j] = g[j + 1 :: -1]
        if s.left is R:
            B[0, 0], B[1, 0] = 1.0 - alpha, 1.0
        if s.right is R:
            B[:, n] = -g1[n::-1]
    elif s.form is PS:
        for j in range(1, n):
            B[1 : j + 2, j] = g[j::-1]
            B[0, j] = -g1[j]
        if s.left is R:
            B[0, 0], B[1, 0] = -1.0, 1.0
        if s.right is R:
            B[1:, n] = -g1[n - 1 :: -1]
            B[0, n] = g2[n - 1]
    else:
        for j in range(1, n):
            B[2 : j + 2, j] = g[j - 1 :: -1]
            B[0, j] = -g1[j] + g2[j + 1]
            B[1, j] = g[j] - g2[j + 1]
    return B


class TestLoopReference:
    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_entries_are_bit_identical(self, form, left, right, alpha):
        for n in (2, 3, 8, 64, 257):
            s = spec(form, left, right, alpha=alpha, n=n)
            expected = loop_reference(s)
            got = build_matrix(s).entries
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestStructure:
    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_mass_moves_at_most_one_step_left(self, form, left, right, alpha, n):
        B = build_matrix(spec(form, left, right, alpha=alpha, n=n)).entries
        assert np.all(np.tril(B, k=-2) == 0.0)

    @pytest.mark.parametrize("form", (RL, PS))
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_reflecting_rows_conserve(self, form, alpha, n):
        B = build_matrix(spec(form, R, R, alpha=alpha, n=n))
        assert np.max(np.abs(row_sums(B))) <= 1e-12 * n

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_ps_reflecting_columns_vanish(self, alpha, n):
        # The constant row vector is an exact discrete steady state.
        B = build_matrix(spec(PS, R, R, alpha=alpha, n=n)).entries
        assert np.max(np.abs(np.ones(n + 1) @ B)) <= 1e-12 * n

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("n", SIZES)
    def test_absorbing_columns_are_zero(self, form, left, right, n):
        B = build_matrix(spec(form, left, right, n=n)).entries
        if left is A:
            assert np.all(B[:, 0] == 0.0)
        if right is A:
            assert np.all(B[:, n] == 0.0)

    @pytest.mark.parametrize("right", (A, R))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_left_absorbing_forms_share_rows_one_to_n(self, right, alpha):
        # Whenever the left boundary absorbs, only the (inert) first row
        # differs between the Riemann-Liouville and Patie-Simon matrices.
        rl = build_matrix(spec(RL, A, right, alpha=alpha, n=64)).entries
        ps = build_matrix(spec(PS, A, right, alpha=alpha, n=64)).entries
        assert np.array_equal(rl[1:], ps[1:])

    @pytest.mark.parametrize("form,left,right", [c for c in SUPPORTED if c[0] is not CAP])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_non_caputo_off_diagonals_are_nonnegative(self, form, left, right, alpha, n):
        B = build_matrix(spec(form, left, right, alpha=alpha, n=n)).entries
        off = B - np.diag(np.diag(B))
        assert np.all(off >= 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", (8, 64))
    def test_caputo_has_negative_off_diagonal_transport(self, alpha, n):
        # The row holding the first-difference correction acquires negative
        # transport rates; this is what breaks positivity.
        B = build_matrix(spec(CAP, A, A, alpha=alpha, n=n)).entries
        off = B - np.diag(np.diag(B))
        assert np.any(off < 0.0)
        assert np.any(off[1] < 0.0)


class TestRowAccounting:
    def test_row_sums_of_zero_matrix(self):
        m = IterationMatrix(4, np.zeros((5, 5)))
        assert np.all(row_sums(m) == 0.0)

    def test_reflecting_absorption_rates_vanish(self):
        B = build_matrix(spec(RL, R, R, n=64))
        assert np.max(np.abs(absorbed_rates(spec(RL, R, R, n=64), B))) <= 1e-12 * 64

    def test_hand_absorption_rates(self):
        s = spec(RL, A, A)
        rates = absorbed_rates(s, build_matrix(s))
        assert rates == pytest.approx([-0.375, 1.5, -1.0], abs=1e-15)

    def test_rates_reject_mismatched_grid(self):
        with pytest.raises(DimensionMismatch):
            absorbed_rates(spec(RL, A, A, n=4), build_matrix(spec(RL, A, A, n=2)))


class TestSpecValidation:
    @pytest.mark.parametrize("left,right", [(R, R), (R, A), (A, R)])
    def test_caputo_with_reflecting_is_rejected(self, left, right):
        with pytest.raises(UnsupportedCombination):
            spec(CAP, left, right, n=8)

    @pytest.mark.parametrize("alpha", (1.0, 2.0, 0.5, 2.5))
    def test_alpha_outside_open_interval_is_rejected(self, alpha):
        with pytest.raises(InvalidSpec):
            spec(RL, A, A, alpha=alpha, n=8)

    def test_tiny_grid_is_rejected(self):
        for n in (1, 20.5):
            with pytest.raises(InvalidSpec):
                spec(RL, A, A, n=n)

    def test_nonpositive_diffusivity_is_rejected(self):
        for c in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidSpec):
                spec(RL, A, A, n=8, c=c)

    def test_matrix_entries_are_immutable(self):
        B = build_matrix(spec(RL, R, R, n=8))
        with pytest.raises(ValueError):
            B.entries[0, 0] = 1.0
