import tracemalloc

import numpy as np
import pytest

from fracdiff1d import (
    BoundaryCondition,
    DerivativeForm,
    GridFunction,
    InitialCondition,
    InvalidSpec,
    IterationMatrix,
    Method,
    SchemeSpec,
    SolverConfig,
    UnsupportedCombination,
    build_matrix,
    grunwald_weights,
    l1_distance_interior,
    steady_state_reference,
)
from fracdiff1d import operators, verify
from fracdiff1d.operators import _stencil

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
        assert np.max(np.abs(B.entries.sum(axis=1))) <= 1e-15

    def test_ps_reflecting_reflecting(self):
        B = build_matrix(spec(PS, R, R))
        assert np.max(np.abs(B.entries - HAND_PS_RR)) <= 1e-15
        assert np.max(np.abs(B.entries.sum(axis=1))) <= 1e-15


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


def stepped_matrix(s):
    """``B`` as explicit runs step it: row i is ``e_i B`` from the stencil's
    apply, which reads every patch entry, unlike the rows that
    :func:`build_matrix` expands."""
    stencil = _stencil(s)
    return np.array([stencil.apply(e) for e in np.eye(s.n + 1)])


class TestStructure:
    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_mass_moves_at_most_one_step_left(self, form, left, right, alpha, n):
        B = stepped_matrix(spec(form, left, right, alpha=alpha, n=n))
        assert np.all(np.tril(B, k=-2) == 0.0)

    def test_structure_checks_see_mass_moved_two_nodes_left(self, monkeypatch):
        # Every stencil moves mass from node 2 to node 0.  The dense
        # expansion drops b_20, so only checks that read the stencil fail.
        init = operators._Stencil.__init__

        def leaky(self, g, head, edges):
            edges[2, 0] = 0.5
            init(self, g, head, edges)

        monkeypatch.setattr(operators._Stencil, "__init__", leaky)
        s = spec(RL, A, A, n=8)
        assert stepped_matrix(s)[2, 0] == 0.5
        assert build_matrix(s).entries[2, 0] == 0.0
        results = {r.name: r.passed for r in verify.run_suite("matrices")}
        assert results["matrices/lower-bandwidth-one"] is False

    @pytest.mark.parametrize("form", (RL, PS))
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_reflecting_rows_conserve(self, form, alpha, n):
        B = build_matrix(spec(form, R, R, alpha=alpha, n=n))
        assert np.max(np.abs(B.entries.sum(axis=1))) <= 1e-12 * n

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_ps_reflecting_columns_vanish(self, alpha, n):
        # The constant row vector is an exact discrete steady state.
        B = build_matrix(spec(PS, R, R, alpha=alpha, n=n)).entries
        assert np.max(np.abs(np.ones(n + 1) @ B)) <= 1e-12 * n

    @pytest.mark.parametrize("form,left,right", SUPPORTED)
    @pytest.mark.parametrize("n", SIZES)
    def test_absorbing_columns_are_zero(self, form, left, right, n):
        B = stepped_matrix(spec(form, left, right, n=n))
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


def discrete_steady_state(s):
    """Unit-mass null vector of ``u B = 0`` and its relative residual.

    Column ``j`` of the upper-Hessenberg ``B`` couples ``u_0..u_{j+1}`` and
    ``b_{j+1,j} = 1``, so forward substitution from ``u_0 = 1`` yields
    ``u_{j+1}`` from column ``j``; the last column then holds because the
    reflecting rows sum to zero.
    """
    B = build_matrix(s).entries
    columns = np.ascontiguousarray(B.T)
    u = np.zeros(s.n + 1)
    u[0] = 1.0
    for j in range(s.n):
        u[j + 1] = -(u[: j + 1] @ columns[j, : j + 1]) / columns[j, j + 1]
    u /= s.h * u.sum()
    residual = np.abs(u @ B).max() / (np.abs(u).max() * np.abs(B).sum(axis=0).max())
    return GridFunction(s.n, u), float(residual)


class TestSteadyStateConvergence:
    @pytest.mark.parametrize("form", (RL, PS))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_null_vector_converges_to_the_reference(self, form, alpha):
        # Measured orders: alpha - 1 for RL (0.21, 0.53, 0.85), 1.00 for PS.
        sizes = (64, 128, 256, 512, 1024)
        errors = []
        for n in sizes:
            s = spec(form, R, R, alpha=alpha, n=n)
            u, residual = discrete_steady_state(s)
            assert residual <= 1e-13
            errors.append(l1_distance_interior(u, steady_state_reference(s)))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        order = np.polyfit(-np.log(sizes), np.log(errors), 1)[0]
        assert order >= (alpha - 1.1 if form is RL else 0.9)


class TestRowAccounting:
    def test_hand_absorption_rates(self):
        # The ledger's rates, the negated row sums of B, dense and from the
        # stencil.
        s = spec(RL, A, A)
        for rates in (-build_matrix(s).entries.sum(axis=1), -_stencil(s).row_sums()):
            assert rates == pytest.approx([-0.375, 1.5, -1.0], abs=1e-15)


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

    def test_grid_beyond_memory_is_rejected(self):
        # 10**400 is not even a float.  10**6 needs only an 8 MB state but an
        # 8 TB dense matrix: build_matrix rejects it.  An implicit factor
        # stores 512-row triangles, 2.1 GB at n = 10**6 and 206 GB at
        # 10**8, whose 0.8 GB state fits: implicit runs reject that.
        with pytest.raises(InvalidSpec, match="physical memory"):
            spec(RL, A, A, n=10**400)
        big = spec(RL, A, A, n=10**6)
        explicit = SolverConfig(spec=big, dt=1e-12, t_end=1e-12, method=Method.EXPLICIT,
                                snapshot_times=(0.0,), initial=InitialCondition.tent())
        assert explicit.spec.n == 10**6
        with pytest.raises(InvalidSpec, match="physical memory"):
            build_matrix(big)
        with pytest.raises(InvalidSpec, match="physical memory"):
            SolverConfig(spec=spec(RL, A, A, n=10**8), dt=1e-3, t_end=1e-3,
                         method=Method.IMPLICIT, snapshot_times=(0.0,),
                         initial=InitialCondition.tent())

    def test_nonpositive_diffusivity_is_rejected(self):
        for c in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidSpec):
                spec(RL, A, A, n=8, c=c)

    def test_build_holds_one_dense_matrix(self):
        n = 1000
        tracemalloc.start()
        try:
            build_matrix(spec(RL, R, R, n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * (n + 1) ** 2, peak

    def test_passed_in_entries_are_copied(self):
        entries = np.zeros((3, 3))
        matrix = IterationMatrix(2, entries)
        entries[0, 0] = 1.0
        assert matrix.entries[0, 0] == 0.0

    def test_matrix_entries_are_immutable(self):
        B = build_matrix(spec(RL, R, R, n=8))
        with pytest.raises(ValueError):
            B.entries[0, 0] = 1.0
