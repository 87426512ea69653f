"""Acceptance suite: every release criterion at its stated tolerance.

The criteria table of :mod:`fracdiff1d.verify` (weight identities,
matrices, conservation, positivity, steady states, decay, Caputo
negativity) runs here at its acceptance scale, n = 512; ``fracdiff1d
verify`` runs the same table at desk scale.  The criteria below are those
the table does not hold.  Each check prints one PASS/FAIL line (run with
``pytest -s`` to see them all even on success).
"""

import filecmp
import math

import numpy as np
import pytest

from fracdiff1d import (
    GridFunction,
    InitialCondition,
    Method,
    SchemeSpec,
    SolverConfig,
    build_matrix,
    rl_derivative_grid,
    run_simulation,
    stability_limit,
)
from fracdiff1d.cli import main
from fracdiff1d.verify import _ACCEPTANCE, SUITE_NAMES, run_suite
from support import RL, A, R


def _report(label: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {label}: {detail}")


def _criterion(num: int, description: str, passed: bool, detail: str) -> None:
    _report(f"criterion {num:2d}  {description}", passed, detail)
    assert passed, f"criterion {num} ({description}): {detail}"


@pytest.mark.parametrize("suite", [name for name in SUITE_NAMES if name != "all"])
def test_criteria_table_at_acceptance_scale(suite):
    results = run_suite(suite, _ACCEPTANCE)
    for r in results:
        _report(r.name, r.passed, r.detail)
    assert results and all(r.passed for r in results), \
        [f"{r.name}: {r.detail}" for r in results if not r.passed]


def test_criterion_02_hand_matrix_oracles():
    rl_aa = build_matrix(SchemeSpec(RL, A, A, 1.5, 1.0, 2)).entries
    rl_rr = build_matrix(SchemeSpec(RL, R, R, 1.5, 1.0, 2)).entries
    expected_aa = np.array([[0.0, 0.375, 0.0], [0.0, -1.5, 0.0], [0.0, 1.0, 0.0]])
    expected_rr = np.array([[-0.5, 0.375, 0.125], [1.0, -1.5, 0.5], [0.0, 1.0, -1.0]])
    gap = max(float(np.abs(rl_aa - expected_aa).max()),
              float(np.abs(rl_rr - expected_rr).max()))
    _criterion(2, "hand 3x3 matrices", gap <= 1e-15, f"max entry gap={gap:.1e}")


def test_criterion_09_implicit_beyond_stability_limit():
    n = _ACCEPTANCE.n
    dt = 10 * stability_limit(1.5, 1.0, 1.0 / n)
    series = run_simulation(SolverConfig(
        spec=SchemeSpec(RL, A, A, 1.5, 1.0, n), dt=dt, t_end=200 * dt,
        method=Method.IMPLICIT, snapshot_times=tuple(k * dt for k in range(201)),
        initial=InitialCondition.tent()))
    finite = all(np.all(np.isfinite(s.values)) for s in series.snapshots)
    norms = [s.h * float(np.abs(s.values).sum()) for s in series.snapshots]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    _criterion(9, "implicit stays stable at 10x the explicit limit",
               finite and nonincreasing, f"dt={dt:.2e}, final L1={norms[-1]:.3f}")


def test_criterion_10_grunwald_first_order():
    # Shifted evaluation of x**2 against the exact derivative
    # 2/Gamma(1.5) x**0.5 at the node adjacent to x = 1 (the stencil at the
    # endpoint itself references the exterior and carries no accuracy claim).
    pairs = []
    for n in (256, 512, 1024, 2048):
        x = np.arange(n + 1) / n
        out = rl_derivative_grid(GridFunction(n, x**2), 1.5, shifted=True)
        exact = 2.0 / math.gamma(1.5) * x[n - 1] ** 0.5
        pairs.append((1.0 / n, abs(out.values[n - 1] - exact)))
    order = np.polyfit(*np.log(pairs).T, 1)[0]
    _criterion(10, "shifted stencil is first order at the right edge",
               abs(order - 1.0) <= 0.2, f"observed order={order:.3f}")


def test_criterion_12_figure_determinism(tmp_path):
    first = tmp_path / "fig2_a.csv"
    second = tmp_path / "fig2_b.csv"
    assert main(["figure", "2", "--out", str(first)]) == 0
    assert main(["figure", "2", "--out", str(second)]) == 0
    same = filecmp.cmp(first, second, shallow=False)
    same_meta = filecmp.cmp(f"{first}.meta.json", f"{second}.meta.json",
                            shallow=False)
    _criterion(12, "repeated figure runs are byte-identical",
               same and same_meta,
               f"csv bytes={first.stat().st_size}")
