"""The acceptance criteria of the package, each defined once.

Seven suites check the claims the solver rests on: the Grünwald weight
identities, the structure of the iteration matrices, mass conservation and
the ledger, positivity under the CFL bound, the steady states, absorbing
decay and Caputo negativity.  Each reports one pass/fail line per check.
The matrices suite reads ``B`` from the O(n) stencil, as runs do;
:func:`~fracdiff1d.operators.build_matrix`, its dense expansion, serves
the ``matrix`` command and the tests.  The checks that hold at every
step, mass drift and ledger closure, the minimum, and the comparison of
two runs, read each run's stream of steps (:func:`_stream`) and keep no
state: O(n) memory, not O(steps n).  The steady, decay and Caputo suites
record snapshots.

A suite is a function of a scale, the protocol of its grids and runs; its
bounds are the same at every scale.  There are two scales:

* ``_DESK`` (n = 128), which the ``verify`` CLI subcommand runs, so that an
  installed copy can be validated in about a second without a test runner;
* ``_ACCEPTANCE`` (n = 512, runs up to 2000 steps), which
  ``tests/test_acceptance.py`` runs.  It adds wall-time bounds and the
  comparison of Patie-Simon and Riemann-Liouville runs under a left
  absorbing wall, which the desk scale leaves out to keep its run count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .diagnostics import (
    _first_minimum,
    _l1_norms,
    decay_rate,
    l1_distance_interior,
    negativity_scan,
    steady_state_reference,
)
from .grunwald import (
    DerivativeForm,
    grunwald_weights,
    weight_recursion_gap,
    weight_sum_gap,
    weight_tail_gap,
)
from .operators import BoundaryCondition, SchemeSpec, _stencil
from .timestepper import (
    InitialCondition,
    Method,
    SolverConfig,
    TimeSeries,
    _mass,
    _steps,
    run_simulation,
    stability_limit,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

_RL = DerivativeForm.RIEMANN_LIOUVILLE
_PS = DerivativeForm.PATIE_SIMON
_A = BoundaryCondition.ABSORBING
_R = BoundaryCondition.REFLECTING

_ALPHAS = (1.2, 1.5, 1.8)
_FORMS_BCS = [
    (form, left, right)
    for form in (_RL, _PS)
    for left in BoundaryCondition
    for right in BoundaryCondition
] + [(DerivativeForm.CAPUTO, _A, _A)]


@dataclass(frozen=True)
class _Scale:
    """The protocol of the suites: grid sizes, run lengths, snapshot
    spacing, and the checks only a long protocol affords.  Runs use
    alpha = 1.5, C = 1 and tent initial data unless a suite says
    otherwise; decay runs record 20 snapshots after the initial one."""

    n: int                       # conservation, positivity and decay runs
    steps: int                   # conservation and positivity runs
    matrix_ns: tuple[int, ...]   # grids whose stencils are inspected
    decay_steps: int
    caputo_n: int
    caputo_every: int            # snapshot spacing of the 200-step Caputo run
    twin_steps: int | None       # left-absorbing PS/RL runs compared, or none
    budget_s: dict[str, float]   # wall-time bound per suite


_DESK = _Scale(n=128, steps=300, matrix_ns=(2, 8, 64), decay_steps=1000,
               caputo_n=256, caputo_every=10, twin_steps=None, budget_s={})
_ACCEPTANCE = _Scale(n=512, steps=1000, matrix_ns=(2, 8, 64, 512), decay_steps=2000,
                     caputo_n=512, caputo_every=1,
                     twin_steps=500,
                     budget_s={"identities": 1.0, "caputo-negativity": 60.0})


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _config(form, left, right, *, n, dt, steps, every=None, method=Method.IMPLICIT,
            ic=None) -> SolverConfig:
    """A suite's run: a snapshot every ``every`` steps, or none."""
    spec = SchemeSpec(form=form, left=left, right=right, alpha=1.5, c=1.0, n=n)
    return SolverConfig(
        spec=spec,
        dt=dt,
        t_end=steps * dt,
        method=method,
        snapshot_times=() if every is None else tuple(
            k * dt for k in range(0, steps + 1, every)),
        initial=ic or InitialCondition.tent(),
        allow_unstable=False,
    )


def _run(form, left, right, *, every, **run) -> TimeSeries:
    return run_simulation(_config(form, left, right, every=every, **run))


def _stream(form, left, right, **run) -> Iterator[tuple[np.ndarray, float, float]]:
    """Every state of a suite's run with its mass and absorbed total,
    ``(u, mass, absorbed)``, as :func:`_run` would record them with a
    snapshot at every step, none kept."""
    config = _config(form, left, right, **run)
    for k, u, absorbed in _steps(config):
        yield u, _mass(u, config.spec.h, k), absorbed


def _explicit_dt(n: int) -> float:
    """Half the explicit stability limit at alpha = 1.5, C = 1."""
    return stability_limit(1.5, 1.0, 1.0 / n) / 2


def _suite_identities(scale: _Scale) -> list[CheckResult]:
    out = []
    for alpha in _ALPHAS:
        w = grunwald_weights(alpha, 10_000)
        gap = weight_recursion_gap(w)
        out.append(_check(f"recursion alpha={alpha}", gap <= 1e-14, f"gap={gap:.2e}"))
        # sum_{i<=m} g^alpha_i = g^(alpha-1)_m, and the sum stays below
        # twice the lowered weight.
        w1 = grunwald_weights(alpha - 1.0, 10_000)
        sgap = weight_sum_gap(alpha, 10_000)
        ratio = abs(float(w.values.sum())) / (2.0 * abs(float(w1.values[10_000])))
        out.append(_check(f"cumulative-sum alpha={alpha}", sgap <= 1e-12 and ratio <= 1.0,
                          f"gap={sgap:.2e} |sum|/2|g'|={ratio:.3f}"))
        tgap = float(weight_tail_gap(w1, np.arange(1000, 10_001)).max())
        out.append(_check(f"tail-asymptote alpha={alpha}", tgap < 0.01, f"gap={tgap:.2e}"))
    return out


def _suite_matrices(scale: _Scale) -> list[CheckResult]:
    """The structure of ``B`` as runs step it: the stencil of each case."""
    out = []

    def stencil(form, left, right, alpha, n):
        return _stencil(SchemeSpec(form, left, right, alpha, 1.0, n))

    grids = [(alpha, n) for alpha in _ALPHAS for n in scale.matrix_ns]
    structure_ok, detail = True, ""
    for form, left, right in _FORMS_BCS:
        for alpha, n in grids:
            # Only two patches can break the upper-Hessenberg form that
            # row() assumes and apply() does not: column 0 of rows 2 .. n,
            # and replaced rows past row 1.
            s = stencil(form, left, right, alpha, n)
            if np.any(s.edges[2:, 0] != 0.0) or len(s.head) > 2:
                structure_ok, detail = False, f"{form.value} {left.value}/{right.value} n={n}"
    out.append(_check("lower-bandwidth-one", structure_ok, detail or "b_ij=0 for i>j+1"))
    for form in (_RL, _PS):
        worst = max(float(np.abs(stencil(form, _R, _R, alpha, n).row_sums()).max() / n)
                    for alpha, n in grids)
        out.append(_check(f"reflecting-row-sums {form.value}", worst <= 1e-12,
                          f"max|sum|/n={worst:.2e}"))
    # The constant lies in the left kernel of the Patie-Simon matrix.
    worst = max(float(np.abs(stencil(_PS, _R, _R, alpha, n).apply(np.ones(n + 1))).max())
                for alpha, n in grids)
    out.append(_check("ps-reflecting-column-sums", worst <= 1e-12, f"max|1.B|={worst:.2e}"))
    pairs = [[stencil(form, _A, right, alpha, n) for form in (_RL, _PS)]
             for right in BoundaryCondition for alpha, n in grids]
    equal = all(np.array_equal(rl.row(k), ps.row(k))
                for rl, ps in pairs for k in range(1, rl.n + 1))
    out.append(_check("left-absorbing-row-equality", equal, "rows 1..n match across forms"))
    if scale.twin_steps is not None:
        gap = 0.0
        for method, dt in ((Method.EXPLICIT, _explicit_dt(scale.n)), (Method.IMPLICIT, 1e-3)):
            ps, rl = (_stream(form, _A, _A, n=scale.n, dt=dt, steps=scale.twin_steps,
                              method=method) for form in (_PS, _RL))
            for (a, _, _), (b, _, _) in zip(ps, rl):
                gap = max(gap, float(np.abs(a - b).max()))
        out.append(_check("left-absorbing-runs-agree", gap <= 1e-12,
                          f"max snapshot gap={gap:.2e}"))
    return out


def _suite_conservation(scale: _Scale) -> list[CheckResult]:
    """Mass drift and ledger closure at every step."""
    out = []
    for form in (_RL, _PS):
        for method, dt in ((Method.EXPLICIT, _explicit_dt(scale.n)), (Method.IMPLICIT, 1e-3)):
            masses = (mass for _, mass, _ in _stream(form, _R, _R, n=scale.n, dt=dt,
                                                    steps=scale.steps, method=method))
            mass0 = next(masses)
            drift = max((abs(m - mass0) for m in masses), default=0.0)
            out.append(_check(f"mass-constant {form.value} {method.value}",
                              drift <= 1e-9 and abs(mass0 - 1.0) <= 1e-3,
                              f"drift={drift:.2e} initial={mass0:.6f}"))
    ledger = _stream(_RL, _A, _A, n=scale.n, dt=1e-3, steps=scale.steps)
    _, mass0, _ = next(ledger)
    closure = max((abs(m + a - mass0) for _, m, a in ledger), default=0.0)
    out.append(_check("ledger-closure rl absorbing", closure <= 1e-9, f"gap={closure:.2e}"))
    return out


def _suite_positivity(scale: _Scale) -> list[CheckResult]:
    """The minimum at every step."""
    out = []
    for form, left, right in _FORMS_BCS:
        if form is DerivativeForm.CAPUTO:
            continue
        states = (u for u, _, _ in _stream(form, left, right, n=scale.n,
                                           dt=_explicit_dt(scale.n), steps=scale.steps,
                                           method=Method.EXPLICIT))
        low = _first_minimum(states).value
        out.append(_check(f"min {form.value} {left.value[0]}{right.value[0]}",
                          low >= -1e-12, f"min={low:.2e}"))
    return out


def _suite_steady(scale: _Scale) -> list[CheckResult]:
    out = []
    for form, tol in ((_RL, 0.05), (_PS, 0.02)):
        series = _run(form, _R, _R, n=scale.n, dt=1e-3, steps=2000, every=500)
        ref = steady_state_reference(series.spec)
        final = l1_distance_interior(series.snapshots[-1], ref)
        earlier = l1_distance_interior(series.snapshots[1], ref)  # t = 0.5
        out.append(_check(f"steady-distance {form.value}",
                          final <= tol and final < earlier,
                          f"final={final:.4f} earlier={earlier:.4f}"))
    return out


def _suite_decay(scale: _Scale) -> list[CheckResult]:
    out = []

    def run(left, right):
        return _run(_RL, left, right, n=scale.n, dt=1e-3, steps=scale.decay_steps,
                    every=scale.decay_steps // 20)

    for tag, left, right in (("aa", _A, _A), ("ar", _A, _R), ("ra", _R, _A)):
        series = run(left, right)
        norms = _l1_norms(series)
        nonincreasing = bool(np.all(norms[1:] <= norms[:-1] + 1e-12))
        rate = decay_rate(series)
        out.append(_check(f"decay rl-{tag}",
                          nonincreasing and rate < 0.0 and len(norms) >= 20,
                          f"rate={rate:.3f}"))
    rate = decay_rate(run(_R, _R))
    out.append(_check("no-decay rl-rr", abs(rate) < 1e-6, f"rate={rate:.2e}"))
    return out


def _suite_caputo_negativity(scale: _Scale) -> list[CheckResult]:
    series = _run(DerivativeForm.CAPUTO, _A, _A, n=scale.caputo_n, dt=1e-3, steps=200,
                  ic=InitialCondition.sine_bump(), every=scale.caputo_every)
    low = negativity_scan(series)
    return [_check("caputo-goes-negative", low.value < 0.0,
                   f"min={low.value:.4f} at t-index {low.time_index}, "
                   f"node {low.node_index}")]


_SUITES: dict[str, Callable[[_Scale], list[CheckResult]]] = {
    "identities": _suite_identities,
    "matrices": _suite_matrices,
    "conservation": _suite_conservation,
    "positivity": _suite_positivity,
    "steady": _suite_steady,
    "decay": _suite_decay,
    "caputo-negativity": _suite_caputo_negativity,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, scale: _Scale = _DESK) -> list[CheckResult]:
    """Run one named suite (or ``all``) at ``scale`` and return its check
    results, named ``suite/check``.

    A suite with a wall-time bound at the scale gets one more check,
    ``suite/wall-time``.
    """
    results: list[CheckResult] = []
    for suite in _SUITES if name == "all" else (name,):
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # the checks report overflow
            checks = _SUITES[suite](scale)
        elapsed = time.perf_counter() - start
        if suite in scale.budget_s:
            budget = scale.budget_s[suite]
            checks.append(_check("wall-time", elapsed < budget,
                                 f"{elapsed:.2f}s < {budget:g}s"))
        results += [CheckResult(f"{suite}/{r.name}", r.passed, r.detail) for r in checks]
    return results
