"""Quantitative checks of the solution properties the schemes promise.

Positivity scans, steady-state distances, boundary-flux evaluation and
exponential decay rates; the mass is the run's own ledger
(:class:`~fracdiff1d.timestepper.TimeSeries`).
Steady-state comparisons exclude node 0 uniformly: the reflecting
Riemann-Liouville steady state ``(alpha-1) x**(alpha-2)`` diverges there,
and one convention keeps the forms comparable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptySeries,
    InvalidSpec,
    UnsupportedForm,
)
from .grunwald import DerivativeForm, GridFunction, _frozen, flux_profile
from .operators import BoundaryCondition, SchemeSpec
from .timestepper import TimeSeries

__all__ = [
    "NegativityResult",
    "SteadyStateKind",
    "SteadyStateReference",
    "boundary_flux_check",
    "decay_rate",
    "l1_distance_interior",
    "negativity_scan",
    "steady_state_reference",
]


class SteadyStateKind(enum.Enum):
    POWER_LAW = "power-law"
    CONSTANT = "constant"
    ZERO = "zero"


@dataclass(frozen=True)
class SteadyStateReference:
    """Long-time limit profile on the interior nodes 1..n."""

    kind: SteadyStateKind
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(
            self.values, (self.n,),
            "reference needs {expected[0]} interior values, got shape {got}"))


def steady_state_reference(spec: SchemeSpec) -> SteadyStateReference:
    """Steady state the solutions approach for this scheme.

    Reflecting/reflecting: the unit-mass power law ``(alpha-1) x**(alpha-2)``
    for the Riemann-Liouville form, the constant 1 for the Patie-Simon form.
    Any absorbing boundary drains the system, so the limit is zero.
    """
    n = spec.n
    reflecting = BoundaryCondition.REFLECTING
    if spec.left is reflecting and spec.right is reflecting:
        x = np.arange(1, n + 1) / n
        if spec.form is DerivativeForm.RIEMANN_LIOUVILLE:
            values = (spec.alpha - 1.0) * x ** (spec.alpha - 2.0)
            return SteadyStateReference(SteadyStateKind.POWER_LAW, n, values)
        return SteadyStateReference(SteadyStateKind.CONSTANT, n, np.ones(n))
    return SteadyStateReference(SteadyStateKind.ZERO, n, np.zeros(n))


def l1_distance_interior(u: GridFunction, ref: SteadyStateReference) -> float:
    """``h * sum_{j>=1} |u_j - ref_j|`` over the interior nodes."""
    if u.n != ref.n:
        raise DimensionMismatch(f"grid has n={u.n} but reference has n={ref.n}")
    return u.h * float(np.abs(u.values[1:] - ref.values).sum())


class NegativityResult(NamedTuple):
    value: float
    time_index: int
    node_index: int


def negativity_scan(series: TimeSeries) -> NegativityResult:
    """Global minimum over all snapshots, with its first location: the
    first snapshot that holds it, and its first node there (see
    :func:`_first_minimum`)."""
    return _first_minimum(snap.values for snap in series.snapshots)


def _first_minimum(states: Iterable[np.ndarray]) -> NegativityResult:
    """Global minimum over ``states``, read once in order, with its first
    location: the index of the first state that holds it, and its first
    node there, as one ``argmin`` over the stacked states has it, a NaN
    lowest.  Keeps no state: O(1) extra memory, so it reads a run's
    stream as well as its snapshots.  No state: :class:`EmptySeries`."""
    best = None
    for t_idx, u in enumerate(states):
        low = float(u.min())
        if best is None or not low >= best.value:
            best = NegativityResult(low, t_idx, int(u.argmin()))
            if math.isnan(low):
                break
    if best is None:
        raise EmptySeries("time series holds no snapshots")
    return best


def _l1_norms(series: TimeSeries) -> np.ndarray:
    h = 1.0 / series.spec.n
    return np.array([h * float(np.abs(s.values).sum()) for s in series.snapshots])


def decay_rate(series: TimeSeries) -> float:
    """Least-squares slope of ``log L1-norm`` versus time.

    Fits the last half of the snapshots (at least 3) to skip the transient;
    the long-time behaviour is the asymptotic one.  The slope comes in
    closed form from centred sums, ``tc @ (y - mean y) / (tc @ tc)`` with
    ``tc = t - mean t``: no LAPACK call, O(snapshots) extra memory.  A
    window whose times do not vary has no slope: :class:`DegenerateInput`.
    """
    norms = _l1_norms(series)
    if len(norms) < 3:
        raise DegenerateInput("need at least 3 snapshots to fit a decay rate")
    start = min(len(norms) // 2, len(norms) - 3)
    window = norms[start:]
    if np.any(window <= 0.0):
        raise DegenerateInput("L1 norms hit zero inside the fit window")
    t = np.asarray(series.times[start:])
    # Not tc @ tc == 0: the mean of three 0.1s is not 0.1.
    if t.min() == t.max():
        raise DegenerateInput("snapshot times in the fit window do not vary")
    tc = t - t.mean()
    y = np.log(window)
    return float(tc @ (y - y.mean()) / (tc @ tc))


def boundary_flux_check(series: TimeSeries) -> tuple[float, float]:
    """Flux of the final snapshot at nodes 1 and n.

    Uses the flux form matching the scheme (Riemann-Liouville flux, or the
    Caputo flux for the Patie-Simon form).  Node 0 is skipped: its flux is
    identically the degenerate one-term sum.
    """
    spec = series.spec
    if spec.form is DerivativeForm.CAPUTO:
        raise UnsupportedForm("no flux is defined for the raw Caputo form")
    if (
        spec.left is not BoundaryCondition.REFLECTING
        and spec.right is not BoundaryCondition.REFLECTING
    ):
        raise InvalidSpec("boundary flux check needs at least one reflecting side")
    if len(series) == 0:
        raise EmptySeries("time series holds no snapshots")
    q = flux_profile(series.snapshots[-1], spec.alpha, spec.c, spec.form)
    return float(q.values[1]), float(q.values[spec.n])
