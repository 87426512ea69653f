r"""Euler time stepping with a mass ledger.

Explicit update (row-vector convention):
:math:`\mathbf{u}_{k+1} = \mathbf{u}_k + \beta \mathbf{u}_k B` with
:math:`\beta = C h^{-\alpha} \Delta t`, stable for
:math:`\Delta t < h^\alpha / (C \alpha)`.  Implicit update:
:math:`(I - \beta B^T)\, \mathbf{u}_{k+1}^T = \mathbf{u}_k^T`,
unconditionally stable and solved by dense LU with partial pivoting.

Both updates live in one private stepper, built once per run: it holds
``B``, ``beta``, the outflow vector and the pinned absorbing nodes, and for
implicit runs the single LU factorization of ``I - beta B^T`` that every
step reuses.  Each step returns the new state and the mass absorbed during
it.

A run keeps two independently computed accounts: the retained mass
:math:`M_k = h \sum_j u_j` measured from the state, and the cumulative
absorbed mass accumulated from the per-node absorption rates
``-row_sums(B)``.  For the Riemann-Liouville and Patie-Simon schemes the two
must reconcile: ``mass + absorbed == initial mass`` up to roundoff.

A NaN or inf anywhere in the state makes both accounts non-finite, so
checking the per-step increment and each snapshot mass catches a blown-up
run in O(1): it raises :class:`~fracdiff1d.errors.StabilityViolation`
naming the step (the CLI reports it on one ``error:`` line, exit code 1,
and writes no file).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    DimensionMismatch,
    InvalidSpec,
    SingularSystem,
    StabilityViolation,
)
from .grunwald import GridFunction
from .operators import BoundaryCondition, IterationMatrix, SchemeSpec, build_matrix

__all__ = [
    "InitialCondition",
    "Method",
    "SolverConfig",
    "TimeSeries",
    "explicit_step",
    "implicit_step",
    "run_simulation",
    "sine_bump_profile",
    "stability_limit",
    "tent_profile",
]


class Method(enum.Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


def stability_limit(alpha: float, c: float, h: float) -> float:
    """Explicit-Euler step bound ``h**alpha / (c * alpha)``.

    Reduces to the classical diffusion limit ``h**2 / 2`` at ``alpha = 2``.
    """
    if not 1.0 < alpha <= 2.0:
        raise InvalidSpec(f"alpha must lie in (1, 2], got {alpha}")
    if c <= 0.0 or h <= 0.0:
        raise InvalidSpec("diffusivity and grid spacing must be positive")
    return h**alpha / (c * alpha)


def tent_profile(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear hump on (0.3, 0.7), peak 5 at x = 0.5, unit area."""
    x = np.asarray(x, dtype=float)
    rising = 25.0 * x - 7.5
    falling = -25.0 * x + 17.5
    return np.where(
        (x > 0.3) & (x <= 0.5),
        rising,
        np.where((x > 0.5) & (x < 0.7), falling, 0.0),
    )


def sine_bump_profile(x: np.ndarray) -> np.ndarray:
    """Smooth nonnegative bump ``a (x - 1/4)^2 sin(4 pi x)`` on (0, 1/4).

    The amplitude ``a = 64 pi^3 / (pi^2 - 4)`` normalizes the area to 1.
    """
    x = np.asarray(x, dtype=float)
    amplitude = 64.0 * math.pi**3 / (math.pi**2 - 4.0)
    bump = amplitude * (x - 0.25) ** 2 * np.sin(4.0 * math.pi * x)
    return np.where((x > 0.0) & (x < 0.25), bump, 0.0)


class Profile(enum.Enum):
    TENT = "tent"
    SINE_BUMP = "bump"
    UNIFORM = "uniform"
    FROM_FILE = "file"


@dataclass(frozen=True)
class InitialCondition:
    """Initial data sampled pointwise at the grid nodes (no cell averaging)."""

    profile: Profile
    path: Path | None = None

    def __post_init__(self) -> None:
        if self.profile is Profile.FROM_FILE and self.path is None:
            raise InvalidSpec("file-based initial condition needs a path")

    @classmethod
    def tent(cls) -> "InitialCondition":
        return cls(Profile.TENT)

    @classmethod
    def sine_bump(cls) -> "InitialCondition":
        return cls(Profile.SINE_BUMP)

    @classmethod
    def uniform(cls) -> "InitialCondition":
        return cls(Profile.UNIFORM)

    @classmethod
    def from_file(cls, path: str | Path) -> "InitialCondition":
        return cls(Profile.FROM_FILE, Path(path))

    @classmethod
    def parse(cls, label: str) -> "InitialCondition":
        """Inverse of :meth:`label`: ``tent``, ``bump``, ``uniform`` or
        ``file:PATH``."""
        if label.startswith("file:"):
            return cls.from_file(label[len("file:"):])
        try:
            profile = Profile(label)
        except ValueError:
            raise InvalidSpec(f"unknown initial condition {label!r}") from None
        return cls(profile)

    def sample(self, n: int) -> GridFunction:
        """Sample onto the nodes of an ``n``-interval grid.

        A file must hold exactly ``n + 1`` whitespace-separated finite
        values (one concentration per node).
        """
        if self.profile is Profile.TENT:
            return GridFunction.sample(tent_profile, n)
        if self.profile is Profile.SINE_BUMP:
            return GridFunction.sample(sine_bump_profile, n)
        if self.profile is Profile.UNIFORM:
            return GridFunction(n, np.ones(n + 1))
        try:
            values = np.atleast_1d(np.loadtxt(self.path, dtype=float))
        except ValueError as exc:
            raise InvalidSpec(f"{self.path} is not a list of numbers: {exc}") from None
        if values.shape != (n + 1,):
            raise DimensionMismatch(
                f"{self.path} holds {values.size} values, grid needs {n + 1}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidSpec(f"{self.path} holds non-finite values")
        return GridFunction(n, values)

    def label(self) -> str:
        """Stable textual form (used by the CLI and run metadata); see
        :meth:`parse`."""
        if self.profile is Profile.FROM_FILE:
            return f"file:{self.path}"
        return self.profile.value


@dataclass(frozen=True)
class SolverConfig:
    """A complete run recipe: scheme, step size, horizon, method, snapshots.

    Construction fails with :class:`StabilityViolation` when an explicit
    method is paired with ``dt`` above the stability limit, unless
    ``allow_unstable`` is set.
    """

    spec: SchemeSpec
    dt: float
    t_end: float
    method: Method
    snapshot_times: tuple[float, ...]
    initial: InitialCondition
    allow_unstable: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "snapshot_times", tuple(self.snapshot_times))
        if not 0.0 < self.dt < math.inf:
            raise InvalidSpec(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.t_end < math.inf:
            raise InvalidSpec(f"t_end must be positive and finite, got {self.t_end}")
        times = self.snapshot_times
        if not all(0.0 <= t <= self.t_end for t in times):
            raise InvalidSpec("snapshot times must lie within [0, t_end]")
        if any(a > b for a, b in zip(times, times[1:])):
            raise InvalidSpec("snapshot times must be sorted")
        if self.method is Method.EXPLICIT and not self.allow_unstable:
            limit = stability_limit(self.spec.alpha, self.spec.c, self.spec.h)
            if self.dt > limit:
                raise StabilityViolation(
                    f"explicit dt={self.dt} exceeds the stability limit "
                    f"{limit:.6g}; shrink dt, go implicit, or set allow_unstable"
                )


@dataclass(frozen=True)
class TimeSeries:
    """Snapshots of one run plus its mass ledger.

    ``times`` holds the actual snapshot times (the first completed step at or
    after each requested time; no interpolation), ``mass_trace`` the retained
    mass ``h * sum(u)`` at each snapshot, and ``absorbed_cumulative`` the
    rate-accounted mass removed through absorbing boundaries up to then.
    ``config`` preserves the full run recipe for serialization.
    """

    spec: SchemeSpec
    requested_times: tuple[float, ...]
    times: tuple[float, ...]
    snapshots: tuple[GridFunction, ...]
    mass_trace: tuple[float, ...]
    absorbed_cumulative: tuple[float, ...]
    config: "SolverConfig | None" = None

    def __len__(self) -> int:
        return len(self.snapshots)


class _Stepper:
    """One Euler step under ``beta * B``: the update, the ledger and the pins.

    The only place the update rule lives.  Built once per run: the implicit
    system ``I - beta B^T`` is assembled in one buffer and LU-factored here,
    and reused by every :meth:`step`.  ``pinned`` lists the absorbing
    boundary nodes, zeroed after every step (their matrix columns are already
    zero; pinning suppresses roundoff drift).
    """

    def __init__(self, matrix: IterationMatrix, beta: float, method: Method,
                 pinned: Sequence[int] = ()) -> None:
        if not 0.0 <= beta < math.inf:
            raise InvalidSpec(f"beta must be finite and nonnegative, got {beta}")
        n = matrix.n
        self.n, self.h, self.beta = n, 1.0 / n, beta
        self.B = matrix.entries
        self.outflow = -self.B.sum(axis=1)
        self.pinned = list(pinned)
        self.steps = 0
        self.factors = None
        if method is Method.IMPLICIT:
            # Bit-identical to ``eye - beta * B.T``: 0 - x == -x and
            # 1 - y == 1 + (-y) hold exactly in IEEE arithmetic.
            system = -beta * self.B.T
            system.flat[:: n + 2] += 1.0
            lu, piv = lu_factor(system, overwrite_a=True)
            if not np.all(np.isfinite(lu)) or np.any(np.diag(lu) == 0.0):
                raise SingularSystem("implicit system matrix is numerically singular")
            self.factors = (lu, piv)

    def step(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """Advance ``u`` by one step; return the new state and the mass
        absorbed during the step.

        Explicit steps book the outflow of the state they start from,
        implicit steps that of the state they solve for.  A NaN or inf
        anywhere in the state makes the increment non-finite, which raises
        :class:`StabilityViolation`.
        """
        if u.shape != (self.n + 1,):
            raise DimensionMismatch(f"grid has n={u.size - 1} but matrix has n={self.n}")
        if self.factors is None:
            booked = u
            u = u + self.beta * (u @ self.B)
        else:
            u = booked = lu_solve(self.factors, u, check_finite=False)
        increment = self.beta * self.h * float(booked @ self.outflow)
        self.steps += 1
        if not math.isfinite(increment):
            raise _non_finite(self.steps)
        u[self.pinned] = 0.0
        return u, increment


def _non_finite(step: int) -> StabilityViolation:
    return StabilityViolation(f"the state or its ledger is no longer finite at step {step}")


def explicit_step(u: GridFunction, matrix: IterationMatrix, beta: float) -> GridFunction:
    """One explicit Euler update ``u + beta * (u B)``."""
    return GridFunction(u.n, _Stepper(matrix, beta, Method.EXPLICIT).step(u.values)[0])


def implicit_step(u: GridFunction, matrix: IterationMatrix, beta: float) -> GridFunction:
    """One implicit Euler update, solving ``(I - beta B^T) v = u``.

    Factors the system on every call; :func:`run_simulation` factors once
    per run instead.
    """
    return GridFunction(u.n, _Stepper(matrix, beta, Method.IMPLICIT).step(u.values)[0])


def run_simulation(config: SolverConfig) -> TimeSeries:
    """Advance the scheme to ``t_end``, recording snapshots and the ledger.

    The iteration matrix is built and (for implicit runs) factored once.
    Snapshots are taken at the first completed step with
    ``t >= requested``; the actual times are recorded.  Absorbing boundary
    nodes are hard-pinned to zero, initially and after every step.  A state
    that turns non-finite raises :class:`StabilityViolation` before any
    later snapshot is recorded.
    """
    spec = config.spec
    n, h, dt = spec.n, spec.h, config.dt
    pinned = [node for node, side in ((0, spec.left), (n, spec.right))
              if side is BoundaryCondition.ABSORBING]
    stepper = _Stepper(build_matrix(spec), spec.c * h**-spec.alpha * dt,
                       config.method, pinned)

    u = config.initial.sample(n).values.copy()
    u[pinned] = 0.0

    # Integer step indices guard against float-floor surprises near t/dt.
    def step_of(t: float) -> int:
        return max(0, math.ceil(t / dt - 1e-9))

    snap_steps = [step_of(t) for t in config.snapshot_times]
    total_steps = max(step_of(config.t_end), max(snap_steps, default=0))

    times: list[float] = []
    snapshots: list[GridFunction] = []
    mass_trace: list[float] = []
    absorbed_trace: list[float] = []
    absorbed = 0.0
    next_snap = 0

    # Overflow is reported by the non-finite guard, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total_steps + 1):
            while next_snap < len(snap_steps) and snap_steps[next_snap] == k:
                mass = h * float(u.sum())
                if not math.isfinite(mass):
                    raise _non_finite(k)
                times.append(k * dt)
                snapshots.append(GridFunction(n, u))
                mass_trace.append(mass)
                absorbed_trace.append(absorbed)
                next_snap += 1
            if k == total_steps:
                break
            u, increment = stepper.step(u)
            absorbed += increment

    return TimeSeries(
        spec=spec,
        requested_times=tuple(config.snapshot_times),
        times=tuple(times),
        snapshots=tuple(snapshots),
        mass_trace=tuple(mass_trace),
        absorbed_cumulative=tuple(absorbed_trace),
        config=config,
    )
