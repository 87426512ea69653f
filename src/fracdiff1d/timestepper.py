r"""Euler time stepping with a mass ledger.

Explicit update (row-vector convention):
:math:`\mathbf{u}_{k+1} = \mathbf{u}_k + \beta \mathbf{u}_k B` with
:math:`\beta = C h^{-\alpha} \Delta t`, stable for
:math:`\Delta t < h^\alpha / (C \alpha)`.  Implicit update:
:math:`(I - \beta B^T)\, \mathbf{u}_{k+1}^T = \mathbf{u}_k^T`,
unconditionally stable, solved in row form
:math:`\mathbf{u}_{k+1} M = \mathbf{u}_k` with :math:`M = I - \beta B`
factored once per run (see :mod:`~fracdiff1d.factor`).

Both updates live in one private stepper, built once per run from the O(n)
stencil form of ``B``, ``beta`` and the method: it holds ``beta``, the
outflow vector (from the stencil's row sums), and either the stencil's
apply (explicit) or the single factorization of ``M`` that every step
reuses (implicit).  Each step returns the new state and the mass absorbed
during it.  One loop steps every run, as a stream of its states that
keeps only the current one: :func:`run_simulation` records the snapshots
from it, and the per-step checks of :mod:`~fracdiff1d.verify` read every
state and keep none, in O(n) memory, not O(steps n).

A run keeps two independently computed accounts: the retained mass
:math:`M_k = h \sum_j u_j` measured from the state, and the cumulative
absorbed mass accumulated from the per-node absorption rates, the
negated row sums of ``B``.  For the Riemann-Liouville and Patie-Simon schemes the two
must reconcile: ``mass + absorbed == initial mass`` up to roundoff.

A NaN or inf anywhere in the state makes both accounts non-finite, so
checking the per-step increment and the mass of each state read catches
a blown-up run in O(1): it raises :class:`~fracdiff1d.errors.StabilityViolation`
naming the step (the CLI reports it on one ``error:`` line, exit code 1,
and writes no file).
"""

from __future__ import annotations

import enum
import functools
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSpec,
    StabilityViolation,
)
from .factor import _blas_routines, _hessenberg_lu, _in_place_solve, _require_implicit_fits
from .grunwald import GridFunction
from .operators import (
    BoundaryCondition,
    IterationMatrix,
    SchemeSpec,
    _dot,
    _read_whole,
    _require_explicit_fits,
    _stencil,
)

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


# The most steps a run may take: a billion steps of the smallest grid take
# over an hour (4.4 us a step at n = 2, implicit; 7.9 us explicit), and a
# recipe asking for more is a mistake, such as a dt in the wrong unit.
# Every recipe of the figures, `verify`, the tests and the benchmark takes
# under a million.
_MAX_STEPS = 10**9


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


# A line with its newline, or a last line without one: a text of one line
# is matched whole, so np.loadtxt parses it without a copy.
_LINE = re.compile(r".*\n|.+")


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
    def from_file(cls, path: str | Path) -> "InitialCondition":
        # An empty string names no file: Path("") is the working directory.
        return cls(Profile.FROM_FILE, Path(path) if path else None)

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

        A file must hold ``n + 1`` finite values, one per line or all on
        one line (one concentration per node), and is read whole only if
        reading it fits in physical memory.
        """
        if self.profile is Profile.TENT:
            return GridFunction.sample(tent_profile, n)
        if self.profile is Profile.SINE_BUMP:
            return GridFunction.sample(sine_bump_profile, n)
        if self.profile is Profile.UNIFORM:
            return GridFunction(n, np.ones(n + 1))
        # The text and np.loadtxt's parse of it peak under 20 bytes per byte
        # of the file, at values of 2 bytes (one digit and a separator, the
        # fewest a value can take) on one line; the 23-byte values of a CSV
        # take 3.
        text = _read_whole(self.path, 20)
        try:
            lines = (match.group() for match in _LINE.finditer(text))
            # A file without values is the size mismatch below, not a warning.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.atleast_1d(np.loadtxt(lines, dtype=float))
        except ValueError as exc:
            raise InvalidSpec(f"{self.path} is not a list of numbers: {exc}") from None
        if values.ndim > 1:
            raise DimensionMismatch(
                f"{self.path} holds {values.shape[0]} lines x {values.shape[1]} columns; "
                f"grid needs {n + 1} values, one per line or all on one line"
            )
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
    ``allow_unstable`` is set, and with :class:`InvalidSpec` when ``beta``
    or the step count ``t_end / dt`` is not finite, when the run would take
    more than ``_MAX_STEPS`` steps, or when the run's
    arrays (an implicit run's factor and recorded states; an
    explicit run's stencil, FFT buffers and recorded states) would exceed
    physical memory.
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
        if not math.isfinite(self.beta):
            raise InvalidSpec(f"beta = c h^-alpha dt must be finite, got {self.beta}")
        if not math.isfinite(self.t_end / self.dt):
            raise InvalidSpec(f"t_end / dt must be finite, got {self.t_end / self.dt}")
        if self.steps > _MAX_STEPS:
            raise InvalidSpec(f"t_end / dt asks for {self.steps:.10g} steps, "
                              f"more than the {_MAX_STEPS} a run may take")
        times = self.snapshot_times
        if not all(0.0 <= t <= self.t_end for t in times):
            raise InvalidSpec("snapshot times must lie within [0, t_end]")
        if any(a > b for a, b in zip(times, times[1:])):
            raise InvalidSpec("snapshot times must be sorted")
        if self.method is Method.IMPLICIT:
            _require_implicit_fits(self.spec.n, len(times))
        else:
            _require_explicit_fits(self.spec.n, len(times))
        if self.method is Method.EXPLICIT and not self.allow_unstable:
            limit = stability_limit(self.spec.alpha, self.spec.c, self.spec.h)
            if self.dt > limit:
                raise StabilityViolation(
                    f"explicit dt={self.dt} exceeds the stability limit "
                    f"{limit:.6g}; shrink dt, go implicit, or set allow_unstable"
                )

    @property
    def beta(self) -> float:
        """The step's weight on ``B``, ``c h^-alpha dt``."""
        return self.spec.c * self.spec.h**-self.spec.alpha * self.dt

    @property
    def steps(self) -> int:
        """The number of steps the run takes: to ``t_end``, which no
        snapshot lies past."""
        return _step_of(self.t_end, self.dt)


@dataclass(frozen=True)
class TimeSeries:
    """Snapshots of one run plus its mass ledger.

    ``config`` is the run's recipe, requested snapshot times included;
    ``spec`` is its scheme.  ``times`` holds the actual snapshot times (the
    first completed step at or after each requested time; no
    interpolation), ``mass_trace`` the retained mass ``h * sum(u)`` at each
    snapshot, and ``absorbed_cumulative`` the rate-accounted mass removed
    through absorbing boundaries up to then.
    """

    config: SolverConfig
    times: tuple[float, ...]
    snapshots: tuple[GridFunction, ...]
    mass_trace: tuple[float, ...]
    absorbed_cumulative: tuple[float, ...]

    @property
    def spec(self) -> SchemeSpec:
        return self.config.spec

    def __len__(self) -> int:
        return len(self.snapshots)


class _Stepper:
    """One Euler step under ``beta * B``: the update and the ledger.

    The only place the update rule lives.  Built once per run from an
    operator holding ``B`` (the stencil of :mod:`~fracdiff1d.operators`),
    whose O(n) row sums both methods book: explicit steps apply it;
    implicit runs factor ``M = I - beta B`` from it once (see
    :mod:`~fracdiff1d.factor`), so no run holds an (n+1)^2 array.  An
    implicit step copies the state into the stepper's own (n+1) buffer,
    solves there in place and returns a copy.  An absorbing node j needs no
    pin: its zero column of ``B`` makes the explicit update add ``+0.0``
    there, and column j of ``M`` the unit vector, so the solve returns
    ``+0.0`` there, for every finite state that is zero at j.
    """

    def __init__(self, operator, beta: float, method: Method) -> None:
        if not 0.0 <= beta < math.inf:
            raise InvalidSpec(f"beta must be finite and nonnegative, got {beta}")
        n = operator.n
        self.n, self.h, self.beta = n, 1.0 / n, beta
        self.steps = 0
        self.apply = self.solve = None
        if method is Method.IMPLICIT:
            _blas_routines()  # a missing BLAS fails before the factor
            self.state = np.empty(n + 1)
            self.solve = _in_place_solve(_hessenberg_lu(operator, beta), self.state)
        else:
            self.apply = operator.apply
        self.outflow = -operator.row_sums()

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
        if self.solve is None:
            booked = u
            u = u + self.beta * self.apply(u)
        else:
            np.copyto(self.state, u)
            self.solve()
            u = booked = self.state.copy()
        increment = self.beta * self.h * _dot(booked, self.outflow)
        self.steps += 1
        if not math.isfinite(increment):
            raise _non_finite(self.steps)
        return u, increment


def _non_finite(step: int) -> StabilityViolation:
    return StabilityViolation(f"the state or its ledger is no longer finite at step {step}")


class _Dense:
    """A dense :class:`IterationMatrix` behind the operator interface of
    :class:`_Stepper`, for the one-step functions below."""

    def __init__(self, matrix: IterationMatrix) -> None:
        self.n, self.entries = matrix.n, matrix.entries
        self.edges = self.entries[:, :: self.n]

    @functools.cached_property
    def g(self) -> np.ndarray:
        """What the factor reads beyond rows 0 and 1 and columns 0 and n:
        the stencil of the rows below, row 2 from column 1 (its entry in
        column n, the edge, is never read as a weight).

        Raises :class:`InvalidSpec` unless the grid has a row 2 and every
        row ``k >= 2`` is zero left of column ``k - 1`` and that stencil
        shifted from there to column ``n - 1``: the factor could not read
        the matrix.
        """
        n, entries = self.n, self.entries
        if n < 2:
            raise InvalidSpec(f"implicit steps need n >= 2, got n={n}")
        g = entries[2, 1:]
        for k in range(2, n + 1):  # row views: a masked copy would be (n+1)^2
            row = entries[k]
            if row[: k - 1].any() or not np.array_equal(row[k - 1 : n], g[: n - k + 1]):
                raise InvalidSpec("implicit steps need an upper Hessenberg matrix "
                                  f"whose rows from 2 on repeat row 2; row {k} does not")
        return g

    def apply(self, u: np.ndarray) -> np.ndarray:
        return u @ self.entries

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def row(self, k: int) -> np.ndarray:
        return self.entries[k, max(k - 1, 0):]


def explicit_step(u: GridFunction, matrix: IterationMatrix, beta: float) -> GridFunction:
    """One explicit Euler update ``u + beta * (u B)``."""
    return GridFunction(u.n, _Stepper(_Dense(matrix), beta, Method.EXPLICIT).step(u.values)[0])


def implicit_step(u: GridFunction, matrix: IterationMatrix, beta: float) -> GridFunction:
    """One implicit Euler update, solving ``(I - beta B^T) v = u``.

    Factors the system on every call; :func:`run_simulation` factors once
    per run instead.
    """
    return GridFunction(u.n, _Stepper(_Dense(matrix), beta, Method.IMPLICIT).step(u.values)[0])


def _step_of(t: float, dt: float) -> int:
    """The step at which time ``t`` is reached: the first at or after it.
    Integer step indices guard against float-floor surprises near
    ``t / dt``."""
    return max(0, math.ceil(t / dt - 1e-9))


def _steps(config: SolverConfig) -> Iterator[tuple[int, np.ndarray, float]]:
    """The run of ``config`` as a stream: ``(k, u, absorbed)`` for step 0
    and after each step ``k`` to ``config.steps``, the state ``u`` (a fresh
    array, which later steps leave alone) and the cumulative absorbed mass.

    The one time loop of the package.  It keeps no state but the current
    one, whatever its consumer keeps.  Absorbing boundary nodes are zeroed
    in the initial data, the only place mass can reach them; their zero
    columns of ``B`` keep them at zero.  A step whose increment is not
    finite raises :class:`StabilityViolation` (see :meth:`_Stepper.step`);
    a consumer checks the states it reads with :func:`_mass`.  The stream
    runs with numpy's overflow and invalid-value warnings off, and so does
    its consumer between steps: the checks report a blown-up state.
    """
    spec = config.spec
    n = spec.n
    absorbing = [node for node, side in ((0, spec.left), (n, spec.right))
                 if side is BoundaryCondition.ABSORBING]
    # Sampled before the factor exists: a profile's read is bounded alone.
    u = config.initial.sample(n).values.copy()
    u[absorbing] = 0.0
    stepper = _Stepper(_stencil(spec), config.beta, config.method)
    absorbed = 0.0
    # Overflow is reported by the non-finite checks, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        yield 0, u, absorbed
        for k in range(1, config.steps + 1):
            u, increment = stepper.step(u)
            absorbed += increment
            yield k, u, absorbed


def _mass(u: np.ndarray, h: float, step: int) -> float:
    """The retained mass ``h * sum(u)`` of the state at ``step``, the
    check on every state a consumer of :func:`_steps` reads: one that is
    not finite raises :class:`StabilityViolation`."""
    mass = h * float(u.sum())
    if not math.isfinite(mass):
        raise _non_finite(step)
    return mass


def run_simulation(config: SolverConfig) -> TimeSeries:
    """Advance the scheme to ``t_end``, recording snapshots and the ledger.

    The operator is built in O(n) memory and (for implicit runs) factored
    once, one row at a time; the steps are those of the run's stream
    (:func:`_steps`), of which only the snapshots are kept.
    Snapshots are taken at the first completed step with
    ``t >= requested``; the actual times are recorded.  A state
    that turns non-finite raises :class:`StabilityViolation` before any
    later snapshot is recorded.
    """
    n, h, dt = config.spec.n, config.spec.h, config.dt
    snap_steps = [_step_of(t, dt) for t in config.snapshot_times]

    times: list[float] = []
    snapshots: list[GridFunction] = []
    mass_trace: list[float] = []
    absorbed_trace: list[float] = []
    next_snap = 0

    for k, u, absorbed in _steps(config):
        while next_snap < len(snap_steps) and snap_steps[next_snap] == k:
            mass_trace.append(_mass(u, h, k))
            times.append(k * dt)
            snapshots.append(GridFunction(n, u))
            absorbed_trace.append(absorbed)
            next_snap += 1

    return TimeSeries(
        config=config,
        times=tuple(times),
        snapshots=tuple(snapshots),
        mass_trace=tuple(mass_trace),
        absorbed_cumulative=tuple(absorbed_trace),
    )
