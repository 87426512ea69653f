r"""Euler time stepping with a mass ledger.

Explicit update (row-vector convention):
:math:`\mathbf{u}_{k+1} = \mathbf{u}_k + \beta \mathbf{u}_k B` with
:math:`\beta = C h^{-\alpha} \Delta t`, stable for
:math:`\Delta t < h^\alpha / (C \alpha)`.  Implicit update:
:math:`(I - \beta B^T)\, \mathbf{u}_{k+1}^T = \mathbf{u}_k^T`,
unconditionally stable.  Every ``B`` is upper Hessenberg
(:math:`b_{ij} = 0` for :math:`i > j + 1`), so the implicit update is solved
in row form :math:`\mathbf{u}_{k+1} M = \mathbf{u}_k` with
:math:`M = I - \beta B = L U` factored without pivoting: ``L`` is unit lower
bidiagonal (one multiplier per row) and ``U`` upper triangular.  The factor
is built one row of ``B`` at a time into ``(n+1)(n+2)/2`` floats, half a
dense matrix, in blocks of 1024 rows: each block's diagonal triangle in
BLAS packed storage, then its rectangle to the right as a dense array.  It
costs O(n^2), and each step one packed triangular solve per block, one
matrix-vector product per block but the last (numpy's threaded ``dgemv``)
and one bidiagonal solve.  The two triangular routines, ``dtpsv`` and
``dtbsv``, are bound once through ctypes, by address, from one of two
sources: the OpenBLAS that numpy's wheels bundle, so no run imports scipy,
or, where numpy's BLAS lacks them, scipy's ``cython_blas``.
For the Riemann-Liouville and Patie-Simon schemes ``M`` is a row diagonally
dominant Z-matrix, so the growth factor is at most 2; a pivot check still
runs for every scheme.

Both updates live in one private stepper, built once per run from the O(n)
stencil form of ``B``, ``beta`` and the method: it holds ``beta``, the
outflow vector (from the stencil's row sums), and either the stencil's
apply (explicit) or the single factorization of ``M`` that every step
reuses (implicit).  Each step returns the new state and the mass absorbed
during it.

A run keeps two independently computed accounts: the retained mass
:math:`M_k = h \sum_j u_j` measured from the state, and the cumulative
absorbed mass accumulated from the per-node absorption rates, the
negated row sums of ``B``.  For the Riemann-Liouville and Patie-Simon schemes the two
must reconcile: ``mass + absorbed == initial mass`` up to roundoff.

A NaN or inf anywhere in the state makes both accounts non-finite, so
checking the per-step increment and each snapshot mass catches a blown-up
run in O(1): it raises :class:`~fracdiff1d.errors.StabilityViolation`
naming the step (the CLI reports it on one ``error:`` line, exit code 1,
and writes no file).
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    FracDiffError,
    InvalidSpec,
    SingularSystem,
    StabilityViolation,
)
from .grunwald import GridFunction
from .operators import (
    BoundaryCondition,
    IterationMatrix,
    SchemeSpec,
    _read_whole,
    _require_explicit_fits,
    _require_implicit_fits,
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
        values (one concentration per node), and is read whole only if
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
            values = np.atleast_1d(np.loadtxt(lines, dtype=float))
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
    ``allow_unstable`` is set, and with :class:`InvalidSpec` when the run's
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
    implicit runs read its rows into the blocked factor of
    ``M = I - beta B = L U`` without pivoting (see :func:`_layout`), which
    every :meth:`step` reuses, so no run holds an (n+1)^2 array.  An
    implicit step copies the state into the stepper's own (n+1) buffer,
    solves there in place and returns a copy: only the factor and that
    buffer, which the bound solve holds, reach the two BLAS routines, bound
    by address from either source (see :func:`_blas_routines`); the
    trailing updates of a factor of several blocks go through numpy, into
    scratch that the bound solve holds too.  An absorbing node j needs no
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
            self.solve = _in_place_solve(*_hessenberg_lu(operator, beta), self.state)
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
        increment = self.beta * self.h * float(booked @ self.outflow)
        self.steps += 1
        if not math.isfinite(increment):
            raise _non_finite(self.steps)
        return u, increment


@functools.cache
def _blas_routines():
    """``dtpsv`` and ``dtbsv``, the packed and the band triangular solve of
    the Fortran interface, and the C integer type they take, found once per
    process.

    Every argument of both is an address.  They come from the OpenBLAS that
    numpy's wheels bundle, with 64-bit integers, looked up through numpy's
    linear-algebra extension, which links it, so no run imports scipy; or,
    where numpy's BLAS lacks them (a numpy built against another BLAS), from
    the capsules of scipy's ``cython_blas``, with C ``int``.  With neither,
    :class:`FracDiffError`.
    """
    names = "dtpsv", "dtbsv"
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        addresses = [ctypes.cast(library[f"scipy_{routine}_64_"], ctypes.c_void_p).value
                     for routine in names]
        integer = ctypes.c_int64
    except (OSError, AttributeError):  # not loadable, or without these symbols
        try:
            from scipy.linalg.cython_blas import __pyx_capi__ as capsules
        except ImportError:
            raise FracDiffError("implicit steps need numpy's bundled OpenBLAS or scipy, "
                                "and neither was found: pip install scipy") from None
        # Fresh function objects: ctypes.pythonapi's are shared by the process.
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        addresses = [pointer(capsules[routine], name(capsules[routine]))
                     for routine in names]
        integer = ctypes.c_int
    tpsv, tbsv = (ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * count)(address)
                  for address, count in zip(addresses, (7, 9)))
    return tpsv, tbsv, integer


def _in_place_solve(packed, band, x):
    """A call that overwrites ``x`` (``u`` in, ``v`` out) with the solution
    of ``v L U = u``, for the factors of :func:`_hessenberg_lu`.

    For each block ``[a, b)`` of :func:`_layout`, in order: ``dtpsv``
    (lower, non-unit) on its triangle and ``x[a:b]``, in place, then, but
    for the last block, the trailing update ``x[b:] -= x[a:b] @ U[a:b, b:]``,
    a matrix-vector product by numpy's BLAS (threaded ``dgemv``) into
    scratch that the call holds.  Then one ``dtbsv`` (upper, unit, one
    superdiagonal) solves ``L^T v = w``.  The call holds the three
    column-major float64 arrays it is bound to.
    """
    size = x.size
    # BLAS reads and writes through raw addresses: a wrong array would
    # corrupt memory, not raise.
    for array, shape in ((packed, (size * (size + 1) // 2,)), (band, (2, size)),
                         (x, (size,))):
        if (array.shape != shape or array.dtype != np.float64
                or not array.flags.f_contiguous):
            raise ValueError("the solve takes column-major float64 arrays "
                             "sized for one grid")
    tpsv, tbsv, integer = _blas_routines()
    # Fortran takes every argument by address: the options from one byte
    # string, each integer k from entry k of a table of 0 .. size.  Each
    # pointer holds its array, so the calls keep both alive.
    options, counts = np.frombuffer(b"LNU", np.uint8), np.arange(size + 1, dtype=integer)
    lower, no, upper = (_address(options[i:]) for i in range(3))
    one, two, order = (_address(counts[k:]) for k in (1, 2, size))
    scratch = np.empty(max(size - _BLOCK, 0))  # the first rectangle's width
    calls = []
    for a, b, triangle, rectangle in _layout(packed, size):
        calls.append(functools.partial(tpsv, lower, no, no, _address(counts[b - a :]),
                                       _address(triangle), _address(x[a:b]), one))
        if b < size:
            calls.append(functools.partial(
                _trailing_update, x[a:b], rectangle, x[b:], scratch[: size - b]))
    calls.append(functools.partial(tbsv, upper, no, upper, order, one, _address(band),
                                   two, _address(x), one))

    def solve() -> None:
        for call in calls:
            call()

    return solve


def _address(array) -> ctypes.c_void_p:
    """A pointer to ``array``'s first element that holds the array."""
    return array.ctypes.data_as(ctypes.c_void_p)


def _trailing_update(solved, rectangle, rest, scratch) -> None:
    np.matmul(solved, rectangle, out=scratch)
    np.subtract(rest, scratch, out=rest)


# Rows of ``U`` in each block of its storage (see _layout).
_BLOCK = 1024


def _layout(packed: np.ndarray, size: int):
    """The blocks of ``U``'s storage, as views ``(a, b, triangle, rectangle)``.

    ``U``, of ``size`` rows, is stored in ``(n+1)(n+2)/2`` floats, blocks of
    ``_BLOCK`` rows ``[a, b)`` laid end to end.  A block holds first its
    diagonal triangle, the rows ``U[k, k:b]`` end to end, which is that
    triangle's transpose in BLAS lower packed storage, then its rectangle
    ``U[a:b, b:]``, row-major.  A grid of at most ``_BLOCK`` nodes is one
    block: a packed triangle and an empty rectangle.
    """
    start = 0
    for a in range(0, size, _BLOCK):
        b = min(a + _BLOCK, size)
        middle = start + (b - a) * (b - a + 1) // 2
        end = middle + (b - a) * (size - b)
        yield a, b, packed[start:middle], packed[middle:end].reshape(b - a, size - b)
        start = end


def _hessenberg_lu(operator, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``M = I - beta B = L U`` without pivoting, one row at a time.

    ``B`` is upper Hessenberg, so row ``k`` of ``U`` is row ``k`` of ``M``
    less the multiplier ``m_{k,k-1} / u_{k-1,k-1}`` times row ``k - 1`` of
    ``U``: one row axpy, written in the layout of :func:`_layout`, one piece
    in the triangle and one in the rectangle of its block.  Rows 0 and 1 of
    ``B`` come from ``operator.row``; each later row is the stencil
    ``operator.g`` (``b_kj = g_{j-k+1}``) with ``operator.edges[:, 1]`` in
    column ``n``, both scaled by ``-beta`` once, so a row costs two array
    calls a piece, and its diagonal and column ``n`` are computed as
    scalars.  Returns ``U`` in that layout, ``(n+1)(n+2)/2`` floats, and the
    multipliers of ``L`` as the band of the unit upper bidiagonal ``L^T``.
    A non-finite factor or a zero pivot raises :class:`SingularSystem`.
    """
    n = operator.n
    size = n + 1
    packed = np.empty(size * (size + 1) // 2)
    band = np.zeros((2, size), order="F")
    multipliers = band[0]
    with np.errstate(all="ignore"):  # an overflow fails the health check
        g, edge = operator.g * -beta, operator.edges[:, 1] * -beta
        sub, diagonal_of_stencil = g.item(0), g.item(1) + 1.0
        try:
            for a, b, triangle, rectangle in _layout(packed, size):
                wide = b < size
                if a:  # the last row above, split at this block's end
                    above, beyond = last[: b - a], last[b - a :]
                start = 0
                for k in range(a, min(b, n)):
                    near = triangle[start : start + b - k]
                    start += b - k
                    if k >= 2:
                        multiplier = sub / pivot
                        diagonal, source = diagonal_of_stencil, g[1 : size - k + 1]
                    else:  # rows 0 and 1 may be patched: row(k) is from column 0
                        row = operator.row(k) * -beta
                        if k == 0:
                            near[:], rectangle[0] = row[:b], row[b:]
                            near[0] = pivot = row.item(0) + 1.0
                            corner = row.item(-1)
                            above, beyond = near[1:], rectangle[0]
                            continue
                        multiplier = row.item(0) / pivot
                        diagonal, source = row.item(1) + 1.0, row[1:]
                    multipliers[k] = multiplier
                    top = above.item(0)
                    if wide:
                        far = rectangle[k - a]
                        np.subtract(source[b - k :], multiplier * beyond, out=far)
                        source, beyond = source[: b - k], far
                    np.subtract(source, multiplier * above, out=near)
                    above = near[1:]
                    near[0] = pivot = diagonal - multiplier * top
                    # Column n: the edge, not the stencil's next weight.
                    corner = edge.item(k) - multiplier * corner
                    (far if wide else near)[-1] = corner
                last = rectangle[-1]
            multipliers[n] = multiplier = sub / pivot
            triangle[-1] = pivot = (edge.item(n) + 1.0) - multiplier * corner
        except ZeroDivisionError:  # a zero pivot: multipliers are Python floats
            pivot = 0.0
        # min and max propagate NaN and, unlike isfinite, need no n^2 mask.
        healthy = (pivot != 0.0 and math.isfinite(packed.min())
                   and math.isfinite(packed.max()) and np.isfinite(band).all())
    if not healthy:
        raise SingularSystem("implicit system matrix is numerically singular")
    return packed, band


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
        column n stands in for a weight that the factor overwrites).

        Raises :class:`InvalidSpec` unless every row ``k >= 2`` is zero left
        of column ``k - 1`` and that stencil shifted from there to column
        ``n - 1``: the factor could not read the matrix.
        """
        n, entries = self.n, self.entries
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


def run_simulation(config: SolverConfig) -> TimeSeries:
    """Advance the scheme to ``t_end``, recording snapshots and the ledger.

    The operator is built in O(n) memory and (for implicit runs) factored
    once, one row at a time.
    Snapshots are taken at the first completed step with
    ``t >= requested``; the actual times are recorded.  Absorbing boundary
    nodes are zeroed in the initial data, the only place mass can reach
    them; their zero columns of ``B`` keep them at zero.  A state
    that turns non-finite raises :class:`StabilityViolation` before any
    later snapshot is recorded.
    """
    spec = config.spec
    n, h, dt = spec.n, spec.h, config.dt
    absorbing = [node for node, side in ((0, spec.left), (n, spec.right))
                 if side is BoundaryCondition.ABSORBING]
    # Sampled before the factor exists: a profile's read is bounded alone.
    u = config.initial.sample(n).values.copy()
    u[absorbing] = 0.0
    stepper = _Stepper(_stencil(spec), spec.c * h**-spec.alpha * dt, config.method)

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
        config=config,
        times=tuple(times),
        snapshots=tuple(snapshots),
        mass_trace=tuple(mass_trace),
        absorbed_cumulative=tuple(absorbed_trace),
    )
