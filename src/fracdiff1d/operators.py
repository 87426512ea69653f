r"""Iteration matrices for every derivative form / boundary combination.

The semi-discrete diffusion problem on the unit-interval grid is advanced by
the explicit Euler update (row-vector convention)

.. math:: \mathbf{u}_{k+1} = \mathbf{u}_k + \beta\, \mathbf{u}_k B,
          \qquad \beta = C h^{-\alpha} \Delta t,

where the entry :math:`b_{ij}` of the :math:`(n+1)\times(n+1)` matrix
:math:`B` is the rate at which mass moves from node :math:`i` to node
:math:`j`.  :math:`B` holds pure rates; the factor :math:`\beta` is applied
by the time stepper, never baked in here.

All nine supported cases share an upper-Hessenberg interior built from the
Grünwald weights (:math:`b_{ij} = g^\alpha_{j-i+1}`, zero for
:math:`i > j + 1`, so mass moves at most one step left) and differ in their boundary rows/columns:

* absorbing at a boundary zeroes the corresponding column, deleting from the
  system any mass scheduled to land on or beyond that node;
* reflecting retains that mass at the boundary node, using the cumulative
  identity :math:`\sum_{j=0}^{m} g^\alpha_j = g^{\alpha-1}_m` to collapse
  the tail of jumps that would overshoot;
* the Patie-Simon form replaces the first row by
  :math:`b_{0j} = -g^{\alpha-1}_j`, and the Caputo form additionally
  redistributes a :math:`g^{\alpha-2}` correction between rows 0 and 1
  (which is what breaks its positivity).

The Caputo form is only defined here with absorbing boundaries on both
sides; no scheme exists for Caputo with a reflecting boundary.

The case table produces one private structured form, held in O(n) memory:
the weights of the shared stencil plus the boundary columns and the
replaced rows.  Runs and the ``verify`` checks of ``B`` use only that
form.  Runs take its row sums in O(n):
explicit steps apply it by :class:`_Convolution` (FFT from n = 512 up),
and implicit runs factor ``I - beta B`` from it (see :mod:`~fracdiff1d.factor`).
:func:`build_matrix` is its dense, immutable expansion, which serves the
``matrix`` command and the tests, as their oracle.  A grid whose state
vector alone would exceed physical memory is rejected for every use; one
whose dense matrix would is rejected by dense expansion; a run is rejected
when its arrays would: an explicit run's stencil, FFT buffers and recorded
states, an implicit run's factor and recorded states.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, UnsupportedCombination
from .grunwald import DerivativeForm, _frozen, grunwald_weights

__all__ = [
    "BoundaryCondition",
    "IterationMatrix",
    "SchemeSpec",
    "build_matrix",
]


def _physical_memory() -> int:
    """Bytes of physical memory, or the address-space limit where the
    platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return sys.maxsize


# A grid whose (n+1) float64 state alone exceeds this cannot run; one whose
# dense (n+1)^2 matrix does cannot be expanded; a run must fit its arrays
# (see _require_explicit_fits and factor._require_implicit_fits).
_MEMORY_BYTES = _physical_memory()


# Floats that every run and command holds beside the arrays its check
# counts: the CSV chunk in flight (1024 rows, under 32 floats a row for the
# row strings, the joined chunk, its encoded bytes and the file's buffers;
# see cli.emit_timeseries_csv), numpy's ufunc buffer (8192 floats) and what
# the argument parse leaves.  Sized from traced peaks of the commands.
_OVERHEAD_FLOATS = 2**15 + 2**13

# Floats each recorded state costs beside its n + 1 values: its time, mass
# and ledger entries as Python floats in tuples, its GridFunction and array
# headers (about 42 floats together), and at the peak, while the meta JSON
# is encoded, its four numbers as the encoder's chunks and text (about 59).
# Traced: 97-101 a state, from 2000 to 16000 states of 17-digit times.
_SNAPSHOT_FLOATS = 2**7


def _require_fits(size: str, entries: int, what: str,
                  overhead: int = _OVERHEAD_FLOATS) -> None:
    """Reject ``entries`` float64 values beside ``overhead`` more that would
    exceed physical memory; ``size`` names the input that asked for them,
    e.g. ``n=40000``."""
    if 8 * (entries + overhead) > _MEMORY_BYTES:
        raise InvalidSpec(
            f"{size} is too large: {what} would exceed the "
            f"{_MEMORY_BYTES / 2**30:.1f} GiB of physical memory"
        )


def _read_whole(path: Path, bytes_per_byte: int) -> str:
    """The UTF-8 text of the file, pipe or device at ``path``, if holding
    and parsing it, at ``bytes_per_byte`` bytes of memory per byte, fits in
    physical memory beside the fixed allowance; :class:`InvalidSpec`
    otherwise, and for bytes that are no such text.  The bound is on the
    bytes read, one more than fit at most, so a pipe or a device, which
    reports no size, is bounded too."""
    fits = (8 * (_MEMORY_BYTES // 8 - _OVERHEAD_FLOATS) + 7) // bytes_per_byte
    chunks, read = [], 0
    with open(path, "rb") as file:
        # 64 KiB a read: a read reserves all the bytes it asks for.
        while read <= fits and (chunk := file.read(min(fits + 1 - read, 2**16))):
            chunks.append(chunk)
            read += len(chunk)
    # Raises exactly when more than ``fits`` bytes were read.
    _require_fits(f"{path} (over {fits} bytes)", bytes_per_byte * read // 8,
                  "reading it whole")
    try:
        text = b"".join(chunks).decode()
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"{path} is not UTF-8 text: {exc}") from None
    # Universal newlines, as a file opened as text reads them.
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _require_dense_fits(n: int) -> None:
    """Reject a grid whose dense (n+1)^2 float64 matrix would exceed
    physical memory, counting beside it under 16 (n+1) floats for the
    stencil it is filled from or for one row of its CSV text."""
    _require_fits(f"n={n}", (n + 1) * (n + 17), "one dense (n+1)^2 matrix")


def _require_explicit_fits(n: int, states: int) -> None:
    """Reject an explicit run and its CSV emit whose memory would exceed
    physical memory: ``states`` recorded states with their bookkeeping
    (``_SNAPSHOT_FLOATS`` each), the stencil with its patches and one
    step's work arrays (under 12 (n+1)), and the transform of ``g`` plus
    one step's transform and product (three periods of the window of
    :meth:`_Stencil.apply`).  The emit reuses
    the last two: the ``x`` column's text and one state's values as Python
    objects take under 14 (n+1)."""
    _require_fits(f"n={n}", 12 * (n + 1) + states * (n + 1 + _SNAPSHOT_FLOATS)
                  + 3 * _period(2 * n + 1), f"an explicit run recording {states} states")


class BoundaryCondition(enum.Enum):
    """Absorbing removes boundary-bound mass; reflecting retains it."""

    ABSORBING = "absorbing"
    REFLECTING = "reflecting"


@dataclass(frozen=True)
class SchemeSpec:
    """Full identity of a discrete problem: derivative form, boundary pair,
    order ``alpha`` in (1, 2), diffusivity ``c`` > 0, and grid size ``n``."""

    form: DerivativeForm
    left: BoundaryCondition
    right: BoundaryCondition
    alpha: float
    c: float
    n: int

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise InvalidSpec(f"alpha must lie strictly in (1, 2), got {self.alpha}")
        if not 0.0 < self.c < math.inf:
            raise InvalidSpec(f"diffusivity must be positive and finite, got {self.c}")
        if not isinstance(self.n, numbers.Integral):
            raise InvalidSpec(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise InvalidSpec(f"need n >= 2 so interior nodes exist, got {self.n}")
        _require_fits(f"n={self.n}", self.n + 1, "one (n+1) state vector", overhead=0)
        if self.form is DerivativeForm.CAPUTO and (
            self.left is BoundaryCondition.REFLECTING
            or self.right is BoundaryCondition.REFLECTING
        ):
            raise UnsupportedCombination(
                "no scheme is defined for the Caputo form with a reflecting boundary"
            )

    @property
    def h(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class IterationMatrix:
    """Dense rate matrix; ``entries[i, j]`` moves mass from node i to node j."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frozen(
            self.entries, (self.n + 1, self.n + 1),
            "expected shape {expected}, got {got}"))

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "IterationMatrix":
        """Freeze a fresh square float array that no caller holds, without
        the copy :meth:`__post_init__` makes of arrays passed in."""
        entries.flags.writeable = False
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "n", entries.shape[0] - 1)
        object.__setattr__(matrix, "entries", entries)
        return matrix


# Below this n, np.convolve beats numpy's ~10 us per-FFT floor.
_FFT_MIN_N = 512


@functools.cache
def _period(minimum: int) -> int:
    """The least of 4, 5, 6 and 8 times a power of two that is at least
    ``minimum``: three 5-smooth periods an octave, which numpy's FFT
    transforms about as fast per entry as powers of two.  A period is at
    most 4/3 of its minimum, and the periods up to any ``P`` sum to under
    4.75 ``P``, so the transforms of :class:`_Convolution`, one a period
    used, take under 4.75 times its largest period in floats."""
    step = 1 << max(0, minimum.bit_length() - 3)
    return min(k * step for k in (4, 5, 6, 8) if k * step >= minimum)


# The most entries one BLAS dot product of a step sums: OpenBLAS threads
# ``ddot`` past 10,000 entries, and a threaded sum's order, so its bits,
# depends on the thread count.
_DOT_CHUNK = 8192


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x @ y`` for two vectors, as the partial sums of ``dot`` over
    chunks of at most ``_DOT_CHUNK`` entries, added in order: its bits do
    not depend on the BLAS thread count.  Vectors of at most
    ``_DOT_CHUNK`` entries take one ``dot``, the same ``ddot`` as
    ``x @ y`` in half its call overhead."""
    if x.size <= _DOT_CHUNK:
        return float(x.dot(y))
    total = 0.0
    for start in range(0, x.size, _DOT_CHUNK):
        total += float(x[start : start + _DOT_CHUNK].dot(y[start : start + _DOT_CHUNK]))
    return total


class _Convolution:
    """Windows of the linear convolution ``x * kernel`` of a fixed
    ``kernel``, entry ``m`` the sum of ``x[i] kernel[m - i]``: its first
    ``near`` lags directly, the rest by one FFT product at a period ``P``
    of :func:`_period`, with the transform of ``kernel[:P]``, its first
    ``near`` entries zeroed, that :attr:`transforms` keeps for each period
    used.  An FFT product's roundoff scales with the largest entry it
    transforms, so lags with large entries go in ``near``.

    The window ``[first, end)`` reads only ``x[:end]`` and ``kernel[:end]``
    and is alias-free at ``P = _period(max(end, x.size + min(kernel.size,
    end) - 1 - first))``: entry ``m < P`` of the circular convolution of
    ``x[:P]`` and ``kernel[:P]`` adds to entry ``m`` of the linear one its
    entries ``m + P``, ``m + 2P``, ..., zero from ``x.size +
    min(kernel.size, P) - 1`` on, so for every ``m >= first`` when
    ``kernel.size <= end`` or ``first >= x.size - 1``.  :meth:`window`
    refuses any other window.
    """

    def __init__(self, kernel: np.ndarray, near: int = 0) -> None:
        self.kernel, self.near = kernel, near
        self.transforms: dict[int, np.ndarray] = {}

    def window(self, x: np.ndarray, first: int, count: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """Entries ``[first, first + count)`` of ``x * kernel``, fresh, or
        added to ``out``, the near lags' share first, and ``out``
        returned."""
        kernel, near, end = self.kernel, self.near, first + count
        if first < x.size - 1 and kernel.size > end:
            raise ValueError(f"the window [{first}, {end}) would alias")
        period = _period(max(end, x.size + min(kernel.size, end) - 1 - first))
        if period not in self.transforms:
            lags = kernel[:period].copy()
            lags[:near] = 0.0
            self.transforms[period] = np.fft.rfft(lags, period)
        if near:
            start = max(first - near + 1, 0)
            direct = np.convolve(x[start:end], kernel[:near])[first - start : end - start]
            out = np.zeros(count) if out is None else out
            out[: direct.size] += direct
        far = np.fft.irfft(np.fft.rfft(x, period) * self.transforms[period], period)[first:end]
        return far if out is None else np.add(out, far, out=out)


class _Stencil:
    """``B`` in O(n) memory: the shared Grünwald stencil plus the boundary
    patches of one case.

    ``b_ij = g_{j-i+1}`` (zero for ``i > j + 1``) in the interior columns
    ``0 < j < n``, except in the first ``len(head)`` rows, whose interior
    entries ``head`` holds (Patie-Simon, Caputo).  ``edges`` holds columns
    0 and ``n``.
    """

    def __init__(self, g: np.ndarray, head: np.ndarray, edges: np.ndarray) -> None:
        self.n = n = len(g) - 1
        self.g, self.head, self.edges = g, head, edges
        self.pad = np.zeros(n - 1 + len(head))

    @functools.cached_property
    def convolution(self) -> _Convolution:
        """The convolution with ``g`` of :meth:`apply` from ``_FFT_MIN_N``
        up (implicit runs never take it)."""
        return _Convolution(self.g)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """``u B``: the stencil rows convolve ``u`` with ``g``, in O(n log n)
        by :attr:`convolution` from ``_FFT_MIN_N`` up; the patches add O(n)
        dot products."""
        n, rows = self.n, len(self.head)
        # Entry j of u B, 0 < j < n, is entry j + 1 of the convolution of u
        # with g, and so entry n + j of that of a = (0 * (n - 1), u, 0) with
        # g; "valid" yields entries n .. 2n, one per node.  Zeroing (not
        # dropping) the head rows keeps one sum order for all cases, so
        # schemes that differ only in rows without mass step bit for bit
        # alike.
        a = np.concatenate((self.pad, u[rows:], (0.0,)))
        if n < _FFT_MIN_N:
            out = np.convolve(a, self.g, "valid")
        else:
            out = self.convolution.window(a, n, n + 1)
        # Matrix-vector products, not dot products: OpenBLAS's threaded
        # dgemv gives each thread whole entries of the product, so their
        # bits do not depend on the thread count (see _dot).
        if rows:
            out[1:n] += u[:rows] @ self.head
        out[::n] = u @ self.edges
        return out

    def row_sums(self) -> np.ndarray:
        """Per-row totals of ``B`` in O(n), from prefix sums of ``g``."""
        n, rows = self.n, len(self.head)
        prefix = np.cumsum(self.g)
        sums = np.empty(n + 1)
        # Row i >= 2 meets g_0 .. g_{n-i} in columns 0 < j < n; rows 0 and
        # 1 start at g_2 and g_1.
        sums[2:] = prefix[n - 2 :: -1]
        sums[1] = prefix[n - 1] - prefix[0]
        sums[0] = prefix[n] - prefix[1]
        sums += self.edges.sum(axis=1)
        # Patched rows have no prefix structure (Caputo's grow like
        # n^(2-alpha)): sum each whole row in the order of a dense row.
        sums[:rows] = np.column_stack(
            (self.edges[:rows, 0], self.head, self.edges[:rows, 1])).sum(axis=1)
        return sums

    def row(self, k: int) -> np.ndarray:
        """A fresh row ``k`` of ``B`` from column ``max(k - 1, 0)`` on, the
        part of the row that is not structurally zero."""
        n, g = self.n, self.g
        if k < 2:
            row = np.empty(n + 1)
            row[0] = self.edges[k, 0]
            row[1:n] = self.head[k] if k < len(self.head) else g[2 - k : n + 1 - k]
        else:
            row = np.empty(n + 2 - k)
            row[:-1] = g[: n + 1 - k]
        row[-1] = self.edges[k, 1]
        return row

    def dense(self) -> np.ndarray:
        """A fresh, writable dense ``B``, filled row by row from :meth:`row`."""
        B = np.zeros((self.n + 1, self.n + 1))
        for k in range(self.n + 1):
            B[k, max(k - 1, 0):] = self.row(k)
        return B


def _stencil(spec: SchemeSpec) -> _Stencil:
    """The case table: the patches of each of the nine supported cases.

    Entries come from the weight sequences of orders ``alpha``,
    ``alpha - 1`` and ``alpha - 2`` only; every boundary column is zero
    (absorbing) unless a reflecting patch fills it.
    """
    n, alpha = spec.n, spec.alpha
    g = grunwald_weights(alpha, n).values
    g1 = grunwald_weights(alpha - 1.0, n).values
    g2 = grunwald_weights(alpha - 2.0, n).values
    reflect_left = spec.left is BoundaryCondition.REFLECTING
    reflect_right = spec.right is BoundaryCondition.REFLECTING
    head = np.zeros((0, n - 1))
    edges = np.zeros((n + 1, 2))  # columns 0 and n

    if spec.form is DerivativeForm.RIEMANN_LIOUVILLE:
        if reflect_left:
            edges[:2, 0] = 1.0 - alpha, 1.0
        if reflect_right:
            # b_in = -g^{alpha-1}_{n-i}: all mass overshooting x = 1 lands there.
            edges[:, 1] = -g1[n::-1]
    elif spec.form is DerivativeForm.PATIE_SIMON:
        # The first row is -g^{alpha-1}_j instead of the stencil.
        head = -g1[1:n][None, :]
        if reflect_left:
            edges[:2, 0] = -1.0, 1.0
        if reflect_right:
            # Zeroing the left column leaves the rest of the reflecting
            # matrix unchanged, so b_0n keeps its sign either way; with an
            # absorbing left boundary row 0 never carries mass anyway.
            edges[1:, 1] = -g1[n - 1 :: -1]
            edges[0, 1] = g2[n - 1]
    else:  # Caputo, absorbing/absorbing only (guaranteed by SchemeSpec).
        # Rows 0 and 1 carry the g^{alpha-2} correction.
        head = np.stack([-g1[1:n] + g2[2 : n + 1], g[1:n] - g2[2 : n + 1]])

    return _Stencil(g, head, edges)


def build_matrix(spec: SchemeSpec) -> IterationMatrix:
    """Assemble the dense iteration matrix for one of the nine supported
    cases.

    Interior columns (``0 < j < n``) carry the Grünwald stencil; the first
    and last columns and, for the Patie-Simon and Caputo forms, the first
    rows implement the boundary conditions (see :func:`_stencil`).  Runs
    never build it; it serves the ``matrix`` command and as the oracle.
    A grid whose dense matrix would exceed physical memory raises
    :class:`InvalidSpec`.
    """
    _require_dense_fits(spec.n)
    return IterationMatrix._adopt(_stencil(spec).dense())
