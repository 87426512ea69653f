r"""The factor of the implicit system and its in-place solve.

Every ``B`` is upper Hessenberg, so :math:`M = I - \beta B = L U` is
factored without pivoting: ``L`` is unit lower bidiagonal (one multiplier
per row) and ``U`` upper triangular.  The factor is built one row of ``B``
at a time, each by one row operation that carries column ``n``, in O(n^2)
and one pass.  Below the interior's Toeplitz structure the elimination
reaches a fixed point: from some row ``K`` on, every row of ``U`` repeats
the one above it shifted, bit for bit (the finite-precision form of the
convergence of a Toeplitz LU to its Wiener-Hopf factor).  Of the rows
above ``K``, the head, only the diagonal triangles of blocks of 512 rows
are stored, each in BLAS packed storage: under ``257 (n+1)`` floats.  With
512 rows or more past ``K`` the rest, the tail, is kept in O(n) floats and
solved as one causal convolution by FFT; otherwise the triangles run to
row ``n``.

The rest of ``U`` is not stored: ``L`` is bidiagonal, so the rows above
any split ``a`` are ``U[:a] = L_a^{-1} M[:a]``, ``L_a`` the leading
``a x a`` block of ``L``, and a solved ``w[:a]`` reaches the columns past
``a`` as ``w[:a] U[:a, a:] = z M[:a, a:]`` with ``z L_a = w[:a]``.  Each
step takes, per block after the first, that coupling into the block's
columns, then one packed triangular solve; with a tail, the head's
coupling into it and its convolution; then one bidiagonal solve.  A
coupling is one bidiagonal solve for ``z`` and its product with the
stencil of ``M``, a window of one convolution (see
:class:`~fracdiff1d.operators._Convolution`) that every coupling shares:
its large entries, lags 1 to 64, which reach only the 64 columns past
``a`` from the 64 rows above it, directly, and its small entries past lag
64 by FFT, in O(c log c) for a window ending at column ``c``.  No step
calls a threaded BLAS reduction, so no output's bits depend on the thread
count: OpenBLAS threads ``ddot`` past 10,000 entries, and the dot
products with column ``n`` sum chunks of at most 8192 (see
:func:`~fracdiff1d.operators._dot`).  The two triangular routines,
``dtpsv`` and ``dtbsv``, are bound once through ctypes, by address, from
one of two sources: the OpenBLAS that numpy's wheels bundle, so no run
imports scipy, or, where numpy's BLAS lacks them, scipy's
``cython_blas``.  For the Riemann-Liouville and
Patie-Simon schemes ``M`` is a row diagonally dominant Z-matrix, so the
growth factor is at most 2; a pivot check still runs for every scheme.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import FracDiffError, SingularSystem
from .operators import _FFT_MIN_N, _SNAPSHOT_FLOATS, _Convolution, _dot, _period, _require_fits

# Rows of ``U`` in each block of the factor (see _blocks).
_BLOCK = 512
# The lags of the stencil that a coupling sums directly (see
# _Coupling.product): lags 1 .. _NEAR.  The lags past _NEAR, whose entries
# decay like k^(-1-alpha), go by FFT.  Summed by FFT over every lag, figure
# 2's last state at n = 4000 ended 2.9e-12 from a dense LU's, against
# 1.1e-13 for a direct product.  64 leaves a margin.
_NEAR = 64


def _require_implicit_fits(n: int, states: int) -> None:
    """Reject an implicit run and its CSV emit whose memory would exceed
    physical memory: the factor ``U`` of ``I - beta B``, the diagonal
    triangles of its blocks of ``_BLOCK`` rows, under ``257 (n+1)`` floats
    (see :func:`_blocks`), plus ``states`` recorded states with their
    bookkeeping (``_SNAPSHOT_FLOATS`` each) and under 27 (n+1) more for the
    stencil, its scaled weights, rows 0 and 1 and edge column, the band of
    ``L``, the outflow, one row's work arrays while factoring (two rows,
    a copy of the scaled weights and a zero row), and while stepping the
    solve buffer, the coupling's scratch and products, the
    transforms of :attr:`_Coupling.convolution` (its periods are under
    4/3 n, so under 6.4 (n+1) floats, see :func:`_period`), one
    coupling's FFT buffers (under 4 n) and the state a step returns.
    Traced beside the factor and five states' values, a run of RL r/r,
    PS r/r or Caputo a/a without a fixed point holds 16.1-19.9 (n+1) more
    at n = 512 to 5121 (12.6-15.6 at n = 300 and 400; factoring, 9.4-11.2),
    the most at n = 512 and 513, where a last block of one or two rows keeps
    the coupling; the transforms take 3.5 (n+1) at n = 4097.
    The emit comes after the factor and these are freed: its templates,
    which hold the ``x`` column's text, take under 5 (n+1), and the block
    in flight is part of the fixed allowance.
    The stencil brings no FFT transform: only explicit steps compute one.
    The factor is counted as if the elimination had no fixed point ``K``
    (see :func:`_hessenberg_lu`), which allocates the block that holds
    ``K`` whole before it finds ``K``.  A factor with a tail then stores
    none of the rows ``K .. n``, ``N = n - K >= 512`` rows whose triangles
    hold at least 64 N floats, and adds under 20 N (traced at most 13 N at
    n = 600 to 4000): ``P`` and the tail's column ``n``, ``q = 1/P`` with
    its transform, one step's FFT buffers (the FFT period is under 8/3 N)
    and the head's coupling into the tail."""
    full, last = divmod(n + 1, _BLOCK)
    _require_fits(f"n={n}", full * _BLOCK * (_BLOCK + 1) // 2 + last * (last + 1) // 2
                  + 27 * (n + 1) + states * (n + 1 + _SNAPSHOT_FLOATS),
                  f"an implicit run recording {states} states")


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


def _in_place_solve(lu: _Factor, x: np.ndarray):
    """A call that overwrites ``x`` (``u`` in, ``v`` out) with the solution
    of ``v L U = u``, for the factor ``lu`` of :func:`_hessenberg_lu`.

    For each block ``[a, b)`` of :func:`_blocks`, in order: but for the
    first, the coupling of the solved ``w[:a]`` into ``x[a:b]`` (see
    :func:`_couple`; the last block without a tail reaches row ``n``), then
    ``dtpsv`` (lower, non-unit) on its triangle and ``x[a:b]``, in place.
    With a tail (see :class:`_Tail`), the head's coupling into ``x[K:]``,
    then its rows ``K .. n - 1``, one lower triangular Toeplitz solve,
    ``x[K:n]`` convolved with ``q = 1/P``, the inverse power series of
    ``P``, by one FFT, and then row ``n``, by one dot product with the
    tail's column ``n``.  Then one ``dtbsv`` (upper, unit, one
    superdiagonal) solves ``L^T v = w``.  The call holds the column-major
    float64 arrays it is bound to, the scratch of ``z``, the transforms of
    :attr:`_Coupling.convolution` that its couplings took (see
    :attr:`~fracdiff1d.operators._Convolution.transforms`) and, with a
    tail, the transform of ``q`` and the tail's column ``n``.
    """
    triangles, band, coupling, tail = lu
    size = x.size
    head = size if tail is None else size - 1 - tail.p.size
    blocks = _blocks(head)
    # BLAS reads and writes through raw addresses: a wrong array would
    # corrupt memory, not raise.
    shapes = [(triangle, ((b - a) * (b - a + 1) // 2,))
              for triangle, (a, b) in zip(triangles, blocks)]
    if len(triangles) != len(blocks) or any(
            array.shape != shape or array.dtype != np.float64
            or not array.flags.f_contiguous
            for array, shape in (*shapes, (band, (2, size)), (x, (size,)))):
        raise ValueError("the solve takes column-major float64 arrays sized for one grid")
    tpsv, tbsv, integer = _blas_routines()
    # Fortran takes every argument by address: the options from one byte
    # string, each integer k from entry k of a table of 0 .. size.  Each
    # pointer holds its array, so the calls keep both alive.
    options, counts = np.frombuffer(b"LNU", np.uint8), np.arange(size + 1, dtype=integer)
    lower, no, upper = (_address(options[i:]) for i in range(3))
    one, two = (_address(counts[k:]) for k in (1, 2))

    def bidiagonal(y):  # a call that overwrites y with v, L_a^T v = y, a = y.size
        return functools.partial(tbsv, upper, no, upper, _address(counts[y.size :]), one,
                                 _address(band), two, _address(y), one)

    z = np.empty(head if tail is not None else blocks[-1][0])
    calls = []
    for (a, b), triangle in zip(blocks, triangles):
        if a:
            calls.append(_couple(coupling, bidiagonal(z[:a]), x, z[:a], b))
        calls.append(functools.partial(tpsv, lower, no, no, _address(counts[b - a :]),
                                       _address(triangle), _address(x[a:b]), one))
    if tail is not None:
        calls.append(_couple(coupling, bidiagonal(z), x, z, size))
        calls.append(_tail_solve(tail, x[head:]))
    calls.append(bidiagonal(x))

    def solve() -> None:
        for call in calls:
            call()

    return solve


def _address(array) -> ctypes.c_void_p:
    """A pointer to ``array``'s first element that holds the array."""
    return array.ctypes.data_as(ctypes.c_void_p)


def _couple(coupling: _Coupling, bidiagonal, x: np.ndarray, z: np.ndarray, c: int):
    """A call that subtracts from ``x[a:c]``, ``a = z.size``, the share
    ``w[:a] U[:a, a:c]`` of the solved ``w[:a] = x[:a]``: it copies
    ``w[:a]`` into ``z``, solves ``z L_a = w[:a]`` there by ``bidiagonal``
    and subtracts ``z M[:a, a:c]`` (:meth:`_Coupling.product`)."""
    a = z.size
    solved, rest = x[:a], x[a:c]

    def couple() -> None:
        np.copyto(z, solved)
        bidiagonal()
        np.subtract(rest, coupling.product(z, c), out=rest)

    return couple


class _Coupling:
    """The entries of ``M`` that couple the rows above a split to the
    columns past it, read from the stencil in O(n) floats, all off the
    diagonal: ``g``, the stencil times ``-beta`` (``M[i, j] = g[j - i + 1]``
    for ``2 <= i`` and ``0 < j < n``), ``top``, rows 0 and 1 of ``M`` from
    column 0, and ``edge``, column ``n``; and ``convolution``, the
    :class:`~fracdiff1d.operators._Convolution` of the stencil rows' lags
    ``1 .. n - 3``, the first ``_NEAR`` of them summed directly."""

    def __init__(self, g: np.ndarray, top: np.ndarray, edge: np.ndarray) -> None:
        self.g, self.top, self.edge = g, top, edge
        self.convolution = _Convolution(g[2 : edge.size - 2], _NEAR)

    def product(self, z: np.ndarray, c: int) -> np.ndarray:
        """``z M[:a, a:c]`` for ``a = z.size``, ``2 <= a < c <= n + 1``:
        rows 0 and 1 by two row axpys, the stencil rows by
        :attr:`convolution`, and their column ``n``, if ``c`` reaches it,
        by one dot product.  The window starts at the last entry of
        ``z[2:]``, so its lags ``1 .. _NEAR`` reach only its first
        ``_NEAR`` columns from the last ``_NEAR`` rows.  A split with at
        most ``_NEAR`` stencil rows is summed directly over every column,
        with no FFT, and its entries are sums of ``a`` products, each within
        ``a u |z| |M|``; the FFT adds an error that scales with its norms,
        not with each entry."""
        a, n = z.size, self.edge.size - 1
        out = z.item(0) * self.top[0, a:c]
        out += z.item(1) * self.top[1, a:c]
        if 2 < a < n:
            # Entry j - a is sum_i z_i g[j - i + 1] over 2 <= i < a, the lag j - i.
            end = min(c, n)
            if a - 2 <= _NEAR:
                out[: end - a] += np.convolve(z[2:], self.g[2 : end - 1], "valid")
            else:
                self.convolution.window(z[2:], a - 3, end - a, out[: end - a])
        if c > n:
            out[-1] += _dot(z[2:], self.edge[2:a])
        return out


def _tail_solve(tail: _Tail, x: np.ndarray):
    """A call that solves the tail's rows in place in ``x``, the last
    ``N + 1`` entries of the solve's buffer: ``x[:N]`` becomes the first
    ``N`` entries of its :class:`~fracdiff1d.operators._Convolution` with
    ``q = 1/P``, which solves the lower triangular Toeplitz system
    ``U[K:n, K:n]^T w = x[:N]``, and ``x[N]`` its share of row ``n``.  No
    transform of ``q`` exceeds the sum of ``|q|``: one that overflows is
    a singular system."""
    p, column, pivot = tail
    size = p.size
    with np.errstate(all="ignore"):  # an overflow fails the check
        q = _inverse_series(p)
        if not np.isfinite(np.abs(q).sum()):
            raise SingularSystem("implicit system matrix is numerically singular")
    convolution = _Convolution(q)
    body = x[:size]

    def solve() -> None:
        body[:] = convolution.window(body, 0, size)
        x[size] = (x.item(size) - _dot(body, column)) / pivot

    return solve


def _inverse_series(p: np.ndarray) -> np.ndarray:
    """The first ``N = len(p)`` terms of the power series ``q = 1/p``, by
    :func:`_newton_inverse`, twice.  Its FFT products' roundoff scales with
    their largest terms, so the far terms of a ``q`` that decays (by 2e5 to
    8e6 over a tail's ``N`` terms) would carry thousands of their own ulps.
    The first pass gives the rate ``r``, ``r^(N-1) = |q_0 / q_(N-1)|``;
    the second inverts the series of ``p_j r^j``, whose inverse is
    ``q_j r^j``, far flatter, and scales it back: at n = 1000 and 4000 the
    terms of figure 2's ``q`` then lie a median of 9 ulps from the exact
    ones.  A ``q`` that does not decay, or whose scaled series overflows,
    is kept from the first pass."""
    q = _newton_inverse(p)
    rate = abs(q[0] / q[-1]) ** (1.0 / (p.size - 1))
    if not 1.0 < rate < math.inf:
        return q
    scale = rate ** np.arange(p.size, dtype=float)
    flat = _newton_inverse(p * scale) / scale
    return flat if np.isfinite(flat).all() else q


def _newton_inverse(p: np.ndarray) -> np.ndarray:
    """The first ``len(p)`` terms of the power series ``q = 1/p``, by
    Newton's iteration on power series (H. T. Kung, Numer. Math. 1974):
    from ``q_0 = 1/p_0``, each pass doubles the ``m`` terms known, to
    ``m' = min(2m, len(p))``, as ``q - q (p q - 1)`` taken to ``m'`` terms.
    Both products are FFT convolutions at one period of at least ``m'``,
    which aliases none of the terms kept: terms ``m .. m' - 1`` of
    ``p q`` (those below ``m`` are 1, 0, ...), then the first ``m' - m``
    of their product with ``q``.  In O(N log N), where substitution takes
    a dot product a term, O(N^2)."""
    size = p.size
    q = np.empty(size)
    q[0] = 1.0 / p.item(0)
    known = 1
    while known < size:
        grown = min(2 * known, size)
        period = _period(grown)
        q_hat = np.fft.rfft(q[:known], period)
        residual = np.fft.irfft(np.fft.rfft(p[:grown], period) * q_hat, period)[known:grown]
        q[known:grown] = -np.fft.irfft(np.fft.rfft(residual, period) * q_hat,
                                       period)[: grown - known]
        known = grown
    return q


def _blocks(rows: int) -> list[tuple[int, int]]:
    """The blocks ``[a, b)`` of ``_BLOCK`` rows, the last one shorter, that
    tile the first ``rows`` rows of ``U``.  Block ``[a, b)`` stores its
    diagonal triangle, the rows ``U[k, k:b]`` end to end, which is that
    triangle's transpose in BLAS lower packed storage,
    ``(b - a)(b - a + 1) / 2`` floats.  A factor with a tail stores its
    ``K`` head rows this way (see :class:`_Tail`)."""
    return [(a, min(a + _BLOCK, rows)) for a in range(0, rows, _BLOCK)]


class _Factor(NamedTuple):
    """``M = L U`` as :func:`_hessenberg_lu` stores it: the packed
    triangles of the blocks of ``U``'s head, the multipliers of ``L`` as
    the band of the unit upper bidiagonal ``L^T``, the :class:`_Coupling`
    of ``M`` and the :class:`_Tail`, or ``None``."""

    triangles: list[np.ndarray]
    band: np.ndarray
    coupling: _Coupling
    tail: _Tail | None


class _Tail(NamedTuple):
    """The rows ``K .. n`` of ``U`` past the elimination's fixed point
    ``K``, in O(N) floats, ``N = n - K``: the stencil part ``P = U[K, K:n]``,
    which every later row repeats shifted (``U[k, k + i] = P[i]`` for
    ``k >= K``), their column ``n``, ``U[K:n, n]``, and the last pivot
    ``U[n, n]``."""

    p: np.ndarray
    column: np.ndarray
    pivot: float


def _shorten(triangle: np.ndarray, a: int, b: int, end: int) -> None:
    """Repack, in place, the rows ``a .. end - 1`` stored in the triangle
    of the block ``[a, b)`` as the triangle of the block ``[a, end)``, and
    free the rest of its memory."""
    source = target = 0
    for k in range(a, end):
        triangle[target : target + end - k] = triangle[source : source + end - k]
        source, target = source + b - k, target + end - k
    # The factor holds no view of it, so the array may move.
    triangle.resize(target, refcheck=False)


def _hessenberg_lu(operator, beta: float) -> _Factor:
    """Factor ``M = I - beta B = L U`` without pivoting, one row at a time,
    in one pass.

    The stencil ``operator.g``, ``operator.edges[:, 1]``, column ``n``, and
    rows 0 and 1 of ``B`` from ``operator.row`` are scaled by ``-beta``
    once and kept as the :class:`_Coupling`; the elimination reads ``M``
    from them alone.  ``B`` is upper Hessenberg, so row ``k`` of ``U`` is
    row ``k`` of ``M`` less the multiplier ``m_{k,k-1} / u_{k-1,k-1}`` times
    row ``k - 1`` of ``U``.  Every row ``k = 0 .. n``, column ``n`` last, is
    one subtraction into one of two buffers, which the row after next
    overwrites: ``M[k, k:] - I[k, k:]`` less the multiplier times
    ``U[k-1, k:]``, then its diagonal again, with the 1 added first.  Row 0
    reads a zero row with multiplier 0.  Rows 0 and 1 come from the
    coupling's ``top``, each later row from a copy of the stencil
    (``m_kj = g_{j-k+1}``) whose entry ``n - k + 1``, which no later row
    reads, first takes ``M[k, n]``.  Each row's part in its block's
    triangle (see :func:`_blocks`) is written as it is eliminated.  The
    first row ``K >= 3`` whose stencil part ``P = U[K, K:n]`` equals
    ``U[K-1, K-1:n-1]`` bit for bit, with at least ``_FFT_MIN_N`` rows
    after it, is the elimination's fixed point: past it every row and
    multiplier repeats, shifted, since each is computed by the same
    floating-point operations on the same inputs.  There the pass stops,
    the block that holds ``K`` is repacked to end at row ``K`` and the
    rest, column ``n`` carried on from ``U[K-1, n]``, is returned as a
    :class:`_Tail`; without one the triangles run to row ``n`` and the
    tail is ``None``.  A non-finite factor or a zero pivot raises
    :class:`SingularSystem`.
    """
    n = operator.n
    size = n + 1
    band = np.zeros((2, size), order="F")
    multipliers = band[0]
    triangles, tail = [], None
    buffers = np.empty(size), np.empty(size)
    with np.errstate(all="ignore"):  # an overflow fails the health check
        g, edge = operator.g * -beta, operator.edges[:, 1] * -beta
        top = np.stack((operator.row(0), operator.row(1))) * -beta
        coupling = _Coupling(g, top, edge)
        stencil = g.copy()
        above, multiplier = np.zeros(size + 1), 0.0
        try:
            for k in range(size):
                row = buffers[k % 2][: size - k]
                if k < 2:
                    source = top[k, k:]
                else:
                    # Entry n - k + 1, which no later row reads, is column n.
                    source = stencil[1 : size - k + 1]
                    source[-1] = edge.item(k)
                if k:
                    # A zero pivot raises ZeroDivisionError: these are Python floats.
                    multiplier = (g.item(0) if k > 1 else top.item(1, 0)) / above.item(0)
                np.subtract(source, multiplier * above[1:], out=row)
                row[0] = (source.item(0) + 1.0) - multiplier * above.item(1)
                # Pivots settle first; only an equal pivot earns the whole compare.
                if (3 <= k <= n - _FFT_MIN_N and row.item(0) == above.item(0)
                        and row[:-1].tobytes() == above[: n - k].tobytes()):
                    if k % _BLOCK:
                        _shorten(triangle, k - k % _BLOCK, b, k)
                    multipliers[k:] = multiplier
                    column, corner = np.empty(n - k), above.item(-1)
                    for j in range(k, n):
                        column[j - k] = corner = edge.item(j) - multiplier * corner
                    tail = _Tail(row[:-1].copy(), column,
                                 (edge.item(n) + 1.0) - multiplier * corner)
                    break
                multipliers[k] = multiplier
                if k % _BLOCK == 0:
                    b = min(k + _BLOCK, size)
                    triangle = np.empty((b - k) * (b - k + 1) // 2)
                    triangles.append(triangle)
                    start = 0
                triangle[start : start + b - k] = row[: b - k]
                start += b - k
                above = row
            pivot = row.item(0) if tail is None else tail.pivot
        except ZeroDivisionError:
            pivot = 0.0
        # min and max propagate NaN and, unlike isfinite, need no mask of
        # the triangles.
        healthy = (pivot != 0.0 and math.isfinite(pivot)
                   and all(math.isfinite(triangle.min()) and math.isfinite(triangle.max())
                           for triangle in triangles)
                   and np.isfinite(band).all()
                   and all(np.isfinite(entries).all() for entries in (g, top, edge))
                   and (tail is None or np.isfinite(tail.p).all()
                        and np.isfinite(tail.column).all()))
    if not healthy:
        raise SingularSystem("implicit system matrix is numerically singular")
    return _Factor(triangles, band, coupling, tail)
