r"""The factor of the implicit system and its in-place solve.

Every ``B`` is upper Hessenberg, so :math:`M = I - \beta B = L U` is
factored without pivoting: ``L`` is unit lower bidiagonal (one multiplier
per row) and ``U`` upper triangular.  The factor is built one row of ``B``
at a time, in O(n^2).  Below the interior's Toeplitz structure the
elimination reaches a fixed point: from some row ``K`` on, every row of
``U`` repeats the one above it shifted, bit for bit (the finite-precision
form of the convergence of a Toeplitz LU to its Wiener-Hopf factor).  The
rows above ``K``, the head, are stored in blocks of 1024 rows: each
block's diagonal triangle in BLAS packed storage, then its rectangle to
the right as a dense array.  With 512 rows or more past ``K`` the rest,
the tail, is kept in O(n) floats and solved as one causal convolution by
FFT; otherwise every row is stored, ``(n+1)(n+2)/2`` floats, half a dense
matrix.

Each step takes one packed triangular solve per block, one matrix-vector
product per block that ends before row ``n`` (numpy's threaded ``dgemv``),
the tail's convolution if there is one, and one bidiagonal solve.  The two
triangular routines, ``dtpsv`` and ``dtbsv``, are bound once through
ctypes, by address, from one of two sources: the OpenBLAS that numpy's
wheels bundle, so no run imports scipy, or, where numpy's BLAS lacks them,
scipy's ``cython_blas``.  For the Riemann-Liouville and Patie-Simon
schemes ``M`` is a row diagonally dominant Z-matrix, so the growth factor
is at most 2; a pivot check still runs for every scheme.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import FracDiffError, SingularSystem
from .operators import _FFT_MIN_N, _fft_period


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


def _in_place_solve(packed, band, tail, x):
    """A call that overwrites ``x`` (``u`` in, ``v`` out) with the solution
    of ``v L U = u``, for the factor of :func:`_hessenberg_lu`.

    For each block ``[a, b)`` of :func:`_layout`, in order: ``dtpsv``
    (lower, non-unit) on its triangle and ``x[a:b]``, in place, then, but
    for a last block that reaches row ``n``, the trailing update
    ``x[b:] -= x[a:b] @ U[a:b, b:]``, a matrix-vector product by numpy's
    BLAS (threaded ``dgemv``) into scratch that the call holds.  With a
    tail (see :class:`_Tail`), its rows ``K .. n - 1`` are one lower
    triangular Toeplitz solve, ``x[K:n]`` convolved with ``q = 1/P``, the
    inverse power series of ``P``, by one FFT, and then row ``n``, by one
    dot product with the tail's column ``n``.  Then one ``dtbsv`` (upper,
    unit, one superdiagonal) solves ``L^T v = w``.  The call holds the
    three column-major float64 arrays it is bound to, and, with a tail,
    the transform of ``q`` and the tail's column ``n``.
    """
    size = x.size
    rows = size if tail is None else size - 1 - tail.p.size
    # BLAS reads and writes through raw addresses: a wrong array would
    # corrupt memory, not raise.
    for array, shape in ((packed, (rows * size - rows * (rows - 1) // 2,)),
                         (band, (2, size)), (x, (size,))):
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
    scratch = np.empty(size - min(_BLOCK, rows))  # the first rectangle's width
    calls = []
    for a, b, triangle, rectangle in _layout(packed, rows, size):
        calls.append(functools.partial(tpsv, lower, no, no, _address(counts[b - a :]),
                                       _address(triangle), _address(x[a:b]), one))
        if b < size:
            calls.append(functools.partial(
                _trailing_update, x[a:b], rectangle, x[b:], scratch[: size - b]))
    if tail is not None:
        calls.append(_tail_solve(tail, x[rows:]))
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


def _tail_solve(tail: _Tail, x: np.ndarray):
    """A call that solves the tail's rows in place in ``x``, the last
    ``N + 1`` entries of the solve's buffer: ``x[:N]`` becomes its causal
    convolution with ``q = 1/P``, which solves the lower triangular
    Toeplitz system ``U[K:n, K:n]^T w = x[:N]``, and ``x[N]`` its share of
    row ``n``.  A linear convolution of two length-``N`` sequences has
    ``2N - 1`` terms, which the FFT period above ``2 (N - 1)`` holds
    without aliasing; only the first ``N`` are kept."""
    p, column, pivot = tail
    size = p.size
    period = _fft_period(size - 1)
    with np.errstate(all="ignore"):  # an overflow fails the check below
        q_hat = np.fft.rfft(_inverse_series(p), period)
    if not np.isfinite(q_hat).all():
        raise SingularSystem("implicit system matrix is numerically singular")
    body = x[:size]

    def solve() -> None:
        body[:] = np.fft.irfft(np.fft.rfft(body, period) * q_hat, period)[:size]
        x[size] = (x.item(size) - float(body @ column)) / pivot

    return solve


def _inverse_series(p: np.ndarray) -> np.ndarray:
    """The first ``len(p)`` terms of the power series ``q = 1/p``, by exact
    substitution: ``q_0 = 1/p_0`` and ``p_0 q_j = -(p_1 q_{j-1} + ... +
    p_j q_0)``, one dot product a term."""
    size, first = p.size, p.item(0)
    # q_j is stored at size - 1 - j, so q_{j-1} .. q_0 are one contiguous run.
    backwards = np.empty(size)
    backwards[-1] = 1.0 / first
    for j in range(1, size):
        backwards[size - 1 - j] = -float(p[1 : j + 1] @ backwards[size - j :]) / first
    return backwards[::-1]


# Rows of ``U`` in each block of its storage (see _layout).
_BLOCK = 1024


def _layout(packed: np.ndarray, rows: int, size: int):
    """The blocks of the stored rows of ``U``, as views ``(a, b, triangle,
    rectangle)``.

    The first ``rows`` rows of ``U``, of ``size`` columns, are stored in
    ``rows * size - rows (rows - 1) / 2`` floats (``(n+1)(n+2)/2`` when
    ``rows == size``), blocks of ``_BLOCK`` rows ``[a, b)`` laid end to
    end.  A block holds first its diagonal triangle, the rows ``U[k, k:b]``
    end to end, which is that triangle's transpose in BLAS lower packed
    storage, then its rectangle ``U[a:b, b:]``, row-major, which runs to
    column ``n``.  A factor with a tail stores its ``K`` head rows this way
    (see :class:`_Tail`); a grid of at most ``_BLOCK`` nodes without one is
    one block: a packed triangle and an empty rectangle.
    """
    start = 0
    for a in range(0, rows, _BLOCK):
        b = min(a + _BLOCK, rows)
        middle = start + (b - a) * (b - a + 1) // 2
        end = middle + (b - a) * (size - b)
        yield a, b, packed[start:middle], packed[middle:end].reshape(b - a, size - b)
        start = end


class _Tail(NamedTuple):
    """The rows ``K .. n`` of ``U`` past the elimination's fixed point
    ``K``, in O(N) floats, ``N = n - K``: the stencil part ``P = U[K, K:n]``,
    which every later row repeats shifted (``U[k, k + i] = P[i]`` for
    ``k >= K``), their column ``n``, ``U[K:n, n]``, and the last pivot
    ``U[n, n]``."""

    p: np.ndarray
    column: np.ndarray
    pivot: float


def _eliminated_rows(operator, g: np.ndarray, beta: float):
    """Rows ``k = 0 .. n - 1`` of ``U`` left of column ``n``: yields each
    multiplier ``m_{k,k-1} / u_{k-1,k-1}`` of ``L`` (0.0 for row 0) and
    ``U[k, k:n]``, the latter in one of two buffers, which the row after
    next overwrites.

    ``B`` is upper Hessenberg, so row ``k`` of ``U`` is row ``k`` of ``M``
    less the multiplier times row ``k - 1`` of ``U``: one row axpy.  Rows 0
    and 1 of ``B`` come from ``operator.row``, scaled by ``-beta``; each
    later row is the stencil ``g`` (``b_kj = g_{j-k+1}``, already scaled),
    and its diagonal is computed as a scalar.  A zero pivot raises
    :class:`ZeroDivisionError`: the multipliers are Python floats.
    """
    n = operator.n
    buffers = np.empty(n), np.empty(n)
    sub, diagonal_of_stencil = g.item(0), g.item(1) + 1.0
    for k in range(n):
        row = buffers[k % 2][: n - k]
        if k >= 2:
            multiplier = sub / above.item(0)
            diagonal, source = diagonal_of_stencil, g[1 : n - k + 1]
        else:  # rows 0 and 1 may be patched: row(k) is from column 0
            patched = operator.row(k)[:n] * -beta
            if k == 0:
                row[:] = patched
                row[0] = patched.item(0) + 1.0
                yield 0.0, row
                above = row
                continue
            multiplier = patched.item(0) / above.item(0)
            diagonal, source = patched.item(1) + 1.0, patched[1:]
        np.subtract(source, multiplier * above[1:], out=row)
        row[0] = diagonal - multiplier * above.item(1)
        yield multiplier, row
        above = row


def _fixed_point(rows, n: int):
    """``(K, P)``: the first row ``K >= 3`` whose stencil part
    ``P = U[K, K:n]`` equals ``U[K-1, K-1:n-1]`` bit for bit, if at least
    ``_FFT_MIN_N`` rows remain after it; ``None`` otherwise.

    Past ``K`` every row and multiplier repeats, shifted: each is computed
    by the same floating-point operations on the same inputs.  This is the
    finite-precision form of the convergence of a Toeplitz LU to its
    Wiener-Hopf factor.  ``rows`` is :func:`_eliminated_rows`; the search
    holds only its two buffers and stops at row ``n - _FFT_MIN_N``.
    """
    for k, (_, row) in zip(range(n - _FFT_MIN_N + 1), rows):
        # Pivots settle first; only an equal pivot earns the whole compare.
        if (k >= 3 and row.item(0) == above.item(0)
                and row.tobytes() == above[: n - k].tobytes()):
            return k, row.copy()
        above = row
    return None


def _hessenberg_lu(operator, beta: float):
    """Factor ``M = I - beta B = L U`` without pivoting, one row at a time.

    The rows come from :func:`_eliminated_rows`, the stencil ``operator.g``
    and ``operator.edges[:, 1]``, column ``n``, both scaled by ``-beta``
    once; column ``n`` is computed as a scalar, the edge less the
    multiplier times the entry above.  A first pass over two row buffers
    looks for the elimination's fixed point ``K`` (:func:`_fixed_point`).
    Without one, or with fewer than ``_FFT_MIN_N`` rows past it, a second
    pass writes all of ``U`` in the layout of :func:`_layout`,
    ``(n+1)(n+2)/2`` floats, and the tail is ``None``.  With one it writes
    only the head, rows ``0 .. K-1``, in that layout, and returns the rest
    as a :class:`_Tail`.  Returns the stored rows, the multipliers of ``L``
    as the band of the unit upper bidiagonal ``L^T``, and the tail.
    A non-finite factor or a zero pivot raises :class:`SingularSystem`.
    """
    n = operator.n
    size = n + 1
    band = np.zeros((2, size), order="F")
    multipliers = band[0]
    tail = None
    with np.errstate(all="ignore"):  # an overflow fails the health check
        g, edge = operator.g * -beta, operator.edges[:, 1] * -beta
        try:
            found = _fixed_point(_eliminated_rows(operator, g, beta), n)
            head = size if found is None else found[0]
            packed = np.empty(head * size - head * (head - 1) // 2)
            rows = _eliminated_rows(operator, g, beta)
            corner = 0.0
            for a, b, triangle, rectangle in _layout(packed, head, size):
                start = 0
                for k in range(a, min(b, n)):
                    multiplier, row = next(rows)
                    multipliers[k] = multiplier
                    corner = edge.item(k) - multiplier * corner
                    near = triangle[start : start + b - k]
                    start += b - k
                    if b < size:
                        near[:] = row[: b - k]
                        far = rectangle[k - a]
                        far[:-1], far[-1] = row[b - k :], corner
                    else:
                        near[:-1], near[-1] = row, corner
            if found is None:
                multipliers[n] = multiplier = g.item(0) / row.item(0)
                triangle[-1] = pivot = (edge.item(n) + 1.0) - multiplier * corner
            else:
                p = found[1]
                multipliers[head:] = multiplier = g.item(0) / p.item(0)
                column = np.empty(n - head)
                for k in range(head, n):
                    column[k - head] = corner = edge.item(k) - multiplier * corner
                pivot = (edge.item(n) + 1.0) - multiplier * corner
                tail = _Tail(p, column, pivot)
        except ZeroDivisionError:  # a zero pivot: multipliers are Python floats
            pivot = 0.0
        # min and max propagate NaN and, unlike isfinite, need no n^2 mask.
        healthy = (pivot != 0.0 and math.isfinite(pivot)
                   and math.isfinite(packed.min()) and math.isfinite(packed.max())
                   and np.isfinite(band).all()
                   and (tail is None or np.isfinite(tail.p).all()
                        and np.isfinite(tail.column).all()))
    if not healthy:
        raise SingularSystem("implicit system matrix is numerically singular")
    return packed, band, tail
