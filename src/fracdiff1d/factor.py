r"""The factor of the implicit system and its in-place solve.

Every ``B`` is upper Hessenberg, so :math:`M = I - \beta B = L U` is
factored without pivoting: ``L`` is unit lower bidiagonal (one multiplier
per row) and ``U`` upper triangular.  The factor is built one row of ``B``
at a time, each by one row operation that carries column ``n``, in O(n^2)
and one pass.  Below the interior's Toeplitz structure the elimination
reaches a fixed point: from some row ``K`` on, every row of ``U`` repeats
the one above it shifted, bit for bit (the finite-precision form of the
convergence of a Toeplitz LU to its Wiener-Hopf factor).  Of the rows
above ``K``, the head, only diagonal triangles are stored, each in BLAS
packed storage: the first block of 512 rows whole, so a head of at most
512 rows is one triangle, and each later block of 512 rows as two
triangles of 256, beside one row of 256 floats, its seed: under
``129 (n+1) + 2^16`` floats.  With 512 rows or more past ``K`` the rest,
the tail, is kept in O(n) floats and solved as one causal convolution by
FFT; otherwise the triangles run to row ``n``.

The rest of ``U`` is not stored: the rows above a split are read from the
stencil of ``M`` (see :mod:`fracdiff1d.coupling`).  Within a block
``[a, t)`` split at ``s = a + 256``, ``U[a:s] = L_loc^{-1} (M[a:s] -
m_a e_0 U[a-1])``, with ``L_loc = L[a:s, a:s]`` and ``m_a`` row ``a``'s
multiplier: the first half reaches the second through the stencil and
the seed ``U[a-1, s:t]``, the row the elimination holds when it reaches
row ``a``.  Each step takes, per block after the first, the coupling of
the rows above into the block's columns, then per half one packed
triangular solve, the second after its first half's coupling; with a
tail, the head's coupling into it and its convolution; then one
bidiagonal solve.  No step calls a threaded BLAS reduction, so no
output's bits depend on the thread count: OpenBLAS threads ``ddot`` past
10,000 entries, and every dot product of a step sums chunks of at most
8192 (see :func:`~fracdiff1d.operators._dot`).  The two triangular
routines, ``dtpsv`` and ``dtbsv``, are bound once through ctypes, by
address, from one of two sources: the OpenBLAS that numpy's wheels
bundle, so no run imports scipy, or, where numpy's BLAS lacks them,
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

from .coupling import _couple, _Coupling
from .errors import FracDiffError, SingularSystem
from .operators import _FFT_MIN_N, _SNAPSHOT_FLOATS, _Convolution, _dot, _period, _require_fits

# Rows of ``U`` in each block of the factor, and in each triangle of a
# block after the first (see _blocks).
_BLOCK = 512
_HALF = _BLOCK // 2


def _require_implicit_fits(n: int, states: int) -> None:
    """Reject an implicit run and its CSV emit whose memory would exceed
    physical memory: the factor ``U`` of ``I - beta B``, the triangles of
    :func:`_blocks` with the seed of each second half, under
    ``129 (n+1) + 2^16`` floats (129 a row past the first block, whose
    triangle takes ``2^16`` more), and the transform of period ``_BLOCK``
    that the seeded couplings share, counted as ``512``, or one triangle of
    every row, ``(n+1)(n+2)/2`` floats, if that is less; plus ``states``
    recorded states with their bookkeeping (``_SNAPSHOT_FLOATS`` each) and
    under 27 (n+1) more for the stencil, its scaled weights, rows 0 and 1
    and edge column, the band of ``L``, the outflow, one row's work arrays
    while factoring (two rows, a copy of the scaled weights and a zero row),
    and while stepping the solve buffer, the couplings' scratch and
    products, the bound calls, the transforms of
    :attr:`_Coupling.convolution` (its periods are under 4/3 n, so under
    6.4 (n+1) floats, see :func:`_period`), one coupling's FFT buffers
    (under 4 n) and the state a step returns.
    Traced beside the factor and five states' values, a run of RL r/r,
    PS r/r or Caputo a/a without a fixed point holds 16.5-19.8 (n+1) more
    at n = 512 to 5121 (11.8-15.4 at n = 300 and 400; factoring, 9.4-11.2),
    the most at n = 5121, where the calls bound for 20 triangles and 19
    couplings take 1.5 (n+1) more than for 11 triangles and 10 couplings
    with blocks of ``_BLOCK`` rows; the transforms take 3.6 (n+1) at
    n = 4097.
    The emit comes after the factor and these are freed: its templates,
    which hold the ``x`` column's text, take under 5 (n+1), and the block
    in flight is part of the fixed allowance.
    The stencil brings no FFT transform: only explicit steps compute one.
    The factor is counted as if the elimination had no fixed point ``K``
    (see :func:`_hessenberg_lu`), which allocates the triangle that holds
    ``K`` whole before it finds ``K``.  A factor with a tail then stores
    none of the rows ``K .. n``, ``N = n - K >= 512`` rows whose triangles
    hold at least 96 N floats, and adds under 20 N (traced at most 13 N at
    n = 600 to 4000): ``P`` and the tail's column ``n``, ``q = 1/P`` with
    its transform, one step's FFT buffers (the FFT period is under 8/3 N)
    and the head's coupling into the tail."""
    rows = n + 1
    _require_fits(f"n={n}", min(rows * (rows + 1) // 2, 129 * rows + 2**16 + _BLOCK)
                  + 27 * rows + states * (rows + _SNAPSHOT_FLOATS),
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

    For each triangle ``[a, b)`` of :func:`_blocks`, in order: before the
    first half of each block ``[a, t)`` after the first, the coupling of
    the solved ``w[:a]`` into ``x[a:t]``, both halves (see
    :meth:`_Coupling.product`; the last block without a tail reaches row
    ``n``), and before a second half ``[s, t)`` the coupling of its first
    half, ``w[a:s]``, into ``x[s:t]`` through the block's seed (see
    :meth:`_Coupling.seeded`); then ``dtpsv`` (lower, non-unit) on the
    triangle and ``x[a:b]``, in place.  Each coupling is one call of
    :func:`_couple`.  With a tail (see :class:`_Tail`), the head's coupling
    into ``x[K:]``, then its rows ``K .. n - 1``, one lower triangular
    Toeplitz solve, ``x[K:n]`` convolved with ``q = 1/P``, the inverse
    power series of ``P``, by one FFT, and then row ``n``, by one dot
    product with the tail's column ``n``.  Then one ``dtbsv`` (upper, unit,
    one superdiagonal) solves ``L^T v = w``.  The call holds the
    column-major float64 arrays it is bound to, the scratch of ``z`` and
    ``y``, the transforms of :attr:`_Coupling.convolution` that its
    couplings took (see
    :attr:`~fracdiff1d.operators._Convolution.transforms`) and, with a
    tail, the transform of ``q`` and the tail's column ``n``.
    """
    triangles, seeds, band, coupling, tail = lu
    size = x.size
    head = size if tail is None else size - 1 - tail.p.size
    blocks = _blocks(head)
    # BLAS reads and writes through raw addresses: a wrong array would
    # corrupt memory, not raise.  (numpy alone reads the seeds.)
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

    def bidiagonal(y, a=0):  # a call that overwrites y with v, v L[a:b, a:b] = y
        return functools.partial(tbsv, upper, no, upper, _address(counts[y.size :]), one,
                                 _address(band[:, a:]), two, _address(y), one)

    z = np.empty(head if tail is not None else (head - 1) // _BLOCK * _BLOCK)
    y, seeds = np.empty(_HALF if seeds else 0), iter(seeds)
    calls = []
    for (a, b), triangle in zip(blocks, triangles):
        if a % _BLOCK:  # a second half, coupled to the first through its seed
            first = a - _HALF
            seeded = functools.partial(coupling.seeded, s=a, seed=next(seeds),
                                       multiplier=band.item(0, first))
            calls.append(_couple(bidiagonal(y, first), x[first:a], y, x[a:b], seeded))
        elif a:
            t = min(a + _BLOCK, head)
            product = functools.partial(coupling.product, c=t)
            calls.append(_couple(bidiagonal(z[:a]), x[:a], z[:a], x[a:t], product))
        calls.append(functools.partial(tpsv, lower, no, no, _address(counts[b - a :]),
                                       _address(triangle), _address(x[a:b]), one))
    if tail is not None:
        product = functools.partial(coupling.product, c=size)
        calls.append(_couple(bidiagonal(z), x[:head], z, x[head:], product))
        calls.append(_tail_solve(tail, x[head:]))
    calls.append(bidiagonal(x))

    def solve() -> None:
        for call in calls:
            call()

    return solve


def _address(array) -> ctypes.c_void_p:
    """A pointer to ``array``'s first element that holds the array."""
    return array.ctypes.data_as(ctypes.c_void_p)


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
    """The triangles ``[a, b)`` that tile the first ``rows`` rows of ``U``:
    the first block of ``_BLOCK`` rows whole, and each block after it,
    ``[a, a + _BLOCK)``, as two halves of ``_HALF`` rows, the last triangle
    shorter.  Triangle ``[a, b)`` stores its rows ``U[k, k:b]`` end to end,
    which is that triangle's transpose in BLAS lower packed storage,
    ``(b - a)(b - a + 1) / 2`` floats.  A second half ``[s, t)`` keeps
    beside it its block's seed, ``U[a-1, s:t]`` (see
    :meth:`_Coupling.seeded`).  A factor with a tail stores its ``K`` head
    rows this way (see :class:`_Tail`)."""
    return [(a, min(a + (_HALF if a else _BLOCK), rows))
            for a in (0, *range(_BLOCK, rows, _HALF))]


class _Factor(NamedTuple):
    """``M = L U`` as :func:`_hessenberg_lu` stores it: the packed
    triangles of :func:`_blocks` of ``U``'s head, the seed of each second
    half, the multipliers of ``L`` as the band of the unit upper bidiagonal
    ``L^T``, the :class:`_Coupling` of ``M`` and the :class:`_Tail`, or
    ``None``."""

    triangles: list[np.ndarray]
    seeds: list[np.ndarray]
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
    reads, first takes ``M[k, n]``.  Each row's part in its triangle (see
    :func:`_blocks`) is written as it is eliminated, and at the start of
    each block after the first, row ``a - 1`` of ``U``, in the buffer the
    row above is read from, gives the block's seed.  The
    first row ``K >= 3`` whose stencil part ``P = U[K, K:n]`` equals
    ``U[K-1, K-1:n-1]`` bit for bit, with at least ``_FFT_MIN_N`` rows
    after it, is the elimination's fixed point: past it every row and
    multiplier repeats, shifted, since each is computed by the same
    floating-point operations on the same inputs.  There the pass stops,
    the triangle that holds ``K``, and a second half's seed, are cut to
    end at row ``K`` and the rest, column ``n`` carried on from
    ``U[K-1, n]``, is returned as a :class:`_Tail`; without one the
    triangles run to row ``n`` and the tail is ``None``.  A non-finite
    factor or a zero pivot raises :class:`SingularSystem`.
    """
    n = operator.n
    size = n + 1
    band = np.zeros((2, size), order="F")
    multipliers = band[0]
    triangles, seeds, tail = [], [], None
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
                    if b > k:  # the triangle that holds K, and its seed, end there
                        _shorten(triangle, first, b, k)
                        if first % _BLOCK:
                            seeds[-1] = seeds[-1][: k - first].copy()
                    multipliers[k:] = multiplier
                    column, corner = np.empty(n - k), above.item(-1)
                    for j in range(k, n):
                        column[j - k] = corner = edge.item(j) - multiplier * corner
                    tail = _Tail(row[:-1].copy(), column,
                                 (edge.item(n) + 1.0) - multiplier * corner)
                    break
                multipliers[k] = multiplier
                if k % _HALF == 0 and k != _HALF:  # a triangle of _blocks starts
                    if k % _BLOCK:
                        seeds.append(seed)
                    elif k:  # U[k-1, k + _HALF : k + _BLOCK], the block's seed
                        seed = above[_HALF + 1 : _BLOCK + 1].copy()
                    first, b = k, min(k + (_HALF if k else _BLOCK), size)
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
        # the triangles.  A seed's entries reach the diagonal of the rows
        # below it, so a non-finite seed leaves a non-finite triangle.
        healthy = (pivot != 0.0 and math.isfinite(pivot)
                   and all(math.isfinite(triangle.min()) and math.isfinite(triangle.max())
                           for triangle in triangles)
                   and np.isfinite(band).all()
                   and all(np.isfinite(entries).all() for entries in (g, top, edge))
                   and (tail is None or np.isfinite(tail.p).all()
                        and np.isfinite(tail.column).all()))
    if not healthy:
        raise SingularSystem("implicit system matrix is numerically singular")
    return _Factor(triangles, seeds, band, coupling, tail)
