"""The couplings of the implicit solve: the share of solved rows of ``U``
in the columns past them, read from the stencil of ``M = I - beta B``.

``L`` is bidiagonal, so the rows above any split ``a`` are
``U[:a] = L_a^{-1} M[:a]``, ``L_a`` the leading ``a x a`` block of ``L``,
and a solved ``w[:a]`` reaches the columns past ``a`` as
``w[:a] U[:a, a:] = z M[:a, a:]`` with ``z L_a = w[:a]``; the same
identity taken from a row ``a`` with a row of ``U`` above it gives the
share of a block's first half in its second (see
:meth:`_Coupling.seeded`).  A coupling is one bidiagonal solve for ``z``
and its product with the stencil, a window of one convolution (see
:class:`~fracdiff1d.operators._Convolution`) that every coupling shares:
its large entries, lags 1 to 64, which reach only the 64 columns past
``a`` from the 64 rows above it, directly, and its small entries past lag
64 by FFT, in O(c log c) for a window ending at column ``c``.  Its dot
products with column ``n`` sum chunks of at most 8192 (see
:func:`~fracdiff1d.operators._dot`), so no output's bits depend on the
BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from .operators import _Convolution, _dot

# The lags of the stencil that a coupling sums directly (see
# _Coupling.product): lags 1 .. _NEAR.  The lags past _NEAR, whose entries
# decay like k^(-1-alpha), go by FFT.  Summed by FFT over every lag, figure
# 2's last state at n = 4000 ended 2.9e-12 from a dense LU's, against
# 1.1e-13 for a direct product.  64 leaves a margin.
_NEAR = 64


def _couple(bidiagonal, solved: np.ndarray, z: np.ndarray, rest: np.ndarray, product):
    """A call that subtracts from ``rest`` the share of the solved rows
    ``w[a:s] = solved`` in its columns: it copies ``solved`` into ``z``,
    solves ``z L[a:s, a:s] = w[a:s]`` there by ``bidiagonal`` and
    subtracts ``product(z)``, :meth:`_Coupling.product` or
    :meth:`_Coupling.seeded`."""

    def couple() -> None:
        np.copyto(z, solved)
        bidiagonal()
        np.subtract(rest, product(z), out=rest)

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

    def seeded(self, y: np.ndarray, s: int, seed: np.ndarray, multiplier: float) -> np.ndarray:
        """``w[a:s] U[a:s, s:t]`` for ``a = s - y.size >= 2`` and ``t = s +
        seed.size``, from ``y L[a:s, a:s] = w[a:s]``, the ``seed``
        ``U[a-1, s:t]`` and the ``multiplier`` ``m_a`` of row ``a``.  Row
        ``a`` of ``U`` is ``M[a] - m_a U[a-1]`` and each later row ``M[k] -
        m_k U[k-1]``, so ``U[a:s] = L[a:s, a:s]^{-1} (M[a:s] - m_a e_0
        U[a-1])`` and the share is ``y M[a:s, s:t] - y_0 m_a U[a-1, s:t]``:
        one axpy, the stencil rows by one window of :attr:`convolution`, at
        a period of at most ``2 y.size``, and their column ``n``, if ``t``
        reaches it, by one dot product."""
        a, t, n = s - y.size, s + seed.size, self.edge.size - 1
        out = (-multiplier * y.item(0)) * seed
        end = min(t, n)
        if end > s:
            # Entry j - s is sum_i y_i g[j - a - i + 1], entry j - a - 1 of y * g[2:].
            self.convolution.window(y, y.size - 1, end - s, out[: end - s])
        if t > n:
            out[-1] += _dot(y, self.edge[a:s])
        return out
