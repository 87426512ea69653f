"""What several test modules share: the scheme tables, the reference
arithmetic of the residual gates, a scope walker for the source guards and
a traced peak.  Not a test module: pytest collects nothing here, and the
test modules import it by name."""

import ast
import os
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np

from fracdiff1d import BoundaryCondition, DerivativeForm

RL = DerivativeForm.RIEMANN_LIOUVILLE
PS = DerivativeForm.PATIE_SIMON
CAP = DerivativeForm.CAPUTO
A = BoundaryCondition.ABSORBING
R = BoundaryCondition.REFLECTING
# The nine supported cases, (form, left, right).
SUPPORTED = [(form, left, right) for form in (RL, PS)
             for left in (A, R) for right in (A, R)] + [(CAP, A, A)]

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**variables: str) -> dict[str, str]:
    """This process's environment with ``variables`` set and ``src`` first
    on ``PYTHONPATH``: for a fresh interpreter that imports the package."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, **variables, "PYTHONPATH": path}


def traced_peak(call) -> int:
    """Peak bytes traced while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scopes(source: str, hit: Callable[[ast.AST], bool]) -> set[str]:
    """The enclosing classes and functions, joined by dots, of each node of
    ``source`` that ``hit`` accepts, ``"<module>"`` at the top level.
    Docstrings and other bare string statements are skipped."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if hit(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def scopes_in_src(hit: Callable[[ast.AST], bool]) -> set[tuple[str, str]]:
    """``(file name, scope)`` of each node in ``src/`` that ``hit`` accepts."""
    return {(path.name, scope)
            for path in SRC.rglob("*.py") for scope in scopes(path.read_text(), hit)}


def uses_module(names: set[str]) -> Callable[[ast.AST], bool]:
    """A ``hit`` of :func:`scopes`: a use of one of ``names`` as an attribute
    (``np.fft``) or in an import (``from scipy import fft``)."""
    def hit(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in names
        if isinstance(node, ast.Import | ast.ImportFrom):
            modules = [alias.name for alias in node.names] + [getattr(node, "module", "") or ""]
            return any(names & set(module.split(".")) for module in modules)
        return False

    return hit


def dense_backward_error(system, u, v) -> float:
    """The backward error of ``v`` as a solution of ``system v = u``, in the
    infinity norm."""
    return np.abs(system @ v - u).max() / (
        np.abs(system).sum(axis=1).max() * np.abs(v).max())


def long_double_residual(stencil, beta, u, v):
    """``u - v M`` for ``M = I - beta B``, in long double from the stencil
    alone: the sum of ``_Stencil.apply``'s direct branch, ``np.convolve``
    and the boundary patches, in O(n) memory."""
    n, rows = stencil.n, len(stencil.head)
    v = v.astype(np.longdouble)
    a = np.concatenate((np.zeros(n - 1 + rows, np.longdouble), v[rows:], (0.0,)))
    vb = np.convolve(a, stencil.g.astype(np.longdouble), "valid")
    if rows:
        vb[1:n] += v[:rows] @ stencil.head.astype(np.longdouble)
    vb[::n] = v @ stencil.edges.astype(np.longdouble)
    return u - (v - beta * vb)


# Error-free transformations of double-precision arithmetic, elementwise on
# arrays or floats (T. Ogita, S. M. Rump & S. Oishi, "Accurate sum and dot
# product", SIAM J. Sci. Comput. 26, 2005).
def two_sum(a, b):
    """``(s, e)``: ``s = fl(a + b)`` and ``a + b = s + e`` exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def split(a):
    """``(hi, lo)``: ``a = hi + lo`` exactly, halves of 26 bits (Dekker)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def two_product(a, b, a_split=None):
    """``(p, e)``: ``p = fl(a b)`` and ``a b = p + e`` exactly (Dekker),
    with ``a``'s halves from ``a_split`` when given."""
    p = a * b
    (ah, al), (bh, bl) = a_split or split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dot2(x, y) -> tuple[float, float]:
    """``x @ y`` as if summed in twice the working precision: an unevaluated
    pair ``(s, c)`` (Algorithm Dot2)."""
    products, errors = two_product(x, y)
    s, c = 0.0, float(errors.sum())
    for p in products.tolist():
        s, q = two_sum(s, p)
        c += q
    return s, c


def compensated_residual(stencil, beta, u, v):
    """:func:`long_double_residual` in double precision: every entry of
    ``v B`` a compensated dot product, kept as a pair ``(s, c)``, and ``u - v
    + beta (s + c)`` formed by the same transformations.  Each interior
    column sums ``g`` one lag at a time, vectorized over the columns, so
    O(n) memory and O(n^2) time: about 1 s at n = 16384."""
    n, rows, g = stencil.n, len(stencil.head), stencil.g
    s, c = np.zeros(n + 1), np.zeros(n + 1)

    def accumulate(first, x, y, x_split=None):
        # Add the products x y into entries first, first + 1, ...
        p, e = two_product(x, y, x_split)
        window = slice(first, first + p.size)
        s[window], q = two_sum(s[window], p)
        c[window] += q + e

    # Interior column 0 < j < n meets lag d = j - i + 1 of row i >= rows.
    halves = split(v)
    for d in range(n + 1):
        start, stop = max(rows, 2 - d), min(n, n - d) + 1
        if start < stop:
            accumulate(start + d - 1, v[start:stop], g[d],
                       (halves[0][start:stop], halves[1][start:stop]))
    for i, head in enumerate(stencil.head):
        accumulate(1, head, v[i])
    for j, column in ((0, stencil.edges[:, 0]), (n, stencil.edges[:, 1])):
        s[j], c[j] = dot2(v, column)
    difference, e1 = two_sum(u, -v)
    product, e2 = two_product(s, beta)
    residual, e3 = two_sum(difference, product)
    return residual + (e3 + e1 + e2 + beta * c)


# Where long double is no wider than a double, the compensated residual.
LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps
stencil_residual = long_double_residual if LONG_DOUBLE_IS_WIDER else compensated_residual


def stencil_norm(stencil, beta) -> float:
    """``1 + beta ||B||_1`` in O(n) from the stencil: at least ``||M||_1``,
    the largest column sum of ``|M|``, and equal to it where ``B``'s
    diagonal is not positive (Riemann-Liouville)."""
    n, g = stencil.n, np.abs(stencil.g)
    sums = np.empty(n + 1)
    # Column 0 < j < n meets g_0 .. g_{j+1}, but in head row i, whose entry
    # replaces g_{j-i+1}.
    sums[1:n] = np.cumsum(g)[2:]
    for i, row in enumerate(stencil.head):
        sums[1:n] += np.abs(row) - g[2 - i : n + 1 - i]
    sums[::n] = np.abs(stencil.edges).sum(axis=0)
    return 1.0 + beta * float(sums.max())
