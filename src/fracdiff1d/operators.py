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

Matrices are dense and immutable: at desk scale (``n`` up to a few thousand)
this keeps the case tables literal and auditable.  The time stepper exploits
only the Hessenberg shape (an O(n^2) factor without pivoting); a structured
O(n) representation with fast apply and solve is not implemented.  A grid
whose dense matrix alone would exceed physical memory is rejected.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import DimensionMismatch, InvalidSpec, UnsupportedCombination
from .grunwald import DerivativeForm, grunwald_weights

__all__ = [
    "BoundaryCondition",
    "IterationMatrix",
    "SchemeSpec",
    "absorbed_rates",
    "build_matrix",
    "row_sums",
]


def _physical_memory() -> int:
    """Bytes of physical memory, or the address-space limit where the
    platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return sys.maxsize


# A grid whose dense (n+1)^2 float64 matrix alone exceeds this cannot run.
_MEMORY_BYTES = _physical_memory()


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
        if 8 * (self.n + 1) ** 2 > _MEMORY_BYTES:
            raise InvalidSpec(
                f"n={self.n} is too large: one dense (n+1)^2 matrix would exceed "
                f"the {_MEMORY_BYTES / 2**30:.1f} GiB of physical memory"
            )
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
        ent = np.asarray(self.entries, dtype=float)
        if ent.shape != (self.n + 1, self.n + 1):
            raise DimensionMismatch(
                f"expected shape {(self.n + 1, self.n + 1)}, got {ent.shape}"
            )
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)


def build_matrix(spec: SchemeSpec) -> IterationMatrix:
    """Assemble the iteration matrix for one of the nine supported cases.

    Interior columns (``0 < j < n``) carry the Grünwald stencil; the first
    and last columns and, for the Patie-Simon form, the first row implement
    the boundary conditions.  Entries are populated from the weight
    sequences of orders ``alpha``, ``alpha - 1`` and ``alpha - 2`` only.
    """
    n, alpha = spec.n, spec.alpha
    g = grunwald_weights(alpha, n + 1).values
    g1 = grunwald_weights(alpha - 1.0, n + 1).values
    g2 = grunwald_weights(alpha - 2.0, n + 1).values
    reflect_left = spec.left is BoundaryCondition.REFLECTING
    reflect_right = spec.right is BoundaryCondition.REFLECTING

    # Shared stencil b_ij = g_{j-i+1} for i <= j+1, zero below; every case
    # keeps it in interior columns 0 < j < n and patches the rest.
    B = toeplitz(np.r_[g[1], g[0], np.zeros(n - 1)], g[1:])
    B[:, [0, n]] = 0.0  # absorbing unless a reflecting patch refills them

    if spec.form is DerivativeForm.RIEMANN_LIOUVILLE:
        if reflect_left:
            B[0, 0] = 1.0 - alpha
            B[1, 0] = 1.0
        if reflect_right:
            # b_in = -g^{alpha-1}_{n-i}: all mass overshooting x = 1 lands there.
            B[: n + 1, n] = -g1[n::-1]
    elif spec.form is DerivativeForm.PATIE_SIMON:
        # The first row is -g^{alpha-1}_j instead of the stencil.
        B[0, 1:n] = -g1[1:n]
        if reflect_left:
            B[0, 0] = -1.0
            B[1, 0] = 1.0
        if reflect_right:
            # Zeroing the left column leaves the rest of the reflecting
            # matrix unchanged, so b_0n keeps its sign either way; with an
            # absorbing left boundary row 0 never carries mass anyway.
            B[1 : n + 1, n] = -g1[n - 1 :: -1]
            B[0, n] = g2[n - 1]
    else:  # Caputo, absorbing/absorbing only (guaranteed by SchemeSpec).
        # Rows 0 and 1 carry the g^{alpha-2} correction.
        B[0, 1:n] = -g1[1:n] + g2[2 : n + 1]
        B[1, 1:n] = g[1:n] - g2[2 : n + 1]

    return IterationMatrix(n, B)


def row_sums(matrix: IterationMatrix) -> np.ndarray:
    """Per-row totals of the rate matrix; zero rows conserve mass."""
    return matrix.entries.sum(axis=1)


def absorbed_rates(spec: SchemeSpec, matrix: IterationMatrix) -> np.ndarray:
    """Per-node absorption rates ``a_i = -sum_j b_ij``.

    Positive entries are the rate (per unit ``beta``) at which mass leaves
    the system from node ``i``.  Rows belonging to absorbing boundary nodes
    never carry mass, so their entries are inert ledger values and may have
    either sign.
    """
    if spec.n != matrix.n:
        raise DimensionMismatch(
            f"spec has n={spec.n} but matrix has n={matrix.n}"
        )
    return -row_sums(matrix)
