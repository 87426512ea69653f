r"""Grünwald-Letnikov weights and one-sided fractional derivatives on a grid.

The one-sided fractional derivative of order :math:`\alpha` with memory on
:math:`[0, x]` admits the Grünwald-Letnikov limit

.. math::

    \mathbb{D}^\alpha f(x) = \lim_{h \to 0} h^{-\alpha}
        \sum_{i \ge 0} g^\alpha_i f(x - i h),
    \qquad
    g^\alpha_i = (-1)^i \binom{\alpha}{i},

where the sum truncates once :math:`x - ih < 0`, which encodes a zero
condition to the left of the origin.  Three derivative forms are supported
for :math:`1 < \alpha < 2`:

* **Riemann-Liouville** -- differentiation outside the memory integral; the
  grid evaluation is the (optionally shifted) Grünwald sum itself.
* **Patie-Simon** -- :math:`\frac{d}{dx}` of the Caputo derivative of order
  :math:`\alpha - 1`; equals Riemann-Liouville minus
  :math:`f(0) x^{-\alpha}/\Gamma(1-\alpha)`, so it annihilates constants.
* **Caputo** -- differentiation inside the memory integral; additionally
  annihilates affine functions.

All functions are pure; returned arrays are read-only and safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidOrder, InvalidSpec, UnsupportedForm

__all__ = [
    "DerivativeForm",
    "GridFunction",
    "GrunwaldWeights",
    "caputo_derivative_grid",
    "flux_profile",
    "grunwald_weights",
    "ps_derivative_grid",
    "rl_derivative_grid",
    "weight_recursion_gap",
    "weight_sum_gap",
    "weight_tail_gap",
]


class DerivativeForm(enum.Enum):
    """Closed enumeration of the supported one-sided derivative forms."""

    RIEMANN_LIOUVILLE = "rl"
    PATIE_SIMON = "ps"
    CAPUTO = "caputo"


def _frozen(values, shape: tuple[int, ...] | None = None,
            mismatch: str = "") -> np.ndarray:
    """A read-only float64 copy of ``values``, the arrays every value type
    holds.  Values of another ``shape`` raise :class:`DimensionMismatch`
    with ``mismatch`` formatted by the ``expected`` and the found (``got``)
    shape."""
    array = np.asarray(values, dtype=float)
    if shape is not None and array.shape != shape:
        raise DimensionMismatch(mismatch.format(expected=shape, got=array.shape))
    array = array.copy()
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class GrunwaldWeights:
    r"""Prefix :math:`g^\alpha_0, \dots, g^\alpha_m` of the weight sequence.

    The weights are the signed binomial coefficients
    :math:`g^\alpha_i = (-1)^i \binom{\alpha}{i}` and satisfy the
    multiplicative recursion

    .. math:: g^\alpha_0 = 1, \qquad
              g^\alpha_i = g^\alpha_{i-1} \, \frac{i - 1 - \alpha}{i},

    which is how they are computed here.  Ratios of Gamma evaluations are
    deliberately avoided: they overflow beyond :math:`i \approx 170`.
    """

    order: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on the uniform grid ``x_j = j / n``, ``j = 0 .. n``."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSpec(f"grid needs at least one interval, got n={self.n}")
        object.__setattr__(self, "values", _frozen(
            self.values, (self.n + 1,),
            "expected {expected[0]} nodal values, got shape {got}"))

    @property
    def h(self) -> float:
        """Grid spacing ``1 / n``."""
        return 1.0 / self.n

    @classmethod
    def sample(cls, profile, n: int) -> "GridFunction":
        """Sample a callable pointwise at the nodes of an ``n``-interval grid."""
        x = np.arange(n + 1) / n
        return cls(n, profile(x))


def grunwald_weights(order: float, m: int) -> GrunwaldWeights:
    """Return the weights ``g^order_0 .. g^order_m`` via the stable recursion.

    Any finite ``order`` is valid; nonnegative integer orders produce
    terminating (binomial) sequences.
    """
    if m < 0:
        raise InvalidSpec(f"weight count must be nonnegative, got m={m}")
    if not math.isfinite(order):
        raise InvalidOrder(f"order must be finite, got {order}")
    vals = np.empty(m + 1)
    vals[0] = 1.0
    if m > 0:
        i = np.arange(1, m + 1)
        # An overflow, or an overflow times a zero factor, is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod((i - 1 - order) / i, out=vals[1:])
        if not np.isfinite(vals).all():
            raise InvalidOrder(f"weights of order {order} up to m={m} overflow float64")
    return GrunwaldWeights(order, vals)


def weight_recursion_gap(weights: GrunwaldWeights) -> float:
    """Largest relative defect of the multiplicative recursion.

    Test-surface utility; not asserted at runtime.
    """
    vals = weights.values
    if len(vals) < 2:
        return 0.0
    i = np.arange(1, len(vals))
    expected = vals[:-1] * (i - 1 - weights.order) / i
    scale = np.maximum(np.abs(vals[1:]), np.finfo(float).tiny)
    return float(np.max(np.abs(vals[1:] - expected) / scale))


def weight_sum_gap(order: float, m: int) -> float:
    r"""Defect of the cumulative identity
    :math:`\sum_{i=0}^{m} g^\alpha_i = g^{\alpha-1}_m`.

    Summing the full sequence to infinity gives zero, which is what makes the
    diffusion schemes mass-preserving; the partial sums equal the weights of
    the once-lowered order.
    """
    total = float(grunwald_weights(order, m).values.sum())
    return abs(total - float(grunwald_weights(order - 1.0, m).values[m]))


def weight_tail_gap(weights: GrunwaldWeights, j: np.ndarray | int) -> np.ndarray:
    r"""Deviation of the tail from its power-law asymptote.

    For order :math:`\beta \in (-1, 1)` the weights behave like
    :math:`g^\beta_j \sim \frac{-\beta}{\Gamma(1-\beta)} j^{-\beta-1}` as
    :math:`j \to \infty`; this returns ``|g_j / asymptote - 1|``.
    """
    beta = weights.order
    j = np.atleast_1d(np.asarray(j, dtype=int))
    asymptote = -beta / math.gamma(1.0 - beta) * j.astype(float) ** (-beta - 1.0)
    return np.abs(weights.values[j] / asymptote - 1.0)


def _require_order(alpha: float) -> None:
    if not 1.0 < alpha < 2.0:
        raise InvalidOrder(f"derivative order must lie in (1, 2), got {alpha}")


def rl_derivative_grid(
    f: GridFunction, alpha: float, shifted: bool = True
) -> GridFunction:
    r"""Riemann-Liouville derivative of a grid function at every node.

    Unshifted: :math:`h^{-\alpha} \sum_{i=0}^{j} g^\alpha_i f(x_{j-i})`.
    Shifted: :math:`h^{-\alpha} \sum_{i=0}^{j+1} g^\alpha_i f(x_{j-i+1})`,
    the stencil used by the stable diffusion schemes.

    At the last node the shifted stencil references :math:`x_{n+1} = 1 + h`;
    that sample is taken as zero, because the schemes never let exterior mass
    re-enter the domain.  Consequently the shifted value at node ``n`` is a
    bookkeeping quantity, not an approximation of the derivative there;
    accuracy claims hold at interior nodes.  At node 0 the sums degenerate to
    one or two terms and are reported as-is.
    """
    _require_order(alpha)
    n = f.n
    g = grunwald_weights(alpha, n + 1).values
    conv = np.convolve(g, f.values)
    window = conv[1 : n + 2] if shifted else conv[: n + 1]
    return GridFunction(n, f.h**-alpha * window)


def ps_derivative_grid(f: GridFunction, alpha: float) -> GridFunction:
    r"""Patie-Simon derivative of a grid function at every node.

    Evaluates
    :math:`h^{-\alpha} \bigl[ \sum_{i=0}^{j+1} g^\alpha_i f(x_{j-i+1})
    - g^{\alpha-1}_{j+1} f(x_0) \bigr]`:
    the shifted Riemann-Liouville sum with a correction that removes the
    :math:`f(0) x^{-\alpha}/\Gamma(1-\alpha)` contribution, so constants are
    annihilated.
    """
    _require_order(alpha)
    n = f.n
    g1 = grunwald_weights(alpha - 1.0, n + 1).values
    rl = rl_derivative_grid(f, alpha, shifted=True).values
    return GridFunction(n, rl - f.h**-alpha * g1[1 : n + 2] * f.values[0])


def caputo_derivative_grid(f: GridFunction, alpha: float) -> GridFunction:
    r"""Caputo derivative of a grid function at every node.

    Evaluates the four-term sum

    .. math::

        h^{-\alpha} \Bigl[ \sum_{i=0}^{j+1} g^\alpha_i f(x_{j-i+1})
            - g^{\alpha-1}_{j+1} f(x_0)
            - g^{\alpha-2}_{j+1} \bigl( f(x_1) - f(x_0) \bigr) \Bigr],

    i.e. the Patie-Simon value minus a discrete
    :math:`f'(0) x^{1-\alpha}/\Gamma(2-\alpha)` term, so affine functions are
    annihilated as well.
    """
    _require_order(alpha)
    n = f.n
    g2 = grunwald_weights(alpha - 2.0, n + 1).values
    ps = ps_derivative_grid(f, alpha).values
    correction = f.h**-alpha * g2[1 : n + 2] * (f.values[1] - f.values[0])
    return GridFunction(n, ps - correction)


def flux_profile(
    u: GridFunction, alpha: float, c: float, form: DerivativeForm
) -> GridFunction:
    r"""Fractional diffusive flux :math:`q = -C\, D^{\alpha-1} u` at every node.

    For the Riemann-Liouville form the order-:math:`(\alpha-1)` derivative is
    the unshifted Grünwald sum.  For the Patie-Simon form the flux is the
    Caputo derivative of order :math:`\alpha - 1`, obtained by subtracting the
    :math:`u(0) x^{1-\alpha}/\Gamma(2-\alpha)` contribution in its discrete
    Grünwald representation :math:`h^{1-\alpha} g^{\alpha-2}_j u(x_0)` (the
    two agree as :math:`h \to 0` at fixed :math:`x > 0`, but the continuum
    power diverges at nodes next to the origin when :math:`u(0) \neq 0`,
    whereas the discrete form is exact on constants).  At node 0 both
    variants reduce to their degenerate one-term sums (identically zero for
    the Caputo flux).

    The raw Caputo derivative form has no flux and is rejected.
    """
    _require_order(alpha)
    if c <= 0.0:
        raise InvalidSpec(f"diffusivity must be positive, got {c}")
    if form is DerivativeForm.CAPUTO:
        raise UnsupportedForm("no flux is defined for the raw Caputo form")
    n = u.n
    g1 = grunwald_weights(alpha - 1.0, n).values
    conv = np.convolve(g1, u.values)[: n + 1]
    if form is DerivativeForm.PATIE_SIMON:
        g2 = grunwald_weights(alpha - 2.0, n).values
        conv = conv - g2 * u.values[0]
    return GridFunction(n, -c * u.h ** (1.0 - alpha) * conv)
