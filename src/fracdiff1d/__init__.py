"""One-sided fractional diffusion on the unit interval.

Grünwald-Letnikov evaluation of Riemann-Liouville, Patie-Simon, and Caputo
derivatives, iteration matrices for absorbing/reflecting boundary
conditions, explicit/implicit Euler stepping with a mass ledger, and
diagnostics for conservation, positivity, steady states, flux, and decay.
"""

from .diagnostics import (
    NegativityResult,
    SteadyStateKind,
    SteadyStateReference,
    boundary_flux_check,
    decay_rate,
    l1_distance_interior,
    negativity_scan,
    steady_state_reference,
)
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptySeries,
    FracDiffError,
    InvalidOrder,
    InvalidSpec,
    SingularSystem,
    StabilityViolation,
    UnsupportedCombination,
    UnsupportedForm,
    UsageError,
)
from .grunwald import (
    DerivativeForm,
    GridFunction,
    GrunwaldWeights,
    caputo_derivative_grid,
    flux_profile,
    grunwald_weights,
    ps_derivative_grid,
    rl_derivative_grid,
    weight_recursion_gap,
    weight_sum_gap,
    weight_tail_gap,
)
from .operators import (
    BoundaryCondition,
    IterationMatrix,
    SchemeSpec,
    build_matrix,
)
from .timestepper import (
    InitialCondition,
    Method,
    SolverConfig,
    TimeSeries,
    explicit_step,
    implicit_step,
    run_simulation,
    sine_bump_profile,
    stability_limit,
    tent_profile,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "DegenerateInput",
    "DerivativeForm",
    "DimensionMismatch",
    "EmptySeries",
    "FracDiffError",
    "GridFunction",
    "GrunwaldWeights",
    "InitialCondition",
    "InvalidOrder",
    "InvalidSpec",
    "IterationMatrix",
    "Method",
    "NegativityResult",
    "SchemeSpec",
    "SingularSystem",
    "SolverConfig",
    "StabilityViolation",
    "SteadyStateKind",
    "SteadyStateReference",
    "TimeSeries",
    "UnsupportedCombination",
    "UnsupportedForm",
    "UsageError",
    "boundary_flux_check",
    "build_matrix",
    "caputo_derivative_grid",
    "decay_rate",
    "explicit_step",
    "flux_profile",
    "grunwald_weights",
    "implicit_step",
    "l1_distance_interior",
    "negativity_scan",
    "ps_derivative_grid",
    "rl_derivative_grid",
    "run_simulation",
    "sine_bump_profile",
    "stability_limit",
    "steady_state_reference",
    "tent_profile",
    "weight_recursion_gap",
    "weight_sum_gap",
    "weight_tail_gap",
]
