"""One-sided fractional diffusion on the unit interval.

Grünwald-Letnikov evaluation of Riemann-Liouville, Patie-Simon, and Caputo
derivatives, iteration matrices for absorbing/reflecting boundary
conditions, explicit/implicit Euler stepping with a mass ledger, and
diagnostics for conservation, positivity, steady states, flux, and decay.

The diagnostics load on first use of one of their names: a run never calls
them, so ``import fracdiff1d`` and the CLI's ``solve`` do not compile them.
"""

from .errors import *
from .grunwald import *
from .operators import *
from .timestepper import *

__version__ = "0.1.0"

# diagnostics.__all__, which tests/test_exports.py holds equal to this list.
_DIAGNOSTICS = ["NegativityResult", "SteadyStateKind", "SteadyStateReference",
                "boundary_flux_check", "decay_rate", "l1_distance_interior",
                "negativity_scan", "steady_state_reference"]

__all__ = (_DIAGNOSTICS + errors.__all__ + grunwald.__all__
           + operators.__all__ + timestepper.__all__)


def __getattr__(name: str):
    """The ``diagnostics`` module and its names, imported on first access
    (PEP 562); any other missing name is an ``AttributeError``, so
    ``from fracdiff1d import verify`` still finds the submodule."""
    if name != "diagnostics" and name not in _DIAGNOSTICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    diagnostics = importlib.import_module(".diagnostics", __name__)
    globals().update((key, getattr(diagnostics, key)) for key in _DIAGNOSTICS)
    return diagnostics if name == "diagnostics" else globals()[name]
