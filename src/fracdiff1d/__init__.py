"""One-sided fractional diffusion on the unit interval.

Grünwald-Letnikov evaluation of Riemann-Liouville, Patie-Simon, and Caputo
derivatives, iteration matrices for absorbing/reflecting boundary
conditions, explicit/implicit Euler stepping with a mass ledger, and
diagnostics for conservation, positivity, steady states, flux, and decay.

Every name loads on first use (PEP 562), so ``import fracdiff1d`` loads no
numpy and the command line's module can choose how numpy's BLAS starts.
"""

import importlib

__version__ = "0.1.0"

# The exporting modules, each importing only those before it: a lookup loads no more.
_MODULES = ("errors", "grunwald", "operators", "timestepper", "diagnostics")


def __getattr__(name: str):
    """A submodule, a public name of ``_MODULES`` or ``__all__``, imported once."""
    if name == "__all__":
        value = [key for module in _MODULES[-1:] + _MODULES[:-1]  # diagnostics first
                 for key in __getattr__(module).__all__]
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":  # a missing dependency
                raise
            owner = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
            if owner is None:
                raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
            value = getattr(owner, name)
    globals()[name] = value
    return value
