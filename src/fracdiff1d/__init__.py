"""One-sided fractional diffusion on the unit interval.

Grünwald-Letnikov evaluation of Riemann-Liouville, Patie-Simon, and Caputo
derivatives, iteration matrices for absorbing/reflecting boundary
conditions, explicit/implicit Euler stepping with a mass ledger, and
diagnostics for conservation, positivity, steady states, flux, and decay.
"""

from .diagnostics import *
from .errors import *
from .grunwald import *
from .operators import *
from .timestepper import *

__version__ = "0.1.0"

__all__ = (diagnostics.__all__ + errors.__all__ + grunwald.__all__
           + operators.__all__ + timestepper.__all__)
