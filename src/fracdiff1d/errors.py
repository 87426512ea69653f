"""Exception types shared across the package.

Everything derives from :class:`FracDiffError` (a ``ValueError``), so callers
who do not care about the fine distinctions can catch a single class.
"""

from __future__ import annotations

__all__ = [
    "DegenerateInput",
    "DimensionMismatch",
    "EmptySeries",
    "FracDiffError",
    "InvalidOrder",
    "InvalidSpec",
    "SingularSystem",
    "StabilityViolation",
    "UnsupportedCombination",
    "UnsupportedForm",
    "UsageError",
]


class FracDiffError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidOrder(FracDiffError):
    """A fractional order lies outside the supported range (1, 2)."""


class InvalidSpec(FracDiffError):
    """A scheme or solver configuration violates its invariants."""


class UnsupportedForm(FracDiffError):
    """The requested derivative form has no definition for this operation."""


class UnsupportedCombination(FracDiffError):
    """No scheme exists for this derivative form / boundary combination."""


class DimensionMismatch(FracDiffError):
    """Array lengths disagree with the grid they are supposed to live on."""


class StabilityViolation(FracDiffError):
    """An explicit step size exceeds the stability limit without an override."""


class SingularSystem(FracDiffError):
    """The implicit-step system matrix is numerically singular."""


class EmptySeries(FracDiffError):
    """A diagnostic was asked to scan a time series with no snapshots."""


class DegenerateInput(FracDiffError):
    """Not enough usable data points for a fit (or values hit zero)."""


class UsageError(FracDiffError):
    """Malformed command line or configuration file (exit code 2)."""
