"""Shared exception types.

Everything raised by this package derives from EnslabError, so callers can
catch one base class. Validation-style errors also derive from ValueError.
"""


class EnslabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EnslabError, ValueError):
    """An input fails a structural invariant (bad distribution, shape, interval)."""


class ConstraintError(EnslabError, ValueError):
    """A numeric constraint cannot be met (bound below entropy, unreachable mean)."""


class GridError(EnslabError, ValueError):
    """Grid geometry does not admit the requested operation."""


class EmptySeparationError(EnslabError, ValueError):
    """No lattice offset falls inside the requested separation bin."""


class NumericsError(EnslabError, ArithmeticError):
    """A computation left its numerical tolerance (overflow, residue, drift)."""
