"""Shared exception types.

Everything raised by this package derives from EnslabError, so callers can
catch one base class. There are two kinds of failure, and one class each:

* ValidationError (also a ValueError): the input is bad. A config key of
  the wrong type, or a distribution, shape, interval, grid, separation bin,
  bound or flow that no computation can serve. The check that raises it
  lives in the module that owns the rule (the CLI owns the types of its
  config), and the CLI reports it as a bad configuration (exit 2).
* NumericsError (also an ArithmeticError): a computation on good input left
  its numerical tolerance (exit 3).
"""


class EnslabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EnslabError, ValueError):
    """An input fails a rule of the module that takes it (shape, range,
    constraint, grid geometry, empty separation bin, unstable flow)."""


class NumericsError(EnslabError, ArithmeticError):
    """A computation left its numerical tolerance (overflow, residue, drift)."""
