"""Exception hierarchy shared across the library.

The CLI maps each class onto one exit code (see :mod:`ehuav.cli`):
ConfigError 2, NumericError 3, TrendError 4.
"""


class EhuavError(Exception):
    """Base class for all library errors."""


class ConfigError(EhuavError, ValueError):
    """A bad input: a scenario or config value out of bounds, an argument
    outside a function's domain, or a problem size beyond a guard (the
    exhaustive grid's K <= 3)."""


class NumericError(EhuavError, ArithmeticError):
    """Internal numeric inconsistency or failed convergence."""


class TrendError(EhuavError):
    """An experiment-level trend assertion failed."""
