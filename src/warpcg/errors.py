"""Exception types raised by warpcg.

Every failure mode that callers are expected to catch gets its own class so
that drivers can distinguish "restart and retry" conditions from hard stops.
Reference code outside the package, such as the tests' geometry oracle,
derives its own failure types from WarpcgError.
"""

from __future__ import annotations


class WarpcgError(Exception):
    """Base class for all warpcg errors."""


class NumericalBreakdown(WarpcgError):
    """A computed quantity came out non-finite (NaN or inf).

    Attributes:
        component: index of the first offending entry, or None when the
            failing quantity is a scalar.
    """

    def __init__(self, message: str, component: int | None = None):
        if component is not None:
            message = f"{message} (first bad component: {component})"
        super().__init__(message)
        self.component = component


class DegenerateStep(WarpcgError):
    """Transport was requested across a zero-length step (t <= 0 or
    identical endpoints)."""


class DegenerateBeta(WarpcgError):
    """The conjugacy-coefficient denominator vanished."""


class LineSearchFail(WarpcgError):
    """The line search exhausted its budget without a Wolfe point."""
