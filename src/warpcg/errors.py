"""Exception types raised by warpcg.

Every outcome that callers are expected to catch gets its own class so that
drivers can distinguish "restart and retry" conditions from hard stops: one
class per outcome, not per place that detects it.
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
    """A step admits no conjugacy update: t <= 0, identical endpoints, a
    zero transported vector, or a vanishing conjugacy-coefficient
    denominator. The driver restarts along steepest ascent."""


class LineSearchFail(WarpcgError):
    """The line search exhausted its budget without a Wolfe point."""
