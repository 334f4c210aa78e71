"""Objective-function contract and derivative utilities.

An :class:`Objective` bundles a smooth scalar function, its gradient, and
(optionally) Hessian-vector products. Everything downstream is matrix-free:
no code in this package ever asks for a dense Hessian except the small dense
reference oracle used in tests.

Finite-difference fallbacks and probes share a single step-size policy,
``FdConfig``: a base relative step (default cbrt(machine epsilon)) scaled by
max(1, ||theta||) / max(1, ||v||) so that the actual displacement along v is
insensitive to the magnitudes of both the point and the direction.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

EPS = float(np.finfo(np.float64).eps)
SQRT_EPS = float(np.sqrt(EPS))
CBRT_EPS = float(np.cbrt(EPS))

#: Default relative step for central differences of first derivatives.
DEFAULT_FD_STEP = CBRT_EPS


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference step policy.

    Attributes:
        step: base relative step. Must be positive. Values below 1e-12 are
            allowed but trigger a warning: in float64 central differences
            they produce pure rounding noise.
    """

    step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        if not (self.step > 0.0):
            raise ValueError(f"fd step must be positive, got {self.step}")
        if self.step < 1e-12:
            warnings.warn(
                f"fd step {self.step:g} is below float64 resolution for "
                "central differences; expect noise-dominated derivatives",
                stacklevel=2,
            )

    def scaled(self, theta: np.ndarray, v: np.ndarray) -> float:
        """Actual step along v, scaled to the magnitudes of theta and v."""
        nt = float(np.linalg.norm(theta))
        nv = float(np.linalg.norm(v))
        return self.step * max(1.0, nt) / max(1.0, nv)


class Objective(ABC):
    """A smooth function R^dim -> R to be maximized.

    Subclasses must provide ``value`` and ``grad``; ``hvp`` is optional and
    is replaced by a central-difference fallback when absent. ``dim`` must
    be a positive integer (a zero-dimensional domain is rejected here so
    that no downstream code needs to guard against it).
    """

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"objective dimension must be >= 1, got {dim}")
        self.dim = dim

    @abstractmethod
    def value(self, theta: np.ndarray) -> float:
        """Function value at theta."""

    @abstractmethod
    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Gradient at theta, shape (dim,)."""

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product at theta. Optional; see has_hvp."""
        raise NotImplementedError

    @property
    def has_hvp(self) -> bool:
        """True when the subclass supplies an analytic hvp."""
        return type(self).hvp is not Objective.hvp


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    bad = ~np.isfinite(arr)
    if bad.any():
        raise NumericalBreakdown(
            f"non-finite {what}", component=int(np.argmax(bad))
        )
    return arr


def hvp_or_fallback(
    obj: Objective, theta: np.ndarray, v: np.ndarray, fd: FdConfig
) -> np.ndarray:
    """Hessian-vector product, analytic when available else central diff.

    The fallback is (grad(theta + r v) - grad(theta - r v)) / (2 r) with the
    scaled step from fd. Raises NumericalBreakdown when the result is not
    finite, naming the first offending component.
    """
    if obj.has_hvp:
        out = np.asarray(obj.hvp(theta, v), dtype=float)
    else:
        if not np.any(v):
            return np.zeros_like(np.asarray(theta, dtype=float))
        r = fd.scaled(theta, v)
        out = (obj.grad(theta + r * v) - obj.grad(theta - r * v)) / (2.0 * r)
        out = np.asarray(out, dtype=float)
    return _check_finite(out, "hessian-vector product")


class NegatedObjective(Objective):
    """Flips the sign of another objective, turning minimization of f into
    maximization of -f. Used by the CLI's --minimize flag."""

    def __init__(self, inner: Objective):
        super().__init__(inner.dim)
        self.inner = inner

    def value(self, theta: np.ndarray) -> float:
        return -self.inner.value(theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return -self.inner.grad(theta)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.inner.has_hvp:
            return -self.inner.hvp(theta, v)
        raise NotImplementedError

    @property
    def has_hvp(self) -> bool:
        return self.inner.has_hvp


@dataclass
class EvalCounts:
    """Cumulative call counts observed by a CountingObjective."""

    n_value: int = 0
    n_grad: int = 0
    n_hvp: int = 0

    def snapshot(self) -> "EvalCounts":
        return EvalCounts(self.n_value, self.n_grad, self.n_hvp)


class CountingObjective(Objective):
    """Transparent wrapper that counts value/grad/hvp calls.

    The optimizer drivers wrap their objective in one of these so per
    iteration call budgets can be recorded in the trace and asserted in
    tests.
    """

    def __init__(self, inner: Objective):
        super().__init__(inner.dim)
        self.inner = inner
        self.counts = EvalCounts()

    def value(self, theta: np.ndarray) -> float:
        self.counts.n_value += 1
        return self.inner.value(theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        self.counts.n_grad += 1
        return self.inner.grad(theta)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.counts.n_hvp += 1
        return self.inner.hvp(theta, v)

    @property
    def has_hvp(self) -> bool:
        return self.inner.has_hvp
