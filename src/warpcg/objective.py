"""Objective-function contract and derivative utilities.

An :class:`Objective` bundles a smooth scalar function, its gradient, and
(optionally) Hessian-vector products: an objective without one does not
define ``hvp``, and the inherited ``hvp`` raising NotImplementedError selects
the central-difference fallback. Everything downstream is matrix-free: no
code in this package ever asks for a dense Hessian; only the small dense
reference oracle in the tests does.

Finite-difference fallbacks and probes share one step, ``fd_step``: the
relative step ``FD_STEP`` = cbrt(machine epsilon), the float64 optimum for a
central difference of a first derivative, scaled by max(1, ||theta||) /
max(1, ||v||) so that the actual displacement along v is insensitive to the
magnitudes of both the point and the direction.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod

import numpy as np

from .errors import NumericalBreakdown

#: Relative step for central differences of first derivatives.
FD_STEP = float(np.cbrt(np.finfo(np.float64).eps))


def fd_step(theta: np.ndarray, v: np.ndarray) -> float:
    """Actual central-difference step along v, scaled to the magnitudes of
    theta and v."""
    # math.sqrt of the dot product is what np.linalg.norm computes for a
    # 1-D float array, without its per-call dispatch.
    nt = math.sqrt(float(theta.dot(theta)))
    nv = math.sqrt(float(v.dot(v)))
    return FD_STEP * max(1.0, nt) / max(1.0, nv)


def as_integer(name: str, value) -> int:
    """value as an int, for a setting that must be an integer (numpy
    integers pass); ValueError naming the setting otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class Objective(ABC):
    """A smooth function R^dim -> R to be maximized. To minimize a loss,
    implement its negation: value, grad and hvp all negated.

    Subclasses must provide ``value`` and ``grad``; ``hvp`` is optional. An
    ``hvp`` that raises NotImplementedError, as the inherited one does,
    selects the central-difference fallback, so a wrapper forwards ``hvp``
    and nothing more. ``dim`` must be an integer of at least ``min_dim``: 1
    here, so that no downstream code guards against a zero-dimensional
    domain, and more where a subclass raises it.
    """

    min_dim = 1

    def __init__(self, dim: int):
        self.dim = self.check_dim(dim)

    @classmethod
    def check_dim(cls, dim) -> int:
        """dim as an int, or ValueError if the objective has no such dimension."""
        dim = as_integer("dim", dim)
        if dim < cls.min_dim:
            raise ValueError(f"{cls.__name__} needs dim >= {cls.min_dim}, got {dim}")
        return dim

    @abstractmethod
    def value(self, theta: np.ndarray) -> float:
        """Function value at theta."""

    @abstractmethod
    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Gradient at theta, shape (dim,)."""

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product at theta. Optional: raising
        NotImplementedError, as this default does, selects the
        central-difference fallback of hvp_or_fallback."""
        raise NotImplementedError


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return arr, or raise NumericalBreakdown naming its first NaN or inf.

    Every call screens with the self-dot np.vdot(arr, arr), which flattens
    any shape and raises no floating-point warning: a NaN or inf entry
    makes it non-finite, so a finite self-dot proves the array finite. Only
    when the screen fails does the exact test np.isfinite(arr).all() run,
    because a finite array whose self-dot overflows also fails the screen;
    the mask and argmax run only when that test fails too.
    """
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NumericalBreakdown(
            f"non-finite {what}", component=int(np.argmax(~np.isfinite(arr)))
        )
    return arr


def hvp_or_fallback(obj: Objective, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product: obj.hvp, or central differences of the
    gradient when obj.hvp raises NotImplementedError.

    The fallback is (grad(theta + r v) - grad(theta - r v)) / (2 r) with
    r = fd_step(theta, v). Raises NumericalBreakdown when the result is not
    finite, naming the first offending component.
    """
    try:
        out = obj.hvp(theta, v)
    except NotImplementedError:
        r = fd_step(theta, v)
        out = (
            np.asarray(obj.grad(theta + r * v), dtype=float)
            - np.asarray(obj.grad(theta - r * v), dtype=float)
        ) / (2.0 * r)
    return _check_finite(np.asarray(out, dtype=float), "hessian-vector product")


class CountingObjective(Objective):
    """Transparent wrapper that counts value/grad/hvp calls in its three
    ints n_value, n_grad and n_hvp. The CG loop, rcg._run_cg, wraps its
    objective in one and reads each trace row's counts from it."""

    def __init__(self, inner: Objective):
        super().__init__(inner.dim)
        self.inner = inner
        self.n_value = 0
        self.n_grad = 0
        self.n_hvp = 0

    def value(self, theta: np.ndarray) -> float:
        self.n_value += 1
        return self.inner.value(theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        self.n_grad += 1
        return self.inner.grad(theta)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        # Counted only once it returns: an attempt that raises
        # NotImplementedError is the fallback's, whose gradients count.
        out = self.inner.hvp(theta, v)
        self.n_hvp += 1
        return out
