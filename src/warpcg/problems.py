"""Benchmark objectives (all in maximization form) and their starts.

Each problem implements the full Objective contract with analytic gradient
and Hessian-vector product, both O(dim) per call, plus its closed-form
ground truth (maximizer, maximum value) for tests and run summaries. The
shapes are fixed: a problem is set by its dimension alone, and the
quadratic also by its curvatures and center.

Every per-call sum calls np.add.reduce directly: it gives the same bits as
ndarray.sum(), without that method's Python _sum wrapper on each call.
"""

from __future__ import annotations

import math

import numpy as np

from .objective import Objective, as_integer

__all__ = [
    "SquiggleProblem",
    "RosenbrockProblem",
    "QuadraticProblem",
    "make_problem",
    "initial_point",
    "classify_rosenbrock_basin",
    "PROBLEM_NAMES",
]


def _per_dimension(name: str, values, dim: int, positive: bool = False) -> np.ndarray:
    """values as a float array of shape (dim,) with finite (and, when asked,
    positive) entries, or ValueError naming the parameter."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have one entry per dimension, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if positive and not (arr > 0.0).all():
        raise ValueError(f"{name} must be positive")
    return arr


class SquiggleProblem(Objective):
    """Log-density of a Gaussian bent along a sine ridge.

    With s_1 = theta_1 and s_i = theta_i + sin(theta_1) for i >= 2,

        f(theta) = -dim/2 log(2 pi) - 1/2 sum_i log var_i
                   - 1/2 sum_i s_i^2 / var_i.

    The variances (first 30.0, rest 0.5) make the ridge direction soft and
    the transverse directions stiff. Unique maximizer at the origin.
    Gradient and hvp exploit the arrow structure of the Jacobian (dense
    first column, identity elsewhere) for O(dim) cost.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        variances = np.full(dim, 0.5)
        variances[0] = 30.0
        self._lam = 1.0 / variances
        self._lam_tail = self._lam[1:]
        self._log_norm = float(
            -0.5 * dim * np.log(2.0 * np.pi) - 0.5 * float(np.sum(np.log(variances)))
        )

    # Fixed costs dominate at small dim, so the scalar work on theta_0 runs
    # on Python floats with math: numpy's ufuncs on numpy scalars give the
    # same bits at a higher cost per call.

    def _bent(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        s = theta + math.sin(float(theta[0]))
        s[0] = theta[0]
        return s

    def value(self, theta: np.ndarray) -> float:
        s = self._bent(theta)
        return self._log_norm - 0.5 * float(np.add.reduce(self._lam * s * s))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        s = self._bent(theta)
        ls = self._lam * s
        out = -ls
        out[0] -= math.cos(float(s[0])) * float(np.add.reduce(ls[1:]))
        return out

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        v = np.asarray(v, dtype=float)
        t0 = float(theta[0])
        sin1 = math.sin(t0)
        cos1 = math.cos(t0)
        v0 = float(v[0])
        jv = v + cos1 * v0
        jv[0] = v0
        ljv = self._lam * jv
        out = -ljv
        out[0] -= cos1 * float(np.add.reduce(ljv[1:]))
        # Curvature of the bend itself: only the (0, 0) entry.
        out[0] += sin1 * float(np.add.reduce(self._lam_tail * (theta[1:] + sin1))) * v0
        return out

    def maximizer(self) -> np.ndarray:
        return np.zeros(self.dim)

    def max_value(self) -> float:
        return self._log_norm


class RosenbrockProblem(Objective):
    """Negated chained Rosenbrock valley,

        f(theta) = -sum_{j<dim} [ 100 (theta_{j+1} - theta_j^2)^2
                                  + (1 - theta_j)^2 ].

    The global maximum is 0 at the all-ones point. For dim >= 4 a
    well-known secondary stationary point sits near theta_1 = -1. The
    Hessian is tridiagonal, so the hvp is a three-band stencil, O(dim).
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError(f"rosenbrock needs dim >= 2, got {dim}")
        super().__init__(dim)

    # Each method computes the textbook expression's operations in its
    # order, but into its output and one (dim-1)-long scratch, recomputing
    # a band rather than holding a third array. Augmented assignment swaps
    # the operands of some products, which gives the same bits. Where an
    # output entry sums two terms, their order may differ from the
    # expression's: neither term can be -0.0, so the sum has the same bits
    # either way.

    def value(self, theta: np.ndarray) -> float:
        # -sum(100 (y - x x)^2 + (1 - x)^2)
        x, y = theta[:-1], theta[1:]
        terms = x * x
        np.subtract(y, terms, out=terms)
        terms *= terms
        terms *= 100.0
        pull = 1.0 - x
        pull *= pull
        terms += pull
        return -float(np.add.reduce(terms))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        # out[:-1] = (y - x x) (400 x) + 2 (1 - x), then out[1:] += -200 (y - x x)
        x, y = theta[:-1], theta[1:]
        out = np.empty(theta.shape)
        head = out[:-1]
        band = x * x
        np.subtract(y, band, out=band)
        np.multiply(400.0, x, out=head)
        head *= band
        np.subtract(1.0, x, out=band)
        band *= 2.0
        head += band
        np.multiply(x, x, out=band)
        np.subtract(y, band, out=band)
        band *= -200.0
        out[-1] = 0.0
        out[1:] += band
        return out

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        # diag = [400 (y - 3 x x) - 2, 0] + [0, -200]; out = diag v plus the
        # coupling 400 x between j and j+1 in both directions.
        x, y = theta[:-1], theta[1:]
        out = np.empty(theta.shape)
        head, tail = out[:-1], out[1:]
        np.multiply(3.0, x, out=head)
        head *= x
        np.subtract(y, head, out=head)
        head *= 400.0
        head -= 2.0
        out[-1] = 0.0
        tail += -200.0
        out *= v
        off = 400.0 * x
        off *= v[1:]
        head += off
        np.multiply(400.0, x, out=off)
        off *= v[:-1]
        tail += off
        return out

    def maximizer(self) -> np.ndarray:
        return np.ones(self.dim)

    def max_value(self) -> float:
        return 0.0


class QuadraticProblem(Objective):
    """Axis-aligned concave quadratic f = -1/2 sum_i a_i (theta_i - c_i)^2.

    The simplest possible territory: CG with exact line search terminates
    in as many steps as there are distinct a_i. Defaults spread the
    curvatures over [1, 2] and center at the origin.
    """

    def __init__(self, dim: int, curvatures: np.ndarray | None = None, center: np.ndarray | None = None):
        super().__init__(dim)
        if curvatures is None:
            curvatures = np.linspace(1.0, 2.0, dim)
        if center is None:
            center = np.zeros(dim)
        self.curvatures = _per_dimension("curvatures", curvatures, dim, positive=True)
        self.center = _per_dimension("center", center, dim)

    def value(self, theta: np.ndarray) -> float:
        d = theta - self.center
        return -0.5 * float(np.add.reduce(self.curvatures * d * d))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return -self.curvatures * (theta - self.center)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        return -self.curvatures * np.asarray(v, dtype=float)

    def maximizer(self) -> np.ndarray:
        return self.center.copy()

    def max_value(self) -> float:
        return 0.0


# name -> (problem class, amplitude of its alternating-sign start)
_PROBLEMS = {
    "squiggle": (SquiggleProblem, 10.0),
    "rosenbrock": (RosenbrockProblem, 5.0),
    "quadratic": (QuadraticProblem, 0.5),
}
PROBLEM_NAMES = tuple(_PROBLEMS)


def _entry(name: str) -> tuple[type[Objective], float]:
    """The (class, start amplitude) row of a problem name, or ValueError."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    return _PROBLEMS[name]


def make_problem(name: str, dim: int) -> Objective:
    """Construct a benchmark problem by name with its default parameters."""
    cls, _ = _entry(name)
    return cls(dim)


def initial_point(name: str, dim: int) -> np.ndarray:
    """Canonical start for each benchmark: alternating-sign points far from
    the maximizer (amplitude 10 for squiggle, 5 for rosenbrock, 1/2 for the
    quadratic)."""
    _, amplitude = _entry(name)
    signs = np.where(np.arange(as_integer("dim", dim)) % 2 == 0, -1.0, 1.0)
    return amplitude * signs


def classify_rosenbrock_basin(theta: np.ndarray) -> str:
    """Label a Rosenbrock endpoint: 'global' within 0.1 of the all-ones
    maximizer, 'local' within 0.1 of the secondary stationary point with
    first coordinate flipped to -1, 'other' elsewhere."""
    theta = np.asarray(theta, dtype=float)
    target = np.ones(theta.size)
    if np.linalg.norm(theta - target) < 0.1:
        return "global"
    target[0] = -1.0
    if np.linalg.norm(theta - target) < 0.1:
        return "local"
    return "other"
