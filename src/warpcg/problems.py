"""Benchmark objectives (all in maximization form) and their starts.

Each problem implements the full Objective contract with analytic gradient
and Hessian-vector product, both O(dim) per call, plus whatever closed-form
ground truth it has (maximizer, maximum value) for tests and run summaries.
"""

from __future__ import annotations

import numpy as np

from .objective import Objective

__all__ = [
    "SquiggleProblem",
    "RosenbrockProblem",
    "QuadraticProblem",
    "make_problem",
    "initial_point",
    "classify_rosenbrock_basin",
    "PROBLEM_NAMES",
]


class SquiggleProblem(Objective):
    """Log-density of a Gaussian bent along a sine ridge.

    With s_1 = theta_1 and s_i = theta_i + sin(freq * theta_1) for i >= 2,

        f(theta) = -dim/2 log(2 pi) - 1/2 sum_i log var_i
                   - 1/2 sum_i s_i^2 / var_i.

    The default variances (first 30.0, rest 0.5) make the ridge direction
    soft and the transverse directions stiff. Unique maximizer at the
    origin. Gradient and hvp exploit the arrow structure of the Jacobian
    (dense first column, identity elsewhere) for O(dim) cost.
    """

    def __init__(self, dim: int, freq: float = 1.0, variances: np.ndarray | None = None):
        super().__init__(dim)
        self.freq = float(freq)
        if variances is None:
            variances = np.full(dim, 0.5)
            variances[0] = 30.0
        self.variances = np.asarray(variances, dtype=float)
        if self.variances.shape != (dim,) or np.any(self.variances <= 0):
            raise ValueError("variances must be positive with one entry per dimension")
        self._lam = 1.0 / self.variances
        self._log_norm = -0.5 * dim * np.log(2.0 * np.pi) - 0.5 * float(
            np.sum(np.log(self.variances))
        )

    def _bent(self, theta: np.ndarray) -> np.ndarray:
        s = np.array(theta, dtype=float)
        s[1:] += np.sin(self.freq * theta[0])
        return s

    def value(self, theta: np.ndarray) -> float:
        s = self._bent(theta)
        return self._log_norm - 0.5 * float((self._lam * s * s).sum())

    def grad(self, theta: np.ndarray) -> np.ndarray:
        s = self._bent(theta)
        ls = self._lam * s
        out = -ls
        out[0] -= self.freq * np.cos(self.freq * theta[0]) * float(ls[1:].sum())
        return out

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        sin1 = np.sin(self.freq * theta[0])
        cos1 = np.cos(self.freq * theta[0])
        jv = np.array(v, dtype=float)
        jv[1:] += self.freq * cos1 * v[0]
        ljv = self._lam * jv
        out = -ljv
        out[0] -= self.freq * cos1 * float(ljv[1:].sum())
        # Curvature of the bend itself: only the (0, 0) entry.
        out[0] += (
            self.freq
            * self.freq
            * sin1
            * float((self._lam[1:] * (theta[1:] + sin1)).sum())
            * v[0]
        )
        return out

    def maximizer(self) -> np.ndarray:
        return np.zeros(self.dim)

    def max_value(self) -> float:
        return self._log_norm


class RosenbrockProblem(Objective):
    """Negated chained Rosenbrock valley,

        f(theta) = -sum_{j<dim} [ bend (theta_{j+1} - theta_j^2)^2
                                  + (shift - theta_j)^2 ].

    With the default shift = 1 the global maximum is 0 at the all-ones
    point (maximizer()/max_value() assume that default). For dim >= 4 a
    well-known secondary stationary point sits near theta_1 = -1. The
    Hessian is tridiagonal, so the hvp is a three-band stencil, O(dim).
    """

    def __init__(self, dim: int, shift: float = 1.0, bend: float = 100.0):
        if dim < 2:
            raise ValueError(f"rosenbrock needs dim >= 2, got {dim}")
        super().__init__(dim)
        self.shift = float(shift)
        self.bend = float(bend)

    def value(self, theta: np.ndarray) -> float:
        x, y = theta[:-1], theta[1:]
        return -float((self.bend * (y - x * x) ** 2 + (self.shift - x) ** 2).sum())

    def grad(self, theta: np.ndarray) -> np.ndarray:
        b = self.bend
        x, y = theta[:-1], theta[1:]
        out = np.zeros(np.shape(theta))
        out[:-1] += 4.0 * b * x * (y - x * x) + 2.0 * (self.shift - x)
        out[1:] += -2.0 * b * (y - x * x)
        return out

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        b = self.bend
        x, y = theta[:-1], theta[1:]
        diag = np.zeros(np.shape(theta))
        diag[:-1] += 4.0 * b * (y - 3.0 * x * x) - 2.0
        diag[1:] += -2.0 * b
        off = 4.0 * b * x  # coupling between j and j+1
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    def maximizer(self) -> np.ndarray:
        return np.full(self.dim, self.shift)

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
        self.curvatures = np.asarray(curvatures, dtype=float)
        self.center = np.asarray(center, dtype=float)
        if self.curvatures.shape != (dim,) or np.any(self.curvatures <= 0):
            raise ValueError("curvatures must be positive with one entry per dimension")
        if self.center.shape != (dim,):
            raise ValueError("center must have one entry per dimension")

    def value(self, theta: np.ndarray) -> float:
        d = theta - self.center
        return -0.5 * float((self.curvatures * d * d).sum())

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return -self.curvatures * (theta - self.center)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        return -self.curvatures * np.asarray(v, dtype=float)

    def maximizer(self) -> np.ndarray:
        return self.center.copy()

    def max_value(self) -> float:
        return 0.0


PROBLEM_NAMES = ("squiggle", "rosenbrock", "quadratic")


def make_problem(name: str, dim: int) -> Objective:
    """Construct a benchmark problem by name with its default parameters."""
    if name == "squiggle":
        return SquiggleProblem(dim)
    if name == "rosenbrock":
        return RosenbrockProblem(dim)
    if name == "quadratic":
        return QuadraticProblem(dim)
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")


def initial_point(name: str, dim: int) -> np.ndarray:
    """Canonical start for each benchmark: alternating-sign points far from
    the maximizer (amplitude 10 for squiggle, 5 for rosenbrock, 1/2 for the
    quadratic)."""
    signs = np.where(np.arange(dim) % 2 == 0, -1.0, 1.0)
    if name == "squiggle":
        return 10.0 * signs
    if name == "rosenbrock":
        return 5.0 * signs
    if name == "quadratic":
        return 0.5 * signs
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")


def classify_rosenbrock_basin(theta: np.ndarray, shift: float = 1.0, atol: float = 0.1) -> str:
    """Label a Rosenbrock endpoint: 'global' near the all-shift maximizer,
    'local' near the secondary stationary point with first coordinate
    flipped to -shift, 'other' elsewhere."""
    theta = np.asarray(theta, dtype=float)
    target = np.full(theta.size, shift)
    if np.linalg.norm(theta - target) < atol:
        return "global"
    flipped = target.copy()
    flipped[0] = -shift
    if np.linalg.norm(theta - flipped) < atol:
        return "local"
    return "other"
