"""The benchmark's workloads: seeded inputs, the solves built from them, and
the check that every answer is right.

Every solve goes through warpcg's public API. The library receives only the
generated arrays; the seed never reaches it.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import warpcg

WORKLOADS = ("small_warped", "large_warped", "flat")

#: The stated accuracy of every solve; all other fields keep their defaults.
#: tol_df is off because the default 1e-5 stops squiggle d=100 at a gap of
#: 0.34 with a "success" reason, so a fix for that stop would otherwise
#: read as a slowdown.
CONFIG = warpcg.RcgConfig(tol_df=0.0, tol_grad=1e-6)

SMALL_PROBLEMS = ("squiggle", "rosenbrock", "quadratic")
SMALL_DIMS = (2, 10, 100)
SMALL_SIGMA_SQS = (1.0, 100.0)
LARGE_DIM = 100_000
LARGE_SIGMA_SQ = 1.0

#: A solved point may sit at most this far below the known maximum, relative
#: to max(1, |f*|). Converged gaps are below 1e-9.
GAP_RTOL = 1e-8
#: A result whose value or gradient norm differs from a fresh evaluation at
#: its point by more than these is a wrong answer.
VALUE_RTOL = 1e-10
GRAD_NORM_ATOL = 1e-9
GRAD_NORM_RTOL = 1e-8

_PROBLEM_CLASSES = {
    "squiggle": warpcg.SquiggleProblem,
    "rosenbrock": warpcg.RosenbrockProblem,
    "quadratic": warpcg.QuadraticProblem,
}


class WrongAnswer(Exception):
    """A result that disagrees with a fresh evaluation at its own point."""


@dataclass(frozen=True, eq=False)
class Solve:
    """One complete solve: a problem built from generated arrays, a start,
    and the method (rcg at sigma_sq, or the flat baseline when sigma_sq is
    None)."""

    problem: str
    dim: int
    sigma_sq: float | None
    theta0: np.ndarray
    make: Callable[[], warpcg.Objective]

    @property
    def label(self) -> str:
        method = "euclid_cg" if self.sigma_sq is None else f"rcg sigma_sq={self.sigma_sq:g}"
        return f"{self.problem} d={self.dim} {method}"

    def run(self, problem: warpcg.Objective) -> warpcg.RcgResult:
        # run_rcg and run_euclidean_cg are looked up on the package at call
        # time so that the traced run can wrap them.
        if self.sigma_sq is None:
            return warpcg.run_euclidean_cg(problem, self.theta0, cfg=CONFIG)
        return warpcg.run_rcg(
            problem, self.theta0, warp=warpcg.WarpConfig(sigma_sq=self.sigma_sq), cfg=CONFIG
        )


@dataclass(frozen=True)
class Outcome:
    """What one solve did. status is "solved", "unsolved" (stopped short of
    the stated accuracy, or in the wrong basin), "error" (raised) or "wrong"
    (failed the answer check); note says why when it is not "solved"."""

    label: str
    seconds: float
    status: str
    note: str
    stop: str | None = None
    iterations: int = 0
    restarts: int = 0
    n_value: int = 0
    n_grad: int = 0
    n_hvp: int = 0
    value: float | None = None
    #: Time of the reference loop measured beside this solve, when measured.
    reference_s: float | None = None

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for the same inputs."""
        return (
            self.status, self.stop, self.iterations, self.restarts,
            self.n_value, self.n_grad, self.n_hvp, self.value,
        )


def small_starts(seed: int, dims=SMALL_DIMS) -> list[tuple[str, int, np.ndarray]]:
    """(problem, dim, start) for each small cell: the canonical start scaled
    componentwise by 1 + 0.1 N(0, 1)."""
    rng = np.random.default_rng([seed, 0])
    return [
        (name, d, warpcg.initial_point(name, d) * (1.0 + 0.1 * rng.standard_normal(d)))
        for name in SMALL_PROBLEMS
        for d in dims
    ]


def large_arrays(seed: int, dim: int = LARGE_DIM) -> dict[str, np.ndarray]:
    """Rosenbrock start 1 + 0.05 N(0, 1), and quadratic curvatures
    (log-uniform in [1, 100]) and center N(0, 1)."""
    rng = np.random.default_rng([seed, 1])
    return {
        "rosenbrock_start": 1.0 + 0.05 * rng.standard_normal(dim),
        "curvatures": np.exp(rng.uniform(0.0, math.log(100.0), dim)),
        "center": rng.standard_normal(dim),
    }


def build(workload: str, seed: int, small_dims=SMALL_DIMS, large_dim: int = LARGE_DIM) -> list[Solve]:
    """The workload's fixed batch of solves for this seed. flat runs the
    baseline on the union of the inputs of the two warped workloads."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    flat = workload == "flat"
    solves = []
    if workload in ("small_warped", "flat"):
        for name, d, start in small_starts(seed, small_dims):
            make = partial(_PROBLEM_CLASSES[name], d)
            for sigma_sq in (None,) if flat else SMALL_SIGMA_SQS:
                solves.append(Solve(name, d, sigma_sq, start, make))
    if workload in ("large_warped", "flat"):
        arrays = large_arrays(seed, large_dim)
        sigma_sq = None if flat else LARGE_SIGMA_SQ
        solves.append(
            Solve("rosenbrock", large_dim, sigma_sq, arrays["rosenbrock_start"],
                  partial(warpcg.RosenbrockProblem, large_dim))
        )
        solves.append(
            Solve("quadratic", large_dim, sigma_sq, warpcg.initial_point("quadratic", large_dim),
                  partial(warpcg.QuadraticProblem, large_dim, arrays["curvatures"], arrays["center"]))
        )
    return solves


def _in_rosenbrock_local_basin(theta: np.ndarray) -> bool:
    """Near the secondary stationary point (-1, 1, ..., 1)."""
    target = np.ones(theta.size)
    target[0] = -1.0
    return bool(np.linalg.norm(theta - target) < 0.1)


def check(solve: Solve, result: warpcg.RcgResult) -> str | None:
    """Why the solve does not count as solved, or None when it does.

    Re-evaluates the value and the gradient at the returned point on a fresh
    problem instance and raises WrongAnswer when either disagrees with the
    result, or when a small_grad stop reports a gradient norm above the
    tolerance or a value above the known maximum.
    """
    fresh = solve.make()
    theta = np.asarray(result.theta, dtype=float)
    value = float(fresh.value(theta))
    grad_norm = float(np.linalg.norm(fresh.grad(theta)))
    if not abs(value - result.value) <= VALUE_RTOL * max(1.0, abs(value)):
        raise WrongAnswer(f"{solve.label}: reported value {result.value!r}, recomputed {value!r}")
    if not abs(grad_norm - result.grad_norm_eucl) <= GRAD_NORM_ATOL + GRAD_NORM_RTOL * grad_norm:
        raise WrongAnswer(
            f"{solve.label}: reported gradient norm {result.grad_norm_eucl!r}, recomputed {grad_norm!r}"
        )
    stop = getattr(result.stop_reason, "value", result.stop_reason)
    if stop != "small_grad":
        return str(stop)
    if not result.grad_norm_riem < CONFIG.tol_grad:
        raise WrongAnswer(f"{solve.label}: small_grad stop at gradient norm {result.grad_norm_riem!r}")
    f_star = float(fresh.max_value())
    gap = f_star - value
    scale = max(1.0, abs(f_star))
    if gap < -GAP_RTOL * scale:
        raise WrongAnswer(f"{solve.label}: value {value!r} above the known maximum {f_star!r}")
    if solve.problem == "rosenbrock" and _in_rosenbrock_local_basin(theta):
        return "rosenbrock local basin"
    if gap > GAP_RTOL * scale:
        return f"gap {gap:.2e}"
    return None


def run_solve(solve: Solve, problem: warpcg.Objective) -> Outcome:
    """Run and check one solve. A solve that raises is recorded, not fatal."""
    start = time.perf_counter()
    try:
        result = solve.run(problem)
    except Exception as exc:
        note = "".join(traceback.format_exception_only(exc)).strip()
        return Outcome(solve.label, time.perf_counter() - start, "error", note)
    seconds = time.perf_counter() - start
    try:
        note = check(solve, result)
        status = "solved" if note is None else "unsolved"
    except WrongAnswer as exc:
        status, note = "wrong", str(exc)
    return Outcome(
        label=solve.label,
        seconds=seconds,
        status=status,
        note=note or "",
        stop=str(getattr(result.stop_reason, "value", result.stop_reason)),
        iterations=int(result.iterations),
        restarts=sum(1 for row in result.trace if row.restart),
        n_value=int(result.n_value),
        n_grad=int(result.n_grad),
        n_hvp=int(result.n_hvp),
        value=float(result.value),
    )


def run_batch(solves: list[Solve], problems: list[warpcg.Objective]) -> list[Outcome]:
    """Run the whole batch once, each solve on its given problem object."""
    return [run_solve(solve, problem) for solve, problem in zip(solves, problems)]
