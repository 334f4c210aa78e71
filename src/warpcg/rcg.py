"""Conjugate-gradient ascent on the warped graph manifold.

One iteration of the driver:

  1. start from the cached geometry at the current point and a search
     direction in chart coordinates;
  2. build the cubic geodesic jet along the direction (four hvps, no
     value or gradient), which is the straight ray, with no hvp, where the
     warp is below the jet's own accuracy (psi^2 ||grad||^2 <
     geometry.FLAT_WARP = FD_STEP^2);
  3. strong-Wolfe search along the jet's path;
  4. build the geometry cache at the accepted point from the value and
     gradient the search already evaluated there;
  5. transport the old direction across the step, compute the conjugacy
     coefficient, and combine with the new Riemannian gradient.

The per-iteration budget is therefore one cache build and four
Hessian-vector products when the row's start point has psi^2 ||grad||^2 >=
geometry.FLAT_WARP, none below it, independent of dimension and of the
line-search history; a failed search costs its jet's hvps more by the same
rule, and the start's cache one value and one gradient.

The conjugacy coefficient follows the Dai-Yuan quotient: new squared
Riemannian gradient norm over the slope gain along the (transported)
direction. In ascent form with Wolfe curvature the quotient is negative and
the update subtracts beta times the transported direction; a positive value
signals loss of conjugacy and is clamped to zero. A search may spend
linesearch.MAX_EVALS evaluations. A direction that lost ascent (a slope
not finite or not positive) or whose search failed is retried along
steepest ascent, where that stops the run, since the same search would
fail again: a failed search on LINE_SEARCH_FAIL, a slope <= 0 on
SMALL_GRAD. The steepest slope ||grad||^2 / W^2 is finite, since
build_cache raises for a point whose ||grad||^2 is not. A trace row
records a restart when its search was a retry or its beta is 0, which
makes the next direction steepest ascent.

A search's first trial step is the last accepted step's first-order gain
t * slope0 (NaN before the first) over the new slope0 (Nocedal & Wright,
Numerical Optimization, section 3.5): 1.0 if that is not finite or not
positive, clamped to [1e-12, 1e12]. A steepest-ascent retry keeps it.

run_euclidean_cg in baseline.py runs the same loop at sigma^2 = inf, the
Euclidean metric, where geometry.build_cache gives psi^2 = 0 at every
point, so every jet is the straight ray and every transport the identity.
No code path asks which driver called.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateStep, LineSearchFail, NumericalBreakdown
from .geometry import (
    FLAT_WARP,
    GeodesicJet,
    GeometryCache,
    WarpConfig,
    build_cache,
    riemannian_gradient,
    taylor_coefficients,
)
from .linesearch import strong_wolfe
from .objective import CountingObjective, Objective, as_integer
from .retraction import TransportResult, directional_value_and_slope, vector_transport

__all__ = [
    "StopReason",
    "RcgConfig",
    "IterationTrace",
    "RcgResult",
    "dy_beta",
    "run_rcg",
]


class StopReason(str, Enum):
    MAX_ITERS = "max_iters"
    SMALL_DELTA_F = "small_delta_f"
    SMALL_GRAD = "small_grad"
    LINE_SEARCH_FAIL = "line_search_fail"
    NUMERICAL_BREAKDOWN = "numerical_breakdown"


@dataclass(frozen=True)
class RcgConfig:
    """Driver settings. Tolerances: tol_grad applies to the warped norm of
    the Riemannian gradient and is checked every iteration; tol_df applies
    to the objective increase of an accepted step (checked from the first
    accepted step onward). Each line search uses the fixed strong Wolfe
    constants linesearch.C1 and linesearch.C2 and has a budget of
    linesearch.MAX_EVALS evaluations."""

    max_iters: int = 8000
    tol_df: float = 1e-5
    tol_grad: float = 1e-6

    def __post_init__(self):
        # Each check is written as not (range) so that NaN, which no stop
        # test can meet, fails too.
        as_integer("max_iters", self.max_iters)
        if not (self.max_iters >= 0):
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.tol_df >= 0 and self.tol_grad >= 0):
            raise ValueError(
                f"tolerances must be >= 0, got tol_df={self.tol_df}, tol_grad={self.tol_grad}"
            )


@dataclass(eq=False, slots=True)
class IterationTrace:
    """One accepted iteration, held as scalars so a trace costs O(1) memory
    per row: no point or search curve is kept. A row's index in the trace is
    its iteration number. ls_evals counts its line-search evaluations, its
    only value calls; n_grad and n_hvp count its gradient and hvp calls and
    wall_ns its time, a retry row's without the failed attempt before it.
    restart is 1 when the search was a steepest-ascent retry or beta is 0,
    so that the next direction is steepest ascent."""

    f: float
    grad_norm_riem: float
    grad_norm_eucl: float
    t: float
    beta: float
    s: float
    ls_evals: int
    wall_ns: int
    restart: int
    n_grad: int
    n_hvp: int


@dataclass(eq=False)
class RcgResult:
    """Final iterate plus the full per-iteration trace and call totals. It
    counts no cache builds: each row builds one point.

    failed_attempts counts line searches that found no Wolfe point: one on
    a non-steepest direction triggers a steepest-ascent retry, one on
    steepest ascent stops the run. Their evaluations appear in the totals
    but belong to no trace row.
    """

    theta: np.ndarray
    value: float
    stop_reason: StopReason
    grad_norm_riem: float
    grad_norm_eucl: float
    trace: list[IterationTrace]
    n_value: int
    n_grad: int
    n_hvp: int
    failed_attempts: int

    @property
    def iterations(self) -> int:
        """The accepted iterations: one trace row each."""
        return len(self.trace)


def dy_beta(dst: GeometryCache, transported: TransportResult, slope: float) -> float:
    """Dai-Yuan-type conjugacy coefficient.

    Numerator: squared warped norm of the new Riemannian gradient,
    ||grad||^2 / W^2 at dst. Denominator: scale * transported.dst_slope -
    slope, where slope is the direction's initial slope <grad_src,
    direction>, i.e. the change in ascent slope along the direction across
    the step (each inner product is the warped pairing of the Riemannian
    gradient with a tangent vector, which collapses to the plain Euclidean
    product with the objective gradient).

    Returns the raw quotient; sign handling is the caller's policy. Raises
    DegenerateStep when the denominator vanishes to below 1e-300.
    """
    num = dst.grad_sq / dst.w_sq
    den = transported.scale * transported.dst_slope - slope
    if not math.isfinite(den) or abs(den) < 1e-300:
        raise DegenerateStep(f"conjugacy denominator degenerate: {den}")
    return num / den


def _jet(
    obj: Objective, warp: WarpConfig, point: GeometryCache, v: np.ndarray
) -> GeodesicJet:
    """The search curve leaving point along v. Where the warp is below the
    accuracy of the jet's central differences (psi^2 ||grad||^2 < FLAT_WARP
    = FD_STEP^2) it is the straight ray, with no evaluation; every point at
    sigma^2 = inf is. Elsewhere it is
    taylor_coefficients' cubic jet, looked up in this module's globals so
    the benchmark tracer's span sees it."""
    # The product, not w_sq - 1.0, which cancels to 0 far above rounding;
    # a NaN product fails the test and takes the full jet.
    if point.psi_sq * point.grad_sq < FLAT_WARP:
        return GeodesicJet(theta=point.theta, v=v)
    return taylor_coefficients(obj, warp, point, v)


def run_rcg(
    obj: Objective,
    theta0: np.ndarray,
    warp: WarpConfig | None = None,
    cfg: RcgConfig | None = None,
) -> RcgResult:
    """Maximize obj from theta0 with warped-manifold conjugate gradient.

    Never raises for numerical trouble encountered mid-run: the result's
    stop_reason reports it and the result carries the last good iterate.
    Argument validation errors (shapes, config ranges) do raise.
    """
    return _run_cg(obj, warp or WarpConfig(), theta0, cfg)


def _run_cg(
    obj: Objective, warp: WarpConfig, theta0: np.ndarray, cfg: RcgConfig | None
) -> RcgResult:
    """The CG ascent loop of both drivers, over the metric of warp (the
    Euclidean one at sigma^2 = inf), under cfg or the default RcgConfig,
    counting obj's calls itself. A point is the GeometryCache that
    build_cache makes from a value and gradient already evaluated: the
    start's, after theta0's shape check, and each accepted trial's. Only
    the points tell a flat geometry from a curved one: _jet's straight-ray
    gate and vector_transport's identity-metric test read them.
    Each jet dies by the end of its iteration: a run holds O(dim) memory."""
    counting = CountingObjective(obj)
    cfg = cfg or RcgConfig()
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (counting.dim,):
        raise ValueError(f"theta must have shape ({counting.dim},), got {theta0.shape}")
    value0 = float(counting.value(theta0))
    cache = build_cache(warp, theta0, value0, np.asarray(counting.grad(theta0), dtype=float))
    v = riemannian_gradient(cache)
    trace: list[IterationTrace] = []
    gain = math.nan  # the last accepted step's t * slope0
    # steepest: v is the Riemannian gradient at cache, so a failed search
    # along it has nothing to fall back on; retry: v replaced a failed one.
    steepest = True
    retry = False
    failed_attempts = 0

    while True:
        if cache.grad_norm_riem < cfg.tol_grad:
            stop = StopReason.SMALL_GRAD
            break
        if len(trace) >= cfg.max_iters:
            stop = StopReason.MAX_ITERS
            break
        wall_start = time.perf_counter_ns()
        # A row's counts are the differences of the counter's ints across it.
        grad_before, hvp_before = counting.n_grad, counting.n_hvp

        try:
            slope0 = float(cache.grad.dot(v))
            ls = None
            if math.isfinite(slope0) and slope0 > 0.0:
                jet = _jet(counting, warp, cache, v)
                t_init = gain / slope0
                if not math.isfinite(t_init) or t_init <= 0.0:
                    t_init = 1.0
                t_init = min(max(t_init, 1e-12), 1e12)
                try:
                    ls = strong_wolfe(
                        lambda t: directional_value_and_slope(counting, jet, t),
                        f0=cache.value,
                        slope0=slope0,
                        t_init=t_init,
                    )
                except LineSearchFail:
                    del jet
                    failed_attempts += 1
            if ls is None:
                # The direction lost ascent or its search failed. Along
                # steepest ascent nothing is left to try; otherwise the row
                # restarts from steepest ascent.
                if steepest:
                    stop = StopReason.SMALL_GRAD if slope0 <= 0.0 else StopReason.LINE_SEARCH_FAIL
                    break
                v = riemannian_gradient(cache)
                steepest = retry = True
                continue

            dst = build_cache(warp, ls.point, ls.value, ls.grad)
            beta, scale = 0.0, 1.0
            try:
                transported = vector_transport(cache, dst, v, ls.t, slope0)
                beta = dy_beta(dst, transported, slope0)
                scale = transported.scale
            except DegenerateStep:
                pass  # beta stays 0, so the next direction is steepest ascent
            beta_used = min(beta, 0.0)
            # riemannian_gradient returns a fresh array, so the next
            # direction is built inside it. A secant transport built its
            # coords itself, so they are scaled in place, which saves the
            # row's last dim-vector (transported is not read again, so its
            # dst_slope need not follow); the identity transport's coords
            # are v, which the jet still holds, so that product is a new
            # array.
            v_next = riemannian_gradient(dst)
            if beta_used != 0.0:
                if transported.coords is v:
                    v_next -= (beta_used * scale) * v
                else:
                    transported.coords *= beta_used * scale
                    v_next -= transported.coords
            # The search was the jet's last use, but its q and k go only now:
            # freed before the new point's vectors exist, they topped glibc's
            # heap at d = 1e5, which returned those pages and faulted them
            # back in during the next jet.
            del jet
        except NumericalBreakdown:
            stop = StopReason.NUMERICAL_BREAKDOWN
            break

        trace.append(
            IterationTrace(
                f=ls.value,
                grad_norm_riem=dst.grad_norm_riem,
                grad_norm_eucl=math.sqrt(dst.grad_sq),
                t=ls.t,
                beta=beta_used,
                s=scale,
                ls_evals=ls.evals,
                wall_ns=time.perf_counter_ns() - wall_start,
                restart=int(retry or beta_used == 0.0),
                n_grad=counting.n_grad - grad_before,
                n_hvp=counting.n_hvp - hvp_before,
            )
        )
        retry = False
        steepest = beta_used == 0.0

        df = ls.value - cache.value
        cache = dst
        v = v_next
        gain = ls.t * slope0
        # Rebind the names still holding this step's transport and direction,
        # so neither outlives the next jet or a restart. Not del: a
        # degenerate transport leaves its name unbound.
        transported = v_next = None
        if df < cfg.tol_df:
            stop = StopReason.SMALL_DELTA_F
            break

    return RcgResult(
        theta=cache.theta,
        value=cache.value,
        stop_reason=stop,
        grad_norm_riem=cache.grad_norm_riem,
        grad_norm_eucl=math.sqrt(cache.grad_sq),
        trace=trace,
        n_value=counting.n_value,
        n_grad=counting.n_grad,
        n_hvp=counting.n_hvp,
        failed_attempts=failed_attempts,
    )
