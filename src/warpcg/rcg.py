"""Conjugate-gradient ascent on the warped graph manifold.

One iteration of the driver:

  1. start from the cached geometry at the current point and a search
     direction in chart coordinates;
  2. build the cubic geodesic jet along the direction (four hvps, no
     value or gradient), which is the straight ray, with no hvp, where the
     warp is below rounding (psi^2 ||grad||^2 < geometry.FLAT_WARP);
  3. strong-Wolfe search along the jet's path;
  4. build the geometry cache at the accepted point from the value and
     gradient the search already evaluated there;
  5. transport the old direction across the step, compute the conjugacy
     coefficient, and combine with the new Riemannian gradient.

The per-iteration budget is therefore one cache build and four
Hessian-vector products when the row's start point has psi^2 ||grad||^2 >=
geometry.FLAT_WARP, none below it, independent of dimension and of the
line-search history; a failed search costs its jet's hvps more by the same
rule, and the start's cache one value and one gradient. The trace records
the actual evaluation counts so tests can assert this rather than trust the
comment.

The conjugacy coefficient follows the Dai-Yuan quotient: new squared
Riemannian gradient norm over the slope gain along the (transported)
direction. In ascent form with Wolfe curvature the quotient is negative and
the update subtracts beta times the transported direction; a positive value
signals loss of conjugacy and is clamped to zero, which restarts the
direction to steepest ascent. A search may spend linesearch.MAX_EVALS
evaluations. A direction that lost ascent (a slope that is not finite or
not positive) or whose search failed restarts to steepest ascent. Along
steepest ascent that stops the run, since repeating that deterministic
search would fail the same way: a failed search on LINE_SEARCH_FAIL and a
slope <= 0 on SMALL_GRAD. The steepest slope ||grad||^2 / W^2 is finite,
since geometry.build_cache raises for a point whose ||grad||^2 is not.

The loop itself only asks its geometry for points, search curves and
transport; run_euclidean_cg in baseline.py runs the same loop over the
identity metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateStep, LineSearchFail, NumericalBreakdown
from .geometry import (
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
    per row. The n_* fields count objective calls made by this iteration,
    including its line search. Neither the accepted point nor the search
    curve is kept: the result's theta is the last point."""

    k: int
    f: float
    grad_norm_riem: float
    grad_norm_eucl: float
    t: float
    beta: float
    s: float
    ls_evals: int
    wall_ns: int
    restart: int
    n_value: int
    n_grad: int
    n_hvp: int


@dataclass(eq=False)
class RcgResult:
    """Final iterate plus the full per-iteration trace and call totals. It
    keeps no search curve and counts no cache builds: each row builds one
    point, and each jet dies by the end of its iteration.

    failed_attempts counts line searches that found no Wolfe point: one on
    a non-steepest direction triggers a steepest-ascent retry, one on
    steepest ascent stops the run. Their evaluations appear in the totals
    but belong to no trace row.
    """

    theta: np.ndarray
    value: float
    stop_reason: StopReason
    iterations: int
    grad_norm_riem: float
    grad_norm_eucl: float
    trace: list[IterationTrace] = field(default_factory=list)
    n_value: int = 0
    n_grad: int = 0
    n_hvp: int = 0
    failed_attempts: int = 0


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


class _WarpedGeometry:
    """The warped graph metric: geometry caches, cubic geodesic jets and
    secant transport. Every call goes through this module's globals so the
    benchmark tracer's spans see it."""

    def __init__(self, obj: Objective, warp: WarpConfig):
        self.obj = obj
        self.warp = warp

    def point(self, theta: np.ndarray, value: float, grad: np.ndarray) -> GeometryCache:
        return build_cache(self.warp, theta, value, grad)

    def jet(self, point: GeometryCache, v: np.ndarray) -> GeodesicJet:
        return taylor_coefficients(self.obj, self.warp, point, v)

    def transport(
        self, src: GeometryCache, dst: GeometryCache, v: np.ndarray, t: float, slope: float
    ) -> TransportResult:
        return vector_transport(src, dst, v, t, slope)


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
    counting = CountingObjective(obj)
    geometry = _WarpedGeometry(counting, warp or WarpConfig())
    return _run_cg(counting, geometry, theta0, cfg or RcgConfig())


def _run_cg(counting: CountingObjective, geometry, theta0: np.ndarray, cfg: RcgConfig) -> RcgResult:
    """The CG ascent loop of both drivers, over a geometry that provides
    point(theta, value, grad), jet(point, v) and transport(src, dst, v, t,
    slope), where slope is <src.grad, v>. A point is a GeometryCache built
    from a value and gradient already evaluated: the start's here, after
    theta0's shape check, and each accepted trial's. Each jet dies by the
    end of its iteration, so a run holds O(dim) memory."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (counting.dim,):
        raise ValueError(f"theta must have shape ({counting.dim},), got {theta0.shape}")
    cache = geometry.point(
        theta0, float(counting.value(theta0)), np.asarray(counting.grad(theta0), dtype=float)
    )
    v = riemannian_gradient(cache)
    trace: list[IterationTrace] = []
    stop: StopReason | None = None
    prev_t: float | None = None
    prev_slope: float | None = None
    # steepest: v is the Riemannian gradient at cache, so a failed search
    # along it has nothing to fall back on. restarted: this row's trace flag.
    steepest = True
    restarted = 0
    k = 0
    failed_attempts = 0

    while True:
        if cache.grad_norm_riem < cfg.tol_grad:
            stop = StopReason.SMALL_GRAD
            break
        if k >= cfg.max_iters:
            stop = StopReason.MAX_ITERS
            break
        wall_start = time.perf_counter_ns()
        # A row's counts are the differences of the counter's ints across it.
        value_before, grad_before, hvp_before = counting.n_value, counting.n_grad, counting.n_hvp

        try:
            slope0 = float(cache.grad.dot(v))
            ls = None
            if math.isfinite(slope0) and slope0 > 0.0:
                jet = geometry.jet(cache, v)
                if prev_slope is None:
                    t_init = 1.0
                else:
                    t_init = prev_t * prev_slope / slope0
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
                steepest = True
                restarted = 1
                continue

            dst = geometry.point(ls.point, ls.value, ls.grad)
            try:
                transported = geometry.transport(cache, dst, v, ls.t, slope0)
                beta = dy_beta(dst, transported, slope0)
            except DegenerateStep:
                beta = 0.0
                transported = None
                restarted = 1
            beta_used = min(beta, 0.0)
            if beta_used != beta:
                restarted = 1
            scale = transported.scale if transported is not None else 1.0
            # riemannian_gradient returns a fresh array, so the next
            # direction is built inside it.
            v_next = riemannian_gradient(dst)
            if beta_used != 0.0:
                v_next -= (beta_used * scale) * transported.coords
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
                k=k,
                f=ls.value,
                grad_norm_riem=dst.grad_norm_riem,
                grad_norm_eucl=math.sqrt(dst.grad_sq),
                t=ls.t,
                beta=beta_used,
                s=scale,
                ls_evals=ls.evals,
                wall_ns=time.perf_counter_ns() - wall_start,
                restart=restarted,
                n_value=counting.n_value - value_before,
                n_grad=counting.n_grad - grad_before,
                n_hvp=counting.n_hvp - hvp_before,
            )
        )
        restarted = 0
        steepest = beta_used == 0.0

        df = ls.value - cache.value
        cache = dst
        v = v_next
        prev_t = ls.t
        prev_slope = slope0
        k += 1
        # Drop the names still bound to this step's transport and direction,
        # so neither outlives the next jet or a restart.
        del transported, v_next
        if df < cfg.tol_df:
            stop = StopReason.SMALL_DELTA_F
            break

    return RcgResult(
        theta=cache.theta,
        value=cache.value,
        stop_reason=stop,
        iterations=k,
        grad_norm_riem=cache.grad_norm_riem,
        grad_norm_eucl=math.sqrt(cache.grad_sq),
        trace=trace,
        n_value=counting.n_value,
        n_grad=counting.n_grad,
        n_hvp=counting.n_hvp,
        failed_attempts=failed_attempts,
    )
