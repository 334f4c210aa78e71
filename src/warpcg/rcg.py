"""Conjugate-gradient ascent on the warped graph manifold.

One iteration of the driver:

  1. start from the cached geometry at the current point and a search
     direction in chart coordinates;
  2. build the cubic geodesic jet along the direction (five hvps, two
     gradients);
  3. strong-Wolfe search along the curved path;
  4. build the geometry cache at the accepted point, reusing the accepted
     trial's value and gradient (one more hvp: the Hessian-gradient
     product);
  5. transport the old direction across the step, compute the conjugacy
     coefficient, and combine with the new Riemannian gradient.

The per-iteration budget is therefore six Hessian-vector products and one
cache build, independent of dimension and of the line-search history; the
trace records the actual counts so tests can assert this rather than trust
the comment.

The conjugacy coefficient follows the Dai-Yuan quotient: new squared
Riemannian gradient norm over the slope gain along the (transported)
direction. In ascent form with Wolfe curvature the quotient is negative and
the update subtracts beta times the transported direction; a positive value
signals loss of conjugacy and is clamped to zero, which restarts the
direction to steepest ascent. Line-search failure on a non-steepest
direction also restarts; failure on steepest ascent stops the run.

The loop itself only asks its geometry for points, search curves and
transport; run_euclidean_cg in baseline.py runs the same loop over the
identity metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateBeta,
    DegenerateStep,
    LineSearchFail,
    NumericalBreakdown,
)
from .geometry import (
    GeodesicJet,
    GeometryCache,
    WarpConfig,
    build_cache,
    riemannian_gradient,
    taylor_coefficients,
)
from .linesearch import strong_wolfe
from .objective import CountingObjective, FdConfig, Objective
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
    accepted step onward)."""

    max_iters: int = 8000
    tol_df: float = 1e-5
    tol_grad: float = 1e-6
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.1
    max_ls_evals: int = 60
    record_jets: bool = False
    record_thetas: bool = True

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ValueError(
                f"need 0 < c1 < c2 < 1, got c1={self.wolfe_c1}, c2={self.wolfe_c2}"
            )
        if self.tol_df < 0 or self.tol_grad < 0:
            raise ValueError("tolerances must be >= 0")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """One accepted iteration. theta is the accepted point (omitted from CSV
    output); the n_* fields count objective calls made by this iteration,
    including its line search."""

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
    cache_builds: int
    theta: np.ndarray | None = None


@dataclass(eq=False)
class RcgResult:
    """Final iterate plus the full per-iteration trace and call totals.

    failed_attempts counts line searches that found no Wolfe point and
    triggered a steepest-ascent retry; their evaluations appear in the
    totals but belong to no trace row.
    """

    theta: np.ndarray
    value: float
    stop_reason: StopReason
    iterations: int
    grad_norm_riem: float
    grad_norm_eucl: float
    trace: list[IterationTrace] = field(default_factory=list)
    jets: list[GeodesicJet] = field(default_factory=list)
    n_value: int = 0
    n_grad: int = 0
    n_hvp: int = 0
    cache_builds: int = 0
    failed_attempts: int = 0

    @property
    def f_history(self) -> np.ndarray:
        return np.array([row.f for row in self.trace])


def dy_beta(
    src: GeometryCache,
    dst: GeometryCache,
    direction: np.ndarray,
    transported: TransportResult,
) -> float:
    """Dai-Yuan-type conjugacy coefficient.

    Numerator: squared warped norm of the new Riemannian gradient,
    ||grad||^2 / W^2 at dst. Denominator: scale * <grad_dst, transported> -
    <grad_src, direction>, i.e. the change in ascent slope along the
    direction across the step (each inner product is the warped pairing of
    the Riemannian gradient with a tangent vector, which collapses to the
    plain Euclidean product with the objective gradient).

    Returns the raw quotient; sign handling is the caller's policy. Raises
    DegenerateBeta when the denominator vanishes to below 1e-300.
    """
    num = dst.grad_sq / dst.w_sq
    den = transported.scale * float(dst.grad @ transported.coords) - float(
        src.grad @ direction
    )
    if not np.isfinite(den) or abs(den) < 1e-300:
        raise DegenerateBeta(f"conjugacy denominator degenerate: {den}")
    return num / den


class _WarpedGeometry:
    """The warped graph metric: geometry caches, cubic geodesic jets and
    secant transport. Every call goes through this module's globals so the
    benchmark tracer's spans see it."""

    def __init__(self, obj: Objective, warp: WarpConfig, fd: FdConfig):
        self.obj = obj
        self.warp = warp
        self.fd = fd
        self.builds = 0

    def point(self, theta: np.ndarray, value_grad=None) -> GeometryCache:
        self.builds += 1
        return build_cache(self.obj, self.warp, theta, self.fd, value_grad=value_grad)

    def jet(self, point: GeometryCache, v: np.ndarray) -> GeodesicJet:
        return taylor_coefficients(self.obj, point, v, self.fd)

    def transport(
        self, src: GeometryCache, dst: GeometryCache, v: np.ndarray, t: float
    ) -> TransportResult:
        return vector_transport(src, dst, v, t)


def run_rcg(
    obj: Objective,
    theta0: np.ndarray,
    warp: WarpConfig | None = None,
    cfg: RcgConfig | None = None,
    fd: FdConfig | None = None,
) -> RcgResult:
    """Maximize obj from theta0 with warped-manifold conjugate gradient.

    Never raises for numerical trouble encountered mid-run: the result's
    stop_reason reports it and the result carries the last good iterate.
    Argument validation errors (shapes, config ranges) do raise.
    """
    counting = CountingObjective(obj)
    geometry = _WarpedGeometry(counting, warp or WarpConfig(), fd or FdConfig())
    return _run_cg(counting, geometry, theta0, cfg or RcgConfig())


def _run_cg(counting: CountingObjective, geometry, theta0: np.ndarray, cfg: RcgConfig) -> RcgResult:
    """The CG ascent loop of both drivers, over a geometry that provides
    point(theta, value_grad=None), jet(point, v), transport(src, dst, v, t)
    and a builds counter. A point has theta, value, grad, grad_sq, w_sq and
    grad_norm_riem."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (counting.dim,):
        raise ValueError(f"theta must have shape ({counting.dim},), got {theta0.shape}")

    cache = geometry.point(theta0)
    v = riemannian_gradient(cache)
    trace: list[IterationTrace] = []
    jets: list[GeodesicJet] = []
    stop: StopReason | None = None
    f_prev = cache.value
    prev_t: float | None = None
    prev_slope: float | None = None
    pending_restart = False
    k = 0
    attempts = 0
    failed_attempts = 0

    while True:
        if cache.grad_norm_riem < cfg.tol_grad:
            stop = StopReason.SMALL_GRAD
            break
        if k >= cfg.max_iters or attempts >= 2 * cfg.max_iters + 1:
            stop = StopReason.MAX_ITERS
            break
        attempts += 1
        wall_start = time.perf_counter_ns()
        counts_before = counting.counts.snapshot()
        builds_before = geometry.builds
        restarted = 1 if pending_restart else 0
        pending_restart = False

        try:
            slope0 = float(cache.grad @ v)
            if not np.isfinite(slope0) or slope0 <= 0.0:
                # Direction lost ascent: fall back to steepest.
                v = riemannian_gradient(cache)
                restarted = 1
                slope0 = cache.grad_sq / cache.w_sq
                if slope0 <= 0.0:
                    stop = StopReason.SMALL_GRAD
                    break

            jet = geometry.jet(cache, v)
            if prev_slope is None:
                t_init = 1.0
            else:
                t_init = prev_t * prev_slope / slope0
                if not np.isfinite(t_init) or t_init <= 0.0:
                    t_init = 1.0
                t_init = min(max(t_init, 1e-12), 1e12)

            try:
                ls = strong_wolfe(
                    lambda t: directional_value_and_slope(counting, jet, t),
                    f0=cache.value,
                    slope0=slope0,
                    c1=cfg.wolfe_c1,
                    c2=cfg.wolfe_c2,
                    t_init=t_init,
                    max_evals=cfg.max_ls_evals,
                )
            except LineSearchFail:
                failed_attempts += 1
                if restarted:
                    stop = StopReason.LINE_SEARCH_FAIL
                    break
                v = riemannian_gradient(cache)
                pending_restart = True
                continue

            dst = geometry.point(ls.point, value_grad=(ls.value, ls.grad))
            try:
                transported = geometry.transport(cache, dst, v, ls.t)
                beta = dy_beta(cache, dst, v, transported)
            except (DegenerateStep, DegenerateBeta):
                beta = 0.0
                transported = None
                restarted = 1
            beta_used = min(beta, 0.0)
            if beta_used != beta:
                restarted = 1
            scale = transported.scale if transported is not None else 1.0
            grad_next = riemannian_gradient(dst)
            if beta_used == 0.0:
                v_next = grad_next
            else:
                v_next = grad_next - (beta_used * scale) * transported.coords
        except NumericalBreakdown:
            stop = StopReason.NUMERICAL_BREAKDOWN
            break

        counts_after = counting.counts
        trace.append(
            IterationTrace(
                k=k,
                f=ls.value,
                grad_norm_riem=dst.grad_norm_riem,
                grad_norm_eucl=float(np.sqrt(dst.grad_sq)),
                t=ls.t,
                beta=beta_used,
                s=scale,
                ls_evals=ls.evals,
                wall_ns=time.perf_counter_ns() - wall_start,
                restart=restarted,
                n_value=counts_after.n_value - counts_before.n_value,
                n_grad=counts_after.n_grad - counts_before.n_grad,
                n_hvp=counts_after.n_hvp - counts_before.n_hvp,
                cache_builds=geometry.builds - builds_before,
                theta=dst.theta if cfg.record_thetas else None,
            )
        )
        if cfg.record_jets:
            jets.append(jet)

        df = ls.value - f_prev
        cache = dst
        v = v_next
        f_prev = ls.value
        prev_t = ls.t
        prev_slope = slope0
        k += 1
        if df < cfg.tol_df:
            stop = StopReason.SMALL_DELTA_F
            break

    counts = counting.counts
    return RcgResult(
        theta=cache.theta,
        value=cache.value,
        stop_reason=stop,
        iterations=k,
        grad_norm_riem=cache.grad_norm_riem,
        grad_norm_eucl=float(np.sqrt(cache.grad_sq)),
        trace=trace,
        jets=jets,
        n_value=counts.n_value,
        n_grad=counts.n_grad,
        n_hvp=counts.n_hvp,
        cache_builds=geometry.builds,
        failed_attempts=failed_attempts,
    )
