"""Warped graph-manifold geometry, matrix-free.

The objective's graph {(theta, f(theta))} is given a product-like metric in
which the function axis is stretched by a gradient-dependent warp factor
psi^2 = ||grad||^2 / (sigma^2 + ||grad||^2). In chart coordinates (theta
itself) the induced metric is

    G = I + psi^2 * grad grad^T,

a rank-one perturbation of the identity, so every metric operation here is
O(dim) via the Sherman-Morrison form of G^{-1}. Nothing in this module
builds a dense matrix.

All per-point quantities that the optimizer reuses are bundled into an
immutable :class:`GeometryCache`, built once per visited point with exactly
one gradient, one value and one Hessian-vector product (the value/gradient
can be injected when the caller already has them, e.g. from a line-search
trial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .objective import FdConfig, Objective, hvp_or_fallback

__all__ = [
    "WarpConfig",
    "GeometryCache",
    "GeodesicJet",
    "build_cache",
    "metric_inner",
    "metric_norm",
    "riemannian_gradient",
    "taylor_coefficients",
]


@dataclass(frozen=True)
class WarpConfig:
    """Warp-strength parameter.

    sigma_sq is the crossover scale: gradients much smaller than sigma keep
    the metric near-Euclidean, much larger ones saturate the warp. The
    Euclidean limit is sigma_sq -> infinity.
    """

    sigma_sq: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.sigma_sq) or self.sigma_sq <= 0.0:
            raise ValueError(f"sigma_sq must be finite and > 0, got {self.sigma_sq}")


@dataclass(frozen=True, eq=False)
class GeometryCache:
    """Everything the geometry needs at one point, computed once.

    Attributes:
        theta: the point, shape (dim,).
        value: objective value f(theta).
        grad: objective gradient, shape (dim,).
        grad_sq: ||grad||^2.
        hess_grad: Hessian-gradient product H grad (the one hvp per build).
        w_sigma_sq: sigma_sq + ||grad||^2.
        psi_sq: warp factor ||grad||^2 / w_sigma_sq, in [0, 1).
        grad_psi_sq: gradient of the warp factor,
            (2 sigma_sq / w_sigma_sq^2) * H grad.
        w_sq: 1 + psi_sq ||grad||^2, the squared warped length of the graph
            tangent along grad.
        sigma_sq: warp parameter echoed for derivative formulas.
    """

    theta: np.ndarray
    value: float
    grad: np.ndarray
    grad_sq: float
    hess_grad: np.ndarray
    w_sigma_sq: float
    psi_sq: float
    grad_psi_sq: np.ndarray
    w_sq: float
    sigma_sq: float

    @property
    def dim(self) -> int:
        return self.theta.size

    @property
    def grad_norm_riem(self) -> float:
        """Warped norm of the Riemannian gradient, ||grad|| / W."""
        return float(np.sqrt(self.grad_sq / self.w_sq))


def build_cache(
    obj: Objective,
    warp: WarpConfig,
    theta: np.ndarray,
    fd: FdConfig,
    value_grad: tuple[float, np.ndarray] | None = None,
) -> GeometryCache:
    """Evaluate the warp geometry at theta.

    Costs one value, one gradient and one hvp; pass value_grad to reuse an
    evaluation the caller already paid for (the hvp is always fresh).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size != obj.dim:
        raise ValueError(f"theta must have shape ({obj.dim},), got {theta.shape}")
    if value_grad is None:
        value = float(obj.value(theta))
        grad = np.asarray(obj.grad(theta), dtype=float)
    else:
        value = float(value_grad[0])
        grad = np.asarray(value_grad[1], dtype=float)
    if not np.isfinite(value):
        raise NumericalBreakdown("non-finite objective value")
    bad = ~np.isfinite(grad)
    if bad.any():
        raise NumericalBreakdown("non-finite gradient", component=int(np.argmax(bad)))

    grad_sq = float(grad @ grad)
    w_sigma_sq = warp.sigma_sq + grad_sq
    psi_sq = grad_sq / w_sigma_sq
    w_sq = 1.0 + psi_sq * grad_sq
    hess_grad = hvp_or_fallback(obj, theta, grad, fd)
    c0 = 2.0 * warp.sigma_sq / (w_sigma_sq * w_sigma_sq)
    grad_psi_sq = c0 * hess_grad
    return GeometryCache(
        theta=theta,
        value=value,
        grad=grad,
        grad_sq=grad_sq,
        hess_grad=hess_grad,
        w_sigma_sq=w_sigma_sq,
        psi_sq=psi_sq,
        grad_psi_sq=grad_psi_sq,
        w_sq=w_sq,
        sigma_sq=warp.sigma_sq,
    )


def metric_inner(cache: GeometryCache, x: np.ndarray, y: np.ndarray) -> float:
    """Warped inner product <x, y> + psi^2 <grad, x> <grad, y>."""
    return float(x @ y + cache.psi_sq * (cache.grad @ x) * (cache.grad @ y))


def metric_norm(cache: GeometryCache, x: np.ndarray) -> float:
    """Warped norm sqrt(metric_inner(x, x))."""
    return float(np.sqrt(max(metric_inner(cache, x, x), 0.0)))


def riemannian_gradient(cache: GeometryCache) -> np.ndarray:
    """Chart coordinates of the warped-metric gradient: grad / W^2.

    G^{-1} grad collapses because grad is the rank-one direction itself.
    """
    return cache.grad / cache.w_sq


def _accel_scalars(
    cache: GeometryCache, v: np.ndarray, hess_v: np.ndarray
) -> tuple[float, float, float, float, float, float]:
    """Shared scalar contractions (a, b, c, e, U1, U2) for the curvature and
    acceleration formulas; hess_v is H v at the cache point."""
    a = float(v @ cache.grad_psi_sq)
    b = float(v @ cache.grad)
    c = float(v @ hess_v)
    e = float(cache.grad_psi_sq @ cache.grad)
    u1 = (a * b + cache.psi_sq * c + 0.5 * cache.psi_sq * e * b * b) / cache.w_sq
    u2 = 0.5 * b * b
    return a, b, c, e, u1, u2


@dataclass(frozen=True, eq=False)
class GeodesicJet:
    """Third-order data of the geodesic leaving theta with velocity v:
    position ~ theta + t v + t^2/2 q + t^3/6 k."""

    theta: np.ndarray
    v: np.ndarray
    q: np.ndarray
    k: np.ndarray


def taylor_coefficients(
    obj: Objective, cache: GeometryCache, v: np.ndarray, fd: FdConfig
) -> GeodesicJet:
    """Second and third chart derivatives of the geodesic with initial
    velocity v, for the cubic retraction.

    q is the geodesic acceleration at t=0 and k its time derivative along
    the curve. Assembled from scalar contractions plus two forward/backward
    probe points at theta +- r v, costing exactly five hvps and two
    gradients:

      * H v at theta (one hvp);
      * H g at the probes with g the probe-point gradient (two grads, two
        hvps), whose central difference gives d/dt[H grad] along the curve
        to the accuracy the cubic term needs;
      * H v at the probes (two hvps), giving the pure third directional
        derivative of f along v.

    A zero direction short-circuits to q = k = 0 with no evaluations.
    """
    v = np.asarray(v, dtype=float)
    theta = cache.theta
    if not np.any(v):
        z = np.zeros_like(theta)
        return GeodesicJet(theta=theta, v=v, q=z, k=z.copy())

    hess_v = hvp_or_fallback(obj, theta, v, fd)
    a, b, c, e, u1, u2 = _accel_scalars(cache, v, hess_v)
    q = -u1 * cache.grad + u2 * cache.grad_psi_sq

    g = cache.grad
    p = cache.grad_psi_sq
    u = cache.hess_grad
    vu = float(v @ u)
    g2 = cache.grad_sq
    psi_sq = cache.psi_sq
    w_sq = cache.w_sq
    c0 = 2.0 * cache.sigma_sq / (cache.w_sigma_sq * cache.w_sigma_sq)

    r = fd.scaled(theta, v)
    th_hi = theta + r * v
    th_lo = theta - r * v
    g_hi = np.asarray(obj.grad(th_hi), dtype=float)
    g_lo = np.asarray(obj.grad(th_lo), dtype=float)
    # d/dt [H grad] along the curve; the probe pair fuses the third-derivative
    # contraction with grad and the H^2 v term in one central difference.
    u_dot = (hvp_or_fallback(obj, th_hi, g_hi, fd) - hvp_or_fallback(obj, th_lo, g_lo, fd)) / (2.0 * r)
    hv_dot = (hvp_or_fallback(obj, th_hi, v, fd) - hvp_or_fallback(obj, th_lo, v, fd)) / (2.0 * r)
    tau = float(v @ hv_dot)  # D^3 f [v, v, v]

    p_dot = c0 * (-(4.0 / cache.w_sigma_sq) * vu * u + u_dot)
    a_dot = float(q @ p) + float(v @ p_dot)
    b_dot = float(q @ g) + c
    c_dot = 2.0 * float(q @ hess_v) + tau
    e_dot = float(p_dot @ g) + float(p @ hess_v)
    w_sq_dot = a * g2 + 2.0 * psi_sq * vu

    t_num = a * b + psi_sq * c + 0.5 * psi_sq * e * b * b
    t_num_dot = (
        a_dot * b
        + a * b_dot
        + a * c
        + psi_sq * c_dot
        + 0.5 * (a * e * b * b + psi_sq * (e_dot * b * b + 2.0 * e * b * b_dot))
    )
    u1_dot = t_num_dot / w_sq - t_num * w_sq_dot / (w_sq * w_sq)
    u2_dot = b * b_dot

    k = -(u1_dot * g + u1 * hess_v) + u2_dot * p + u2 * p_dot
    for name, vec in (("q", q), ("k", k)):
        bad = ~np.isfinite(vec)
        if bad.any():
            raise NumericalBreakdown(
                f"non-finite jet coefficient {name}", component=int(np.argmax(bad))
            )
    return GeodesicJet(theta=theta, v=v, q=q, k=k)
