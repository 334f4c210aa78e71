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
immutable :class:`GeometryCache`, built once per visited point from one
value and one gradient (injected when the caller already has them, e.g.
from a line-search trial) and no Hessian-vector product. The Hessian terms
live only in the geodesic jet, which takes them from its own probe pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .objective import Objective, _check_finite, fd_step, hvp_or_fallback

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
    """The first-order geometry at one point, computed once: all that the
    metric, the transport, the conjugacy coefficient and the stop tests
    read. It holds no Hessian term; the jet takes those from its probes.

    Attributes:
        theta: the point, shape (dim,).
        value: objective value f(theta).
        grad: objective gradient, shape (dim,).
        grad_sq: ||grad||^2.
        w_sigma_sq: sigma_sq + ||grad||^2.
        psi_sq: warp factor ||grad||^2 / w_sigma_sq, in [0, 1).
        w_sq: 1 + psi_sq ||grad||^2, the squared warped length of the graph
            tangent along grad.
        sigma_sq: warp parameter echoed for the jet's derivative formulas.
    """

    theta: np.ndarray
    value: float
    grad: np.ndarray
    grad_sq: float
    w_sigma_sq: float
    psi_sq: float
    w_sq: float
    sigma_sq: float

    @property
    def grad_norm_riem(self) -> float:
        """Warped norm of the Riemannian gradient, ||grad|| / W."""
        return math.sqrt(self.grad_sq / self.w_sq)


def build_cache(
    obj: Objective,
    warp: WarpConfig,
    theta: np.ndarray,
    value_grad: tuple[float, np.ndarray] | None = None,
) -> GeometryCache:
    """Evaluate the warp geometry at theta.

    Costs one value and one gradient, and nothing when value_grad passes an
    evaluation the caller already paid for. It calls no hvp.
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
    if not math.isfinite(value):
        raise NumericalBreakdown("non-finite objective value")
    # A NaN or inf entry makes the self-dot non-finite, so the full check
    # runs only when it is.
    grad_sq = float(grad.dot(grad))
    if not math.isfinite(grad_sq):
        _check_finite(grad, "gradient")
    w_sigma_sq = warp.sigma_sq + grad_sq
    psi_sq = grad_sq / w_sigma_sq
    w_sq = 1.0 + psi_sq * grad_sq
    return GeometryCache(
        theta=theta,
        value=value,
        grad=grad,
        grad_sq=grad_sq,
        w_sigma_sq=w_sigma_sq,
        psi_sq=psi_sq,
        w_sq=w_sq,
        sigma_sq=warp.sigma_sq,
    )


def metric_inner(cache: GeometryCache, x: np.ndarray, y: np.ndarray) -> float:
    """Warped inner product <x, y> + psi^2 <grad, x> <grad, y>."""
    return float(x.dot(y) + cache.psi_sq * cache.grad.dot(x) * cache.grad.dot(y))


def metric_norm(cache: GeometryCache, x: np.ndarray) -> float:
    """Warped norm sqrt(metric_inner(x, x))."""
    return math.sqrt(max(metric_inner(cache, x, x), 0.0))


def riemannian_gradient(cache: GeometryCache) -> np.ndarray:
    """Chart coordinates of the warped-metric gradient: grad / W^2.

    G^{-1} grad collapses because grad is the rank-one direction itself.
    """
    return cache.grad / cache.w_sq


@dataclass(frozen=True, eq=False)
class GeodesicJet:
    """Taylor data of a search curve leaving theta with velocity v:
    position ~ theta + t v + t^2/2 q + t^3/6 k. An order-n curve carries its
    first n-1 coefficients; a straight ray has neither q nor k."""

    theta: np.ndarray
    v: np.ndarray
    q: np.ndarray | None = None
    k: np.ndarray | None = None


def taylor_coefficients(obj: Objective, cache: GeometryCache, v: np.ndarray) -> GeodesicJet:
    """Second and third chart derivatives of the geodesic with initial
    velocity v, for the cubic retraction.

    q is the geodesic acceleration at t=0 and k its time derivative along
    the curve. Assembled from scalar contractions of the products at two
    probe points theta +- r v, costing exactly four hvps and two gradients:
    H v and H g at each probe, with g the probe-point gradient. Each pair
    gives two figures:

      * its central difference: d/dt[H v] along the curve, whose contraction
        with v is the pure third directional derivative of f along v, and
        d/dt[H grad], to the accuracy the cubic term needs;
      * its mean: H v and H grad at theta itself, to O(r^2), and up to
        rounding on a quadratic.

    A zero direction short-circuits to the straight ray GeodesicJet(theta,
    v), with no q or k and no evaluations.
    """
    v = np.asarray(v, dtype=float)
    theta = cache.theta
    if not v.any():
        return GeodesicJet(theta=theta, v=v)

    # The +r probe's H g and H v wait while the -r probe folds each into its
    # central difference and its mean, H v first. An objective's outputs
    # may be read-only, so the H v mean is summed into its difference's
    # buffer once tau is read from it; every other probe vector dies at its
    # last use.
    r = fd_step(theta, v)
    rv = r * v
    th = theta + rv
    hg_hi = hvp_or_fallback(obj, th, np.asarray(obj.grad(th), dtype=float))
    hv_hi = hvp_or_fallback(obj, th, v)
    th = theta - rv
    del rv
    hv_lo = hvp_or_fallback(obj, th, v)
    hv_dot = hv_hi - hv_lo
    hv_dot /= 2.0 * r
    tau = float(v.dot(hv_dot))  # D^3 f [v, v, v]
    hess_v = np.add(hv_hi, hv_lo, out=hv_dot)
    del hv_dot, hv_hi, hv_lo
    hess_v *= 0.5
    # d/dt [H grad] along the curve; the probe pair fuses the third-derivative
    # contraction with grad and the H^2 v term in one central difference.
    hg_lo = hvp_or_fallback(obj, th, np.asarray(obj.grad(th), dtype=float))
    del th
    u_dot = hg_hi - hg_lo
    u = hg_hi + hg_lo
    del hg_hi, hg_lo
    u *= 0.5  # H grad
    u_dot /= 2.0 * r

    g = cache.grad
    c0 = 2.0 * cache.sigma_sq / (cache.w_sigma_sq * cache.w_sigma_sq)
    p = c0 * u  # gradient of the warp factor psi^2
    psi_sq = cache.psi_sq
    w_sq = cache.w_sq
    a = float(v.dot(p))
    b = float(v.dot(g))
    c = float(v.dot(hess_v))
    e = float(p.dot(g))
    t_num = a * b + psi_sq * c + 0.5 * psi_sq * e * b * b
    u1 = t_num / w_sq
    u2 = 0.5 * b * b
    q = -u1 * g
    q += u2 * p

    vu = float(v.dot(u))
    g2 = cache.grad_sq

    p_dot = -(4.0 / cache.w_sigma_sq) * vu * u
    del u
    p_dot += u_dot
    del u_dot
    p_dot *= c0
    a_dot = float(q.dot(p)) + float(v.dot(p_dot))
    b_dot = float(q.dot(g)) + c
    c_dot = 2.0 * float(q.dot(hess_v)) + tau
    e_dot = float(p_dot.dot(g)) + float(p.dot(hess_v))
    w_sq_dot = a * g2 + 2.0 * psi_sq * vu

    t_num_dot = (
        a_dot * b
        + a * b_dot
        + a * c
        + psi_sq * c_dot
        + 0.5 * (a * e * b * b + psi_sq * (e_dot * b * b + 2.0 * e * b * b_dot))
    )
    u1_dot = t_num_dot / w_sq - t_num * w_sq_dot / (w_sq * w_sq)
    u2_dot = b * b_dot

    k = u1_dot * g
    k += u1 * hess_v
    k *= -1.0  # exact negation, as the unary minus
    k += u2_dot * p
    k += u2 * p_dot
    _check_finite(q, "jet coefficient q")
    _check_finite(k, "jet coefficient k")
    return GeodesicJet(theta=theta, v=v, q=q, k=k)
