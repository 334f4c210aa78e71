"""Warped graph-manifold geometry, matrix-free.

The objective's graph {(theta, f(theta))} is given a product-like metric in
which the function axis is stretched by a gradient-dependent warp factor
psi^2 = ||grad||^2 / (sigma^2 + ||grad||^2). In chart coordinates (theta
itself) the induced metric is

    G = I + psi^2 * grad grad^T,

a rank-one perturbation of the identity, so every metric operation here is
O(dim) via the Sherman-Morrison form of G^{-1}. Nothing in this module
builds a dense matrix.

All per-point quantities that the optimizer reuses are bundled into a
:class:`GeometryCache`, a slots record that no code writes once built. It
is built once per visited point from the value and gradient its caller
already holds (a driver's start, or an accepted line-search trial) and no
Hessian-vector product. The Hessian terms
and sigma^2 enter only the geodesic jet, which takes the Hessian terms from
its own probe pair and sigma^2 from its caller's WarpConfig. The CG loop
asks for a jet only where the warp psi^2 ||grad||^2 is at or above
FLAT_WARP = FD_STEP^2, the relative accuracy of the jet's own central
differences, and takes the straight ray below it: there the exact curved
part at the accepted step was at most 2.4e-9 of the step on the acceptance
solves and the small_warped ones at seeds 0 and 5, and at most
117 psi^2 ||grad||^2 of it. The Euclidean metric is sigma^2 = inf,
where the same formula gives psi^2 = 0 and W^2 = 1 exactly at every point;
the flat-space baseline's points are those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .objective import FD_STEP, Objective, _check_finite, fd_step, hvp_or_fallback

__all__ = [
    "WarpConfig",
    "GeometryCache",
    "GeodesicJet",
    "build_cache",
    "riemannian_gradient",
    "taylor_coefficients",
]


#: Below this psi^2 ||grad||^2 = W^2 - 1 the CG loop's search curve is the
#: straight ray, at no hvp. FD_STEP^2 = cbrt(eps)^2, about 3.7e-11, is the
#: relative accuracy of the jet's own central differences, and a retraction
#: need only agree with the geodesic as closely as the step can use (Absil,
#: Mahony & Sepulchre 2008, section 4.1). On every row below it in the
#: acceptance runs and the small_warped solves at seeds 0 and 5, the exact
#: curved part at the accepted step t was at most 2.4e-9 of the straight
#: part t ||v||, and never above 117 psi^2 ||grad||^2 of it. psi^2 alone
#: bounds nothing, since a large gradient scales the curve up.
FLAT_WARP = FD_STEP**2


@dataclass(frozen=True)
class WarpConfig:
    """Warp-strength parameter.

    sigma_sq is the crossover scale: gradients much smaller than sigma keep
    the metric near-Euclidean, much larger ones saturate the warp.
    sigma_sq = inf is the Euclidean metric; NaN, 0 and negatives fail.
    """

    sigma_sq: float = 1.0

    def __post_init__(self):
        if not (self.sigma_sq > 0.0):
            raise ValueError(f"sigma_sq must be > 0, got {self.sigma_sq}")


@dataclass(eq=False, slots=True)
class GeometryCache:
    """The first-order geometry at one point, computed once: all that the
    metric, the transport, the conjugacy coefficient and the stop tests
    read. It holds no Hessian term and no sigma^2; the jet takes those from
    its probes and its WarpConfig.

    Attributes:
        theta: the point, shape (dim,).
        value: objective value f(theta).
        grad: objective gradient, shape (dim,).
        grad_sq: ||grad||^2.
        psi_sq: warp factor ||grad||^2 / (sigma_sq + ||grad||^2), in
            [0, 1); exactly 0 at sigma_sq = inf, the identity metric.
        w_sq: 1 + psi_sq ||grad||^2, the squared warped length of the graph
            tangent along grad; exactly 1 at sigma_sq = inf.
    """

    theta: np.ndarray
    value: float
    grad: np.ndarray
    grad_sq: float
    psi_sq: float
    w_sq: float

    @property
    def grad_norm_riem(self) -> float:
        """Warped norm of the Riemannian gradient, ||grad|| / W."""
        return math.sqrt(self.grad_sq / self.w_sq)


def build_cache(
    warp: WarpConfig, theta: np.ndarray, value: float, grad: np.ndarray
) -> GeometryCache:
    """The warp geometry at theta from the objective's value and gradient
    there, a float and a float array of theta's shape. At sigma_sq = inf
    it gives psi_sq = 0 and w_sq = 1 exactly, as ||grad||^2 is finite.

    It evaluates nothing. Raises NumericalBreakdown when the value or a
    gradient entry is not finite, or when the gradient's squared norm
    overflows, which would leave psi_sq and w_sq NaN.
    """
    if not math.isfinite(value):
        raise NumericalBreakdown("non-finite objective value")
    # A NaN or inf entry makes the self-dot non-finite, so the full check
    # runs only when it is, to name the first such entry.
    grad_sq = float(grad.dot(grad))
    if not math.isfinite(grad_sq):
        _check_finite(grad, "gradient")
        raise NumericalBreakdown("non-finite squared gradient norm")
    psi_sq = grad_sq / (warp.sigma_sq + grad_sq)
    w_sq = 1.0 + psi_sq * grad_sq
    return GeometryCache(
        theta=theta, value=value, grad=grad, grad_sq=grad_sq, psi_sq=psi_sq, w_sq=w_sq
    )


def _norm_from_dots(cache: GeometryCache, x_sq: float, grad_x: float) -> float:
    """Warped norm sqrt(<x, x> + psi^2 <grad, x>^2) of a vector x, from
    <x, x> and <grad, x>, for a caller that already holds both products."""
    return math.sqrt(max(x_sq + cache.psi_sq * grad_x * grad_x, 0.0))


def riemannian_gradient(cache: GeometryCache) -> np.ndarray:
    """Chart coordinates of the warped-metric gradient: grad / W^2.

    G^{-1} grad collapses because grad is the rank-one direction itself.
    """
    return cache.grad / cache.w_sq


@dataclass(eq=False, slots=True)
class GeodesicJet:
    """Taylor data of a search curve leaving theta with velocity v:
    position ~ theta + t v + t^2/2 q + t^3/6 k. curv holds q and k as the
    two rows of one C-contiguous (2, dim) array, so the curved part of a
    point or a velocity is one product with it. A straight ray has no curv;
    a quadratic curve has a zero k row."""

    theta: np.ndarray
    v: np.ndarray
    curv: np.ndarray | None = None


def taylor_coefficients(
    obj: Objective, warp: WarpConfig, cache: GeometryCache, v: np.ndarray
) -> GeodesicJet:
    """Second and third chart derivatives of the geodesic with initial
    velocity v, for the cubic retraction.

    q is the geodesic acceleration at t=0 and k its time derivative along
    the curve. Assembled from scalar contractions of the products at two
    probe points theta +- r v, costing exactly four hvps and no gradient:
    H v and H w at each probe, where w = g +- r H v is the probe-point
    gradient to first order, with g = cache.grad and H v the probe mean
    below. Each pair gives two figures:

      * its central difference: d/dt[H v] along the curve, whose contraction
        with v is the pure third directional derivative of f along v, and
        d/dt[H grad], to the accuracy the cubic term needs;
      * its mean: H v and H grad at theta itself, to O(r^2), and up to
        rounding on a quadratic.

    The first-order w drops (r^2/2) D^3 f[v, v, .] from each probe
    gradient. Through H it enters the H g mean at O(r^2), and the H g
    difference over 2 r at O(r^2) as well, since the dropped term is even
    in r and cancels from the difference to that order; so both keep the
    order of accuracy of exact probe gradients.

    Only the sums and the H g difference are formed as vectors; the exact
    0.5 of each mean goes into the scalars, and tau is a difference of dot
    products. q is written into the first row of the jet's curv and k,
    a combination of g, both sums and the difference, into the second, in
    22 elementwise passes over dim-vectors.

    It always spends its four hvps; the CG loop takes the straight ray
    instead where the warp is below the jet's own accuracy (psi^2 ||grad||^2
    < FLAT_WARP = FD_STEP^2).
    A zero v, which the loop never passes, gets a zero curv. sigma_sq must
    be finite: at inf, c0 is inf / inf and it raises NumericalBreakdown;
    the loop never calls it there, where psi^2 = 0 is below FLAT_WARP.
    """
    v = np.asarray(v, dtype=float)
    theta = cache.theta

    # The jet never writes into an array it has handed to the objective,
    # which may keep it, and an objective's outputs may be read-only: every
    # vector below is a fresh sum or difference of them, updated in place
    # at its last use, and each probe vector dies as soon as it is summed.
    r = fd_step(theta, v)
    two_r = 2.0 * r
    rv = r * v
    hv_hi = hvp_or_fallback(obj, theta + rv, v)
    th = np.subtract(theta, rv, out=rv)
    del rv
    hv_lo = hvp_or_fallback(obj, th, v)
    # D^3 f [v, v, v], from the central difference of H v along v.
    tau = (float(v.dot(hv_hi)) - float(v.dot(hv_lo))) / two_r
    hv_sum = hv_hi + hv_lo  # 2 H v
    del hv_hi, hv_lo
    # The probe gradients to first order, g +- r H v, and their H g pair.
    # The -r probe goes first, in the buffer that held r v; the +r point is
    # rebuilt as a fresh array rather than held across it.
    g = cache.grad
    w = hv_sum * (0.5 * r)
    hg_lo = hvp_or_fallback(obj, th, g - w)
    del th
    th = r * v
    th += theta
    hg_hi = hvp_or_fallback(obj, th, np.add(g, w, out=w))
    del th, w
    # The H g pair: its sum is 2 H grad; its difference, over 2 r, is d/dt
    # [H grad] along the curve, which fuses the third-derivative contraction
    # with grad and the H^2 v term.
    hg_diff = hg_hi - hg_lo
    p = hg_hi + hg_lo
    del hg_hi, hg_lo

    w_sigma_sq = warp.sigma_sq + cache.grad_sq
    c0 = 2.0 * warp.sigma_sq / (w_sigma_sq * w_sigma_sq)
    vu = 0.5 * float(v.dot(p))  # <v, H grad>
    p *= 0.5 * c0  # gradient of the warp factor psi^2, c0 H grad
    psi_sq = cache.psi_sq
    w_sq = cache.w_sq
    a = float(v.dot(p))
    b = float(v.dot(g))
    c = 0.5 * float(v.dot(hv_sum))  # <v, H v>
    e = float(p.dot(g))
    t_num = a * b + psi_sq * c + 0.5 * psi_sq * e * b * b
    u1 = t_num / w_sq
    u2 = 0.5 * b * b

    curv = np.empty((2, v.size))
    q = curv[0]
    k = curv[1]
    # q = -u1 g + u2 p, with k's row holding u2 p until k is built.
    np.multiply(p, u2, out=k)
    np.multiply(g, -u1, out=q)
    q += k

    # The contractions of p_dot = c0 (d/dt [H grad]) - (4 / w_sigma_sq)
    # <v, H grad> p, the warp factor's gradient along the curve.
    g2 = cache.grad_sq
    p_dot_coef = -(4.0 / w_sigma_sq) * vu
    diff_coef = c0 / two_r
    a_dot = float(q.dot(p)) + (p_dot_coef * a + diff_coef * float(v.dot(hg_diff)))
    b_dot = float(q.dot(g)) + c
    c_dot = float(q.dot(hv_sum)) + tau
    e_dot = (p_dot_coef * e + diff_coef * float(g.dot(hg_diff))) + 0.5 * float(p.dot(hv_sum))
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

    # k = -(u1_dot g + u1 H v) + u2_dot p + u2 p_dot, collected per vector.
    np.multiply(g, -u1_dot, out=k)
    hv_sum *= -0.5 * u1
    k += hv_sum
    p *= u2_dot + u2 * p_dot_coef
    k += p
    hg_diff *= u2 * diff_coef
    k += hg_diff
    _check_finite(curv, "jet coefficients")
    return GeodesicJet(theta=theta, v=v, curv=curv)
