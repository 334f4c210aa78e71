"""Reference geometry for verification: dense operators, a geodesic
integrator, and the matrix-free operations only the tests need.

Everything dense here is deliberately slow and explicit: dense metric,
dense Christoffel symbols (by closed form AND by finite differences of the
metric, two independent routes), and a fixed-step RK4 integrator for the
exact geodesic equation. The matrix-free section holds the tangent-space
projection, the unit normal, the curvature scalar, the geodesic
acceleration, projection transport and finite-difference helpers, which
the optimizer never calls. The optimizer never imports this module; tests
use it as the measuring stick for the matrix-free code.

Dense routines are capped at dim <= 64 since costs are cubic-ish and no
test needs more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown, PsiDegenerate, StepUnstable
from .geometry import GeometryCache, WarpConfig, _accel_scalars, build_cache
from .objective import FdConfig, Objective, _check_finite, hvp_or_fallback

__all__ = [
    "inverse_metric_apply",
    "embed_tangent",
    "project_to_tangent",
    "normal_vector",
    "GeodesicAcceleration",
    "geodesic_acceleration",
    "second_fundamental_form",
    "transport_by_projection",
    "third_directional_derivative",
    "central_diff_grad",
    "DENSE_DIM_CAP",
    "DenseGeometry",
    "build_dense_geometry",
    "christoffel_fd",
    "GeodesicPath",
    "integrate_geodesic",
    "warped_speed",
    "fit_loglog_slope",
]

DENSE_DIM_CAP = 64


def inverse_metric_apply(cache: GeometryCache, z: np.ndarray) -> np.ndarray:
    """Apply G^{-1} = I - (psi^2 / W^2) grad grad^T to z. O(dim)."""
    return z - (cache.psi_sq / cache.w_sq) * (cache.grad @ z) * cache.grad


def embed_tangent(cache: GeometryCache, v: np.ndarray) -> np.ndarray:
    """Ambient (dim+1)-coordinates of the tangent vector with chart part v:
    the graph component is the directional derivative <grad, v>."""
    return np.append(v, cache.grad @ v)


def project_to_tangent(cache: GeometryCache, z: np.ndarray) -> np.ndarray:
    """Chart coordinates of the warped-orthogonal projection of an ambient
    vector z (shape (dim+1,)) onto the graph tangent space.

    Solves the rank-one normal equations in closed form:
    v = G^{-1} (z_head + psi^2 z_tail grad).
    """
    z = np.asarray(z, dtype=float)
    if z.size != cache.dim + 1:
        raise ValueError(f"ambient vector must have length {cache.dim + 1}")
    rhs = z[:-1] + cache.psi_sq * z[-1] * cache.grad
    return inverse_metric_apply(cache, rhs)


def normal_vector(cache: GeometryCache) -> np.ndarray:
    """Ambient unit normal to the graph under the warped ambient metric:
    (-psi grad / W, 1 / (psi W)).

    Raises PsiDegenerate at critical points (psi = 0), where the normal
    blows up in these coordinates.
    """
    if cache.psi_sq == 0.0:
        raise PsiDegenerate("normal vector undefined where the gradient vanishes")
    psi = np.sqrt(cache.psi_sq)
    w = np.sqrt(cache.w_sq)
    n = np.append(-(psi / w) * cache.grad, 1.0 / (psi * w))
    bad = ~np.isfinite(n)
    if bad.any():
        raise NumericalBreakdown("non-finite normal vector", component=int(np.argmax(bad)))
    return n



@dataclass(frozen=True, eq=False)
class GeodesicAcceleration:
    """Initial acceleration of the geodesic through the cache point with
    velocity v: v_dot = -coef_grad * grad + coef_warp * grad_psi_sq."""

    coef_grad: float
    coef_warp: float
    v_dot: np.ndarray
    hess_v: np.ndarray


def geodesic_acceleration(
    obj: Objective,
    cache: GeometryCache,
    v: np.ndarray,
    fd: FdConfig,
    hess_v: np.ndarray | None = None,
) -> GeodesicAcceleration:
    """Chart acceleration -Gamma(v, v) of the warped geodesic equation.

    Costs one hvp (H v); pass hess_v to reuse one. The result keeps the two
    scalar coefficients because the third-order expansion needs them, and
    keeps H v so callers never recompute it.
    """
    v = np.asarray(v, dtype=float)
    if hess_v is None:
        hess_v = hvp_or_fallback(obj, cache.theta, v, fd)
    _, _, _, _, u1, u2 = _accel_scalars(cache, v, hess_v)
    v_dot = -u1 * cache.grad + u2 * cache.grad_psi_sq
    bad = ~np.isfinite(v_dot)
    if bad.any():
        raise NumericalBreakdown(
            "non-finite geodesic acceleration", component=int(np.argmax(bad))
        )
    return GeodesicAcceleration(coef_grad=u1, coef_warp=u2, v_dot=v_dot, hess_v=hess_v)


def second_fundamental_form(
    obj: Objective,
    cache: GeometryCache,
    v: np.ndarray,
    fd: FdConfig,
    hess_v: np.ndarray | None = None,
    normalized: bool = False,
) -> float:
    """Scalar curvature of the graph along tangent direction v.

    By default returns the psi-scaled coefficient that multiplies -grad in
    the geodesic acceleration (finite everywhere, quadratic in v). With
    normalized=True returns the genuine second-fundamental-form value
    (W / psi) times that coefficient, which requires psi > 0 and raises
    PsiDegenerate at critical points.
    """
    v = np.asarray(v, dtype=float)
    if hess_v is None:
        hess_v = hvp_or_fallback(obj, cache.theta, v, fd)
    _, _, _, _, u1, _ = _accel_scalars(cache, v, hess_v)
    if not normalized:
        return u1
    if cache.psi_sq == 0.0:
        raise PsiDegenerate(
            "normalized curvature undefined where the gradient vanishes"
        )
    return float(np.sqrt(cache.w_sq / cache.psi_sq) * u1)


def transport_by_projection(
    src: GeometryCache, dst: GeometryCache, u: np.ndarray
) -> np.ndarray:
    """Transport an arbitrary tangent vector by embedding at src and
    metric-projecting at dst. Linear in u by construction; used by tests as
    the reference for transport linearity and for general vectors the
    secant form does not cover.
    """
    ambient = np.append(u, src.grad @ u)
    return project_to_tangent(dst, ambient)


def third_directional_derivative(
    obj: Objective,
    theta: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    fd: FdConfig,
) -> np.ndarray:
    """The vector D^3 f(theta)[v, w, .], i.e. the directional derivative of
    the Hessian-vector product H(theta) w along v.

    Computed as (hvp(theta + r v, w) - hvp(theta - r v, w)) / (2 r). For C^3
    objectives the result is symmetric under exchanging v and w; tests check
    this rather than assume it.
    """
    if not np.any(v):
        return np.zeros_like(np.asarray(theta, dtype=float))
    r = fd.scaled(theta, v)
    hi = hvp_or_fallback(obj, theta + r * v, w, fd)
    lo = hvp_or_fallback(obj, theta - r * v, w, fd)
    return _check_finite((hi - lo) / (2.0 * r), "third directional derivative")


def central_diff_grad(obj: Objective, theta: np.ndarray, step: float) -> np.ndarray:
    """Dense central-difference gradient; test/diagnostic use only."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        out[i] = (obj.value(theta + e) - obj.value(theta - e)) / (2.0 * step)
    return out


def _warp_scalars(warp: WarpConfig, grad: np.ndarray) -> tuple[float, float]:
    grad_sq = float(grad @ grad)
    psi_sq = grad_sq / (warp.sigma_sq + grad_sq)
    return grad_sq, psi_sq


def dense_metric(warp: WarpConfig, grad: np.ndarray) -> np.ndarray:
    """G = I + psi^2 grad grad^T, from the gradient alone."""
    _, psi_sq = _warp_scalars(warp, grad)
    return np.eye(grad.size) + psi_sq * np.outer(grad, grad)


@dataclass(frozen=True, eq=False)
class DenseGeometry:
    """Dense counterparts of the matrix-free operations at one point.

    christoffels has shape (dim, dim, dim), indexed [m, i, j] so that the
    geodesic chart acceleration is -einsum('mij,i,j->m', christoffels, v, v).
    """

    cache: GeometryCache
    hessian: np.ndarray
    metric: np.ndarray
    metric_inv: np.ndarray
    christoffels: np.ndarray

    def ambient_christoffel(self, m: int) -> np.ndarray:
        """Christoffel matrix of the warped ambient product space for
        coordinate index m in 0..dim (dim = the function axis).

        The chart-index matrices have a single nonzero entry, the
        function-axis one is the warp's logarithmic derivative pattern and
        needs psi > 0.
        """
        d = self.cache.dim
        out = np.zeros((d + 1, d + 1))
        p = self.cache.grad_psi_sq
        if m < d:
            out[d, d] = -0.5 * p[m]
            return out
        if m != d:
            raise ValueError(f"ambient index must be in 0..{d}, got {m}")
        if self.cache.psi_sq == 0.0:
            raise PsiDegenerate("ambient function-axis symbols undefined at psi = 0")
        half = 0.5 / self.cache.psi_sq
        out[:d, d] = half * p
        out[d, :d] = half * p
        return out


def build_dense_geometry(
    obj: Objective, warp: WarpConfig, theta: np.ndarray, fd: FdConfig
) -> DenseGeometry:
    """Assemble the dense geometry via dim hvp columns and closed-form
    Christoffel symbols."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    if d > DENSE_DIM_CAP:
        raise ValueError(f"dense oracle capped at dim {DENSE_DIM_CAP}, got {d}")
    cache = build_cache(obj, warp, theta, fd)
    hessian = np.column_stack(
        [hvp_or_fallback(obj, theta, e, fd) for e in np.eye(d)]
    )
    metric = np.eye(d) + cache.psi_sq * np.outer(cache.grad, cache.grad)
    metric_inv = np.linalg.inv(metric)

    g = cache.grad
    p = cache.grad_psi_sq
    sym = np.outer(p, g) + np.outer(g, p) + 2.0 * cache.psi_sq * hessian
    ginv_g = g / cache.w_sq
    ginv_p = metric_inv @ p
    gamma = np.empty((d, d, d))
    for m in range(d):
        gamma[m] = 0.5 * ginv_g[m] * sym - 0.5 * ginv_p[m] * np.outer(g, g)
    return DenseGeometry(
        cache=cache,
        hessian=hessian,
        metric=metric,
        metric_inv=metric_inv,
        christoffels=gamma,
    )


def christoffel_fd(
    obj: Objective,
    warp: WarpConfig,
    theta: np.ndarray,
    h: float = 1e-6,
) -> np.ndarray:
    """Christoffel symbols from central differences of the dense metric:
    Gamma^m_ij = 1/2 G^{mn} (d_i G_nj + d_j G_in - d_n G_ij).

    Shares nothing with the closed form except the metric definition
    itself, so agreement is a real check of the derivative algebra.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    if d > DENSE_DIM_CAP:
        raise ValueError(f"dense oracle capped at dim {DENSE_DIM_CAP}, got {d}")
    dG = np.empty((d, d, d))  # dG[k] = dG/dtheta_k
    for kk in range(d):
        e = np.zeros(d)
        e[kk] = h
        g_hi = dense_metric(warp, np.asarray(obj.grad(theta + e), dtype=float))
        g_lo = dense_metric(warp, np.asarray(obj.grad(theta - e), dtype=float))
        dG[kk] = (g_hi - g_lo) / (2.0 * h)
    metric_inv = np.linalg.inv(dense_metric(warp, np.asarray(obj.grad(theta), dtype=float)))
    # brackets[n, i, j] = d_i G_nj + d_j G_in - d_n G_ij
    brackets = (
        np.einsum("inj->nij", dG) + np.einsum("jin->nij", dG) - dG
    )
    return 0.5 * np.einsum("mn,nij->mij", metric_inv, brackets)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """RK4 solution samples: ts (n+1,), thetas (n+1, dim), vels (n+1, dim)."""

    ts: np.ndarray
    thetas: np.ndarray
    vels: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.thetas[-1]


def integrate_geodesic(
    obj: Objective,
    warp: WarpConfig,
    theta0: np.ndarray,
    v0: np.ndarray,
    t_end: float,
    n_steps: int,
    fd: FdConfig | None = None,
    dense: bool = False,
) -> GeodesicPath:
    """Integrate the geodesic ODE with classic fixed-step RK4.

    dense=False evaluates the right-hand side through the matrix-free
    acceleration (a fresh cache per evaluation); dense=True contracts the
    closed-form dense Christoffel symbols instead, giving a second route
    for cross-checks. Raises StepUnstable when the state leaves float range
    or the right-hand side stops being computable.
    """
    fd = fd or FdConfig()
    theta = np.asarray(theta0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if theta.size > DENSE_DIM_CAP:
        raise ValueError(f"geodesic oracle capped at dim {DENSE_DIM_CAP}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    if dense:

        def accel(th, vv):
            geo = build_dense_geometry(obj, warp, th, fd)
            return -np.einsum("mij,i,j->m", geo.christoffels, vv, vv)

    else:

        def accel(th, vv):
            cache = build_cache(obj, warp, th, fd)
            return geodesic_acceleration(obj, cache, vv, fd).v_dot

    def rhs(th, vv):
        try:
            return accel(th, vv)
        except NumericalBreakdown as exc:
            raise StepUnstable(f"geodesic right-hand side failed: {exc}") from exc

    dt = t_end / n_steps
    ts = np.linspace(0.0, t_end, n_steps + 1)
    thetas = np.empty((n_steps + 1, theta.size))
    vels = np.empty((n_steps + 1, theta.size))
    thetas[0] = theta
    vels[0] = v
    for i in range(n_steps):
        k1_x, k1_v = v, rhs(theta, v)
        k2_x = v + 0.5 * dt * k1_v
        k2_v = rhs(theta + 0.5 * dt * k1_x, k2_x)
        k3_x = v + 0.5 * dt * k2_v
        k3_v = rhs(theta + 0.5 * dt * k2_x, k3_x)
        k4_x = v + dt * k3_v
        k4_v = rhs(theta + dt * k3_x, k4_x)
        theta = theta + (dt / 6.0) * (k1_x + 2.0 * k2_x + 2.0 * k3_x + k4_x)
        v = v + (dt / 6.0) * (k1_v + 2.0 * k2_v + 2.0 * k3_v + k4_v)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(v))):
            raise StepUnstable(f"geodesic integration diverged at step {i + 1}")
        thetas[i + 1] = theta
        vels[i + 1] = v
    return GeodesicPath(ts=ts, thetas=thetas, vels=vels)


def warped_speed(
    obj: Objective, warp: WarpConfig, theta: np.ndarray, v: np.ndarray, fd: FdConfig | None = None
) -> float:
    """Warped-metric norm of velocity v at theta, for conservation checks."""
    fd = fd or FdConfig()
    cache = build_cache(obj, warp, theta, fd)
    val = float(v @ v) + cache.psi_sq * float(cache.grad @ v) ** 2
    return float(np.sqrt(val))


def fit_loglog_slope(ts: np.ndarray, errs: np.ndarray) -> float:
    """Least-squares slope of log(err) against log(t); the empirical
    convergence order of a one-parameter error curve."""
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive errors to fit a slope")
    return float(np.polyfit(np.log(ts[mask]), np.log(errs[mask]), 1)[0])
