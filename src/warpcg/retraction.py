"""Cubic geodesic retraction and secant vector transport.

The retraction follows the Taylor jet of the geodesic: theta(t) = theta +
t v + t^2/2 q + t^3/6 k, where q and k are the rows of the jet's curv, so
the curved part is one product with it and a straight ray, which has no
curv, is theta + t v alone. Its inverse (in the first-order
secant sense) yields the transport: the chart displacement between the two
endpoints, metric-projected at the destination and divided by the step
length. Between two points of the identity metric, which every point at
sigma^2 = inf is, the transport is v itself, exactly; the secant form
would reach it only up to the rounding of theta + t v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep
from .geometry import GeodesicJet, GeometryCache, _norm_from_dots
from .objective import Objective, _check_finite

__all__ = [
    "retract",
    "curve_velocity",
    "directional_value_and_slope",
    "TransportResult",
    "vector_transport",
]


def retract(jet: GeodesicJet, t: float) -> np.ndarray:
    """Point on the jet's search curve at parameter t: theta + t v, plus the
    curved part [t^2/2, t^3/6] @ curv when the jet carries one."""
    out = t * jet.v
    out += jet.theta
    if jet.curv is not None:
        out += np.array([0.5 * t * t, t * t * t / 6.0]).dot(jet.curv)
    return out


def curve_velocity(jet: GeodesicJet, t: float) -> np.ndarray:
    """Velocity of the jet's search curve at parameter t (its t-derivative),
    v + [t, t^2/2] @ curv.

    A straight ray returns jet.v itself, not a copy."""
    if jet.curv is None:
        return jet.v
    out = np.array([t, 0.5 * t * t]) @ jet.curv
    out += jet.v
    return out


def directional_value_and_slope(
    obj: Objective, jet: GeodesicJet, t: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Objective value and d/dt of it along the retraction curve at t.

    Returns (value, slope, point, gradient) so line-search callers can reuse
    the evaluation; costs one value and one gradient. The slope is <grad,
    curve_velocity(jet, t)> taken without building the velocity: <grad, v>
    + t s_0 + (t^2/2) s_1 with s = curv @ grad.
    """
    point = retract(jet, t)
    value = float(obj.value(point))
    grad = np.asarray(obj.grad(point), dtype=float)
    slope = float(grad.dot(jet.v))
    if jet.curv is not None:
        s = jet.curv.dot(grad)
        slope += t * float(s[0]) + 0.5 * t * t * float(s[1])
    return value, slope, point, grad


@dataclass(eq=False, slots=True)
class TransportResult:
    """A transported tangent vector, its norm-safeguard scale and its slope.

    coords: chart coordinates of the transported vector at the destination.
    scale: min(1, source norm / destination norm), both in the respective
        warped metrics; multiplying by it guarantees the transported vector
        never reports a longer warped length than the original.
    dst_slope: <dst.grad, coords>, the ascent slope of the unscaled
        transported vector at the destination.
    """

    coords: np.ndarray
    scale: float
    dst_slope: float


def vector_transport(
    src: GeometryCache,
    dst: GeometryCache,
    v: np.ndarray,
    t: float,
    slope: float,
) -> TransportResult:
    """Transport tangent vector v from src to dst along the step that moved
    the iterate there in parameter length t. slope is <src.grad, v>, which
    the caller already holds as the step's initial slope.

    Between two points of the identity metric (psi^2 = 0 at both) the
    transport is the identity: coords is v itself and scale 1, so a caller
    may write into coords only when it is not v, where this function built
    it as a fresh array. Elsewhere it
    uses the backward-secant form: the ambient displacement from dst back to
    src, metric-projected onto the destination tangent space and divided by
    -t. All geometric quantities are the destination's; the source
    contributes only its point and value. Each inner product is taken
    once: <coords, coords> screens for non-finite entries and enters the
    destination norm, and <dst.grad, coords> enters that norm and the
    result's dst_slope.

    Raises DegenerateStep for t <= 0 or, on the secant path, a transported
    vector of zero destination norm (the scale would be undefined).
    Coincident endpoints are caught by the latter: their displacement and
    value change are both zero, so the transported vector is.
    """
    v = np.asarray(v, dtype=float)
    if not (t > 0.0):
        raise DegenerateStep(f"transport needs t > 0, got {t}")
    if src.psi_sq == 0.0 and dst.psi_sq == 0.0:
        return TransportResult(coords=v, scale=1.0, dst_slope=float(dst.grad.dot(v)))
    delta = src.theta - dst.theta
    delta_f = src.value - dst.value
    corr = (float(delta.dot(dst.grad)) - delta_f) * (dst.psi_sq / dst.w_sq)
    # Dividing by -t rather than negating the vector saves a pass; division
    # is sign-symmetric, so the bits are those of -(delta - corr grad) / t.
    coords = delta
    coords -= corr * dst.grad
    coords /= -t
    coords_sq = float(coords.dot(coords))
    if not math.isfinite(coords_sq):
        _check_finite(coords, "transported vector")
    dst_slope = float(dst.grad.dot(coords))
    dst_norm = _norm_from_dots(dst, coords_sq, dst_slope)
    if dst_norm == 0.0:
        raise DegenerateStep("transported vector has zero norm")
    scale = min(1.0, _norm_from_dots(src, float(v.dot(v)), slope) / dst_norm)
    return TransportResult(coords=coords, scale=scale, dst_slope=dst_slope)
