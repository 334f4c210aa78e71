"""Cubic geodesic retraction and secant vector transport.

The retraction follows the Taylor jet of the geodesic: theta(t) = theta +
t v + t^2/2 q + t^3/6 k. Its inverse (in the first-order secant sense)
yields the transport: the chart displacement between the two endpoints,
metric-projected at the destination and divided by the step length. In the
Euclidean limit (warp -> 0, straight curve) the transported vector reduces
to v itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep, NumericalBreakdown
from .geometry import GeodesicJet, GeometryCache, metric_norm
from .objective import Objective

__all__ = [
    "retract",
    "curve_velocity",
    "directional_value_and_slope",
    "TransportResult",
    "vector_transport",
]


def retract(jet: GeodesicJet, t: float, order: int = 3) -> np.ndarray:
    """Point on the approximate geodesic at parameter t.

    order selects the truncation: 1 is the straight line theta + t v, 2 adds
    the t^2/2 q bend, 3 (default) adds t^3/6 k.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    out = jet.theta + t * jet.v
    if order >= 2:
        out = out + (0.5 * t * t) * jet.q
    if order == 3:
        out = out + (t * t * t / 6.0) * jet.k
    return out


def curve_velocity(jet: GeodesicJet, t: float, order: int = 3) -> np.ndarray:
    """Velocity of the retraction curve at parameter t (its t-derivative)."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    out = jet.v.copy()
    if order >= 2:
        out = out + t * jet.q
    if order == 3:
        out = out + (0.5 * t * t) * jet.k
    return out


def directional_value_and_slope(
    obj: Objective, jet: GeodesicJet, t: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Objective value and d/dt of it along the retraction curve at t.

    Returns (value, slope, point, gradient) so line-search callers can reuse
    the evaluation; costs one value and one gradient.
    """
    point = retract(jet, t)
    value = float(obj.value(point))
    grad = np.asarray(obj.grad(point), dtype=float)
    slope = float(grad @ curve_velocity(jet, t))
    return value, slope, point, grad


@dataclass(frozen=True, eq=False)
class TransportResult:
    """A transported tangent vector and its norm-safeguard scale.

    coords: chart coordinates of the transported vector at the destination.
    scale: min(1, source norm / destination norm), both in the respective
        warped metrics; multiplying by it guarantees the transported vector
        never reports a longer warped length than the original.
    """

    coords: np.ndarray
    scale: float


def vector_transport(
    src: GeometryCache,
    dst: GeometryCache,
    v: np.ndarray,
    t: float,
) -> TransportResult:
    """Transport tangent vector v from src to dst along the step that moved
    the iterate there in parameter length t.

    Uses the backward-secant form: the ambient displacement from dst back to
    src, metric-projected onto the destination tangent space and divided by
    -t. All geometric quantities are the destination's; the source
    contributes only its point and value. Exact in the Euclidean limit when
    dst = src + t v.

    Raises DegenerateStep for t <= 0, coincident endpoints, or a transported
    vector of zero destination norm (the scale would be undefined).
    """
    v = np.asarray(v, dtype=float)
    if not (t > 0.0):
        raise DegenerateStep(f"transport needs t > 0, got {t}")
    delta = src.theta - dst.theta
    if not np.any(delta):
        raise DegenerateStep("transport endpoints coincide")
    delta_f = src.value - dst.value
    corr = (float(delta @ dst.grad) - delta_f) * (dst.psi_sq / dst.w_sq)
    coords = -(delta - corr * dst.grad) / t
    bad = ~np.isfinite(coords)
    if bad.any():
        raise NumericalBreakdown(
            "non-finite transported vector", component=int(np.argmax(bad))
        )
    dst_norm = metric_norm(dst, coords)
    if dst_norm == 0.0:
        raise DegenerateStep("transported vector has zero norm")
    scale = min(1.0, metric_norm(src, v) / dst_norm)
    return TransportResult(coords=coords, scale=scale)
