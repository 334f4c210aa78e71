"""Cubic geodesic retraction and secant vector transport.

The retraction follows the Taylor jet of the geodesic: theta(t) = theta +
t v + t^2/2 q + t^3/6 k, summing only the terms the jet carries, so a
straight ray is a jet with no terms. Its inverse (in the first-order
secant sense) yields the transport: the chart displacement between the two
endpoints, metric-projected at the destination and divided by the step
length. In the Euclidean limit (warp -> 0, straight curve) the transported
vector reduces to v itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep
from .geometry import GeodesicJet, GeometryCache, metric_norm
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
    t^2/2 q and t^3/6 k terms the jet carries."""
    out = t * jet.v
    out += jet.theta
    if jet.q is not None:
        out += (0.5 * t * t) * jet.q
    if jet.k is not None:
        out += (t * t * t / 6.0) * jet.k
    return out


def curve_velocity(jet: GeodesicJet, t: float) -> np.ndarray:
    """Velocity of the jet's search curve at parameter t (its t-derivative).

    A straight ray returns jet.v itself, not a copy."""
    if jet.q is None:
        return jet.v
    out = t * jet.q
    out += jet.v
    if jet.k is not None:
        out += (0.5 * t * t) * jet.k
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
    slope = float(grad.dot(curve_velocity(jet, t)))
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
    if not delta.any():
        raise DegenerateStep("transport endpoints coincide")
    delta_f = src.value - dst.value
    corr = (float(delta.dot(dst.grad)) - delta_f) * (dst.psi_sq / dst.w_sq)
    # Dividing by -t rather than negating the vector saves a pass; division
    # is sign-symmetric, so the bits are those of -(delta - corr grad) / t.
    coords = delta
    coords -= corr * dst.grad
    coords /= -t
    _check_finite(coords, "transported vector")
    dst_norm = metric_norm(dst, coords)
    if dst_norm == 0.0:
        raise DegenerateStep("transported vector has zero norm")
    scale = min(1.0, metric_norm(src, v) / dst_norm)
    return TransportResult(coords=coords, scale=scale)
