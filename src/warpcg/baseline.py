"""Euclidean conjugate-gradient ascent baseline.

The warped metric G = I + psi^2 grad grad^T tends to the identity as
sigma_sq grows, so the flat-space baseline is the warped driver's loop run
over the identity metric: points are geometry caches with psi^2 = 0 and
W^2 = 1, built from the value and gradient the loop already holds, search
curves are jets without curvature terms (straight rays), transport is the
identity with scale 1, and no hvp is ever called. Wolfe search, Dai-Yuan
coefficient, sign policy, trace schema and stop reasons are therefore the
warped driver's own. It gives experiments a like-for-like flat-space
reference.
"""

from __future__ import annotations

import numpy as np

from .geometry import GeodesicJet, GeometryCache, build_cache
from .objective import CountingObjective, Objective
from .rcg import RcgConfig, RcgResult, _run_cg
from .retraction import TransportResult

# Not called here; perfbench/spans.py reports a layer absent unless both names are bound.
from .linesearch import strong_wolfe  # noqa: F401
from .retraction import directional_value_and_slope  # noqa: F401

__all__ = ["run_euclidean_cg"]


class _FlatGeometry:
    """Identity metric: geometry caches built with no warp, straight rays,
    identity transport. It holds no state, since nothing here evaluates
    the objective. point calls this module's own import of build_cache, so
    perfbench's span on warpcg.rcg.build_cache counts the warped driver's
    points alone."""

    def point(self, theta: np.ndarray, value: float, grad: np.ndarray) -> GeometryCache:
        return build_cache(None, theta, value, grad)

    def jet(self, point: GeometryCache, v: np.ndarray) -> GeodesicJet:
        return GeodesicJet(theta=point.theta, v=v)

    def transport(
        self, src: GeometryCache, dst: GeometryCache, v: np.ndarray, t: float, slope: float
    ) -> TransportResult:
        return TransportResult(coords=v, scale=1.0, dst_slope=float(dst.grad.dot(v)))


def run_euclidean_cg(
    obj: Objective,
    theta0: np.ndarray,
    cfg: RcgConfig | None = None,
) -> RcgResult:
    """Maximize obj from theta0 with flat-space CG ascent.

    Returns the same result/trace types as the warped driver; the two
    gradient-norm columns coincide since the metric is the identity.
    """
    counting = CountingObjective(obj)
    return _run_cg(counting, _FlatGeometry(), theta0, cfg or RcgConfig())
