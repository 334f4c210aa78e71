"""Euclidean conjugate-gradient ascent baseline.

The warped metric G = I + psi^2 grad grad^T tends to the identity as
sigma_sq grows, so the flat-space baseline is the warped driver's loop run
over the identity metric: points carry W^2 = 1, search curves are straight
rays, transport is the identity with scale 1, and no geometry cache or hvp
is ever built. Wolfe search, Dai-Yuan coefficient, sign policy, trace
schema and stop reasons are therefore the warped driver's own. It gives
experiments a like-for-like flat-space reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .geometry import GeodesicJet
from .objective import CountingObjective, Objective
from .rcg import RcgConfig, RcgResult, _run_cg
from .retraction import TransportResult

# Not called here; perfbench/spans.py reports a layer absent unless both names are bound.
from .linesearch import strong_wolfe  # noqa: F401
from .retraction import directional_value_and_slope  # noqa: F401

__all__ = ["run_euclidean_cg"]


@dataclass(frozen=True, eq=False)
class _FlatPoint:
    theta: np.ndarray
    value: float
    grad: np.ndarray
    grad_sq: float
    w_sq = 1.0

    @property
    def grad_norm_riem(self) -> float:
        return float(np.sqrt(self.grad_sq))


class _FlatGeometry:
    """Identity metric: straight rays, identity transport, no cache builds."""

    builds = 0

    def __init__(self, obj: Objective):
        self.obj = obj
        self._zeros = np.zeros(obj.dim)

    def point(self, theta: np.ndarray, value_grad=None) -> _FlatPoint:
        if value_grad is None:
            value = float(self.obj.value(theta))
            grad = np.asarray(self.obj.grad(theta), dtype=float)
            if not np.isfinite(value) or not np.all(np.isfinite(grad)):
                raise NumericalBreakdown("non-finite objective data")
        else:
            # The line search accepts only trials of finite value and slope.
            value, grad = value_grad
        return _FlatPoint(theta=theta, value=value, grad=grad, grad_sq=float(grad @ grad))

    def jet(self, point: _FlatPoint, v: np.ndarray) -> GeodesicJet:
        return GeodesicJet(theta=point.theta, v=v, q=self._zeros, k=self._zeros)

    def transport(self, src: _FlatPoint, dst: _FlatPoint, v: np.ndarray, t: float) -> TransportResult:
        return TransportResult(coords=v, scale=1.0)


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
    return _run_cg(counting, _FlatGeometry(counting), theta0, cfg or RcgConfig())
