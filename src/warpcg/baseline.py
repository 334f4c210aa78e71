"""Euclidean conjugate-gradient ascent baseline.

The warped metric G = I + psi^2 grad grad^T is the identity wherever psi^2
= 0, so the flat-space baseline is the warped driver's loop run with warp
None: its points are geometry caches with psi^2 = 0 and W^2 = 1, built
from the value and gradient the loop already holds. At such points the
loop's own rules give straight rays for search curves and the identity,
with scale 1, for transport, and no hvp is ever called. Wolfe search,
Dai-Yuan coefficient, sign policy, trace schema, restart rule, call
counting and stop reasons are therefore the warped driver's own: both
drivers are one call to rcg._run_cg, which counts the objective's calls
itself. It gives experiments a like-for-like flat-space reference.
"""

from __future__ import annotations

import numpy as np

from .objective import Objective
from .rcg import RcgConfig, RcgResult, _run_cg

# Not called here; perfbench/spans.py reports a layer absent unless both names are bound.
from .linesearch import strong_wolfe  # noqa: F401
from .retraction import directional_value_and_slope  # noqa: F401

__all__ = ["run_euclidean_cg"]


def run_euclidean_cg(
    obj: Objective,
    theta0: np.ndarray,
    cfg: RcgConfig | None = None,
) -> RcgResult:
    """Maximize obj from theta0 with flat-space CG ascent.

    Returns the same result/trace types as the warped driver; the two
    gradient-norm columns coincide since the metric is the identity.
    """
    return _run_cg(obj, None, theta0, cfg)
