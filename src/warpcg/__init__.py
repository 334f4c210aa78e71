"""warpcg: matrix-free conjugate-gradient ascent on warped graph manifolds.

The optimizer lifts a smooth objective onto its graph, warps the metric
there by the gradient magnitude, and runs conjugate-gradient ascent with a
cubic geodesic retraction and secant vector transport. Every geometric
operation is O(dim) per call; the only objective access is values,
gradients, and Hessian-vector products.

The package root exports what a user calls. The building blocks live in
their modules (geometry, retraction, linesearch, objective, errors). The
reference geometry the tests check them against is not part of the package;
it lives with the tests, in tests/oracle.py.
"""

__version__ = "0.1.0"

from .baseline import run_euclidean_cg
from .errors import WarpcgError
from .geometry import WarpConfig
from .objective import Objective
from .problems import (
    QuadraticProblem,
    RosenbrockProblem,
    SquiggleProblem,
    classify_rosenbrock_basin,
    initial_point,
    make_problem,
)
from .rcg import IterationTrace, RcgConfig, RcgResult, StopReason, run_rcg

__all__ = [
    "__version__",
    "WarpcgError",
    "Objective",
    "WarpConfig",
    "StopReason",
    "RcgConfig",
    "IterationTrace",
    "RcgResult",
    "run_rcg",
    "run_euclidean_cg",
    "SquiggleProblem",
    "RosenbrockProblem",
    "QuadraticProblem",
    "make_problem",
    "initial_point",
    "classify_rosenbrock_basin",
]
