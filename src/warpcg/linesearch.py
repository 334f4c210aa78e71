"""Strong Wolfe line search in ascent form, on arbitrary parametrized paths.

The search operates on a one-dimensional restriction phi(t) supplied as a
callable returning (value, slope, point, grad); it never sees the curve
itself, so the same routine serves the curved retraction of the warped
optimizer and the straight rays of the Euclidean baseline.

Conditions, for initial slope g'(0) > 0 (maximization), with the fixed
constants c1 = C1 and c2 = C2:

    sufficient increase:  g(t) >= g(0) + c1 t g'(0)
    curvature:            |g'(t)| <= c2 g'(0)

Structure is the classic bracket-then-zoom scheme (Nocedal & Wright's
algorithms 3.5/3.6 mirrored through g -> -g), run as one loop: t doubles
until a trial brackets a Wolfe point, and the bracket then shrinks by cubic
Hermite interpolation with bisection as the safeguard. The bracket's ends
are (t, value, slope) triples; only the accepted trial's point and gradient
outlive its pass. Non-finite trial values are treated as failing the
sufficient-increase test, so the bracket shrinks away from them instead of
propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LineSearchFail

__all__ = ["WolfeResult", "strong_wolfe"]

#: phi(t) -> (value, slope, point, gradient-at-point)
PhiFn = Callable[[float], tuple[float, float, np.ndarray, np.ndarray]]

#: Evaluation budget of one search.
MAX_EVALS = 60

#: Strong Wolfe constants, 0 < C1 < C2 < 1: sufficient increase and
#: curvature. Every run uses these; C2 = 0.1 is the tight curvature test
#: usual for conjugate gradient.
C1 = 1e-4
C2 = 0.1


# Not frozen: a frozen dataclass pays for object.__setattr__ on every field
# at construction. A search builds one WolfeResult and the CG loop one
# GeometryCache, GeodesicJet, TransportResult and IterationTrace per row, so
# each of these is a slots dataclass.
@dataclass(eq=False, slots=True)
class WolfeResult:
    """The accepted trial of a search: parameter t, the path's value, slope,
    point and gradient there, and evals, the phi evaluations the search
    spent, this trial included."""

    t: float
    value: float
    slope: float
    point: np.ndarray
    grad: np.ndarray
    evals: int


def _cubic_min(a, fa, sa, b, fb, sb):
    """Argmin of the cubic Hermite interpolant of a scalar function with
    values/slopes (fa, sa) at a and (fb, sb) at b; None when degenerate."""
    if a == b:
        return None
    d1 = sa + sb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - sa * sb
    if not math.isfinite(disc) or disc < 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = sb - sa + 2.0 * d2
    if denom == 0.0:
        return None
    t = b - (b - a) * (sb + d2 - d1) / denom
    return t if math.isfinite(t) else None


def strong_wolfe(
    phi: PhiFn,
    f0: float,
    slope0: float,
    *,
    t_init: float,
) -> WolfeResult:
    """Find t > 0 satisfying the strong Wolfe conditions along phi, with
    the module's C1 and C2, trying t_init first; the CG loop chooses t_init.
    Returns the accepted trial, the one WolfeResult the search builds.

    Raises ValueError on a bad argument, slope0 <= 0 included (there is
    nothing to search), and LineSearchFail when the MAX_EVALS budget runs
    out or the zoom interval collapses without an acceptable point.
    """
    if not math.isfinite(slope0) or slope0 <= 0.0:
        raise ValueError(f"initial slope must be positive, got {slope0}")
    if not (t_init > 0.0):
        raise ValueError(f"t_init must be positive, got {t_init}")
    # Read at call time, so a patched constant takes effect.
    c1, c2 = C1, C2
    # Bracket ends as (t, value, slope). lo is the best trial that meets
    # sufficient increase, the start until one does; hi is None while t
    # doubles and the bracket's other end once the search zooms.
    lo = (0.0, f0, slope0)
    hi = None
    t = t_init
    evals = 0
    while True:
        if hi is not None:
            (a, fa, sa), (b, fb, sb) = lo, hi
            width = abs(b - a)
            if width <= 1e-14 * max(1.0, abs(a)):
                raise LineSearchFail("zoom interval collapsed without a Wolfe point")
            t = None
            if math.isfinite(fb) and math.isfinite(sb):
                t = _cubic_min(a, -fa, -sa, b, -fb, -sb)
            margin = 0.1 * width
            if t is None or not (min(a, b) + margin <= t <= max(a, b) - margin):
                t = 0.5 * (a + b)
        if evals >= MAX_EVALS:
            raise LineSearchFail(f"line search budget of {MAX_EVALS} evaluations exhausted")
        evals += 1
        value, slope, point, grad = phi(t)
        # Non-finite values fail sufficient increase. The first trial is not
        # held to the start's value; every later one must beat lo's.
        if not (math.isfinite(value) and value >= f0 + c1 * t * slope0) or (
            evals > 1 and value <= lo[1]
        ):
            hi = (t, value, slope)
        elif math.isfinite(slope) and abs(slope) <= c2 * slope0:
            return WolfeResult(t, value, slope, point, grad, evals)
        else:
            # A trial that rises toward lo, not toward hi (which lies beyond
            # lo while t doubles), has passed the crest: lo becomes the
            # other end.
            if slope * (1.0 if hi is None else hi[0] - lo[0]) <= 0.0:
                hi = lo
            lo = (t, value, slope)
            if hi is None:
                t *= 2.0  # still climbing: double the step
        # A trial not returned lets its vectors go before the next phi call.
        del point, grad
