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
algorithms 3.5/3.6 mirrored through g -> -g), with cubic Hermite
interpolation in the zoom phase and bisection as the safeguard. Non-finite
trial values are treated as failing the sufficient-increase test, so the
bracket shrinks away from them instead of propagating NaNs.
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
# at construction. A search builds a few trials per iteration and the CG
# loop one GeometryCache, GeodesicJet, TransportResult and IterationTrace
# per row, so each of these is a slots dataclass; of their fields only an
# endpoint's point and grad (below) are written once built.
@dataclass(eq=False, slots=True)
class WolfeResult:
    """One trial of the search: parameter t, the path data there, and evals,
    the phi evaluations spent up to and including this trial. The accepted
    trial is the search's result, so its evals is the search's total. Only
    the returned trial carries point and grad: a trial kept as a bracket
    endpoint drops them, since an endpoint is never returned, and the t = 0
    seed trial never has them."""

    t: float
    value: float
    slope: float
    point: np.ndarray | None
    grad: np.ndarray | None
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
    evals = 0

    def ev(t: float) -> WolfeResult:
        nonlocal evals
        if evals >= MAX_EVALS:
            raise LineSearchFail(f"line search budget of {MAX_EVALS} evaluations exhausted")
        evals += 1
        value, slope, point, grad = phi(t)
        return WolfeResult(t, value, slope, point, grad, evals)

    def endpoint(tr: WolfeResult) -> WolfeResult:
        # Only values and slopes of an endpoint are read again, so its
        # dim-vectors are let go at once.
        tr.point = tr.grad = None
        return tr

    def sufficient(tr: WolfeResult) -> bool:
        return math.isfinite(tr.value) and tr.value >= f0 + c1 * tr.t * slope0

    def zoom(lo: WolfeResult, hi: WolfeResult) -> WolfeResult:
        # Invariants: lo satisfies the sufficient-increase condition, its
        # value is the best so far, and the interval brackets a Wolfe point.
        while True:
            width = abs(hi.t - lo.t)
            if width <= 1e-14 * max(1.0, abs(lo.t)):
                raise LineSearchFail("zoom interval collapsed without a Wolfe point")
            t = None
            if math.isfinite(hi.value) and math.isfinite(hi.slope):
                t = _cubic_min(lo.t, -lo.value, -lo.slope, hi.t, -hi.value, -hi.slope)
            left, right = min(lo.t, hi.t), max(lo.t, hi.t)
            margin = 0.1 * width
            if t is None or not (left + margin <= t <= right - margin):
                t = 0.5 * (lo.t + hi.t)
            tr = ev(t)
            if not sufficient(tr) or tr.value <= lo.value:
                hi = endpoint(tr)
            else:
                if math.isfinite(tr.slope) and abs(tr.slope) <= c2 * slope0:
                    return tr
                if tr.slope * (hi.t - lo.t) <= 0.0:
                    hi = lo
                lo = endpoint(tr)

    prev = WolfeResult(0.0, f0, slope0, None, None, 0)
    t = t_init
    first = True
    while True:
        tr = ev(t)
        if not sufficient(tr) or (not first and tr.value <= prev.value):
            return zoom(prev, endpoint(tr))
        if math.isfinite(tr.slope) and abs(tr.slope) <= c2 * slope0:
            return tr
        if tr.slope <= 0.0:
            # Crest passed: the maximum lies between the previous point and
            # this one, with the current point the higher shoulder.
            return zoom(endpoint(tr), prev)
        prev = endpoint(tr)
        t *= 2.0  # still climbing: double the step
        first = False
