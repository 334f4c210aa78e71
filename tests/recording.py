"""Watch a CG run through the points and jets its loop builds.

Both drivers run warpcg.rcg._run_cg, which looks up build_cache and _jet in
warpcg.rcg's globals when it calls them. recorded() wraps those two
bindings with functions that log every point and jet the loop asks for,
calls the public driver, and puts the bindings back, as the benchmark's
spans do. A run keeps no search curve and counts no cache build itself, so
this log is where tests find them.
"""

from __future__ import annotations

import warpcg.rcg
from warpcg.geometry import FLAT_WARP


def jet_hvps(point) -> int:
    """The hvps a jet from point costs, by the driver's rule: four when
    psi^2 ||grad||^2 is at or above FLAT_WARP (or NaN), none below it, where
    the jet is the straight ray. A flat point has psi^2 = 0, so its jets
    cost none either."""
    return 0 if point.psi_sq * point.grad_sq < FLAT_WARP else 4


class Recording:
    """The point and jet calls of one run, in call order, as ("point",
    point) and ("jet", jet) pairs; a call that raised is not logged."""

    def __init__(self):
        self.calls: list[tuple[str, object]] = []

    def steps(self) -> list[tuple[object, object, int]]:
        """(start, jet, builds) per accepted step. start is the point the
        jet left from, the last point logged before it. A jet is accepted
        when the next call builds a point, the end of its search; builds
        counts the points built from there up to the next jet or the end of
        the run."""
        steps = []
        start = pending = None
        for kind, obj in self.calls:
            if kind == "jet":
                pending = obj
                continue
            if pending is not None:
                steps.append([start, pending, 1])
                pending = None
            elif steps:
                steps[-1][2] += 1
            start = obj
        return [tuple(step) for step in steps]

    def accepted_jets(self) -> list:
        return [jet for _, jet, _ in self.steps()]

    def accepted_starts(self) -> list:
        return [start for start, _, _ in self.steps()]

    def builds_per_step(self) -> list[int]:
        return [builds for _, _, builds in self.steps()]

    def failed_starts(self) -> list:
        """The start points of the jets whose search found no Wolfe point:
        those not followed by a point build."""
        failed = []
        start = None
        for i, (kind, obj) in enumerate(self.calls):
            if kind == "point":
                start = obj
            elif i + 1 == len(self.calls) or self.calls[i + 1][0] == "jet":
                failed.append(start)
        return failed

    def failed_jets(self) -> int:
        """Jets whose search found no Wolfe point."""
        return len(self.failed_starts())


def recorded(driver, *args, **kwargs):
    """Call driver (run_rcg or run_euclidean_cg) and return its result with
    the Recording of the points and jets its loop built."""
    recording = Recording()
    build_cache, jet = warpcg.rcg.build_cache, warpcg.rcg._jet

    def logged(kind, fn):
        def call(*call_args):
            out = fn(*call_args)
            recording.calls.append((kind, out))
            return out

        return call

    warpcg.rcg.build_cache = logged("point", build_cache)
    warpcg.rcg._jet = logged("jet", jet)
    try:
        result = driver(*args, **kwargs)
    finally:
        warpcg.rcg.build_cache = build_cache
        warpcg.rcg._jet = jet
    return result, recording
