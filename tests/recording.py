"""Watch a CG run through the geometry its driver builds.

run_rcg and run_euclidean_cg look up warpcg.rcg._WarpedGeometry and
warpcg.baseline._FlatGeometry when they are called. recorded() swaps each
for a subclass that logs every point and jet the loop asks for, calls the
public driver, and puts the classes back. A run keeps no search curve and
counts no cache build itself, so this log is where tests find them.
"""

from __future__ import annotations

import warpcg.baseline
import warpcg.rcg


class Recording:
    """The point and jet calls of one run, in call order, as ("point",
    point) and ("jet", jet) pairs; a call that raised is not logged.
    warped tells the warped geometry from the flat one."""

    def __init__(self, warped: bool):
        self.warped = warped
        self.calls: list[tuple[str, object]] = []

    def steps(self) -> list[tuple[object, int]]:
        """(jet, builds) per accepted step. A jet is accepted when the next
        call builds a point, the end of its search; builds counts the points
        built from there up to the next jet or the end of the run."""
        steps = []
        pending = None
        for kind, obj in self.calls:
            if kind == "jet":
                pending = obj
            elif pending is not None:
                steps.append((pending, 1))
                pending = None
            elif steps:
                jet, builds = steps[-1]
                steps[-1] = (jet, builds + 1)
        return steps

    def accepted_jets(self) -> list:
        return [jet for jet, _ in self.steps()]

    def builds_per_step(self) -> list[int]:
        return [builds for _, builds in self.steps()]

    def failed_jets(self) -> int:
        """Jets whose search found no Wolfe point."""
        jets = sum(kind == "jet" for kind, _ in self.calls)
        return jets - len(self.steps())


def _logged(base, warped: bool, recordings: list[Recording]):
    class Logged(base):
        def __init__(self, *args):
            super().__init__(*args)
            self.recording = Recording(warped)
            recordings.append(self.recording)

        def point(self, theta, value, grad):
            point = super().point(theta, value, grad)
            self.recording.calls.append(("point", point))
            return point

        def jet(self, point, v):
            jet = super().jet(point, v)
            self.recording.calls.append(("jet", jet))
            return jet

    return Logged


def recorded(driver, *args, **kwargs):
    """Call driver (run_rcg or run_euclidean_cg) and return its result with
    the Recording of the geometry it built."""
    recordings: list[Recording] = []
    warped, flat = warpcg.rcg._WarpedGeometry, warpcg.baseline._FlatGeometry
    warpcg.rcg._WarpedGeometry = _logged(warped, True, recordings)
    warpcg.baseline._FlatGeometry = _logged(flat, False, recordings)
    try:
        result = driver(*args, **kwargs)
    finally:
        warpcg.rcg._WarpedGeometry = warped
        warpcg.baseline._FlatGeometry = flat
    (recording,) = recordings
    return result, recording
