"""Spans around warpcg's functions, recorded from outside the package.

A span wraps a function at the name its caller looks it up by, so calls
made from inside warpcg pass through it. Self time is a span's duration
minus the time covered by the spans it caused. Spans are kept as per-name
totals in memory.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

#: (module that binds the name, attribute, span). A span is named after the
#: layer that defines the function, not after the caller.
BINDINGS = (
    ("warpcg", "run_rcg", "rcg"),
    ("warpcg", "run_euclidean_cg", "baseline"),
    ("warpcg.rcg", "build_cache", "geometry.build_cache"),
    ("warpcg.rcg", "taylor_coefficients", "geometry.taylor_coefficients"),
    ("warpcg.rcg", "riemannian_gradient", "geometry.riemannian_gradient"),
    ("warpcg.geometry", "hvp_or_fallback", "objective.hvp_or_fallback"),
    ("warpcg.rcg", "strong_wolfe", "linesearch.strong_wolfe"),
    ("warpcg.baseline", "strong_wolfe", "linesearch.strong_wolfe"),
    ("warpcg.rcg", "directional_value_and_slope", "retraction.directional_value_and_slope"),
    ("warpcg.baseline", "directional_value_and_slope", "retraction.directional_value_and_slope"),
    ("warpcg.retraction", "retract", "retraction.retract"),
    ("warpcg.retraction", "curve_velocity", "retraction.curve_velocity"),
    ("warpcg.rcg", "vector_transport", "retraction.vector_transport"),
    ("warpcg.rcg", "dy_beta", "rcg.dy_beta"),
)

#: Methods wrapped on each problem instance, as spans "problems.<method>".
PROBLEM_METHODS = ("value", "grad", "hvp")


class Tracer:
    """Per-span calls, exceptions raised and self time.

    absent holds the spans whose binding no longer exists; their metrics
    must be reported as absent, not as zero.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.absent: set[str] = set()
        # Time covered by child spans, one entry per open span; entry 0
        # collects the spans opened outside any other.
        self._child_ns = [0]

    @property
    def covered_ns(self) -> int:
        """Total duration of the outermost spans, equal to the sum of all
        self times."""
        return self._child_ns[0]

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._child_ns
        calls, raised, self_ns = self.calls, self.raised, self.self_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                duration = clock() - start
                self_ns[name] += duration - stack.pop()
                stack[-1] += duration
                calls[name] += 1

        return span

    def wrap_problem(self, problem):
        """Wrap the instance's value/grad/hvp; the class is left alone."""
        for method in PROBLEM_METHODS:
            setattr(problem, method, self.wrap(f"problems.{method}", getattr(problem, method)))
        return problem

    @contextmanager
    def patched(self):
        """Wrap every binding in BINDINGS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in BINDINGS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.add(name)
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
