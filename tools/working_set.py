"""Peak working set of both CG drivers, in dim-vectors.

Usage:

    python3 tools/working_set.py <src-tree> <problem> <dim> <iters>

<src-tree> is the root of a warpcg checkout (it holds ``src/``); <problem>
is one of ``warpcg.problems.PROBLEM_NAMES``. Each driver runs <iters>
iterations (``tol_df = tol_grad = 0``) from ``initial_point(problem, dim)``
under tracemalloc, which starts after the problem and the start are built,
so neither counts. Every figure is a traced peak divided by the start's
size, ``8 * dim`` bytes. One line per driver and span:

    <driver> <span> <peak in dim-vectors> <calls>

Span ``run`` is the whole run. The others are the peaks inside
``build_cache``, ``taylor_coefficients``, ``strong_wolfe`` and
``vector_transport``, counting what the caller holds as well. They are
measured by wrapping each function at its ``warpcg.rcg`` binding, as the
benchmark's spans do, and the bindings are restored afterwards. A span the
driver never calls prints ``-`` and 0 calls. After its traced run each
driver runs three more times, untraced, on the same problem and start, and
prints

    <driver> faults <minor page faults per iteration> <iterations>

with the median over those runs of the process's ``ru_minflt`` delta per
iteration. Unlike the traced peaks, this figure counts the pages glibc hands
back to the system and faults in again. A single run after the traced one
still paid part of the heap's warm-up, so its figure fell as the run grew
longer; one such run does not move the median of three. The faults figure
also follows the heap's layout, which the process's working directory and
the checkout's path change: for one tree, rcg on Rosenbrock d = 1e5 over 50
iterations read 398.4 faults per iteration run from the checkout's root,
436.2 from another directory and 435.8 from the root of a copy at a longer
path. So the figure compares only runs of one checkout path started from
one working directory. Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

#: Functions wrapped at their warpcg.rcg binding, one span each.
SPANS = ("build_cache", "taylor_coefficients", "strong_wolfe", "vector_transport")
#: Untraced runs per driver behind the faults figure.
FAULT_RUNS = 3


class PeakMeter:
    """Per-span traced peaks. Entering a span resets tracemalloc's peak, so
    the meter keeps the peak reached before each reset to give the run's.
    The spans never call one another, so no reset cuts into an open span."""

    def __init__(self):
        self.peaks = {name: 0 for name in SPANS}
        self.calls = {name: 0 for name in SPANS}
        self.earlier_peak = 0

    def wrap(self, name: str, fn):
        def span(*args, **kwargs):
            self.earlier_peak = max(self.earlier_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                self.calls[name] += 1

        return span

    def run_peak(self) -> int:
        return max(self.earlier_peak, tracemalloc.get_traced_memory()[1])


def measure(rcg_module, driver, problem, theta0, cfg) -> tuple[int, PeakMeter]:
    """(whole-run peak in bytes, meter) of one traced run of driver."""
    meter = PeakMeter()
    saved = {name: getattr(rcg_module, name) for name in SPANS}
    for name, fn in saved.items():
        setattr(rcg_module, name, meter.wrap(name, fn))
    tracemalloc.start()
    try:
        driver(problem, theta0, cfg=cfg)
        peak = meter.run_peak()
    finally:
        tracemalloc.stop()
        for name, fn in saved.items():
            setattr(rcg_module, name, fn)
    return peak, meter


def minor_faults(driver, problem, theta0, cfg) -> tuple[int, int]:
    """(minor page faults, iterations) of one untraced run of driver."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    iterations = driver(problem, theta0, cfg=cfg).iterations
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, iterations


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src")]
    import warpcg
    import warpcg.rcg

    name, dim, iters = argv[1], int(argv[2]), int(argv[3])
    problem = warpcg.make_problem(name, dim)
    theta0 = warpcg.initial_point(name, dim)
    cfg = warpcg.RcgConfig(max_iters=iters, tol_df=0.0, tol_grad=0.0)
    print(f"# warpcg from {Path(warpcg.__file__).parent}")
    print(f"# {name} dim={dim} iters={iters}; one dim-vector is {theta0.nbytes} bytes")
    for driver in (warpcg.run_rcg, warpcg.run_euclidean_cg):
        peak, meter = measure(warpcg.rcg, driver, problem, theta0, cfg)
        print(f"{driver.__name__} run {peak / theta0.nbytes:.2f} 1")
        for span in SPANS:
            calls = meter.calls[span]
            shown = f"{meter.peaks[span] / theta0.nbytes:.2f}" if calls else "-"
            print(f"{driver.__name__} {span} {shown} {calls}")
        runs = [minor_faults(driver, problem, theta0, cfg) for _ in range(FAULT_RUNS)]
        iterations = runs[0][1]
        per_iteration = statistics.median(faults / max(1, its) for faults, its in runs)
        print(f"{driver.__name__} faults {per_iteration:.1f} {iterations}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
