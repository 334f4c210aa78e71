"""Measurement loops and metrics.

An untraced run repeats the workload's batch in rounds until the run length
is used and reports the end-to-end metrics. A traced run alternates an
untraced and a traced batch, so that it can also report what the tracing
costs, and reports the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

from spans import Tracer
from workloads import Outcome, Solve, run_batch, run_solve

#: End-to-end metrics: name -> unit. setup_s and peak_rss_mb are measured by
#: the caller, the rest by end_to_end().
END_TO_END = {
    "iter_ms": "ms",
    "evals_per_iter": "calls/iter",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Span -> which of its totals are reported ("calls", "self_s").
SPAN_FIELDS = {
    "problems.value": ("calls", "self_s"),
    "problems.grad": ("calls", "self_s"),
    "problems.hvp": ("calls", "self_s"),
    "objective.hvp_or_fallback": ("self_s",),
    "geometry.build_cache": ("calls", "self_s"),
    "geometry.taylor_coefficients": ("calls", "self_s"),
    "geometry.riemannian_gradient": ("self_s",),
    "retraction.retract": ("self_s",),
    "retraction.curve_velocity": ("self_s",),
    "retraction.directional_value_and_slope": ("self_s",),
    "retraction.vector_transport": ("self_s",),
    "linesearch.strong_wolfe": ("calls", "self_s"),
    "rcg": ("self_s",),
    "rcg.dy_beta": ("self_s",),
    "baseline": ("self_s",),
}

#: Per-layer metrics: name -> unit. Each is a per-batch figure.
PER_LAYER = {
    **{f"{span}.{field}": ("count" if field == "calls" else "s")
       for span, fields in SPAN_FIELDS.items() for field in fields},
    "linesearch.evals_per_search": "evals/search",
    "linesearch.failed_searches": "count",
    "linesearch.accept_ratio": "ratio",
    "rcg.iterations": "count",
    "rcg.restarts": "count",
    "rcg.restart_ratio": "ratio",
    "baseline.iterations": "count",
    "baseline.restarts": "count",
    "trace.overhead_s": "s",
    "trace.batch_s": "s",
    "trace.span_share": "ratio",
}

#: In every round, a solve faster than this is run again until its
#: repetitions take about this long, so that short solves are timed many
#: times.
ROUND_TARGET_S = 0.3

#: The reference loop's time on an undisturbed core of the machine the
#: benchmark was built on (see Reference).
REFERENCE_S = 1.2e-3

#: The traced run fails when span self times cover less than this share of
#: the traced batch time.
MIN_SPAN_SHARE = 0.95


class Reference:
    """A fixed numpy loop, independent of warpcg, timed next to each
    measurement.

    On a shared machine other tenants slow whole stretches of a run, by up
    to 2x and for minutes at a time, and they slow this loop with it.
    Dividing a time by the loop's time measured beside it, and multiplying
    by REFERENCE_S, gives the time the measurement would have taken on an
    undisturbed core. The loop mixes small-array calls with passes over a
    d=1e5 array, as the workloads do.
    """

    def __init__(self):
        self._small = np.linspace(0.0, 1.0, 100)
        self._large = np.linspace(0.0, 1.0, 100_000)

    def _once(self) -> float:
        small, large = self._small, self._large
        start = time.perf_counter()
        for _ in range(10):
            for _ in range(10):
                y = np.sqrt(small * small + 1.0)
                float(y @ small)
            y = large * 0.5 + 1.0
            float(y @ large)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """The fastest of three timings of the loop."""
        return min(self._once(), self._once(), self._once())


def repeat_until(seconds: float, run_once) -> None:
    """Call run_once() at least once, and again while the run length lasts."""
    start = time.perf_counter()
    run_once()
    while time.perf_counter() - start < seconds:
        run_once()


def timed_batch(solves: list[Solve], problems) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outcomes = run_batch(solves, problems)
    return time.perf_counter() - start, outcomes


def measure(solves: list[Solve], problems, seconds: float) -> list[list[Outcome]]:
    """Untraced rounds on the given problem objects: every outcome of each
    solve, in the order of solves.

    Each round runs every solve at least once, with the reference loop timed
    just before and just after; each outcome carries their mean.
    """
    reference = Reference()
    runs: list[list[Outcome]] = [[] for _ in solves]

    def once():
        for solve, problem, outcomes in zip(solves, problems, runs):
            before = reference.seconds()
            done = [run_solve(solve, problem)]
            fastest = min(o.seconds for o in outcomes + done)
            repeats = int(ROUND_TARGET_S / max(fastest, 1e-6)) - 1
            done += [run_solve(solve, problem) for _ in range(repeats)]
            reference_s = 0.5 * (before + reference.seconds())
            outcomes.extend(dataclasses.replace(o, reference_s=reference_s) for o in done)

    repeat_until(seconds, once)
    return runs


def measure_traced(solves: list[Solve], problems, seconds: float):
    """Alternate untraced and traced batches.

    Returns (tracer, untraced times, traced times, all outcomes). Traced
    batches run on fresh problem instances whose methods are wrapped.
    """
    tracer = Tracer()
    plain_times, traced_times, batches = [], [], []

    def once():
        seconds_taken, outcomes = timed_batch(solves, problems)
        plain_times.append(seconds_taken)
        batches.append(outcomes)
        wrapped = [tracer.wrap_problem(solve.make()) for solve in solves]
        with tracer.patched():
            seconds_taken, outcomes = timed_batch(solves, wrapped)
        traced_times.append(seconds_taken)
        batches.append(outcomes)

    repeat_until(seconds, once)
    return tracer, plain_times, traced_times, batches


def unrepeatable(runs: list[list[Outcome]]) -> list[str]:
    """Labels of solves whose counts or result differ between repetitions;
    runs holds every outcome of each solve."""
    return [outcomes[0].label for outcomes in runs
            if any(o.fingerprint() != outcomes[0].fingerprint() for o in outcomes[1:])]


def _low_decile(values: list[float]) -> float:
    return float(np.percentile(values, 10))


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(runs: list[list[Outcome]]) -> dict[str, float]:
    """iter_ms, evals_per_iter and solved_frac from every outcome of each
    solve, as measure() returns them.

    iter_ms is the geometric mean, over the solves that ran at least one
    iteration, of each solve's time per iteration: the lower decile of its
    repetitions, each normalised by the reference loop timed beside it. The
    decile, unlike the minimum, does not fall as a faster machine fits more
    repetitions into the run. iter_ms_raw is the same without the
    normalisation.
    evals_per_iter is the batch's objective calls (value + grad + hvp) per
    iteration.
    """
    first = [outcomes[0] for outcomes in runs]
    ran = [outcomes for outcomes in runs if outcomes[0].status != "error" and outcomes[0].iterations > 0]
    per_iter_s = [_low_decile([o.seconds * REFERENCE_S / o.reference_s for o in outcomes])
                  / outcomes[0].iterations for outcomes in ran]
    raw_per_iter_s = [_low_decile([o.seconds for o in outcomes]) / outcomes[0].iterations for outcomes in ran]
    totals = batch_totals(first)
    calls = totals["evals_value"] + totals["evals_grad"] + totals["evals_hvp"]
    return {
        "iter_ms": 1e3 * _geomean(per_iter_s),
        "iter_ms_raw": 1e3 * _geomean(raw_per_iter_s),
        "evals_per_iter": calls / totals["iterations"],
        "solved_frac": sum(o.status == "solved" for o in first) / len(first),
    }


def batch_totals(outcomes: list[Outcome]) -> dict[str, int]:
    """Batch totals of the evaluation counts and iterations."""
    return {
        "evals_value": sum(o.n_value for o in outcomes),
        "evals_grad": sum(o.n_grad for o in outcomes),
        "evals_hvp": sum(o.n_hvp for o in outcomes),
        "iterations": sum(o.iterations for o in outcomes),
    }


def per_layer(solves: list[Solve], tracer: Tracer, plain_times, traced_times, outcomes: list[Outcome]):
    """Per-batch layer metrics, and the names left out because a span they
    need no longer has a binding to wrap."""
    n = len(traced_times)
    metrics: dict[str, float] = {}
    for span, fields in SPAN_FIELDS.items():
        if span in tracer.absent:
            continue
        for field in fields:
            total = tracer.calls[span] if field == "calls" else tracer.self_ns[span] * 1e-9
            metrics[f"{span}.{field}"] = total / n

    searches = tracer.calls["linesearch.strong_wolfe"]
    if "linesearch.strong_wolfe" not in tracer.absent:
        failed = tracer.raised["linesearch.strong_wolfe"]
        metrics["linesearch.failed_searches"] = failed / n
        metrics["linesearch.accept_ratio"] = (searches - failed) / searches if searches else 0.0
        if "retraction.directional_value_and_slope" not in tracer.absent:
            evals = tracer.calls["retraction.directional_value_and_slope"]
            metrics["linesearch.evals_per_search"] = evals / searches if searches else 0.0

    for method, flat in (("rcg", False), ("baseline", True)):
        mine = [o for solve, o in zip(solves, outcomes) if (solve.sigma_sq is None) == flat]
        metrics[f"{method}.iterations"] = sum(o.iterations for o in mine)
        metrics[f"{method}.restarts"] = sum(o.restarts for o in mine)
    rcg_iterations = metrics["rcg.iterations"]
    metrics["rcg.restart_ratio"] = metrics["rcg.restarts"] / rcg_iterations if rcg_iterations else 0.0

    traced_s = statistics.median(traced_times)
    plain_s = statistics.median(plain_times)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.batch_s"] = plain_s
    metrics["trace.span_share"] = tracer.covered_ns * 1e-9 / sum(traced_times)
    absent = sorted(name for name in PER_LAYER if name not in metrics)
    return metrics, absent
