"""Tests of the benchmark itself, at tiny sizes so they take seconds."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import warpcg  # noqa: E402
import workloads  # noqa: E402

TINY = {"small_dims": (2, 5), "large_dim": 300}


@pytest.fixture(autouse=True)
def short_solves(monkeypatch):
    """Cap iterations so that a stalling tiny solve stays cheap, and repeat
    short solves for a few milliseconds only."""
    monkeypatch.setattr(workloads, "CONFIG", dataclasses.replace(workloads.CONFIG, max_iters=300))
    monkeypatch.setattr(harness, "ROUND_TARGET_S", 0.005)


def tiny(workload, seed=0):
    solves = workloads.build(workload, seed, **TINY)
    return solves, [solve.make() for solve in solves]


def problem_arrays(solve):
    problem = solve.make()
    return [np.asarray(v) for v in vars(problem).values() if isinstance(v, np.ndarray)]


def test_same_seed_gives_identical_inputs_and_counts():
    for workload in workloads.WORKLOADS:
        (a, pa), (b, pb) = tiny(workload, 7), tiny(workload, 7)
        for x, y in zip(a, b):
            assert x.label == y.label
            np.testing.assert_array_equal(x.theta0, y.theta0)
            for u, v in zip(problem_arrays(x), problem_arrays(y)):
                np.testing.assert_array_equal(u, v)
        first = workloads.run_batch(a, pa)
        second = workloads.run_batch(b, pb)
        assert [o.fingerprint() for o in first] == [o.fingerprint() for o in second]


def test_different_seed_gives_different_inputs():
    for workload in workloads.WORKLOADS:
        a, _ = tiny(workload, 0)
        b, _ = tiny(workload, 1)
        assert all(not np.array_equal(x.theta0, y.theta0) for x, y in zip(a, b) if x.problem != "quadratic")
    a, _ = tiny("large_warped", 0)
    b, _ = tiny("large_warped", 1)
    assert not np.array_equal(problem_arrays(a[1])[0], problem_arrays(b[1])[0])


def test_flat_runs_the_union_of_the_warped_inputs():
    flat, _ = tiny("flat", 3)
    warped = tiny("small_warped", 3)[0] + tiny("large_warped", 3)[0]
    assert all(solve.sigma_sq is None for solve in flat)
    assert all(solve.sigma_sq is not None for solve in warped)
    unique = {(s.problem, s.dim): s.theta0 for s in warped}
    assert len(flat) == len(unique)
    for solve in flat:
        np.testing.assert_array_equal(solve.theta0, unique[(solve.problem, solve.dim)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_smoke(workload):
    solves, problems = tiny(workload)
    runs = harness.measure(solves, problems, seconds=0)
    assert all(len(outcomes) >= 1 for outcomes in runs)
    assert not [o for outcomes in runs for o in outcomes if o.status in ("error", "wrong")]
    metrics = harness.end_to_end(runs)
    assert set(metrics) | {"setup_s", "peak_rss_mb"} == set(harness.END_TO_END) | {"iter_ms_raw"}
    assert all(value > 0 for value in metrics.values())


def test_rounds_repeat_short_solves_with_identical_outcomes(monkeypatch):
    monkeypatch.setattr(harness, "ROUND_TARGET_S", 0.02)
    solves = [s for s in tiny("small_warped")[0] if s.problem == "quadratic"]
    runs = harness.measure(solves, [s.make() for s in solves], seconds=0.2)
    assert min(len(outcomes) for outcomes in runs) > 2
    assert harness.unrepeatable(runs) == []
    doctored = [runs[0][0], dataclasses.replace(runs[0][0], n_value=runs[0][0].n_value + 1)]
    assert harness.unrepeatable([doctored]) == [runs[0][0].label]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke(workload):
    solves, problems = tiny(workload)
    tracer, plain, traced, batches = harness.measure_traced(solves, problems, seconds=0)
    assert harness.unrepeatable([list(outcomes) for outcomes in zip(*batches)]) == []
    metrics, absent = harness.per_layer(solves, tracer, plain, traced, batches[1])
    assert absent == []
    assert set(metrics) == set(harness.PER_LAYER)
    assert 0.95 <= metrics["trace.span_share"] <= 1.0
    outcomes = batches[1]
    assert metrics["problems.value.calls"] == sum(o.n_value for o in outcomes)
    assert metrics["problems.hvp.calls"] == sum(o.n_hvp for o in outcomes)
    warped = workload != "flat"
    assert (metrics["geometry.taylor_coefficients.calls"] > 0) == warped
    assert (metrics["rcg.iterations"] > 0) == warped
    assert (metrics["baseline.iterations"] > 0) == (not warped)
    # Every binding is restored after the traced batch.
    assert warpcg.run_rcg.__module__ == "warpcg.rcg"
    assert warpcg.rcg.taylor_coefficients is warpcg.geometry.taylor_coefficients


def test_missing_binding_is_reported_absent_not_zero(monkeypatch):
    bindings = [b if b[1] != "dy_beta" else ("warpcg.rcg", "no_longer_here", "rcg.dy_beta")
                for b in spans.BINDINGS]
    monkeypatch.setattr(spans, "BINDINGS", tuple(bindings))
    solves, problems = tiny("small_warped")
    tracer, plain, traced, batches = harness.measure_traced(solves[:2], problems[:2], seconds=0)
    metrics, absent = harness.per_layer(solves[:2], tracer, plain, traced, batches[1])
    assert absent == ["rcg.dy_beta.self_s"]
    assert "rcg.dy_beta.self_s" not in metrics
    assert metrics["geometry.build_cache.calls"] > 0


def test_answer_check_rejects_a_doctored_result():
    solve = next(s for s in tiny("small_warped")[0] if s.problem == "quadratic")
    result = solve.run(solve.make())
    assert workloads.check(solve, result) is None
    doctored = [
        dataclasses.replace(result, value=result.value + 1e-3),
        dataclasses.replace(result, grad_norm_eucl=result.grad_norm_eucl + 1e-3),
        dataclasses.replace(result, theta=result.theta + 1e-3),
    ]
    for bad in doctored:
        with pytest.raises(workloads.WrongAnswer):
            workloads.check(solve, bad)
    stalled = dataclasses.replace(result, stop_reason=warpcg.StopReason.MAX_ITERS)
    assert workloads.check(solve, stalled) == "max_iters"
    outcome = workloads.run_solve(solve, solve.make())
    assert outcome.status == "solved"


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
