"""tools/trace_digest.py: the bitwise fingerprint used to show that a
refactor leaves every solve unchanged."""

import hashlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

from warpcg import (
    QuadraticProblem,
    RcgConfig,
    RosenbrockProblem,
    SquiggleProblem,
    WarpConfig,
    initial_point,
    make_problem,
    run_euclidean_cg,
    run_rcg,
)
from recording import recorded

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("trace_digest", ROOT / "tools" / "trace_digest.py")
trace_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_digest)

# Two iterations keep a one-ulp change of the start near one ulp in the
# results, so only a digest of the exact bits tells the runs apart.
CFG = RcgConfig(max_iters=2, tol_df=0.0)


def two_solves(theta0):
    """Digest of both drivers' results, and sha256 of the search curves they
    accepted: the flat driver's carry no curvature terms (None)."""
    quad = QuadraticProblem(3, curvatures=np.array([1.0, 4.0, 9.0]), center=np.zeros(3))
    solves = [
        recorded(run_rcg, SquiggleProblem(2), theta0, warp=WarpConfig(1.0), cfg=CFG),
        recorded(run_euclidean_cg, quad, np.append(theta0, 0.5), cfg=CFG),
    ]
    h = hashlib.sha256()
    trace_digest._feed(h, [recording.accepted_jets() for _, recording in solves])
    return trace_digest.digest([res for res, _ in solves]), h.hexdigest()


def test_same_solves_same_digest_and_one_ulp_changes_it():
    theta0 = np.array([3.0, 1.4])
    (rows, first), jets = two_solves(theta0)
    assert rows > 0
    assert two_solves(theta0.copy()) == ((rows, first), jets)

    nudged = theta0.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    (_, nudged_first), nudged_jets = two_solves(nudged)
    assert nudged_first != first
    assert nudged_jets != jets


def test_blas_threads_are_pinned_whatever_the_environment():
    # At d = 1e5 two BLAS threads round dot products and gemv differently
    # from one, so on a host with two or more cores an unpinned run prints
    # another large_warped line under OPENBLAS_NUM_THREADS=2.
    lines = []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "trace_digest.py"), str(ROOT), "large_warped", "0"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        lines.append(out.splitlines()[1])
    assert lines[0] == lines[1]
    assert lines[0].startswith("large_warped seed=0 rows=")


def test_acceptance_set_is_the_acceptance_fixtures_under_both_drivers():
    # The fixtures of test_acceptance.py as written there. The set runs each
    # under both drivers; stub drivers record the calls instead of solving.
    fixtures = [
        (SquiggleProblem, "squiggle", (2, 10, 50), WarpConfig(1.0), 1e-6),
        (RosenbrockProblem, "rosenbrock", (2, 10), WarpConfig(sigma_sq=300.0 ** 2), 1e-4),
    ]
    expected = []
    for make, name, dims, warp, tol_grad in fixtures:
        cfg = RcgConfig(max_iters=8000, tol_df=0.0, tol_grad=tol_grad)
        for dim in dims:
            start = initial_point(name, dim).tobytes()
            expected += [("rcg", make, dim, start, warp, cfg), ("flat", make, dim, start, None, cfg)]

    calls = []

    def record(driver, obj, theta0, warp, cfg):
        calls.append((driver, type(obj), obj.dim, theta0.tobytes(), warp, cfg))

    stub = types.SimpleNamespace(
        RcgConfig=RcgConfig,
        WarpConfig=WarpConfig,
        initial_point=initial_point,
        make_problem=make_problem,
        run_rcg=lambda obj, theta0, warp, cfg: record("rcg", obj, theta0, warp, cfg),
        run_euclidean_cg=lambda obj, theta0, cfg: record("flat", obj, theta0, None, cfg),
    )
    assert len(trace_digest.acceptance_results(stub)) == len(expected)
    assert calls == expected


def test_acceptance_prints_one_line_whatever_the_seeds(capsys, monkeypatch):
    results = [run_rcg(SquiggleProblem(2), np.array([3.0, 1.4]), cfg=CFG)]
    monkeypatch.setattr(trace_digest, "acceptance_results", lambda warpcg: results)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert trace_digest.main([str(ROOT), "acceptance", "0,1"]) == 0
    comment, line = capsys.readouterr().out.splitlines()
    assert comment.startswith("# warpcg from ")
    rows, hexdigest = trace_digest.digest(results)
    assert line == f"acceptance rows={rows} sha256={hexdigest}"


def test_acceptance_labels_name_the_solves_in_order():
    # One label per acceptance solve, in acceptance_results' order: each
    # fixture under rcg and then under the flat driver.
    assert trace_digest.acceptance_labels() == [
        "squiggle d=2 rcg sigma_sq=1", "squiggle d=2 euclid_cg",
        "squiggle d=10 rcg sigma_sq=1", "squiggle d=10 euclid_cg",
        "squiggle d=50 rcg sigma_sq=1", "squiggle d=50 euclid_cg",
        "rosenbrock d=2 rcg sigma_sq=90000", "rosenbrock d=2 euclid_cg",
        "rosenbrock d=10 rcg sigma_sq=90000", "rosenbrock d=10 euclid_cg",
    ]


def test_solves_adds_one_line_per_solve_under_the_batch_line(capsys, monkeypatch):
    results = [
        run_rcg(SquiggleProblem(2), np.array([3.0, 1.4]), cfg=CFG),
        run_euclidean_cg(SquiggleProblem(2), np.array([3.0, 1.4]), cfg=CFG),
    ]
    monkeypatch.setattr(trace_digest, "acceptance_results", lambda warpcg: results)
    monkeypatch.setattr(trace_digest, "acceptance_labels", lambda: ["a b", "c"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert trace_digest.main([str(ROOT), "acceptance", "--solves", "0"]) == 0
    _, batch, *solves = capsys.readouterr().out.splitlines()
    rows, hexdigest = trace_digest.digest(results)
    assert batch == f"acceptance rows={rows} sha256={hexdigest}"
    expected = []
    for label, result in zip(["a b", "c"], results):
        rows, hexdigest = trace_digest.digest([result])
        expected.append(f"  {label} rows={rows} sha256={hexdigest}")
    assert solves == expected


def test_all_expands_in_place_inside_a_comma_list(capsys, monkeypatch):
    # Stub workloads that build no solves, so each batch line is cheap.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    built = []

    def build(name, seed):
        built.append((name, seed))
        return []

    monkeypatch.setattr(workloads, "WORKLOADS", ("one", "two"))
    monkeypatch.setattr(workloads, "build", build)
    monkeypatch.setattr(trace_digest, "acceptance_results", lambda warpcg: [])
    assert trace_digest.main([str(ROOT), "two,all,acceptance", "0"]) == 0
    assert built == [("two", 0), ("one", 0), ("two", 0)]
    batches = [line.split(" rows=")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert batches == ["two seed=0", "one seed=0", "two seed=0", "acceptance"]
