"""Flat-space conjugate-gradient baseline: classical CG behavior and schema
parity with the warped driver."""

import dataclasses
import math

import numpy as np
import pytest

from warpcg import (
    QuadraticProblem,
    RcgConfig,
    RosenbrockProblem,
    SquiggleProblem,
    StopReason,
    WarpConfig,
    initial_point,
    make_problem,
    run_euclidean_cg,
    run_rcg,
)
from warpcg.geometry import GeometryCache
from warpcg.linesearch import C1, C2
from warpcg.retraction import directional_value_and_slope, retract
from recording import recorded


class TestQuadraticTermination:
    def test_finite_termination(self):
        # Classical CG with exact line search finishes a d-dimensional
        # quadratic in at most d steps; inexact Wolfe plus restarts keep it
        # close to that.
        q = QuadraticProblem(5)
        res = run_euclidean_cg(q, initial_point("quadratic", 5),
                               cfg=RcgConfig(tol_df=0.0, tol_grad=1e-8))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations <= 10
        np.testing.assert_allclose(res.theta, np.zeros(5), atol=1e-7)

    def test_single_curvature_one_step(self):
        # Isotropic quadratic: one Wolfe step reaches the maximizer up to
        # tolerance regardless of dimension.
        q = QuadraticProblem(8, curvatures=np.ones(8))
        res = run_euclidean_cg(q, np.full(8, 0.7),
                               cfg=RcgConfig(tol_df=0.0, tol_grad=1e-8))
        assert res.iterations <= 2


class TestConvergence:
    def test_squiggle(self):
        sq = SquiggleProblem(10)
        res = run_euclidean_cg(sq, initial_point("squiggle", 10),
                               cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6, max_iters=5000))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert sq.max_value() - res.value < 1e-8

    def test_monotone(self):
        sq = SquiggleProblem(4)
        res = run_euclidean_cg(sq, initial_point("squiggle", 4),
                               cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6))
        assert np.all(np.diff([r.f for r in res.trace]) > 0.0)

    def test_determinism(self):
        sq = SquiggleProblem(6)
        a = run_euclidean_cg(sq, initial_point("squiggle", 6))
        b = run_euclidean_cg(sq, initial_point("squiggle", 6))
        np.testing.assert_array_equal(a.theta, b.theta)
        assert [r.f for r in a.trace] == [r.f for r in b.trace]

    @pytest.mark.xfail(
        strict=True,
        reason="stalls: 2000 iterations without a restart end at f=-20.53 with "
        "beta near -1, where scipy's CG reaches the maximum in 237",
    )
    def test_rosenbrock_d10_converges(self):
        problem = RosenbrockProblem(10)
        res = run_euclidean_cg(problem, initial_point("rosenbrock", 10),
                               cfg=RcgConfig(tol_df=0.0, max_iters=2000))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert abs(res.value - problem.max_value()) < 1e-6


class TestSchemaParity:
    def test_trace_fields(self):
        sq = SquiggleProblem(5)
        res = run_euclidean_cg(sq, initial_point("squiggle", 5),
                               cfg=RcgConfig(max_iters=10))
        assert res.trace
        for row in res.trace:
            # Flat geometry: the two norm columns coincide, transport is
            # the identity, and no hvps are consumed.
            assert row.grad_norm_riem == row.grad_norm_eucl
            assert row.s == 1.0
            assert row.n_hvp == 0
            assert row.beta <= 0.0
            assert row.t > 0.0

    def test_result_fields(self):
        q = QuadraticProblem(3)
        res = run_euclidean_cg(q, np.full(3, 0.5))
        assert res.n_hvp == 0
        assert res.grad_norm_riem == res.grad_norm_eucl

    def test_points_are_caches_of_the_identity_metric(self):
        # The flat driver's points are the warped driver's point type at
        # psi^2 = 0 and W^2 = 1 exactly.
        sq = SquiggleProblem(5)
        res, recording = recorded(run_euclidean_cg, sq, initial_point("squiggle", 5),
                                  cfg=RcgConfig(max_iters=10))
        points = [point for kind, point in recording.calls if kind == "point"]
        assert len(points) == res.iterations + 1
        for point in points:
            assert type(point) is GeometryCache
            assert point.psi_sq == 0.0
            assert point.w_sq == 1.0

    @pytest.mark.parametrize("dim", [2, 10])
    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
    def test_is_the_warped_driver_at_infinite_sigma(self, name, dim):
        # sigma^2 = inf is the Euclidean metric: run_rcg there gives the
        # flat driver's result field for field and row for row, up to the
        # wall clock, with floats compared by their round-trip repr.
        def fields(record):
            out = {}
            for f in dataclasses.fields(record):
                if f.name not in ("trace", "wall_ns"):
                    value = getattr(record, f.name)
                    out[f.name] = repr(value.tolist() if isinstance(value, np.ndarray) else value)
            return out

        theta0 = initial_point(name, dim)
        cfg = RcgConfig(tol_df=0.0, max_iters=500)
        flat = run_euclidean_cg(make_problem(name, dim), theta0, cfg)
        warped = run_rcg(make_problem(name, dim), theta0, WarpConfig(math.inf), cfg)
        assert fields(warped) == fields(flat)
        assert [fields(row) for row in warped.trace] == [fields(row) for row in flat.trace]
        assert flat.iterations > 0 and flat.n_hvp == 0

    def test_value_calls_reconcile(self):
        # One evaluation at the start plus the line-search evaluations.
        sq = SquiggleProblem(4)
        res = run_euclidean_cg(sq, initial_point("squiggle", 4),
                               cfg=RcgConfig(max_iters=6))
        assert res.failed_attempts == 0
        assert res.n_value == sum(row.ls_evals for row in res.trace) + 1

    def test_immediate_stop_at_maximizer(self):
        q = QuadraticProblem(4)
        res = run_euclidean_cg(q, q.maximizer())
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations == 0
        assert res.n_value == 1
        assert res.n_grad == 1


class TestWolfeCertification:
    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock"])
    def test_every_step_satisfies_strong_wolfe(self, name):
        # Re-evaluate each accepted step from its recorded straight ray, as
        # acceptance property C08 does for the warped driver.
        problem = make_problem(name, 10)
        cfg = RcgConfig(max_iters=2000, tol_df=0.0, tol_grad=1e-6)
        res, recording = recorded(run_euclidean_cg, problem, initial_point(name, 10), cfg=cfg)
        assert res.iterations > 0
        jets = recording.accepted_jets()
        assert len(jets) == res.iterations
        for k, (jet, row) in enumerate(zip(jets, res.trace)):
            assert jet.curv is None
            assert retract(jet, row.t).tobytes() == (jet.theta + row.t * jet.v).tobytes(), k
            f0 = problem.value(jet.theta)
            slope0 = float(np.asarray(problem.grad(jet.theta), dtype=float) @ jet.v)
            value, slope, _, _ = directional_value_and_slope(problem, jet, row.t)
            assert value >= f0 + C1 * row.t * slope0, k
            assert abs(slope) <= C2 * slope0, k
