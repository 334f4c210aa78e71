"""Flat-space conjugate-gradient baseline: classical CG behavior and schema
parity with the warped driver."""

import numpy as np
import pytest

from warpcg import (
    QuadraticProblem,
    RcgConfig,
    SquiggleProblem,
    StopReason,
    initial_point,
    make_problem,
    run_euclidean_cg,
)
from warpcg.retraction import directional_value_and_slope


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
        assert np.all(np.diff(res.f_history) > 0.0)

    def test_determinism(self):
        sq = SquiggleProblem(6)
        a = run_euclidean_cg(sq, initial_point("squiggle", 6))
        b = run_euclidean_cg(sq, initial_point("squiggle", 6))
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.f_history, b.f_history)


class TestSchemaParity:
    def test_trace_fields(self):
        sq = SquiggleProblem(5)
        res = run_euclidean_cg(sq, initial_point("squiggle", 5),
                               cfg=RcgConfig(max_iters=10))
        assert [row.k for row in res.trace] == list(range(res.iterations))
        for row in res.trace:
            # Flat geometry: the two norm columns coincide, transport is
            # the identity, and no geometry caches or hvps are consumed.
            assert row.grad_norm_riem == row.grad_norm_eucl
            assert row.s == 1.0
            assert row.n_hvp == 0
            assert row.cache_builds == 0
            assert row.beta <= 0.0
            assert row.t > 0.0

    def test_result_fields(self):
        q = QuadraticProblem(3)
        res = run_euclidean_cg(q, np.full(3, 0.5))
        assert res.n_hvp == 0
        assert res.cache_builds == 0
        assert res.grad_norm_riem == res.grad_norm_eucl
        assert res.jets == []

    def test_value_calls_reconcile(self):
        # One evaluation at the start plus the line-search evaluations.
        sq = SquiggleProblem(4)
        res = run_euclidean_cg(sq, initial_point("squiggle", 4),
                               cfg=RcgConfig(max_iters=6))
        assert res.n_value == sum(row.n_value for row in res.trace) + 1

    def test_immediate_stop_at_maximizer(self):
        q = QuadraticProblem(4)
        res = run_euclidean_cg(q, q.maximizer())
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations == 0
        assert res.n_value == 1
        assert res.n_grad == 1

    def test_record_thetas_toggle(self):
        q = QuadraticProblem(3)
        res = run_euclidean_cg(q, np.full(3, 0.5), cfg=RcgConfig(record_thetas=False))
        assert all(row.theta is None for row in res.trace)


class TestWolfeCertification:
    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock"])
    def test_every_step_satisfies_strong_wolfe(self, name):
        # Re-evaluate each accepted step from its recorded straight ray, as
        # acceptance property C08 does for the warped driver.
        problem = make_problem(name, 10)
        cfg = RcgConfig(max_iters=2000, tol_df=0.0, tol_grad=1e-6, record_jets=True)
        res = run_euclidean_cg(problem, initial_point(name, 10), cfg=cfg)
        assert res.iterations > 0
        assert len(res.jets) == res.iterations
        for jet, row in zip(res.jets, res.trace):
            assert not jet.q.any() and not jet.k.any()
            f0 = problem.value(jet.theta)
            slope0 = float(np.asarray(problem.grad(jet.theta), dtype=float) @ jet.v)
            value, slope, _, _ = directional_value_and_slope(problem, jet, row.t)
            assert value >= f0 + cfg.wolfe_c1 * row.t * slope0, row.k
            assert abs(slope) <= cfg.wolfe_c2 * slope0, row.k
