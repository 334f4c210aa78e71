"""The warped conjugate-gradient driver: termination, monotonicity,
conjugacy coefficient policy, budget accounting, and failure handling."""

import numpy as np
import pytest

from warpcg import (
    FdConfig,
    Objective,
    QuadraticProblem,
    RcgConfig,
    RosenbrockProblem,
    SquiggleProblem,
    StopReason,
    WarpConfig,
    initial_point,
    run_euclidean_cg,
    run_rcg,
)
from warpcg.errors import DegenerateBeta
from warpcg.geometry import GeometryCache
from warpcg.rcg import dy_beta
from warpcg.retraction import TransportResult

FD = FdConfig()


def reconcile(result):
    """Total hvp calls must equal the trace rows' sum plus the initial cache
    build plus five per failed line-search attempt."""
    from_rows = sum(row.n_hvp for row in result.trace)
    return result.n_hvp == from_rows + 1 + 5 * result.failed_attempts


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RcgConfig(max_iters=-1)
        with pytest.raises(ValueError):
            RcgConfig(wolfe_c1=0.5, wolfe_c2=0.1)
        with pytest.raises(ValueError):
            RcgConfig(wolfe_c2=1.5)
        with pytest.raises(ValueError):
            RcgConfig(tol_df=-1.0)
        with pytest.raises(ValueError):
            RcgConfig(tol_grad=-1.0)


class TestTermination:
    def test_immediate_small_grad_at_maximizer(self):
        q = QuadraticProblem(3)
        res = run_rcg(q, q.maximizer())
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations == 0
        assert res.trace == []
        assert res.n_hvp == 1  # the single initial cache build

    def test_zero_iteration_budget(self):
        q = QuadraticProblem(3)
        res = run_rcg(q, np.full(3, 0.5), cfg=RcgConfig(max_iters=0))
        assert res.stop_reason == StopReason.MAX_ITERS
        assert res.iterations == 0

    def test_small_delta_f_fires_after_accepted_step(self):
        sq = SquiggleProblem(4)
        res = run_rcg(sq, initial_point("squiggle", 4), cfg=RcgConfig(tol_df=1e-2))
        assert res.stop_reason == StopReason.SMALL_DELTA_F
        assert res.iterations >= 1
        # Last accepted increase is below the threshold.
        f = res.f_history
        start = sq.value(initial_point("squiggle", 4))
        gains = np.diff(np.concatenate([[start], f]))
        assert gains[-1] < 1e-2

    def test_small_grad_with_tight_tolerances(self):
        q = QuadraticProblem(5)
        res = run_rcg(q, initial_point("quadratic", 5),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-8))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.grad_norm_riem < 1e-8
        np.testing.assert_allclose(res.theta, np.zeros(5), atol=1e-7)


class TestConvergence:
    def test_quadratic_few_iterations(self):
        # Five distinct curvatures: conjugacy should finish the job fast
        # even through the warp. Allow a small margin over the Euclidean
        # count since the metric is not constant.
        q = QuadraticProblem(5)
        res = run_rcg(q, initial_point("quadratic", 5),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-8))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations <= 12

    def test_monotone_objective(self):
        sq = SquiggleProblem(6)
        res = run_rcg(sq, initial_point("squiggle", 6),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6))
        f = res.f_history
        assert np.all(np.diff(f) > 0.0)

    def test_squiggle_reaches_closed_form_maximum(self):
        sq = SquiggleProblem(2)
        res = run_rcg(sq, initial_point("squiggle", 2),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert sq.max_value() - res.value < 1e-8
        np.testing.assert_allclose(res.theta, np.zeros(2), atol=1e-5)

    def test_determinism(self):
        sq = SquiggleProblem(5)
        a = run_rcg(sq, initial_point("squiggle", 5))
        b = run_rcg(sq, initial_point("squiggle", 5))
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.value == b.value
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.f_history, b.f_history)
        assert [r.t for r in a.trace] == [r.t for r in b.trace]

    def test_rosenbrock_restarts_happen_and_budget_holds(self):
        rb = RosenbrockProblem(10)
        res = run_rcg(rb, initial_point("rosenbrock", 10),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-4, max_iters=4000))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert any(row.restart for row in res.trace)
        assert all(row.n_hvp <= 6 for row in res.trace)
        assert reconcile(res)


class TestBetaPolicy:
    def synthetic_pair(self):
        # Hand-built caches giving the quotient 2.5 / 4.0 = 0.625 before the
        # sign policy: destination gradient (5, 0) with w_sq = 10 gives the
        # numerator 25/10; transported coords (1, 0) at scale 1 against
        # source slope <(1,0), (1,0)> = 1 gives denominator 5 - 1 = 4.
        src = GeometryCache(
            theta=np.zeros(2), value=0.0, grad=np.array([1.0, 0.0]), grad_sq=1.0,
            hess_grad=np.zeros(2), w_sigma_sq=2.0, psi_sq=0.5,
            grad_psi_sq=np.zeros(2), w_sq=1.5, sigma_sq=1.0,
        )
        dst = GeometryCache(
            theta=np.array([1.0, 0.0]), value=1.0, grad=np.array([5.0, 0.0]),
            grad_sq=25.0, hess_grad=np.zeros(2), w_sigma_sq=26.0,
            psi_sq=25.0 / 26.0, grad_psi_sq=np.zeros(2), w_sq=10.0, sigma_sq=1.0,
        )
        return src, dst

    def test_quotient_value(self):
        src, dst = self.synthetic_pair()
        transported = TransportResult(coords=np.array([1.0, 0.0]), scale=1.0)
        beta = dy_beta(src, dst, np.array([1.0, 0.0]), transported)
        assert beta == pytest.approx(0.625, rel=1e-15)

    def test_scale_enters_denominator(self):
        src, dst = self.synthetic_pair()
        transported = TransportResult(coords=np.array([1.0, 0.0]), scale=0.5)
        beta = dy_beta(src, dst, np.array([1.0, 0.0]), transported)
        # Denominator becomes 0.5 * 5 - 1 = 1.5.
        assert beta == pytest.approx(2.5 / 1.5, rel=1e-15)

    def test_degenerate_denominator(self):
        src, dst = self.synthetic_pair()
        transported = TransportResult(coords=np.array([0.2, 0.0]), scale=1.0)
        # 1 * <(5,0), (0.2,0)> - <(1,0), (1,0)> = 1 - 1 = 0.
        with pytest.raises(DegenerateBeta):
            dy_beta(src, dst, np.array([1.0, 0.0]), transported)

    def test_driver_never_uses_positive_beta(self):
        sq = SquiggleProblem(8)
        res = run_rcg(sq, initial_point("squiggle", 8),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6))
        assert all(row.beta <= 0.0 for row in res.trace)

    def test_positive_beta_is_recorded_as_restart(self):
        # Wherever the recorded beta is exactly zero past iteration 0, the
        # direction was reset; the restart flag must say so.
        rb = RosenbrockProblem(6)
        res = run_rcg(rb, initial_point("rosenbrock", 6),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-4, max_iters=3000))
        for row in res.trace:
            if row.beta == 0.0:
                assert row.restart == 1


class TestTraceAccounting:
    def test_trace_schema_and_budget(self):
        sq = SquiggleProblem(10)
        res = run_rcg(sq, initial_point("squiggle", 10),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6))
        assert [row.k for row in res.trace] == list(range(res.iterations))
        for row in res.trace:
            assert row.n_hvp <= 6
            assert row.cache_builds == 1
            assert row.ls_evals >= 1
            assert row.n_value >= row.ls_evals
            assert row.wall_ns > 0
            assert 0.0 < row.s <= 1.0
            assert row.t > 0.0
        assert reconcile(res)

    def test_theta_recording_toggle(self):
        sq = SquiggleProblem(3)
        with_theta = run_rcg(sq, initial_point("squiggle", 3),
                             cfg=RcgConfig(max_iters=5, record_thetas=True))
        without = run_rcg(sq, initial_point("squiggle", 3),
                          cfg=RcgConfig(max_iters=5, record_thetas=False))
        assert all(row.theta is not None for row in with_theta.trace)
        assert all(row.theta is None for row in without.trace)
        np.testing.assert_array_equal(with_theta.trace[-1].theta, with_theta.theta)

    def test_jet_recording(self):
        sq = SquiggleProblem(3)
        res = run_rcg(sq, initial_point("squiggle", 3),
                      cfg=RcgConfig(max_iters=7, record_jets=True))
        assert len(res.jets) == res.iterations
        # Each jet's base point chains to the previous accepted point.
        np.testing.assert_array_equal(res.jets[0].theta, initial_point("squiggle", 3))
        for jet, row in zip(res.jets[1:], res.trace[:-1]):
            np.testing.assert_array_equal(jet.theta, row.theta)

    def test_jets_not_kept_by_default(self):
        sq = SquiggleProblem(3)
        res = run_rcg(sq, initial_point("squiggle", 3), cfg=RcgConfig(max_iters=3))
        assert res.jets == []


class TestFailureHandling:
    def test_line_search_fail_on_unbounded_objective(self):
        # A pure linear objective has no crest anywhere; the steepest
        # retry fails too and the driver stops with LINE_SEARCH_FAIL,
        # reporting the start point as the final iterate.
        class Ramp(Objective):
            def __init__(self):
                super().__init__(2)

            def value(self, theta):
                return float(theta[0])

            def grad(self, theta):
                return np.array([1.0, 0.0])

            def hvp(self, theta, v):
                return np.zeros(2)

        res = run_rcg(Ramp(), np.zeros(2), cfg=RcgConfig(max_ls_evals=10))
        assert res.stop_reason == StopReason.LINE_SEARCH_FAIL
        assert res.iterations == 0
        assert res.failed_attempts >= 1
        np.testing.assert_array_equal(res.theta, np.zeros(2))
        assert reconcile(res)

    def test_mid_run_breakdown_is_reported_not_raised(self):
        # Objective whose hvp turns to NaN after a while: the driver must
        # stop with NUMERICAL_BREAKDOWN and keep the last good iterate.
        class Fragile(Objective):
            def __init__(self):
                super().__init__(2)
                self.hvp_calls = 0
                self.inner = QuadraticProblem(2)

            def value(self, theta):
                return self.inner.value(theta)

            def grad(self, theta):
                return self.inner.grad(theta)

            def hvp(self, theta, v):
                self.hvp_calls += 1
                if self.hvp_calls > 8:
                    return np.full(2, np.nan)
                return self.inner.hvp(theta, v)

        res = run_rcg(Fragile(), np.array([3.0, -2.0]),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-12))
        assert res.stop_reason == StopReason.NUMERICAL_BREAKDOWN
        assert np.all(np.isfinite(res.theta))
        assert np.isfinite(res.value)

    def test_shape_mismatch_raises(self):
        # Both drivers reject a start of the wrong length before running.
        # Rosenbrock's own arithmetic accepts any length, so only the
        # driver's check can catch it there.
        starts = [
            (QuadraticProblem(3), np.zeros(4)),
            (RosenbrockProblem(4), np.full(3, 0.3)),
            (RosenbrockProblem(4), np.full(5, 0.3)),
        ]
        for driver in (run_rcg, run_euclidean_cg):
            for problem, theta0 in starts:
                with pytest.raises(ValueError, match="shape"):
                    driver(problem, theta0)


class TestWarpStrength:
    def test_large_sigma_behaves_like_euclidean_cg(self):
        # With sigma^2 huge the warp is negligible; on a quadratic the
        # iterate sequence should converge just as fast.
        q = QuadraticProblem(4)
        res = run_rcg(q, initial_point("quadratic", 4), warp=WarpConfig(1e12),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-8))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations <= 8

    def test_strong_warp_still_converges(self):
        sq = SquiggleProblem(4)
        res = run_rcg(sq, initial_point("squiggle", 4), warp=WarpConfig(0.05),
                      cfg=RcgConfig(tol_df=0.0, tol_grad=1e-5, max_iters=4000))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert sq.max_value() - res.value < 1e-6
