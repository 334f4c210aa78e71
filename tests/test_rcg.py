"""The warped conjugate-gradient driver: termination, monotonicity,
conjugacy coefficient policy, budget accounting, memory held, and failure
handling."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from warpcg import (
    Objective,
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
import warpcg.rcg
from warpcg.errors import DegenerateStep, LineSearchFail, NumericalBreakdown
from warpcg.geometry import (
    FLAT_WARP,
    GeodesicJet,
    GeometryCache,
    build_cache,
    riemannian_gradient,
)
from warpcg.linesearch import WolfeResult
from warpcg.objective import CountingObjective
from warpcg.rcg import IterationTrace, dy_beta
from warpcg.retraction import TransportResult
from recording import jet_hvps, recorded


def reconcile(result, recording):
    """Total hvp calls must equal the trace rows' sum plus each failed
    line-search attempt's jet, which no step accepted: four hvps when its
    start point has psi^2 ||grad||^2 >= FLAT_WARP, none below it; a cache
    build calls none. The flat driver's points have psi^2 = 0, so it calls
    no hvp."""
    from_rows = sum(row.n_hvp for row in result.trace)
    outside_rows = sum(jet_hvps(start) for start in recording.failed_starts())
    return (recording.failed_jets() == result.failed_attempts
            and result.n_hvp == from_rows + outside_rows)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RcgConfig(max_iters=-1)
        with pytest.raises(ValueError):
            RcgConfig(max_iters=float("nan"))
        with pytest.raises(ValueError):
            RcgConfig(tol_df=-1.0)
        with pytest.raises(ValueError):
            RcgConfig(tol_grad=-1.0)
        with pytest.raises(ValueError):
            RcgConfig(tol_grad=float("nan"))

    def test_max_iters_must_be_an_integer(self):
        # 1.5 used to run two iterations.
        with pytest.raises(ValueError, match="max_iters must be an integer, got 1.5"):
            RcgConfig(max_iters=1.5)
        assert RcgConfig(max_iters=np.int64(2)).max_iters == 2


class TestTermination:
    def test_immediate_small_grad_at_maximizer(self):
        q = QuadraticProblem(3)
        res = run_rcg(q, q.maximizer())
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations == 0
        assert res.trace == []
        assert res.n_hvp == 0  # a cache build calls no hvp

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
        f = np.array([r.f for r in res.trace])
        start = sq.value(initial_point("squiggle", 4))
        gains = np.diff(np.concatenate([[start], f]))
        assert gains[-1] < 1e-2

    @pytest.mark.xfail(
        strict=True,
        reason="the single-step tol_df test reports small_delta_f at a gap of "
        "1.1e-2 after 854 iterations",
    )
    def test_default_stop_reports_no_success_short_of_the_maximum(self):
        # At the default config, squiggle d=100 stops on one accepted step's
        # small increase while the closed-form maximum is still far. A
        # small_delta_f stop must leave a gap of at most ten times tol_df.
        problem = SquiggleProblem(100)
        res = run_rcg(problem, initial_point("squiggle", 100))
        gap = problem.max_value() - res.value
        assert not (res.stop_reason is StopReason.SMALL_DELTA_F
                    and gap > 10 * RcgConfig().tol_df), gap

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
        f = np.array([r.f for r in res.trace])
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
        assert [r.f for r in a.trace] == [r.f for r in b.trace]
        assert [r.t for r in a.trace] == [r.t for r in b.trace]

    def test_rosenbrock_restarts_happen_and_budget_holds(self):
        rb = RosenbrockProblem(10)
        res, recording = recorded(run_rcg, rb, initial_point("rosenbrock", 10),
                                  cfg=RcgConfig(tol_df=0.0, tol_grad=1e-4, max_iters=4000))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert any(row.restart for row in res.trace)
        starts = recording.accepted_starts()
        assert [row.n_hvp for row in res.trace] == [jet_hvps(p) for p in starts]
        assert reconcile(res, recording)


class TestBetaPolicy:
    def synthetic_pair(self):
        # Hand-built caches giving the quotient 2.5 / 4.0 = 0.625 before the
        # sign policy: destination gradient (5, 0) with w_sq = 10 gives the
        # numerator 25/10; transported coords (1, 0) at scale 1 against
        # source slope <(1,0), (1,0)> = 1 gives denominator 5 - 1 = 4.
        src = GeometryCache(
            theta=np.zeros(2), value=0.0, grad=np.array([1.0, 0.0]), grad_sq=1.0,
            psi_sq=0.5, w_sq=1.5,
        )
        dst = GeometryCache(
            theta=np.array([1.0, 0.0]), value=1.0, grad=np.array([5.0, 0.0]),
            grad_sq=25.0, psi_sq=25.0 / 26.0, w_sq=10.0,
        )
        return src, dst

    def transported(self, dst, coords, scale):
        return TransportResult(coords=coords, scale=scale, dst_slope=float(dst.grad @ coords))

    def test_quotient_value(self):
        src, dst = self.synthetic_pair()
        transported = self.transported(dst, np.array([1.0, 0.0]), 1.0)
        beta = dy_beta(dst, transported, float(src.grad @ np.array([1.0, 0.0])))
        assert beta == pytest.approx(0.625, rel=1e-15)

    def test_scale_enters_denominator(self):
        src, dst = self.synthetic_pair()
        transported = self.transported(dst, np.array([1.0, 0.0]), 0.5)
        beta = dy_beta(dst, transported, float(src.grad @ np.array([1.0, 0.0])))
        # Denominator becomes 0.5 * 5 - 1 = 1.5.
        assert beta == pytest.approx(2.5 / 1.5, rel=1e-15)

    def test_degenerate_denominator(self):
        src, dst = self.synthetic_pair()
        transported = self.transported(dst, np.array([0.2, 0.0]), 1.0)
        # 1 * <(5,0), (0.2,0)> - <(1,0), (1,0)> = 1 - 1 = 0.
        with pytest.raises(DegenerateStep):
            dy_beta(dst, transported, float(src.grad @ np.array([1.0, 0.0])))

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

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_zero_quotient_is_recorded_as_restart(self, run, zero, monkeypatch):
        # A quotient of exactly +-0 leaves beta 0, so the next direction is
        # steepest ascent, as after a clamp; the row records a restart too.
        monkeypatch.setattr(warpcg.rcg, "dy_beta", lambda *args: zero)
        res = run(SquiggleProblem(10), initial_point("squiggle", 10),
                  cfg=RcgConfig(tol_df=0.0, max_iters=200))
        assert res.iterations > 0
        assert all(row.beta == 0.0 and row.restart == 1 for row in res.trace)

    def test_every_zero_beta_row_restarts(self):
        zero_rows = 0
        for run in (run_rcg, run_euclidean_cg):
            for name in ("squiggle", "rosenbrock", "quadratic"):
                res = run(make_problem(name, 10), initial_point(name, 10),
                          cfg=RcgConfig(tol_df=0.0, max_iters=2000))
                for k, row in enumerate(res.trace):
                    if row.beta == 0.0:
                        assert row.restart == 1, (run.__name__, name, k)
                        zero_rows += 1
        assert zero_rows > 0


class TestFirstTrial:
    """The t_init the loop hands each search: 1.0 until a step is accepted,
    then the last accepted step's gain t * slope0 over the new slope0, 1.0
    where that quotient is not finite or not positive, clamped to
    [1e-12, 1e12]."""

    @staticmethod
    def log_searches(monkeypatch, fail_call=None, t_factor=None):
        """Wrap the loop's strong_wolfe. Each call appends [slope0, t_init,
        t], t being the returned trial's or None for a failed search. Call
        number fail_call fails; the first search's returned t is multiplied
        by t_factor."""
        real_search = warpcg.rcg.strong_wolfe
        calls = []

        def logged(*args, **kwargs):
            call = [kwargs["slope0"], kwargs["t_init"], None]
            calls.append(call)
            if len(calls) == fail_call:
                raise LineSearchFail("forced")
            ls = real_search(*args, **kwargs)
            if t_factor is not None and len(calls) == 1:
                ls.t *= t_factor
            call[2] = ls.t
            return ls

        monkeypatch.setattr(warpcg.rcg, "strong_wolfe", logged)
        return calls

    @staticmethod
    def replay(calls):
        expected, gain = [], None
        for slope0, _, t in calls:
            t_init = 1.0 if gain is None else gain / slope0
            if not math.isfinite(t_init) or t_init <= 0.0:
                t_init = 1.0
            expected.append(min(max(t_init, 1e-12), 1e12))
            if t is not None:
                gain = t * slope0
        return expected

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
    def test_gain_over_new_slope(self, run, name, monkeypatch):
        calls = self.log_searches(monkeypatch)
        res = run(make_problem(name, 10), initial_point(name, 10),
                  cfg=RcgConfig(tol_df=0.0, max_iters=100))
        assert len(calls) == res.iterations > 1
        assert [t_init for _, t_init, _ in calls] == self.replay(calls)

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_retry_after_a_failed_search_keeps_the_gain(self, run, monkeypatch):
        # The third search runs along a conjugate direction; its forced
        # failure makes the row retry along steepest ascent, from the gain
        # of the second.
        calls = self.log_searches(monkeypatch, fail_call=3)
        res = run(make_problem("squiggle", 10), initial_point("squiggle", 10),
                  cfg=RcgConfig(tol_df=0.0, max_iters=10))
        assert res.failed_attempts == 1
        assert calls[2][2] is None and len(calls) > 3
        slope0, t_init, _ = calls[3]
        assert t_init == calls[1][2] * calls[1][0] / slope0
        assert [t_init for _, t_init, _ in calls] == self.replay(calls)

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    @pytest.mark.parametrize(
        "t_factor, t_init",
        [(1e30, 1e12), (1e-30, 1e-12), (0.0, 1.0), (math.inf, 1.0)],
        ids=["clamp_high", "clamp_low", "zero_gain", "infinite_gain"],
    )
    def test_clamp_and_fallback(self, run, t_factor, t_init, monkeypatch):
        # No natural run reaches these: the first search's t is scaled
        # before the loop sees it. The secant transport divides by t, so the
        # loop's transport, which both drivers call, is made degenerate,
        # which leaves beta 0.
        def degenerate(*args):
            raise DegenerateStep("forced")

        monkeypatch.setattr(warpcg.rcg, "vector_transport", degenerate)
        calls = self.log_searches(monkeypatch, t_factor=t_factor)
        run(QuadraticProblem(3), initial_point("quadratic", 3),
            cfg=RcgConfig(tol_df=0.0, max_iters=2))
        assert len(calls) >= 2
        assert calls[1][1] == t_init
        assert [t_init for _, t_init, _ in calls] == self.replay(calls)


@pytest.mark.parametrize(
    "record",
    [GeometryCache, GeodesicJet, TransportResult, IterationTrace, WolfeResult],
    ids=lambda record: record.__name__,
)
def test_per_row_records_are_slots_dataclasses(record):
    # The loop builds or updates these on every row or trial: a frozen
    # dataclass pays object.__setattr__ per field as it is built, and a
    # slots one skips the instance dict.
    assert "__slots__" in vars(record)
    assert not record.__dataclass_params__.frozen


class TestTraceAccounting:
    def test_trace_schema_and_budget(self):
        sq = SquiggleProblem(10)
        res, recording = recorded(run_rcg, sq, initial_point("squiggle", 10),
                                  cfg=RcgConfig(tol_df=0.0, tol_grad=1e-6))
        assert recording.builds_per_step() == [1] * res.iterations
        # A row's jet costs four hvps from a start point with psi^2 ||grad||^2
        # >= FLAT_WARP and none below it; this run has rows of both kinds.
        starts = recording.accepted_starts()
        assert {jet_hvps(p) for p in starts} == {0, 4}
        for row, start in zip(res.trace, starts):
            for f in dataclasses.fields(row):
                assert type(getattr(row, f.name)) in (int, float), f.name
            assert row.n_hvp == jet_hvps(start)
            assert row.ls_evals >= 1
            assert row.wall_ns > 0
            assert 0.0 < row.s <= 1.0
            assert row.t > 0.0
        assert res.failed_attempts == 0
        assert res.n_value == 1 + sum(row.ls_evals for row in res.trace)
        assert reconcile(res, recording)

    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
    def test_rows_spend_search_evaluations_and_four_hvps(self, name):
        # On the analytic route the jet calls no value and no gradient, and
        # the accepted point's cache reuses its trial's, so every value and
        # gradient of a row is a line-search evaluation: past the start's
        # one, the run's values are its rows' ls_evals. The jet's four hvps
        # are spent only from a start point with psi^2 ||grad||^2 >=
        # FLAT_WARP; each run has rows of both kinds.
        res, recording = recorded(run_rcg, make_problem(name, 10), initial_point(name, 10),
                                  cfg=RcgConfig(tol_df=0.0, max_iters=200))
        assert res.iterations > 0
        assert res.failed_attempts == 0
        assert res.n_value == 1 + sum(row.ls_evals for row in res.trace)
        starts = recording.accepted_starts()
        assert {jet_hvps(p) for p in starts} == {0, 4}
        for row, start in zip(res.trace, starts, strict=True):
            assert row.n_grad == row.ls_evals
            assert row.n_hvp == jet_hvps(start)

    def test_jet_recording(self):
        sq = SquiggleProblem(3)
        start = initial_point("squiggle", 3)
        res, recording = recorded(run_rcg, sq, start, cfg=RcgConfig(max_iters=7))
        assert res.iterations == 7
        jets = recording.accepted_jets()
        assert len(jets) == res.iterations
        # Jet k's base point is where a run capped at k iterations stops.
        for k, jet in enumerate(jets):
            np.testing.assert_array_equal(
                jet.theta, run_rcg(sq, start, cfg=RcgConfig(max_iters=k)).theta
            )

    def test_recording_skips_a_failed_search(self, monkeypatch):
        # The third search, along a conjugate direction, is forced to fail,
        # so the run retries along steepest ascent. The failed jet is no
        # step's: jet k is still where a run capped at k iterations stops,
        # and each step builds one point.
        real_search = warpcg.rcg.strong_wolfe

        def run(max_iters):
            searches = []

            def fail_third(*args, **kwargs):
                searches.append(None)
                if len(searches) == 3:
                    raise LineSearchFail("forced")
                return real_search(*args, **kwargs)

            monkeypatch.setattr(warpcg.rcg, "strong_wolfe", fail_third)
            return recorded(run_rcg, SquiggleProblem(3), initial_point("squiggle", 3),
                            cfg=RcgConfig(max_iters=max_iters))

        res, recording = run(7)
        assert res.iterations == 7
        assert res.failed_attempts == recording.failed_jets() == 1
        assert res.trace[1].beta != 0.0 and res.trace[2].restart == 1
        # Every other row's flag follows its beta alone: the retry is row 2's.
        for k, row in enumerate(res.trace):
            if k != 2:
                assert row.restart == int(row.beta == 0.0), k
        jets = recording.accepted_jets()
        assert len(jets) == res.iterations
        for k, jet in enumerate(jets):
            np.testing.assert_array_equal(jet.theta, run(k)[0].theta)
        assert recording.builds_per_step() == [1] * res.iterations
        assert reconcile(res, recording)
        # The forced failure makes no evaluation of its own, so the failed
        # attempt costs its jet alone: four hvps, no value and no gradient.
        # The start's cache costs one value and one gradient.
        assert res.n_value == 1 + sum(row.ls_evals for row in res.trace)
        assert res.n_grad == 1 + sum(row.n_grad for row in res.trace)
        assert res.n_hvp == 4 + sum(row.n_hvp for row in res.trace)


class TestFlatWarpGate:
    """The loop's search curve is the straight ray, with no hvp, where
    psi^2 ||grad||^2 = W^2 - 1 is below FLAT_WARP, and the full jet
    elsewhere."""

    @staticmethod
    def count_jets(monkeypatch):
        """Log each call to the loop's taylor_coefficients."""
        real = warpcg.rcg.taylor_coefficients
        calls = []

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(warpcg.rcg, "taylor_coefficients", counted)
        return calls

    @staticmethod
    def point(psi_sq, grad_sq):
        # A hand-built point: the gate reads psi_sq and grad_sq alone.
        grad = np.array([math.sqrt(grad_sq), 0.0, 0.0])
        return GeometryCache(theta=np.ones(3), value=-1.0, grad=grad, grad_sq=grad_sq,
                             psi_sq=psi_sq, w_sq=1.0 + psi_sq * grad_sq)

    def test_small_warp_is_the_straight_ray(self):
        obj = CountingObjective(QuadraticProblem(3))
        point = self.point(np.nextafter(FLAT_WARP, 0.0), 1.0)
        v = riemannian_gradient(point)
        jet = warpcg.rcg._jet(obj, WarpConfig(), point, v)
        assert jet.curv is None and obj.n_hvp == 0
        assert jet.theta is point.theta and jet.v is v

    def test_critical_point_is_the_straight_ray(self):
        # At g = 0 the warp psi^2 ||g||^2 is 0.
        obj = CountingObjective(QuadraticProblem(3))
        point = self.point(0.0, 0.0)
        jet = warpcg.rcg._jet(obj, WarpConfig(), point, np.array([0.3, 0.8, -0.5]))
        assert jet.curv is None and obj.n_hvp == 0

    def test_warp_at_the_threshold_gets_the_full_jet(self):
        obj = CountingObjective(QuadraticProblem(3))
        point = self.point(FLAT_WARP, 1.0)
        jet = warpcg.rcg._jet(obj, WarpConfig(), point, riemannian_gradient(point))
        assert jet.curv is not None and obj.n_hvp == 4

    def test_small_psi_sq_with_a_large_gradient_keeps_its_curvature(self):
        # psi^2 is below 1e-10, but with ||grad||^2 near 7e8 the warp
        # psi^2 ||grad||^2 is 5e-3: the curved part at a unit step is 0.6 %
        # of the straight part, far above rounding, so psi^2 alone cannot
        # be the gate.
        obj = CountingObjective(QuadraticProblem(3))
        warp = WarpConfig(sigma_sq=1e20)
        theta = np.full(3, 1e4)
        point = build_cache(warp, theta, obj.value(theta), obj.grad(theta))
        assert point.psi_sq < 1e-10 and point.psi_sq * point.grad_sq > 1e-3
        v = riemannian_gradient(point)
        jet = warpcg.rcg._jet(obj, warp, point, v)
        assert jet.curv is not None and obj.n_hvp == 4
        curved = np.array([0.5, 1.0 / 6.0]) @ jet.curv
        assert np.linalg.norm(curved) > 1e-3 * np.linalg.norm(v)

    def test_nan_warp_takes_the_full_jet(self):
        # A NaN psi^2 ||grad||^2 fails the gate's test, so the full jet
        # spends its four hvps and its non-finite coefficients raise.
        obj = CountingObjective(QuadraticProblem(3))
        with pytest.raises(NumericalBreakdown):
            warpcg.rcg._jet(obj, WarpConfig(), self.point(math.nan, 1.0), np.ones(3))
        assert obj.n_hvp == 4

    def test_flat_solve_never_builds_a_jet_of_its_own(self, monkeypatch):
        # Every point of the identity metric passes the gate, so a flat
        # solve calls taylor_coefficients not once and records straight
        # rays alone.
        calls = self.count_jets(monkeypatch)
        res, recording = recorded(run_euclidean_cg, make_problem("rosenbrock", 10),
                                  initial_point("rosenbrock", 10),
                                  cfg=RcgConfig(tol_df=0.0, max_iters=50))
        jets = [obj for kind, obj in recording.calls if kind == "jet"]
        assert len(jets) >= res.iterations > 0
        assert all(jet.curv is None for jet in jets)
        assert calls == []

    def test_warped_solve_builds_a_jet_where_the_warp_reaches_rounding(self, monkeypatch):
        calls = self.count_jets(monkeypatch)
        res, recording = recorded(run_rcg, SquiggleProblem(10), initial_point("squiggle", 10),
                                  cfg=RcgConfig(tol_df=0.0, max_iters=200))
        assert res.iterations > 0
        # Each jet with the point built last before it, the point it left.
        start, jets = None, []
        for kind, obj in recording.calls:
            if kind == "point":
                start = obj
            else:
                jets.append((start, obj))
        above = [jet for start, jet in jets if jet_hvps(start)]
        assert 0 < len(above) < len(jets)
        assert len(calls) == len(above)
        assert all((jet.curv is None) == (jet_hvps(start) == 0) for start, jet in jets)


@pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
def test_default_run_memory_does_not_grow_with_iterations(run):
    # What a finished run still holds is its final point plus scalar trace
    # rows, so 15 more iterations must hold less than one more dim-vector.
    dim = 10_000
    problem = RosenbrockProblem(dim)
    theta0 = 1.0 + 0.05 * np.random.default_rng(0).standard_normal(dim)

    def held_after(max_iters):
        tracemalloc.start()
        try:
            res = run(problem, theta0,
                      cfg=RcgConfig(max_iters=max_iters, tol_df=0.0, tol_grad=0.0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.stop_reason is StopReason.MAX_ITERS
        assert res.iterations == max_iters
        return held

    short, long = held_after(5), held_after(20)
    assert long - short < theta0.nbytes, (short, long)


@pytest.mark.parametrize(
    "run, bound", [(run_rcg, 10), (run_euclidean_cg, 8)], ids=["run_rcg", "run_euclidean_cg"]
)
def test_peak_working_set(run, bound):
    # Every dim-vector of the loop dies by the end of its use, so a run's
    # peak is a fixed count of vectors: the point's geometry, the direction
    # and the jet or trial being built. At d = 20 000 (below numpy's
    # temporary-elision size) rcg peaks at 9 and the flat driver at 7 on
    # both problems; with each iteration's jet, transport and bracket kept
    # alive they read 24 and 13-14, and with H g and the warp factor's
    # gradient held in each point rcg read 12.
    dim = 20_000
    for name, problem in (("rosenbrock", RosenbrockProblem(dim)),
                          ("quadratic", QuadraticProblem(dim))):
        theta0 = initial_point(name, dim)
        tracemalloc.start()
        try:
            res = run(problem, theta0, cfg=RcgConfig(max_iters=5, tol_df=0.0, tol_grad=0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == 5
        assert peak / theta0.nbytes <= bound, (name, peak / theta0.nbytes)


@pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
def test_no_driver_writes_into_an_array_it_has_handed_out(run, name, monkeypatch):
    # A jet's theta, v and curv and a point's theta and grad can outlive
    # the loop's own use of them (a caller that wraps _jet or build_cache,
    # as tests/recording.py does, keeps every one), so the loop updates in
    # place only arrays no jet or point holds. The identity transport,
    # every flat row's, returns the jet's own v as its coords: a direction
    # update that scaled those in place would fail here.
    handed_out = []

    def snapshotting(fn, fields):
        def call(*args):
            out = fn(*args)
            for field in fields:
                arr = getattr(out, field)
                if arr is not None:
                    handed_out.append((field, arr, arr.tobytes()))
            return out

        return call

    monkeypatch.setattr(warpcg.rcg, "build_cache",
                        snapshotting(warpcg.rcg.build_cache, ("theta", "grad")))
    monkeypatch.setattr(warpcg.rcg, "_jet", snapshotting(warpcg.rcg._jet, ("theta", "v", "curv")))
    res = run(make_problem(name, 10), initial_point(name, 10),
              cfg=RcgConfig(max_iters=30, tol_df=0.0))
    assert any(row.beta != 0.0 for row in res.trace)
    assert {field for field, _, _ in handed_out} >= {"theta", "grad", "v"}
    for k, (field, arr, before) in enumerate(handed_out):
        assert arr.tobytes() == before, (k, field)


def _frozen(x) -> np.ndarray:
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


class _GradOnly(Objective):
    """Value and gradient of inner, with no analytic hvp."""

    def __init__(self, inner):
        super().__init__(inner.dim)
        self.inner = inner

    def value(self, theta):
        return self.inner.value(theta)

    def grad(self, theta):
        return self.inner.grad(theta)


class _ReadOnlyOutputs(_GradOnly):
    """Returns every value, gradient and hvp as a read-only array, so a
    driver that writes into one raises ValueError."""

    def value(self, theta):
        return _frozen(self.inner.value(theta))

    def grad(self, theta):
        return _frozen(self.inner.grad(theta))

    def hvp(self, theta, v):
        return _frozen(self.inner.hvp(theta, v))


@pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", ["squiggle", "rosenbrock"])
@pytest.mark.parametrize("view", [lambda p: p, _GradOnly], ids=["hvp", "grad_only"])
def test_objective_outputs_and_start_stay_untouched(run, name, view):
    # The drivers update in place only arrays they allocated themselves:
    # read-only objective outputs and a read-only start give the plain
    # run's bits. The grad-only view sends every hvp through the
    # central-difference fallback.
    problem = view(make_problem(name, 10))
    theta0 = initial_point(name, 10)
    cfg = RcgConfig(max_iters=20, tol_df=0.0)
    plain = run(problem, theta0, cfg=cfg)
    guarded = run(_ReadOnlyOutputs(problem), _frozen(theta0), cfg=cfg)
    # repr gives a float's exact bits, signed zeros included.
    assert guarded.theta.tobytes() == plain.theta.tobytes()
    assert repr(guarded.value) == repr(plain.value)
    assert len(guarded.trace) == len(plain.trace) > 0
    for k, (a, b) in enumerate(zip(guarded.trace, plain.trace)):
        for f in dataclasses.fields(a):
            if f.name != "wall_ns":
                assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), (k, f.name)


class TestFailureHandling:
    def test_line_search_fail_on_unbounded_objective(self):
        # A pure linear objective has no crest anywhere. The first search is
        # along steepest ascent, so its failure stops the run at once: the
        # start's value plus one spent 60-evaluation budget, with the start
        # point reported as the final iterate. Repeating that search would
        # fail the same way.
        class Ramp(Objective):
            def __init__(self):
                super().__init__(2)

            def value(self, theta):
                return float(theta[0])

            def grad(self, theta):
                return np.array([1.0, 0.0])

            def hvp(self, theta, v):
                return np.zeros(2)

        for driver in (run_rcg, run_euclidean_cg):
            res, recording = recorded(driver, Ramp(), np.zeros(2))
            assert res.stop_reason == StopReason.LINE_SEARCH_FAIL
            assert res.iterations == 0
            assert res.failed_attempts == 1
            assert res.n_value == 61
            if driver is run_rcg:
                assert res.n_hvp == 4  # one jet; the start's cache calls none
            np.testing.assert_array_equal(res.theta, np.zeros(2))
            assert reconcile(res, recording)

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_failure_after_beta_clamp_stops_without_retry(self, run, monkeypatch):
        # Every beta is clamped, so the direction after row 0 is already
        # steepest ascent; a failed search along it stops the run instead
        # of repeating the same search.
        real_search = warpcg.rcg.strong_wolfe
        searches = []

        def fail_after_first(*args, **kwargs):
            searches.append(None)
            if len(searches) > 1:
                raise LineSearchFail("forced")
            return real_search(*args, **kwargs)

        monkeypatch.setattr(warpcg.rcg, "dy_beta", lambda *args: 1.0)
        monkeypatch.setattr(warpcg.rcg, "strong_wolfe", fail_after_first)
        res, recording = recorded(run, QuadraticProblem(3), initial_point("quadratic", 3))
        assert len(searches) == 2
        assert res.failed_attempts == 1
        assert [row.restart for row in res.trace] == [1]
        assert res.stop_reason == StopReason.LINE_SEARCH_FAIL
        assert reconcile(res, recording)

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_loss_of_ascent_falls_back_to_steepest(self, run, monkeypatch):
        # An infinite beta leaves a direction whose slope is not finite; the
        # next row must restart along steepest ascent and the run recover.
        real_beta = warpcg.rcg.dy_beta
        calls = []

        def infinite_once(*args):
            calls.append(None)
            return -math.inf if len(calls) == 1 else real_beta(*args)

        monkeypatch.setattr(warpcg.rcg, "dy_beta", infinite_once)
        with np.errstate(invalid="ignore"):
            res, recording = recorded(run, QuadraticProblem(3), initial_point("quadratic", 3),
                                      cfg=RcgConfig(tol_df=0.0))
        assert res.trace[0].beta == -math.inf
        assert res.trace[1].restart == 1
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert reconcile(res, recording)

    @pytest.mark.parametrize(
        "name, error",
        [("vector_transport", DegenerateStep), ("dy_beta", DegenerateStep)],
    )
    def test_degenerate_transport_or_beta_restarts(self, name, error, monkeypatch):
        def degenerate(*args):
            raise error("forced")

        monkeypatch.setattr(warpcg.rcg, name, degenerate)
        res, recording = recorded(run_rcg, QuadraticProblem(3), np.ones(3),
                                  cfg=RcgConfig(tol_df=0.0))
        assert all(row.beta == 0.0 and row.s == 1.0 and row.restart == 1
                   for row in res.trace)
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert len(res.trace) == 13
        assert reconcile(res, recording)

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

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_start_with_infinite_value_raises(self, run):
        # The start's point is built before the loop that reports
        # breakdowns, so its non-finite value raises to the caller.
        class Spike(Objective):
            def __init__(self):
                super().__init__(2)

            def value(self, theta):
                return math.inf

            def grad(self, theta):
                return np.ones(2)

        with pytest.raises(NumericalBreakdown, match="non-finite objective value"):
            run(Spike(), np.zeros(2))

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_steepest_slope_zero_stops_on_small_grad(self, run):
        # At the maximizer with tol_grad = 0 the gradient test cannot stop
        # the run, so the steepest slope 0 does, before any jet or search.
        q = QuadraticProblem(3)
        res = run(q, q.maximizer(), cfg=RcgConfig(tol_grad=0.0))
        assert res.stop_reason == StopReason.SMALL_GRAD
        assert res.iterations == 0
        assert res.failed_attempts == 0
        assert (res.n_value, res.n_grad, res.n_hvp) == (1, 1, 0)

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
