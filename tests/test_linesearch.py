"""Strong Wolfe line search: acceptance conditions, recovery behavior, and
failure modes, exercised through scalar test paths."""

import math

import numpy as np
import pytest

from warpcg import SquiggleProblem, WarpConfig, linesearch
from warpcg.errors import LineSearchFail
from warpcg.geometry import taylor_coefficients
from warpcg.linesearch import C1, C2, WolfeResult, _cubic_min, strong_wolfe
from oracle import cache_at
from warpcg.retraction import directional_value_and_slope, retract


def scalar_phi(f, fprime):
    """Wrap a 1-d function into the (value, slope, point, grad) protocol."""

    def phi(t):
        return float(f(t)), float(fprime(t)), np.array([t]), np.array([fprime(t)])

    return phi


def wolfe_ok(res, f0, slope0, c1=C1, c2=C2):
    inc = res.value >= f0 + c1 * res.t * slope0
    curv = abs(res.slope) <= c2 * slope0
    return inc and curv


def recorded(f, fprime):
    """scalar_phi of f, and the list of t values it receives, in order."""
    calls = []
    inner = scalar_phi(f, fprime)

    def phi(t):
        calls.append(t)
        return inner(t)

    return phi, calls


def parabola(peak):
    """g(t) = t - t^2 / (2 peak), rising from g'(0) = 1 to its crest at peak."""
    return (lambda t: t - t * t / (2.0 * peak)), (lambda t: 1.0 - t / peak)


class TestParabola:
    """g(t) = t - t^2 / 2 peaks at t = 1 with g'(0) = 1."""

    def setup_method(self):
        self.phi = scalar_phi(lambda t: t - 0.5 * t * t, lambda t: 1.0 - t)

    def test_finds_crest(self):
        res = strong_wolfe(self.phi, f0=0.0, slope0=1.0, t_init=1.0)
        assert isinstance(res, WolfeResult)
        assert wolfe_ok(res, 0.0, 1.0)
        assert res.t == pytest.approx(1.0, abs=0.11)
        assert res.evals >= 1

    def test_unit_first_trial_can_be_accepted_directly(self):
        # t = 1 is the exact crest: slope 0 there satisfies the curvature
        # condition immediately, so a single evaluation suffices.
        res = strong_wolfe(self.phi, f0=0.0, slope0=1.0, t_init=1.0)
        assert res.evals == 1
        assert res.t == 1.0

    def test_tiny_initial_step_grows(self):
        res = strong_wolfe(self.phi, f0=0.0, slope0=1.0, t_init=1e-4)
        assert wolfe_ok(res, 0.0, 1.0)

    def test_overshoot_zooms_back(self):
        res = strong_wolfe(self.phi, f0=0.0, slope0=1.0, t_init=64.0)
        assert wolfe_ok(res, 0.0, 1.0)


class TestValidation:
    def test_nonascent_rejected(self):
        phi = scalar_phi(lambda t: -t, lambda t: -1.0)
        with pytest.raises(ValueError):
            strong_wolfe(phi, f0=0.0, slope0=-1.0, t_init=1.0)
        with pytest.raises(ValueError):
            strong_wolfe(phi, f0=0.0, slope0=0.0, t_init=1.0)
        with pytest.raises(ValueError):
            strong_wolfe(phi, f0=0.0, slope0=float("nan"), t_init=1.0)

    def test_bad_constants_rejected(self):
        # The Wolfe constants are fixed in the module, so their range is
        # checked here once rather than on every call.
        assert 0.0 < C1 < C2 < 1.0
        phi = scalar_phi(lambda t: t, lambda t: 1.0)
        with pytest.raises(ValueError):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=0.0)
        with pytest.raises(ValueError):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=-2.0)


class TestFailureModes:
    def test_unbounded_ray_exhausts_budget(self):
        # g(t) = t never satisfies the curvature condition; the bracket
        # phase grows until the evaluation budget runs out.
        phi = scalar_phi(lambda t: t, lambda t: 1.0)
        with pytest.raises(LineSearchFail):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=1.0)

    def test_budget_counts_every_call(self):
        phi, calls = recorded(lambda t: t, lambda t: 1.0)
        with pytest.raises(LineSearchFail, match="budget of 60 evaluations exhausted"):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=1.0)
        assert calls == [2.0**k for k in range(60)]

    def test_collapsed_zoom_interval_fails(self):
        # The first trial, at t = 1e-15, falls below the start, so the zoom
        # brackets [0, 1e-15], already narrower than its 1e-14 floor.
        phi, calls = recorded(lambda t: -t, lambda t: 1.0)
        with pytest.raises(LineSearchFail, match="zoom interval collapsed"):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=1e-15)
        assert calls == [1e-15]


class TestTrialSequence:
    """The exact trials of each branch of the search, in order (the budget's
    are in TestFailureModes). Every path starts at g(0) = 0 with g'(0) = 1
    unless stated, so a trial meets the curvature condition when
    |g'(t)| <= C2 = 0.1."""

    def search(self, f, fprime, t_init, f0=0.0):
        phi, calls = recorded(f, fprime)
        res = strong_wolfe(phi, f0=f0, slope0=1.0, t_init=t_init)
        assert res.evals == len(calls)
        assert res.point is not None and res.grad is not None
        assert res.point[0] == res.t
        return res, calls

    def test_doubling_from_a_tiny_step(self):
        # Doubles up to 1.6384, which is lower than 0.8192 before it; the
        # zoom's cubic then lands on the crest.
        res, calls = self.search(*parabola(1.0), t_init=1e-4)
        assert calls == [1e-4 * 2.0**k for k in range(15)] + [1.0000000000000002]
        assert (res.t, res.evals) == (1.0000000000000002, 16)

    def test_overshoot_bisects_down_to_the_crest(self):
        # Each trial beyond t = 2 falls below the start. The cubic's step,
        # t = 1, lies in the outer tenth of [0, t] until t = 8, so the zoom
        # halves until then and takes the cubic's exact step after.
        res, calls = self.search(*parabola(1.0), t_init=64.0)
        assert calls == [64.0, 32.0, 16.0, 8.0, 1.0]
        assert (res.t, res.evals) == (1.0, 5)

    def test_nan_wall_bisects(self):
        # No cubic through a NaN end: the zoom halves until it passes the
        # wall at t = 2.
        f, fp = parabola(1.0)
        res, calls = self.search(
            lambda t: f(t) if t <= 2.0 else math.nan,
            lambda t: fp(t) if t <= 2.0 else math.nan,
            t_init=8.0,
        )
        assert calls == [8.0, 4.0, 2.0, 1.0]
        assert (res.t, res.evals) == (1.0, 4)

    @pytest.mark.parametrize(
        "t_init, expected", [(1.5, [1.5, 1.0]), (0.6, [0.6, 1.2, 1.0])],
        ids=["first_trial", "after_climbing"],
    )
    def test_crest_passed_zooms_back(self, t_init, expected):
        # A trial that is higher than the one before it but sloping down
        # brackets the crest from above.
        res, calls = self.search(*parabola(1.0), t_init=t_init)
        assert calls == expected
        assert (res.t, res.evals) == (1.0, len(expected))

    def test_trial_no_higher_than_the_last_is_rejected(self):
        # g drops to a flat 0.3 from t = 1.2 on. t = 1.5 meets sufficient
        # increase and, with slope 0, the curvature condition, but it is
        # lower than t = 0.75, so the zoom brackets [0.75, 1.5] instead.
        f, fp = parabola(1.0)
        res, calls = self.search(
            lambda t: f(t) if t < 1.2 else 0.3,
            lambda t: fp(t) if t < 1.2 else 0.0,
            t_init=0.75,
        )
        assert calls == [0.75, 1.5, 0.8392857142857144, 1.1696428571428572, 0.9999999999999999]
        assert (res.t, res.evals) == (0.9999999999999999, 5)

    def test_first_trial_level_with_the_start_is_accepted(self):
        # c1 t g'(0) = 1e-17 vanishes beside f0 = 1, so a trial level with
        # the start meets sufficient increase; the start's value bounds a
        # trial only after one trial has passed or once the search zooms.
        res, calls = self.search(lambda t: 1.0, lambda t: 0.05, t_init=1e-13, f0=1.0)
        assert calls == [1e-13]
        assert (res.t, res.evals) == (1e-13, 1)

    def test_zoom_swaps_ends_when_a_trial_passes_the_crest(self):
        # Crest at 0.7, NaN beyond 1.5. The bisection to t = 1 overshoots
        # the crest, so [0, 2] becomes [1, 0] and the cubic lands on 0.7.
        f, fp = parabola(0.7)
        res, calls = self.search(
            lambda t: f(t) if t <= 1.5 else math.nan,
            lambda t: fp(t) if t <= 1.5 else math.nan,
            t_init=2.0,
        )
        assert calls == [2.0, 1.0, 0.7]
        assert (res.t, res.evals) == (0.7, 3)

    def test_collapse_is_reported_before_the_budget(self):
        # A ramp with a NaN wall at 6144: thirteen doublings reach 8192,
        # then 47 halvings shrink [4096, 8192] below its collapse width
        # just as the 60th call is spent.
        phi, calls = recorded(lambda t: t if t < 6144.0 else math.nan, lambda t: 1.0)
        with pytest.raises(LineSearchFail, match="zoom interval collapsed"):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=1.0)
        assert calls[:14] == [2.0**k for k in range(14)]
        assert len(calls) == 60


class TestCubicMin:
    """The zoom's cubic Hermite step returns None, and the zoom bisects,
    whenever the interpolant has no usable minimizer."""

    def test_parabola_gives_its_minimizer(self):
        # (t - 1)^2 on [0, 3]: the cubic term vanishes and the step is exact.
        assert _cubic_min(0.0, 1.0, -2.0, 3.0, 4.0, 4.0) == 1.0

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
            (0.0, 0.0, 2.0, 1.0, 1.0, 2.0),
            (0.0, 0.0, 1e200, 1.0, 0.0, 1.0),
            (0.0, 0.0, 2.0, 1.0, 1.0, 0.0),
        ],
        ids=["equal_ends", "negative_discriminant", "overflowing_discriminant",
             "zero_denominator"],
    )
    def test_degenerate_interpolant_gives_none(self, args):
        assert _cubic_min(*args) is None


class TestNonFiniteRecovery:
    def test_nan_wall_is_avoided(self):
        # Value turns NaN beyond t = 2; the crest at t = 1 is still found.
        def f(t):
            return t - 0.5 * t * t if t <= 2.0 else float("nan")

        def fp(t):
            return 1.0 - t if t <= 2.0 else float("nan")

        res = strong_wolfe(scalar_phi(f, fp), f0=0.0, slope0=1.0, t_init=8.0)
        assert wolfe_ok(res, 0.0, 1.0)
        assert res.t <= 2.0

    def test_inf_wall_is_avoided(self):
        def f(t):
            return t - 0.5 * t * t if t <= 1.5 else float("-inf")

        def fp(t):
            return 1.0 - t if t <= 1.5 else float("inf")

        res = strong_wolfe(scalar_phi(f, fp), f0=0.0, slope0=1.0, t_init=4.0)
        assert wolfe_ok(res, 0.0, 1.0)


class TestOnCurvedPath:
    def test_wolfe_along_taylor_curve(self):
        # Drive the search with the actual cubic retraction of the warped
        # geometry, exactly as the optimizer does.
        sq = SquiggleProblem(6)
        theta = np.array([-10.0, 10.0, -10.0, 10.0, -10.0, 10.0])
        warp = WarpConfig(1.0)
        cache = cache_at(sq, warp, theta)
        from warpcg.geometry import riemannian_gradient

        v = riemannian_gradient(cache)
        jet = taylor_coefficients(sq, warp, cache, v)
        slope0 = float(cache.grad @ v)
        assert slope0 > 0.0

        def phi(t):
            return directional_value_and_slope(sq, jet, t)

        res = strong_wolfe(phi, f0=cache.value, slope0=slope0, t_init=1.0)
        assert wolfe_ok(res, cache.value, slope0)
        assert res.value > cache.value
        # The accepted point is the retraction's own, to the bit;
        # test_retraction.py checks the retraction against its per-term sum.
        np.testing.assert_array_equal(res.point, retract(jet, res.t))

    def test_asymmetric_crest(self, monkeypatch):
        # Sharply skewed smooth bump: max of t * exp(-3 t) at t = 1/3. A
        # tight curvature constant forces the zoom phase to land close to
        # the true crest rather than accepting a far shoulder.
        f = lambda t: t * np.exp(-3.0 * t)
        fp = lambda t: (1.0 - 3.0 * t) * np.exp(-3.0 * t)
        monkeypatch.setattr(linesearch, "C2", 0.01)
        res = strong_wolfe(scalar_phi(f, fp), f0=0.0, slope0=1.0, t_init=1.0)
        assert wolfe_ok(res, 0.0, 1.0, c2=0.01)
        assert res.t == pytest.approx(1.0 / 3.0, abs=0.01)
