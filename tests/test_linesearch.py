"""Strong Wolfe line search: acceptance conditions, recovery behavior, and
failure modes, exercised through scalar test paths."""

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
        calls = []
        inner = scalar_phi(lambda t: t, lambda t: 1.0)

        def phi(t):
            calls.append(t)
            return inner(t)

        with pytest.raises(LineSearchFail):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=1.0)
        assert len(calls) == 60

    def test_collapsed_zoom_interval_fails(self):
        # The first trial, at t = 1e-15, falls below the start, so the zoom
        # brackets [0, 1e-15], already narrower than its 1e-14 floor.
        calls = []
        inner = scalar_phi(lambda t: -t, lambda t: 1.0)

        def phi(t):
            calls.append(t)
            return inner(t)

        with pytest.raises(LineSearchFail, match="zoom interval collapsed"):
            strong_wolfe(phi, f0=0.0, slope0=1.0, t_init=1e-15)
        assert calls == [1e-15]


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
