"""Objective contract, finite-difference policy, and derivative utilities."""

import numpy as np
import pytest

from warpcg import (
    FdConfig,
    NegatedObjective,
    Objective,
    RosenbrockProblem,
    SquiggleProblem,
)
from warpcg.errors import NumericalBreakdown
from warpcg.objective import CountingObjective, DEFAULT_FD_STEP, hvp_or_fallback
from warpcg.oracle import central_diff_grad, third_directional_derivative


class GradOnly(Objective):
    """Concave quadratic exposing no analytic hvp."""

    def __init__(self, dim=3):
        super().__init__(dim)

    def value(self, theta):
        return -0.5 * float(theta @ theta)

    def grad(self, theta):
        return -np.asarray(theta, dtype=float)


class PoisonHvp(Objective):
    """Objective whose hvp returns NaN in one component."""

    def __init__(self):
        super().__init__(3)

    def value(self, theta):
        return 0.0

    def grad(self, theta):
        return np.zeros(3)

    def hvp(self, theta, v):
        out = np.zeros(3)
        out[1] = np.nan
        return out


class Cubic1D(Objective):
    """f(theta) = theta^3 in one dimension; third derivative is exactly 6."""

    def __init__(self):
        super().__init__(1)

    def value(self, theta):
        return float(theta[0] ** 3)

    def grad(self, theta):
        return np.array([3.0 * theta[0] ** 2])

    def hvp(self, theta, v):
        return np.array([6.0 * theta[0] * v[0]])


class TestFdConfig:
    def test_default_step_is_cbrt_eps(self):
        assert FdConfig().step == DEFAULT_FD_STEP
        assert np.isclose(DEFAULT_FD_STEP, np.cbrt(np.finfo(np.float64).eps))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            FdConfig(step=0.0)
        with pytest.raises(ValueError):
            FdConfig(step=-1e-6)

    def test_warns_below_float_resolution(self):
        with pytest.warns(UserWarning, match="below float64 resolution"):
            FdConfig(step=1e-20)

    def test_scaled_step(self):
        fd = FdConfig(step=1e-4)
        theta = np.array([3.0, 4.0])  # norm 5
        v = np.array([0.0, 10.0])
        assert fd.scaled(theta, v) == pytest.approx(1e-4 * 5.0 / 10.0)
        # Both norms below 1 clamp to 1.
        assert fd.scaled(np.zeros(2), np.array([0.1, 0.0])) == pytest.approx(1e-4)


class TestObjectiveContract:
    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            GradOnly(dim=0)

    def test_has_hvp_detection(self):
        assert not GradOnly().has_hvp
        assert RosenbrockProblem(2).has_hvp

    def test_fallback_matches_analytic(self):
        rng = np.random.default_rng(11)
        rb = RosenbrockProblem(5)

        class NoHvp(Objective):
            def __init__(self):
                super().__init__(5)

            value = staticmethod(rb.value)
            grad = staticmethod(rb.grad)

        fd = FdConfig()
        for _ in range(10):
            theta = rng.standard_normal(5)
            v = rng.standard_normal(5)
            got = hvp_or_fallback(NoHvp(), theta, v, fd)
            want = rb.hvp(theta, v)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_fallback_zero_direction(self):
        out = hvp_or_fallback(GradOnly(), np.ones(3), np.zeros(3), FdConfig())
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_nan_hvp_raises_with_component(self):
        with pytest.raises(NumericalBreakdown) as info:
            hvp_or_fallback(PoisonHvp(), np.zeros(3), np.ones(3), FdConfig())
        assert info.value.component == 1


class TestThirdDerivative:
    def test_cubic_value_is_six(self):
        out = third_directional_derivative(
            Cubic1D(), np.array([0.7]), np.array([1.0]), np.array([1.0]), FdConfig()
        )
        np.testing.assert_allclose(out, [6.0], rtol=1e-7)

    def test_slot_symmetry(self):
        # D^3 f [v, w, .] == D^3 f [w, v, .] for smooth objectives.
        rng = np.random.default_rng(5)
        sq = SquiggleProblem(4)
        fd = FdConfig()
        for _ in range(5):
            theta = rng.standard_normal(4)
            v = rng.standard_normal(4)
            w = rng.standard_normal(4)
            vw = third_directional_derivative(sq, theta, v, w, fd)
            wv = third_directional_derivative(sq, theta, w, v, fd)
            np.testing.assert_allclose(vw, wv, rtol=1e-5, atol=1e-6)

    def test_zero_direction(self):
        out = third_directional_derivative(
            Cubic1D(), np.array([1.0]), np.array([0.0]), np.array([1.0]), FdConfig()
        )
        np.testing.assert_array_equal(out, [0.0])


class TestAdapters:
    def test_negated_flips_everything(self):
        rb = RosenbrockProblem(3)
        neg = NegatedObjective(rb)
        theta = np.array([0.3, -0.2, 1.1])
        v = np.array([1.0, 2.0, -0.5])
        assert neg.value(theta) == -rb.value(theta)
        np.testing.assert_array_equal(neg.grad(theta), -rb.grad(theta))
        np.testing.assert_array_equal(neg.hvp(theta, v), -rb.hvp(theta, v))
        assert neg.has_hvp

    def test_negated_without_hvp(self):
        neg = NegatedObjective(GradOnly())
        assert not neg.has_hvp
        with pytest.raises(NotImplementedError):
            neg.hvp(np.zeros(3), np.ones(3))

    def test_counting_wrapper(self):
        counted = CountingObjective(RosenbrockProblem(2))
        theta = np.zeros(2)
        counted.value(theta)
        counted.grad(theta)
        counted.grad(theta)
        counted.hvp(theta, np.ones(2))
        assert (counted.counts.n_value, counted.counts.n_grad, counted.counts.n_hvp) == (1, 2, 1)
        snap = counted.counts.snapshot()
        counted.value(theta)
        assert snap.n_value == 1 and counted.counts.n_value == 2


def test_central_diff_grad_matches_analytic():
    sq = SquiggleProblem(3)
    theta = np.array([0.4, -1.2, 0.9])
    got = central_diff_grad(sq, theta, 1e-6)
    np.testing.assert_allclose(got, sq.grad(theta), rtol=1e-6, atol=1e-8)
