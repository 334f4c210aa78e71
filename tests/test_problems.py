"""Benchmark objectives: frozen values, derivative hygiene, ground truth,
and the factory/start-point helpers."""

import numpy as np
import pytest

from warpcg import (
    FdConfig,
    QuadraticProblem,
    RosenbrockProblem,
    SquiggleProblem,
    classify_rosenbrock_basin,
    initial_point,
    make_problem,
)
from warpcg.objective import hvp_or_fallback
from warpcg.oracle import central_diff_grad
from warpcg.problems import PROBLEM_NAMES

FD = FdConfig()


def check_derivatives(problem, theta, rng, rtol=1e-6, atol=1e-8):
    """Analytic gradient and hvp against finite differences."""
    fd_grad = central_diff_grad(problem, theta, FD.step)
    np.testing.assert_allclose(problem.grad(theta), fd_grad, rtol=rtol, atol=atol)
    v = rng.standard_normal(problem.dim)
    analytic = problem.hvp(theta, v)
    h = FD.scaled(theta, v)
    fd_hvp = (problem.grad(theta + h * v) - problem.grad(theta - h * v)) / (2.0 * h)
    np.testing.assert_allclose(analytic, fd_hvp, rtol=rtol, atol=atol)


class TestSquiggle:
    def test_maximum_value_formula(self):
        sq = SquiggleProblem(4)
        variances = np.array([30.0, 0.5, 0.5, 0.5])
        want = -2.0 * np.log(2.0 * np.pi) - 0.5 * float(np.sum(np.log(variances)))
        assert sq.max_value() == pytest.approx(want, rel=1e-15)
        assert sq.value(sq.maximizer()) == pytest.approx(want, rel=1e-15)

    def test_frozen_two_dim_maximum(self):
        # Recorded once from the closed form; guards against accidental
        # renormalization of the density.
        assert SquiggleProblem(2).max_value() == pytest.approx(
            -3.1919021669604506, rel=1e-14
        )

    def test_origin_is_stationary(self):
        sq = SquiggleProblem(5)
        np.testing.assert_allclose(sq.grad(np.zeros(5)), np.zeros(5), atol=1e-15)

    def test_derivative_hygiene(self):
        rng = np.random.default_rng(101)
        for dim in (2, 7):
            sq = SquiggleProblem(dim)
            for _ in range(5):
                check_derivatives(sq, rng.standard_normal(dim), rng)

    def test_value_drops_off_ridge(self):
        sq = SquiggleProblem(3)
        on_ridge = np.array([2.0, -np.sin(2.0), -np.sin(2.0)])
        off_ridge = np.array([2.0, 1.0, 1.0])
        assert sq.value(on_ridge) > sq.value(off_ridge)

    def test_custom_frequency_moves_ridge(self):
        sq = SquiggleProblem(2, freq=3.0)
        theta = np.array([1.0, -np.sin(3.0)])
        assert sq.grad(theta)[1] == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            SquiggleProblem(3, variances=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            SquiggleProblem(3, variances=np.ones(2))


class TestRosenbrock:
    def test_frozen_hvp_value(self):
        # At the maximizer of the 2-d problem with v = e_1 the tridiagonal
        # stencil gives (-802, 400).
        rb = RosenbrockProblem(2)
        np.testing.assert_allclose(
            rb.hvp(np.array([1.0, 1.0]), np.array([1.0, 0.0])), [-802.0, 400.0]
        )

    def test_maximum_and_gradient_there(self):
        for dim in (2, 5, 10):
            rb = RosenbrockProblem(dim)
            assert rb.value(rb.maximizer()) == 0.0
            np.testing.assert_allclose(rb.grad(rb.maximizer()), np.zeros(dim), atol=1e-13)

    def test_derivative_hygiene(self):
        rng = np.random.default_rng(103)
        for dim in (2, 6):
            rb = RosenbrockProblem(dim)
            for _ in range(5):
                # Stay near the unit box: the quartic growth wrecks fd
                # accuracy for wild points.
                check_derivatives(rb, 0.8 * rng.standard_normal(dim), rng, rtol=1e-4, atol=1e-4)

    def test_hvp_matches_dense_hessian(self):
        rng = np.random.default_rng(29)
        rb = RosenbrockProblem(5)
        theta = rng.standard_normal(5)
        dense = np.column_stack([rb.hvp(theta, e) for e in np.eye(5)])
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(rb.hvp(theta, v), dense @ v, rtol=1e-13)

    def test_shifted_variant(self):
        # All-shift point is stationary only when shift^2 = shift, so for
        # shift = 2 just pin the hand-computed values there.
        rb = RosenbrockProblem(3, shift=2.0)
        all_two = np.full(3, 2.0)
        assert rb.value(all_two) == -800.0
        np.testing.assert_array_equal(rb.grad(np.ones(3)), [2.0, 2.0, 0.0])

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            RosenbrockProblem(1)


class TestQuadratic:
    def test_defaults(self):
        q = QuadraticProblem(4)
        np.testing.assert_allclose(q.curvatures, np.linspace(1.0, 2.0, 4))
        np.testing.assert_array_equal(q.maximizer(), np.zeros(4))
        assert q.max_value() == 0.0
        assert q.value(np.zeros(4)) == 0.0

    def test_closed_form(self):
        q = QuadraticProblem(2, curvatures=np.array([2.0, 8.0]), center=np.array([1.0, -1.0]))
        theta = np.array([3.0, 0.0])
        assert q.value(theta) == -0.5 * (2.0 * 4.0 + 8.0 * 1.0)
        np.testing.assert_array_equal(q.grad(theta), [-4.0, -8.0])
        np.testing.assert_array_equal(q.hvp(theta, np.array([1.0, 1.0])), [-2.0, -8.0])

    def test_derivative_hygiene(self):
        rng = np.random.default_rng(107)
        q = QuadraticProblem(6)
        check_derivatives(q, rng.standard_normal(6), rng)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuadraticProblem(3, curvatures=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            QuadraticProblem(3, center=np.zeros(2))


class TestFactoryAndStarts:
    def test_make_problem_round_trip(self):
        for name in PROBLEM_NAMES:
            problem = make_problem(name, 4)
            assert problem.dim == 4
            start = initial_point(name, 4)
            assert start.shape == (4,)
            assert np.isfinite(problem.value(start))

    def test_start_amplitudes(self):
        np.testing.assert_array_equal(initial_point("squiggle", 3), [-10.0, 10.0, -10.0])
        np.testing.assert_array_equal(initial_point("rosenbrock", 2), [-5.0, 5.0])
        np.testing.assert_array_equal(initial_point("quadratic", 4), [-0.5, 0.5, -0.5, 0.5])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_problem("banana", 3)
        with pytest.raises(ValueError):
            initial_point("banana", 3)

    def test_starts_are_far_from_answers(self):
        for name in PROBLEM_NAMES:
            problem = make_problem(name, 6)
            start = initial_point(name, 6)
            assert problem.value(start) < problem.max_value() - 1.0e-1


class TestBasinClassifier:
    def test_global(self):
        assert classify_rosenbrock_basin(np.ones(5)) == "global"
        assert classify_rosenbrock_basin(np.ones(5) + 0.01) == "global"

    def test_local(self):
        near = np.ones(6)
        near[0] = -1.0
        assert classify_rosenbrock_basin(near) == "local"

    def test_other(self):
        assert classify_rosenbrock_basin(np.zeros(4)) == "other"
        assert classify_rosenbrock_basin(np.full(4, 3.0)) == "other"

    def test_fallback_objective_without_hvp_flag(self):
        # hvp_or_fallback on a problem with an analytic hvp returns the
        # analytic result untouched.
        q = QuadraticProblem(3)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(
            hvp_or_fallback(q, np.zeros(3), v, FD), q.hvp(np.zeros(3), v)
        )
