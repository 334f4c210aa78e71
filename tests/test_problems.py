"""Benchmark objectives: frozen values, derivative hygiene, ground truth,
the quadratic's parameter checks, bitwise pins against reference formulas,
and the factory/start-point helpers."""

import numpy as np
import pytest

from warpcg import (
    QuadraticProblem,
    RosenbrockProblem,
    SquiggleProblem,
    classify_rosenbrock_basin,
    initial_point,
    make_problem,
)
from warpcg.objective import FD_STEP, CountingObjective, fd_step, hvp_or_fallback
from oracle import central_diff_grad
from test_objective import Negated
from warpcg.problems import PROBLEM_NAMES


def check_derivatives(problem, theta, rng, rtol=1e-6, atol=1e-8):
    """Analytic gradient and hvp against finite differences."""
    fd_grad = central_diff_grad(problem, theta, FD_STEP)
    np.testing.assert_allclose(problem.grad(theta), fd_grad, rtol=rtol, atol=atol)
    v = rng.standard_normal(problem.dim)
    analytic = problem.hvp(theta, v)
    h = fd_step(theta, v)
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

    def test_accepts_array_likes(self):
        # Lists and integer arrays evaluate as their float64 equivalents.
        sq = SquiggleProblem(3)
        theta, v = [1, -2, 3], [0, 1, -1]
        theta_f, v_f = np.array(theta, dtype=float), np.array(v, dtype=float)
        assert sq.value(theta) == sq.value(theta_f)
        np.testing.assert_array_equal(sq.grad(theta), sq.grad(theta_f))
        np.testing.assert_array_equal(sq.hvp(theta, v), sq.hvp(theta_f, v_f))
        np.testing.assert_array_equal(sq.hvp(np.array(theta), np.array(v)), sq.hvp(theta_f, v_f))


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
        with pytest.raises(ValueError, match="curvatures"):
            QuadraticProblem(3, curvatures=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="curvatures"):
            QuadraticProblem(3, curvatures=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="center"):
            QuadraticProblem(3, center=np.zeros(2))


NONFINITE = [np.nan, np.inf, -np.inf]


def _with(dim, index, bad):
    out = np.ones(dim)
    out[index] = bad
    return out


@pytest.mark.parametrize("bad", NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda bad: QuadraticProblem(3, curvatures=_with(3, 2, bad)), "curvatures"),
        (lambda bad: QuadraticProblem(3, center=_with(3, 0, bad)), "center"),
    ],
    ids=["quadratic_curvatures", "quadratic_center"],
)
def test_nonfinite_parameter_rejected_by_name(build, name, bad):
    # Accepted, these would surface only as a NumericalBreakdown at the
    # start of a run.
    with pytest.raises(ValueError, match=name):
        build(bad)


# Reference formulas: the objectives as first written, with numpy ufuncs on
# numpy scalars and `@`. Faster forms must reproduce them bit for bit.


def squiggle_ref(problem, theta, v):
    lam = problem._lam
    s = np.array(theta, dtype=float)
    s[1:] += np.sin(theta[0])
    value = problem._log_norm - 0.5 * float((lam * s * s).sum())
    ls = lam * s
    grad = -ls
    grad[0] -= np.cos(theta[0]) * float(ls[1:].sum())
    sin1 = np.sin(theta[0])
    cos1 = np.cos(theta[0])
    jv = np.array(v, dtype=float)
    jv[1:] += cos1 * v[0]
    ljv = lam * jv
    hvp = -ljv
    hvp[0] -= cos1 * float(ljv[1:].sum())
    hvp[0] += sin1 * float((lam[1:] * (theta[1:] + sin1)).sum()) * v[0]
    return value, grad, hvp


def rosenbrock_ref(problem, theta, v):
    x, y = theta[:-1], theta[1:]
    value = -float((100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2).sum())
    grad = np.zeros(np.shape(theta))
    grad[:-1] += 400.0 * x * (y - x * x) + 2.0 * (1.0 - x)
    grad[1:] += -200.0 * (y - x * x)
    diag = np.zeros(np.shape(theta))
    diag[:-1] += 400.0 * (y - 3.0 * x * x) - 2.0
    diag[1:] += -200.0
    off = 400.0 * x
    hvp = diag * v
    hvp[:-1] += off * v[1:]
    hvp[1:] += off * v[:-1]
    return value, grad, hvp


def quadratic_ref(problem, theta, v):
    d = theta - problem.center
    value = -0.5 * float((problem.curvatures * d * d).sum())
    grad = -problem.curvatures * (theta - problem.center)
    hvp = -problem.curvatures * np.asarray(v, dtype=float)
    return value, grad, hvp


def _pin_cases(dim, rng):
    """Seeded (theta, v) pairs with theta_0 = +-0.0 and |theta_0| up to 1e3."""
    firsts = [0.0, -0.0, 1e-300, -1e-8, 0.5, -3.0, 1e3, -1e3]
    firsts += list(rng.uniform(-1e3, 1e3, 8)) + list(rng.standard_normal(8))
    for first in firsts:
        theta = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
        theta[0] = first
        yield theta, rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)


def _assert_same_bits(problem, reference, theta, v):
    value, grad, hvp = reference(problem, theta, v)
    assert np.float64(problem.value(theta)).tobytes() == np.float64(value).tobytes()
    assert np.asarray(problem.grad(theta)).tobytes() == grad.tobytes()
    assert np.asarray(problem.hvp(theta, v)).tobytes() == hvp.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 10, 100])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_squiggle_matches_reference_bitwise(dim, scale):
    # theta_0 is the argument of the sine and cosine; a second scale of it
    # pins them at other arguments.
    rng = np.random.default_rng(1000 * dim + int(10 * scale))
    problem = SquiggleProblem(dim)
    for theta, v in _pin_cases(dim, rng):
        theta[0] *= scale
        _assert_same_bits(problem, squiggle_ref, theta, v)


@pytest.mark.parametrize("dim", [2, 3, 10, 100])
def test_rosenbrock_matches_reference_bitwise(dim):
    rng = np.random.default_rng(2000 + dim)
    problem = RosenbrockProblem(dim)
    for theta, v in _pin_cases(dim, rng):
        _assert_same_bits(problem, rosenbrock_ref, theta, v)


@pytest.mark.parametrize("dim", [1, 2, 3, 10, 100])
def test_quadratic_matches_reference_bitwise(dim):
    rng = np.random.default_rng(3000 + dim)
    problem = QuadraticProblem(dim, curvatures=rng.uniform(0.1, 10.0, dim),
                               center=rng.standard_normal(dim))
    for theta, v in _pin_cases(dim, rng):
        _assert_same_bits(problem, quadratic_ref, theta, v)


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

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_non_integer_dim_rejected(self, name):
        # Truncating would build a problem of another dimension than asked.
        with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
            make_problem(name, 2.5)
        with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
            initial_point(name, 2.5)
        # numpy integers are integers.
        assert make_problem(name, np.int64(3)).dim == 3
        assert initial_point(name, np.int32(3)).shape == (3,)

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

    def test_analytic_hvp_passes_through_untouched(self):
        # hvp_or_fallback on a problem with an analytic hvp returns the
        # analytic result untouched, also through the two wrappers.
        q = QuadraticProblem(3)
        theta = np.zeros(3)
        v = np.array([1.0, -2.0, 0.5])
        for obj, want in [
            (q, q.hvp(theta, v)),
            (Negated(q), -q.hvp(theta, v)),
            (CountingObjective(q), q.hvp(theta, v)),
        ]:
            np.testing.assert_array_equal(hvp_or_fallback(obj, theta, v), want)
