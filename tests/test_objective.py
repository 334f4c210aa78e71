"""Objective contract, finite-difference step, and derivative utilities."""

import dataclasses

import numpy as np
import pytest

from warpcg import (
    Objective,
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
from warpcg.errors import NumericalBreakdown
from warpcg.geometry import build_cache
from warpcg.objective import FD_STEP, CountingObjective, _check_finite, fd_step, hvp_or_fallback
from oracle import Bowl, cache_at, central_diff_grad, normal_vector, third_directional_derivative
from recording import jet_hvps, recorded
from warpcg.retraction import vector_transport


class Negated(Objective):
    """Flips the sign of another objective, forwarding hvp alone."""

    def __init__(self, inner):
        super().__init__(inner.dim)
        self.inner = inner

    def value(self, theta):
        return -self.inner.value(theta)

    def grad(self, theta):
        return -self.inner.grad(theta)

    def hvp(self, theta, v):
        return -self.inner.hvp(theta, v)


class GradOnlyView(Objective):
    """Exposes only value and grad of another objective, so its hvp comes
    from the central-difference fallback."""

    def __init__(self, inner):
        super().__init__(inner.dim)
        self.inner = inner

    def value(self, theta):
        return self.inner.value(theta)

    def grad(self, theta):
        return self.inner.grad(theta)


class ListGradView(GradOnlyView):
    """A grad-only view whose gradient is a plain list, as the contract's
    array-like return allows."""

    def grad(self, theta):
        return self.inner.grad(theta).tolist()


class Forwarding(GradOnlyView):
    """A user wrapper that forwards value, grad and hvp, and nothing else."""

    def hvp(self, theta, v):
        return self.inner.hvp(theta, v)


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


class NanGrad(Objective):
    """Finite value; gradient NaN at index bad and inf at every later index."""

    def __init__(self, dim, bad):
        super().__init__(dim)
        self.bad = bad

    def value(self, theta):
        return 0.0

    def grad(self, theta):
        out = np.ones(self.dim)
        out[self.bad + 1:] = np.inf
        out[self.bad] = np.nan
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


class TestFdStep:
    """The one finite-difference setting: the constant FD_STEP, scaled to
    the point and the direction by fd_step."""

    def test_default_step_is_cbrt_eps(self):
        assert FD_STEP == float(np.cbrt(np.finfo(np.float64).eps))

    def test_scaled_step(self):
        theta = np.array([3.0, 4.0])  # norm 5
        v = np.array([0.0, 10.0])
        assert fd_step(theta, v) == pytest.approx(FD_STEP * 5.0 / 10.0)
        # Both norms below 1 clamp to 1.
        assert fd_step(np.zeros(2), np.array([0.1, 0.0])) == FD_STEP

    @pytest.mark.parametrize("dim", [1, 3, 100, 10_000])
    def test_scaled_step_equals_linalg_norm_formula(self, dim):
        # The reference is the formula with np.linalg.norm; the step must
        # match it bit for bit, so traces do not depend on how it is computed.
        rng = np.random.default_rng(dim)
        for _ in range(60):
            theta = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            want = FD_STEP * max(1.0, np.linalg.norm(theta)) / max(1.0, np.linalg.norm(v))
            assert fd_step(theta, v) == want


class TestObjectiveContract:
    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            Bowl(dim=0)

    def test_fallback_matches_analytic(self):
        rng = np.random.default_rng(11)
        rb = RosenbrockProblem(5)
        for _ in range(10):
            theta = rng.standard_normal(5)
            v = rng.standard_normal(5)
            got = hvp_or_fallback(GradOnlyView(rb), theta, v)
            want = rb.hvp(theta, v)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_fallback_zero_direction(self):
        # Both probes are theta itself, so the central difference is 0.
        out = hvp_or_fallback(GradOnlyView(Bowl(3)), np.ones(3), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_nan_hvp_raises_with_component(self):
        with pytest.raises(NumericalBreakdown) as info:
            hvp_or_fallback(PoisonHvp(), np.zeros(3), np.ones(3))
        assert info.value.component == 1

    def test_wrapper_forwarding_hvp_falls_back(self):
        # The inner hvp's NotImplementedError reaches hvp_or_fallback through
        # the wrapper, so the wrapper needs to forward nothing else.
        inner = GradOnlyView(RosenbrockProblem(4))
        wrapped = Forwarding(inner)
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.standard_normal(4)
            v = rng.standard_normal(4)
            got = hvp_or_fallback(wrapped, theta, v)
            np.testing.assert_array_equal(got, hvp_or_fallback(inner, theta, v))
        res = run_rcg(wrapped, initial_point("rosenbrock", 4), cfg=RcgConfig(max_iters=50))
        assert res.stop_reason is not None
        assert res.n_hvp == 0


@pytest.mark.parametrize("dim", [2, 10])
@pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
def test_fallback_matches_central_difference_bitwise(name, dim):
    # The fallback's bits are those of the central difference written out.
    # That it writes into no gradient the objective returned is checked by
    # test_rcg.py::test_objective_outputs_and_start_stay_untouched.
    problem = make_problem(name, dim)
    rng = np.random.default_rng(dim)
    for _ in range(20):
        theta = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
        v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
        r = fd_step(theta, v)
        want = (problem.grad(theta + r * v) - problem.grad(theta - r * v)) / (2.0 * r)
        got = hvp_or_fallback(GradOnlyView(problem), theta, v)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 10])
@pytest.mark.parametrize("name", ["squiggle", "rosenbrock"])
def test_fallback_route_counts_exactly(name, dim):
    # Every hvp goes through the fallback: the jet's four hvps are two
    # gradients each, the jet calls no gradient of its own, and a cache
    # build calls no hvp, so an iteration spends 4 * 2 = 8 gradients beyond
    # its line search when its start point has psi^2 ||grad||^2 >= FLAT_WARP,
    # and none below it, where the jet is the straight ray; each run has
    # rows of both kinds. Only the line search evaluates values, so the run's
    # value count is the start's one plus its rows' search evaluations. A
    # gradient returned as a list runs the same route to the same bits.
    recorded_runs = [
        recorded(
            run_rcg,
            view(make_problem(name, dim)),
            initial_point(name, dim),
            cfg=RcgConfig(tol_df=0.0, max_iters=1000),
        )
        for view in (GradOnlyView, ListGradView)
    ]
    for res, recording in recorded_runs:
        assert res.stop_reason is StopReason.SMALL_GRAD
        assert res.n_hvp == 0
        assert res.failed_attempts == 0
        assert res.n_value == 1 + sum(row.ls_evals for row in res.trace)
        assert recording.builds_per_step() == [1] * res.iterations
        starts = recording.accepted_starts()
        assert {jet_hvps(p) for p in starts} == {0, 4}
        for row, start in zip(res.trace, starts):
            assert row.n_hvp == 0
            assert row.n_grad == row.ls_evals + 2 * jet_hvps(start)
    runs = [res for res, _ in recorded_runs]
    assert runs[1].theta.tobytes() == runs[0].theta.tobytes()
    assert runs[1].n_grad == runs[0].n_grad


def _nan_cache_gradient(dim, bad):
    cache_at(NanGrad(dim, bad), WarpConfig(), np.zeros(dim))


def _nan_flat_gradient(dim, bad):
    run_euclidean_cg(NanGrad(dim, bad), np.zeros(dim))


def _overflowing_transport(dim, bad):
    # With a zero gradient at dst the transport is the plain secant
    # -(src - dst) / t, so a 1e300 displacement over t = 1e-300 overflows
    # exactly entries bad:. src's non-zero gradient gives it psi^2 > 0, which
    # keeps the pair off the identity-metric shortcut.
    src = np.zeros(dim)
    src[bad:] = 1e300
    src_cache = build_cache(WarpConfig(), src, 0.0, np.ones(dim))
    dst_cache = build_cache(WarpConfig(), np.zeros(dim), 0.0, np.zeros(dim))
    with np.errstate(over="ignore"):
        vector_transport(src_cache, dst_cache, np.ones(dim), 1e-300, 0.0)


def _inf_normal_vector(dim, bad):
    # A finite cache whose gradient then gains inf entries from index bad on.
    cache = build_cache(WarpConfig(), np.zeros(dim), 0.0, np.ones(dim))
    grad = cache.grad.copy()
    grad[bad:] = np.inf
    normal_vector(dataclasses.replace(cache, grad=grad))


@pytest.mark.parametrize("bad", [0, 2, 4])
@pytest.mark.parametrize(
    "provoke, message",
    [
        (_nan_cache_gradient, "non-finite gradient"),
        (_overflowing_transport, "non-finite transported vector"),
        (_nan_flat_gradient, "non-finite gradient"),
        (_inf_normal_vector, "non-finite normal vector"),
    ],
    ids=["build_cache", "vector_transport", "flat_point", "normal_vector"],
)
def test_nonfinite_array_names_first_component(provoke, message, bad):
    with pytest.raises(NumericalBreakdown) as info:
        provoke(5, bad)
    assert type(info.value) is NumericalBreakdown
    assert info.value.component == bad
    assert str(info.value) == f"{message} (first bad component: {bad})"


class TestCheckFinite:
    """_check_finite screens with a self-dot; the screen alone would reject
    finite arrays whose self-dot overflows, so its fallback must rule."""

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([1e200, 1.0, -1e200]),
            np.full(4, 1e155),
            np.array([[1.0], [-2.0], [3.0]]),
            np.array([[1e200], [0.0]]),
            np.zeros(0),
        ],
        ids=["self_dot_overflows", "all_large", "column", "column_overflows", "empty"],
    )
    def test_finite_array_returned_unchanged(self, arr):
        before = arr.copy()
        assert _check_finite(arr, "thing") is arr
        np.testing.assert_array_equal(arr, before)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_nonfinite_entry_names_its_index(self, bad_value, j):
        arr = np.linspace(-1e200, 1e200, 7)
        arr[j] = bad_value
        with pytest.raises(NumericalBreakdown) as info:
            _check_finite(arr, "thing")
        assert info.value.component == j
        assert str(info.value) == f"non-finite thing (first bad component: {j})"

    def test_first_of_several_is_named(self):
        arr = np.array([1.0, 2.0, np.inf, np.nan, -np.inf])
        with pytest.raises(NumericalBreakdown) as info:
            _check_finite(arr, "thing")
        assert info.value.component == 2


class TestThirdDerivative:
    def test_cubic_value_is_six(self):
        out = third_directional_derivative(
            Cubic1D(), np.array([0.7]), np.array([1.0]), np.array([1.0])
        )
        np.testing.assert_allclose(out, [6.0], rtol=1e-7)

    def test_slot_symmetry(self):
        # D^3 f [v, w, .] == D^3 f [w, v, .] for smooth objectives.
        rng = np.random.default_rng(5)
        sq = SquiggleProblem(4)
        for _ in range(5):
            theta = rng.standard_normal(4)
            v = rng.standard_normal(4)
            w = rng.standard_normal(4)
            vw = third_directional_derivative(sq, theta, v, w)
            wv = third_directional_derivative(sq, theta, w, v)
            np.testing.assert_allclose(vw, wv, rtol=1e-5, atol=1e-6)

    def test_zero_direction(self):
        out = third_directional_derivative(
            Cubic1D(), np.array([1.0]), np.array([0.0]), np.array([1.0])
        )
        np.testing.assert_array_equal(out, [0.0])


class TestAdapters:
    def test_negated_flips_everything(self):
        rb = RosenbrockProblem(3)
        neg = Negated(rb)
        theta = np.array([0.3, -0.2, 1.1])
        v = np.array([1.0, 2.0, -0.5])
        assert neg.value(theta) == -rb.value(theta)
        np.testing.assert_array_equal(neg.grad(theta), -rb.grad(theta))
        np.testing.assert_array_equal(neg.hvp(theta, v), -rb.hvp(theta, v))

    def test_negated_without_hvp(self):
        neg = Negated(GradOnlyView(Bowl(3)))
        with pytest.raises(NotImplementedError):
            neg.hvp(np.zeros(3), np.ones(3))

    def test_counting_wrapper(self):
        counted = CountingObjective(RosenbrockProblem(2))
        theta = np.zeros(2)
        counted.value(theta)
        counted.grad(theta)
        counted.grad(theta)
        counted.hvp(theta, np.ones(2))
        assert (counted.n_value, counted.n_grad, counted.n_hvp) == (1, 2, 1)
        counted.value(theta)
        assert counted.n_value == 2


def test_central_diff_grad_matches_analytic():
    sq = SquiggleProblem(3)
    theta = np.array([0.4, -1.2, 0.9])
    got = central_diff_grad(sq, theta, 1e-6)
    np.testing.assert_allclose(got, sq.grad(theta), rtol=1e-6, atol=1e-8)
