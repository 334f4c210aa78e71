"""Warped-metric algebra: cache values, metric identities, projections,
curvature scalars, and the geodesic jet."""

import numpy as np
import pytest

from warpcg import (
    Objective,
    QuadraticProblem,
    SquiggleProblem,
    StopReason,
    WarpConfig,
    make_problem,
    run_euclidean_cg,
    run_rcg,
)
from warpcg.errors import NumericalBreakdown
from warpcg.geometry import build_cache, riemannian_gradient, taylor_coefficients
from warpcg.objective import CountingObjective, fd_step
from oracle import (
    Bowl,
    PsiDegenerate,
    cache_at,
    embed_tangent,
    exact_hessian_jet,
    geodesic_acceleration,
    inverse_metric_apply,
    metric_inner,
    metric_norm,
    normal_vector,
    project_to_tangent,
    second_fundamental_form,
    warp_gradient,
)
from warpcg.retraction import retract


def bowl_cache():
    return cache_at(Bowl(), WarpConfig(1.0), np.array([1.0, 0.0]))


def dense_metric_of(cache):
    d = cache.theta.size
    return np.eye(d) + cache.psi_sq * np.outer(cache.grad, cache.grad)


class TestWarpConfig:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            WarpConfig(sigma_sq=0.0)
        with pytest.raises(ValueError):
            WarpConfig(sigma_sq=-2.0)
        with pytest.raises(ValueError):
            WarpConfig(sigma_sq=np.inf)


class TestCacheValues:
    def test_worked_example(self):
        c = bowl_cache()
        assert c.value == -0.5
        np.testing.assert_array_equal(c.grad, [-1.0, 0.0])
        assert c.grad_sq == 1.0
        assert c.psi_sq == 0.5
        assert c.w_sq == 1.5
        np.testing.assert_allclose(
            warp_gradient(Bowl(), WarpConfig(1.0), c), [0.5, 0.0], rtol=1e-15
        )
        np.testing.assert_allclose(riemannian_gradient(c), [-2.0 / 3.0, 0.0], rtol=1e-15)
        assert c.grad_norm_riem == pytest.approx(np.sqrt(1.0 / 1.5), rel=1e-15)

    def test_critical_point_limits(self):
        c = cache_at(Bowl(), WarpConfig(1.0), np.zeros(2))
        assert c.psi_sq == 0.0
        assert c.w_sq == 1.0
        np.testing.assert_array_equal(riemannian_gradient(c), np.zeros(2))
        assert c.grad_norm_riem == 0.0

    def test_flat_limit_large_sigma(self):
        c = cache_at(Bowl(), WarpConfig(1e12), np.array([1.0, 0.0]))
        assert c.psi_sq == pytest.approx(1e-12, rel=1e-6)
        x, y = np.array([0.3, -0.7]), np.array([1.5, 0.2])
        assert metric_inner(c, x, y) == pytest.approx(float(x @ y), rel=1e-11)


class TestOverflowingGradient:
    """A gradient such as (1e200, 1e200) has finite entries, but its squared
    norm overflows, which would leave psi^2, W^2 and the Riemannian norm
    NaN. Both metrics refuse such a point, as they refuse a NaN gradient."""

    def test_both_point_builders_raise(self):
        for warp in (WarpConfig(1.0), None):
            with np.errstate(over="ignore"), pytest.raises(NumericalBreakdown) as info:
                build_cache(warp, np.zeros(2), 0.0, np.array([1e200, 1e200]))
            assert str(info.value) == "non-finite squared gradient norm"
            assert info.value.component is None

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_start_raises_from_both_drivers(self, run):
        # As a start whose value is not finite does: the start's point is
        # built before the loop that reports breakdowns.
        problem = QuadraticProblem(2, curvatures=np.array([1e200, 1e200]))
        with np.errstate(over="ignore"), pytest.raises(NumericalBreakdown):
            run(problem, np.ones(2))

    @pytest.mark.parametrize("run", [run_rcg, run_euclidean_cg])
    def test_mid_run_point_stops_the_run(self, run):
        # Every gradient off the origin is (2^665, -2^665), about 1e200: the
        # first trial along the ray (1, 1) has slope 0, a Wolfe point, and
        # its squared gradient norm overflows. The run stops on
        # NUMERICAL_BREAKDOWN at the start, the last good iterate. A power
        # of two makes each product with the direction exact, so the slope
        # is 0 however the dot product is fused.
        class Cliff(Objective):
            def __init__(self):
                super().__init__(2)

            def value(self, theta):
                return float(theta.sum())

            def grad(self, theta):
                return np.array([2.0**665, -(2.0**665)]) if theta.any() else np.ones(2)

            def hvp(self, theta, v):
                return np.zeros(2)

        with np.errstate(over="ignore"):
            res = run(Cliff(), np.zeros(2))
        assert res.stop_reason == StopReason.NUMERICAL_BREAKDOWN
        assert res.iterations == 0
        assert (res.n_value, res.n_grad) == (2, 2)
        np.testing.assert_array_equal(res.theta, np.zeros(2))
        assert res.grad_norm_eucl == np.sqrt(2.0)


class TestMetricIdentities:
    """Randomized algebra checks against the dense rank-one metric."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.problem = SquiggleProblem(7)

    def test_inner_matches_dense(self):
        for _ in range(50):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(7))
            G = dense_metric_of(c)
            x, y = self.rng.standard_normal(7), self.rng.standard_normal(7)
            np.testing.assert_allclose(
                metric_inner(c, x, y), float(x @ G @ y), rtol=1e-12, atol=1e-12
            )

    def test_inverse_roundtrip_both_ways(self):
        for _ in range(50):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(7))
            G = dense_metric_of(c)
            x = self.rng.standard_normal(7)
            gx = G @ x
            np.testing.assert_allclose(
                inverse_metric_apply(c, gx), x, rtol=1e-12, atol=1e-12 * np.linalg.norm(gx)
            )
            np.testing.assert_allclose(
                G @ inverse_metric_apply(c, x), x, rtol=1e-12, atol=1e-12 * np.linalg.norm(x)
            )

    def test_positive_definite(self):
        for _ in range(20):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(7))
            x = self.rng.standard_normal(7)
            assert metric_inner(c, x, x) > 0
            # The same products in the same order, so the same bits.
            assert metric_norm(c, x) == np.sqrt(metric_inner(c, x, x))

    def test_gradient_duality(self):
        # Warped pairing of the Riemannian gradient with any tangent vector
        # collapses to the plain Euclidean pairing with the raw gradient.
        for _ in range(50):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(7))
            v = self.rng.standard_normal(7)
            lhs = metric_inner(c, riemannian_gradient(c), v)
            rhs = float(c.grad @ v)
            scale = np.linalg.norm(c.grad) * np.linalg.norm(v)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)

    def test_gradient_norm_identity(self):
        for _ in range(50):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(7))
            g = riemannian_gradient(c)
            np.testing.assert_allclose(
                metric_inner(c, g, g), c.grad_sq / c.w_sq, rtol=1e-12
            )


class TestNormalVector:
    def test_one_dimensional_closed_form(self):
        c = cache_at(Bowl(dim=1), WarpConfig(1.0), np.array([1.0]))
        n = normal_vector(c)
        np.testing.assert_allclose(n, [1.0 / np.sqrt(3.0), 2.0 / np.sqrt(3.0)], rtol=1e-14)

    def test_unit_norm_and_orthogonality(self):
        rng = np.random.default_rng(3)
        sq = SquiggleProblem(5)
        for _ in range(25):
            c = cache_at(sq, WarpConfig(1.0), rng.standard_normal(5))
            n = normal_vector(c)
            norm_sq = float(n[:-1] @ n[:-1]) + c.psi_sq * n[-1] ** 2
            assert norm_sq == pytest.approx(1.0, abs=1e-12)
            for i in range(5):
                basis = np.zeros(6)
                basis[i] = 1.0
                basis[-1] = c.grad[i]
                inner = float(n[:-1] @ basis[:-1]) + c.psi_sq * n[-1] * basis[-1]
                assert abs(inner) <= 1e-12 * max(1.0, abs(c.grad[i]))

    def test_degenerate_at_critical_point(self):
        c = cache_at(Bowl(), WarpConfig(1.0), np.zeros(2))
        with pytest.raises(PsiDegenerate):
            normal_vector(c)


class TestProjection:
    def setup_method(self):
        self.rng = np.random.default_rng(17)
        self.problem = SquiggleProblem(4)

    def test_tangent_vectors_are_fixed(self):
        # Embedding a chart vector and projecting back is the identity.
        for _ in range(30):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(4))
            v = self.rng.standard_normal(4)
            got = project_to_tangent(c, embed_tangent(c, v))
            np.testing.assert_allclose(got, v, rtol=1e-11, atol=1e-11 * np.linalg.norm(c.grad @ v * c.grad + v))

    def test_normal_projects_to_zero(self):
        for _ in range(10):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(4))
            n = normal_vector(c)
            got = project_to_tangent(c, n)
            np.testing.assert_allclose(got, np.zeros(4), atol=1e-12 * max(1.0, np.max(np.abs(n))))

    def test_matches_dense_least_squares(self):
        for _ in range(30):
            c = cache_at(self.problem, WarpConfig(1.0), self.rng.standard_normal(4))
            z = self.rng.standard_normal(5)
            embed = np.vstack([np.eye(4), c.grad[None, :]])
            weights = np.diag(np.append(np.ones(4), c.psi_sq))
            dense = np.linalg.solve(embed.T @ weights @ embed, embed.T @ weights @ z)
            np.testing.assert_allclose(project_to_tangent(c, z), dense, rtol=1e-10, atol=1e-12)

    def test_wrong_length_rejected(self):
        c = bowl_cache()
        with pytest.raises(ValueError):
            project_to_tangent(c, np.zeros(4))


class TestCurvatureScalar:
    def test_quadratic_in_direction(self):
        c = bowl_cache()
        v = np.array([0.4, -0.9])
        one = second_fundamental_form(Bowl(), WarpConfig(1.0), c, v)
        two = second_fundamental_form(Bowl(), WarpConfig(1.0), c, 2.0 * v)
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_normalized_matches_dense_form(self):
        # Dense reference: (W/psi)-normalized curvature via the rank-one
        # matrix assembly, evaluated with outer products.
        rng = np.random.default_rng(23)
        sq = SquiggleProblem(3)
        for _ in range(20):
            theta = rng.standard_normal(3)
            c = cache_at(sq, WarpConfig(1.0), theta)
            if c.psi_sq == 0.0:
                continue
            v = rng.standard_normal(3)
            psi = np.sqrt(c.psi_sq)
            w = np.sqrt(c.w_sq)
            hess = np.column_stack([sq.hvp(theta, e) for e in np.eye(3)])
            grad_psi_sq = warp_gradient(sq, WarpConfig(1.0), c)
            grad_psi = grad_psi_sq / (2.0 * psi)
            m = (
                (2.0 / w) * np.outer(grad_psi, c.grad)
                + (psi / w) * hess
                + (psi / (2.0 * w)) * float(grad_psi_sq @ c.grad) * np.outer(c.grad, c.grad)
            )
            got = second_fundamental_form(sq, WarpConfig(1.0), c, v, normalized=True)
            want = float(v @ ((m + m.T) / 2.0) @ v)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_normalized_scale_relation(self):
        c = bowl_cache()
        v = np.array([1.3, 0.2])
        scaled = second_fundamental_form(Bowl(), WarpConfig(1.0), c, v)
        normalized = second_fundamental_form(Bowl(), WarpConfig(1.0), c, v, normalized=True)
        assert normalized == pytest.approx(np.sqrt(c.w_sq / c.psi_sq) * scaled, rel=1e-14)

    def test_degenerate_normalization(self):
        c = cache_at(Bowl(), WarpConfig(1.0), np.zeros(2))
        with pytest.raises(PsiDegenerate):
            second_fundamental_form(
                Bowl(), WarpConfig(1.0), c, np.array([1.0, 0.0]), normalized=True
            )
        # The scaled variant stays finite (zero) there.
        assert second_fundamental_form(Bowl(), WarpConfig(1.0), c, np.array([1.0, 0.0])) == 0.0


class TestGeodesicAcceleration:
    def test_worked_example(self):
        c = bowl_cache()
        acc = geodesic_acceleration(Bowl(), WarpConfig(1.0), c, np.array([1.0, 0.0]))
        assert acc.coef_grad == pytest.approx(-0.75, rel=1e-14)
        assert acc.coef_warp == pytest.approx(0.5, rel=1e-14)
        np.testing.assert_allclose(acc.v_dot, [-0.5, 0.0], rtol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        sq = SquiggleProblem(4)
        for _ in range(10):
            c = cache_at(sq, WarpConfig(1.0), rng.standard_normal(4))
            v = rng.standard_normal(4)
            acc = geodesic_acceleration(sq, WarpConfig(1.0), c, v)
            want = -acc.coef_grad * c.grad + acc.coef_warp * warp_gradient(sq, WarpConfig(1.0), c)
            np.testing.assert_array_equal(acc.v_dot, want)

    def test_curvature_scalar_is_acceleration_coefficient(self):
        c = bowl_cache()
        v = np.array([0.7, -0.4])
        acc = geodesic_acceleration(Bowl(), WarpConfig(1.0), c, v)
        s = second_fundamental_form(Bowl(), WarpConfig(1.0), c, v)
        assert s == acc.coef_grad


class Keeping(Objective):
    """Keeps every array it is handed, beside a copy, as an objective that
    caches its inputs may; without_hvp sends every hvp through the
    central-difference fallback."""

    def __init__(self, inner, without_hvp=False):
        super().__init__(inner.dim)
        self.inner = inner
        self.without_hvp = without_hvp
        self.kept = []

    def _keep(self, *arrays):
        self.kept.extend((a, a.copy()) for a in arrays)

    def value(self, theta):
        self._keep(theta)
        return self.inner.value(theta)

    def grad(self, theta):
        self._keep(theta)
        return self.inner.grad(theta)

    def hvp(self, theta, v):
        if self.without_hvp:
            raise NotImplementedError
        self._keep(theta, v)
        return self.inner.hvp(theta, v)


class TestTaylorCoefficients:
    def test_worked_example(self):
        c = bowl_cache()
        jet = taylor_coefficients(Bowl(), WarpConfig(1.0), c, np.array([0.0, 1.0]))
        np.testing.assert_allclose(jet.curv[0], [-1.0 / 3.0, 0.0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(jet.curv[1], [0.0, -1.0 / 3.0], rtol=1e-6, atol=1e-9)

    def test_q_equals_geodesic_acceleration(self):
        # The jet takes H v and H g at theta as the means of its probe pair
        # theta +- r v, with the H g probes taken along the first-order probe
        # gradients g +- r H v; given the same means, the oracle's
        # acceleration must agree to the bit.
        rng = np.random.default_rng(12)
        sq = SquiggleProblem(5)
        for _ in range(10):
            c = cache_at(sq, WarpConfig(1.0), rng.standard_normal(5))
            v = rng.standard_normal(5)
            jet = taylor_coefficients(sq, WarpConfig(1.0), c, v)
            r = fd_step(c.theta, v)
            probes = (c.theta + r * v, c.theta - r * v)
            hv_hi, hv_lo = (sq.hvp(th, v) for th in probes)
            step = (hv_hi + hv_lo) * (0.5 * r)
            hg_hi = sq.hvp(probes[0], c.grad + step)
            hg_lo = sq.hvp(probes[1], c.grad - step)
            hess_v = (hv_hi + hv_lo) / 2.0
            hess_grad = (hg_hi + hg_lo) / 2.0
            acc = geodesic_acceleration(
                sq, WarpConfig(1.0), c, v, hess_v=hess_v, hess_grad=hess_grad
            )
            np.testing.assert_array_equal(jet.curv[0], acc.v_dot)

    @pytest.mark.parametrize("sigma_sq", [1.0, 1e4])
    @pytest.mark.parametrize("dim", [2, 10, 100])
    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
    def test_probe_means_match_exact_hessian(self, name, dim, sigma_sq):
        # H v and H g at theta come from the probe means, accurate to O(r^2)
        # also with the H g probes taken along the first-order probe
        # gradients; q and k must stay within 1e-6 relative of a jet that
        # takes both products at theta itself. The largest deviation here
        # is 1.3e-8 (k on Rosenbrock).
        rng = np.random.default_rng([dim, int(sigma_sq)])
        problem = make_problem(name, dim)
        for _ in range(20):
            warp = WarpConfig(sigma_sq)
            c = cache_at(problem, warp, rng.standard_normal(dim))
            v = rng.standard_normal(dim)
            jet = taylor_coefficients(problem, warp, c, v)
            q, k = exact_hessian_jet(problem, warp, c, v)
            assert np.linalg.norm(jet.curv[0] - q) <= 1e-6 * np.linalg.norm(q)
            assert np.linalg.norm(jet.curv[1] - k) <= 1e-6 * np.linalg.norm(k)

    def test_critical_point_gives_straight_line(self):
        # The jet has no straight-ray gate of its own (the CG loop's _jet
        # takes the ray where psi^2 ||g||^2 = 0): at g = 0 it pays the four
        # hvps, and on a quadratic its H g pair cancels exactly, so every
        # term of the block carries a factor of g or of that pair. The curve
        # is the straight line, carried as an all-zero block.
        counted = CountingObjective(Bowl())
        c = cache_at(counted, WarpConfig(1.0), np.zeros(2))
        n_hvp = counted.n_hvp
        jet = taylor_coefficients(counted, WarpConfig(1.0), c, np.array([0.3, 0.8]))
        assert jet.curv.shape == (2, 2)
        assert not jet.curv.any()
        assert counted.n_hvp == n_hvp + 4

    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
    def test_zero_direction_gives_a_zero_block(self, name):
        # No test screens out a zero v: it pays the four hvps like any other
        # direction, and every term of its block carries a factor of v, so
        # the curve stays at theta.
        counted = CountingObjective(make_problem(name, 6))
        theta = np.random.default_rng(3).standard_normal(6)
        c = cache_at(counted, WarpConfig(1.0), theta)
        n_hvp, n_grad = counted.n_hvp, counted.n_grad
        jet = taylor_coefficients(counted, WarpConfig(1.0), c, np.zeros(6))
        assert jet.curv.shape == (2, 6)
        assert not jet.curv.any()
        assert (counted.n_hvp, counted.n_grad) == (n_hvp + 4, n_grad)
        np.testing.assert_array_equal(retract(jet, 0.7), c.theta)

    def test_budget_is_four_hvps_no_grads(self):
        counted = CountingObjective(SquiggleProblem(4))
        c = cache_at(counted, WarpConfig(1.0), np.array([1.0, -2.0, 0.5, 0.3]))
        assert counted.n_hvp == 0
        n_value, n_grad = counted.n_value, counted.n_grad
        taylor_coefficients(counted, WarpConfig(1.0), c, np.array([0.2, 1.0, -0.4, 0.1]))
        assert (counted.n_value, counted.n_grad, counted.n_hvp) == (n_value, n_grad, 4)

    @pytest.mark.parametrize("without_hvp", [False, True], ids=["hvp", "grad_only"])
    @pytest.mark.parametrize("name", ["squiggle", "rosenbrock", "quadratic"])
    def test_never_writes_into_an_array_it_passed_to_the_objective(self, name, without_hvp):
        # An objective may keep its inputs, so every probe point and every
        # direction the jet hands over must still hold its bits when the jet
        # returns.
        rng = np.random.default_rng(5)
        for _ in range(5):
            keeping = Keeping(make_problem(name, 6), without_hvp)
            c = cache_at(make_problem(name, 6), WarpConfig(1.0), rng.standard_normal(6))
            taylor_coefficients(keeping, WarpConfig(1.0), c, rng.standard_normal(6))
            # Four hvps keep a point and a direction each, or on the
            # fallback route two gradient points each.
            assert len(keeping.kept) == 8
            for kept, copy in keeping.kept:
                assert kept.tobytes() == copy.tobytes()

    def test_quadratic_jet_against_quadratic_geometry(self):
        # On an isotropic quadratic the whole geometry is rotationally
        # symmetric around the center; the jet must stay in the plane
        # spanned by the start point and the direction.
        quad = QuadraticProblem(3, curvatures=np.ones(3))
        c = cache_at(quad, WarpConfig(1.0), np.array([1.0, 0.0, 0.0]))
        jet = taylor_coefficients(quad, WarpConfig(1.0), c, np.array([0.0, 1.0, 0.0]))
        assert jet.curv[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert jet.curv[1, 2] == pytest.approx(0.0, abs=1e-9)
