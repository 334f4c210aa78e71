"""Warped-metric algebra: cache values, metric identities, projections,
curvature scalars, and the geodesic jet."""

import numpy as np
import pytest

from warpcg import FdConfig, Objective, QuadraticProblem, SquiggleProblem, WarpConfig
from warpcg.errors import PsiDegenerate
from warpcg.geometry import (
    build_cache,
    metric_inner,
    metric_norm,
    riemannian_gradient,
    taylor_coefficients,
)
from warpcg.objective import CountingObjective
from warpcg.oracle import (
    embed_tangent,
    geodesic_acceleration,
    inverse_metric_apply,
    normal_vector,
    project_to_tangent,
    second_fundamental_form,
)

FD = FdConfig()


class Bowl(Objective):
    """f = -1/2 |theta|^2: gradient -theta, Hessian -I. At theta = (1, 0)
    with sigma^2 = 1 every warp quantity is a small rational number."""

    def __init__(self, dim=2):
        super().__init__(dim)

    def value(self, theta):
        return -0.5 * float(theta @ theta)

    def grad(self, theta):
        return -np.asarray(theta, dtype=float)

    def hvp(self, theta, v):
        return -np.asarray(v, dtype=float)


def bowl_cache():
    return build_cache(Bowl(), WarpConfig(1.0), np.array([1.0, 0.0]), FD)


def dense_metric_of(cache):
    d = cache.dim
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
        assert c.w_sigma_sq == 2.0
        assert c.psi_sq == 0.5
        assert c.w_sq == 1.5
        np.testing.assert_allclose(c.grad_psi_sq, [0.5, 0.0], rtol=1e-15)
        np.testing.assert_allclose(riemannian_gradient(c), [-2.0 / 3.0, 0.0], rtol=1e-15)
        assert c.grad_norm_riem == pytest.approx(np.sqrt(1.0 / 1.5), rel=1e-15)

    def test_critical_point_limits(self):
        c = build_cache(Bowl(), WarpConfig(1.0), np.zeros(2), FD)
        assert c.psi_sq == 0.0
        assert c.w_sq == 1.0
        np.testing.assert_array_equal(riemannian_gradient(c), np.zeros(2))
        assert c.grad_norm_riem == 0.0

    def test_flat_limit_large_sigma(self):
        c = build_cache(Bowl(), WarpConfig(1e12), np.array([1.0, 0.0]), FD)
        assert c.psi_sq == pytest.approx(1e-12, rel=1e-6)
        x, y = np.array([0.3, -0.7]), np.array([1.5, 0.2])
        assert metric_inner(c, x, y) == pytest.approx(float(x @ y), rel=1e-11)

    def test_value_grad_reuse(self):
        counted = CountingObjective(Bowl())
        theta = np.array([1.0, 0.0])
        build_cache(counted, WarpConfig(1.0), theta, FD, value_grad=(-0.5, np.array([-1.0, 0.0])))
        assert counted.counts.n_value == 0
        assert counted.counts.n_grad == 0
        assert counted.counts.n_hvp == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_cache(Bowl(), WarpConfig(1.0), np.zeros(3), FD)


class TestMetricIdentities:
    """Randomized algebra checks against the dense rank-one metric."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.problem = SquiggleProblem(7)

    def test_inner_matches_dense(self):
        for _ in range(50):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(7), FD)
            G = dense_metric_of(c)
            x, y = self.rng.standard_normal(7), self.rng.standard_normal(7)
            np.testing.assert_allclose(
                metric_inner(c, x, y), float(x @ G @ y), rtol=1e-12, atol=1e-12
            )

    def test_inverse_roundtrip_both_ways(self):
        for _ in range(50):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(7), FD)
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
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(7), FD)
            x = self.rng.standard_normal(7)
            assert metric_inner(c, x, x) > 0
            assert metric_norm(c, x) == pytest.approx(np.sqrt(metric_inner(c, x, x)))

    def test_gradient_duality(self):
        # Warped pairing of the Riemannian gradient with any tangent vector
        # collapses to the plain Euclidean pairing with the raw gradient.
        for _ in range(50):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(7), FD)
            v = self.rng.standard_normal(7)
            lhs = metric_inner(c, riemannian_gradient(c), v)
            rhs = float(c.grad @ v)
            scale = np.linalg.norm(c.grad) * np.linalg.norm(v)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)

    def test_gradient_norm_identity(self):
        for _ in range(50):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(7), FD)
            g = riemannian_gradient(c)
            np.testing.assert_allclose(
                metric_inner(c, g, g), c.grad_sq / c.w_sq, rtol=1e-12
            )


class TestNormalVector:
    def test_one_dimensional_closed_form(self):
        c = build_cache(Bowl(dim=1), WarpConfig(1.0), np.array([1.0]), FD)
        n = normal_vector(c)
        np.testing.assert_allclose(n, [1.0 / np.sqrt(3.0), 2.0 / np.sqrt(3.0)], rtol=1e-14)

    def test_unit_norm_and_orthogonality(self):
        rng = np.random.default_rng(3)
        sq = SquiggleProblem(5)
        for _ in range(25):
            c = build_cache(sq, WarpConfig(1.0), rng.standard_normal(5), FD)
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
        c = build_cache(Bowl(), WarpConfig(1.0), np.zeros(2), FD)
        with pytest.raises(PsiDegenerate):
            normal_vector(c)


class TestProjection:
    def setup_method(self):
        self.rng = np.random.default_rng(17)
        self.problem = SquiggleProblem(4)

    def test_tangent_vectors_are_fixed(self):
        # Embedding a chart vector and projecting back is the identity.
        for _ in range(30):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(4), FD)
            v = self.rng.standard_normal(4)
            got = project_to_tangent(c, embed_tangent(c, v))
            np.testing.assert_allclose(got, v, rtol=1e-11, atol=1e-11 * np.linalg.norm(c.grad @ v * c.grad + v))

    def test_normal_projects_to_zero(self):
        for _ in range(10):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(4), FD)
            n = normal_vector(c)
            got = project_to_tangent(c, n)
            np.testing.assert_allclose(got, np.zeros(4), atol=1e-12 * max(1.0, np.max(np.abs(n))))

    def test_matches_dense_least_squares(self):
        for _ in range(30):
            c = build_cache(self.problem, WarpConfig(1.0), self.rng.standard_normal(4), FD)
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
        one = second_fundamental_form(Bowl(), c, v, FD)
        two = second_fundamental_form(Bowl(), c, 2.0 * v, FD)
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_normalized_matches_dense_form(self):
        # Dense reference: (W/psi)-normalized curvature via the rank-one
        # matrix assembly, evaluated with outer products.
        rng = np.random.default_rng(23)
        sq = SquiggleProblem(3)
        for _ in range(20):
            theta = rng.standard_normal(3)
            c = build_cache(sq, WarpConfig(1.0), theta, FD)
            if c.psi_sq == 0.0:
                continue
            v = rng.standard_normal(3)
            psi = np.sqrt(c.psi_sq)
            w = np.sqrt(c.w_sq)
            hess = np.column_stack([sq.hvp(theta, e) for e in np.eye(3)])
            grad_psi = c.grad_psi_sq / (2.0 * psi)
            m = (
                (2.0 / w) * np.outer(grad_psi, c.grad)
                + (psi / w) * hess
                + (psi / (2.0 * w)) * float(c.grad_psi_sq @ c.grad) * np.outer(c.grad, c.grad)
            )
            got = second_fundamental_form(sq, c, v, FD, normalized=True)
            want = float(v @ ((m + m.T) / 2.0) @ v)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_normalized_scale_relation(self):
        c = bowl_cache()
        v = np.array([1.3, 0.2])
        scaled = second_fundamental_form(Bowl(), c, v, FD)
        normalized = second_fundamental_form(Bowl(), c, v, FD, normalized=True)
        assert normalized == pytest.approx(np.sqrt(c.w_sq / c.psi_sq) * scaled, rel=1e-14)

    def test_degenerate_normalization(self):
        c = build_cache(Bowl(), WarpConfig(1.0), np.zeros(2), FD)
        with pytest.raises(PsiDegenerate):
            second_fundamental_form(Bowl(), c, np.array([1.0, 0.0]), FD, normalized=True)
        # The scaled variant stays finite (zero) there.
        assert second_fundamental_form(Bowl(), c, np.array([1.0, 0.0]), FD) == 0.0


class TestGeodesicAcceleration:
    def test_worked_example(self):
        c = bowl_cache()
        acc = geodesic_acceleration(Bowl(), c, np.array([1.0, 0.0]), FD)
        assert acc.coef_grad == pytest.approx(-0.75, rel=1e-14)
        assert acc.coef_warp == pytest.approx(0.5, rel=1e-14)
        np.testing.assert_allclose(acc.v_dot, [-0.5, 0.0], rtol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        sq = SquiggleProblem(4)
        for _ in range(10):
            c = build_cache(sq, WarpConfig(1.0), rng.standard_normal(4), FD)
            v = rng.standard_normal(4)
            acc = geodesic_acceleration(sq, c, v, FD)
            want = -acc.coef_grad * c.grad + acc.coef_warp * c.grad_psi_sq
            np.testing.assert_array_equal(acc.v_dot, want)

    def test_curvature_scalar_is_acceleration_coefficient(self):
        c = bowl_cache()
        v = np.array([0.7, -0.4])
        acc = geodesic_acceleration(Bowl(), c, v, FD)
        s = second_fundamental_form(Bowl(), c, v, FD)
        assert s == acc.coef_grad


class TestTaylorCoefficients:
    def test_worked_example(self):
        c = bowl_cache()
        jet = taylor_coefficients(Bowl(), c, np.array([0.0, 1.0]), FD)
        np.testing.assert_allclose(jet.q, [-1.0 / 3.0, 0.0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(jet.k, [0.0, -1.0 / 3.0], rtol=1e-6, atol=1e-9)

    def test_q_equals_geodesic_acceleration(self):
        rng = np.random.default_rng(12)
        sq = SquiggleProblem(5)
        for _ in range(10):
            c = build_cache(sq, WarpConfig(1.0), rng.standard_normal(5), FD)
            v = rng.standard_normal(5)
            jet = taylor_coefficients(sq, c, v, FD)
            acc = geodesic_acceleration(sq, c, v, FD)
            np.testing.assert_array_equal(jet.q, acc.v_dot)

    def test_critical_point_gives_straight_line(self):
        c = build_cache(Bowl(), WarpConfig(1.0), np.zeros(2), FD)
        jet = taylor_coefficients(Bowl(), c, np.array([0.3, 0.8]), FD)
        np.testing.assert_array_equal(jet.q, np.zeros(2))
        np.testing.assert_array_equal(jet.k, np.zeros(2))

    def test_zero_direction_short_circuits(self):
        counted = CountingObjective(Bowl())
        c = build_cache(counted, WarpConfig(1.0), np.array([1.0, 0.0]), FD)
        before = counted.counts.snapshot()
        jet = taylor_coefficients(counted, c, np.zeros(2), FD)
        np.testing.assert_array_equal(jet.q, np.zeros(2))
        np.testing.assert_array_equal(jet.k, np.zeros(2))
        assert counted.counts.n_hvp == before.n_hvp
        assert counted.counts.n_grad == before.n_grad

    def test_budget_is_five_hvps_two_grads(self):
        counted = CountingObjective(SquiggleProblem(4))
        c = build_cache(counted, WarpConfig(1.0), np.array([1.0, -2.0, 0.5, 0.3]), FD)
        before = counted.counts.snapshot()
        taylor_coefficients(counted, c, np.array([0.2, 1.0, -0.4, 0.1]), FD)
        assert counted.counts.n_hvp - before.n_hvp == 5
        assert counted.counts.n_grad - before.n_grad == 2
        assert counted.counts.n_value - before.n_value == 0

    def test_quadratic_jet_against_quadratic_geometry(self):
        # On an isotropic quadratic the whole geometry is rotationally
        # symmetric around the center; the jet must stay in the plane
        # spanned by the start point and the direction.
        quad = QuadraticProblem(3, curvatures=np.ones(3))
        c = build_cache(quad, WarpConfig(1.0), np.array([1.0, 0.0, 0.0]), FD)
        jet = taylor_coefficients(quad, c, np.array([0.0, 1.0, 0.0]), FD)
        assert jet.q[2] == pytest.approx(0.0, abs=1e-12)
        assert jet.k[2] == pytest.approx(0.0, abs=1e-9)
