"""Cubic retraction, curve velocity, directional derivatives, and the
backward-secant vector transport."""

import numpy as np
import pytest

from warpcg import SquiggleProblem, WarpConfig
from warpcg.errors import DegenerateStep
from warpcg.geometry import (
    GeodesicJet,
    GeometryCache,
    build_cache,
    taylor_coefficients,
)
from oracle import cache_at, metric_norm, project_to_tangent, transport_by_projection
from warpcg.retraction import (
    curve_velocity,
    directional_value_and_slope,
    retract,
    vector_transport,
)


def make_jet():
    theta = np.array([1.0, 0.0])
    v = np.array([0.2, 1.0])
    q = np.array([-0.3, 0.1])
    k = np.array([0.05, -0.02])
    return GeodesicJet(theta=theta, v=v, curv=np.stack([q, k]))


def quadratic_part(jet):
    """The jet truncated after q: its k row is zero."""
    return GeodesicJet(jet.theta, jet.v, np.stack([jet.curv[0], np.zeros_like(jet.v)]))


class TestRetract:
    def test_zero_time_is_identity(self):
        jet = make_jet()
        np.testing.assert_array_equal(retract(jet, 0.0), jet.theta)

    def test_polynomial_orders(self):
        jet = make_jet()
        ray = GeodesicJet(jet.theta, jet.v)
        bent = quadratic_part(jet)
        t = 0.7
        first = jet.theta + t * jet.v
        second = first + 0.5 * t * t * jet.curv[0]
        third = second + (t ** 3 / 6.0) * jet.curv[1]
        np.testing.assert_allclose(retract(ray, t), first, rtol=1e-15)
        np.testing.assert_allclose(retract(bent, t), second, rtol=1e-15)
        np.testing.assert_allclose(retract(jet, t), third, rtol=1e-15)


class TestJetLayout:
    def test_straight_ray_keeps_the_flat_arithmetic(self):
        # The flat driver's search curves: theta + t v to the bit, the plain
        # slope <grad, v>, and v itself as the velocity.
        sq = SquiggleProblem(4)
        theta = np.array([0.5, -1.0, 0.2, 0.8])
        v = np.array([1.0, 0.3, -0.2, 0.5])
        ray = GeodesicJet(theta, v)
        assert ray.curv is None
        for t in (0.0, 1e-9, 0.3, 1.7):
            assert retract(ray, t).tobytes() == (t * v + theta).tobytes()
            assert curve_velocity(ray, t) is v
            _, slope, point, grad = directional_value_and_slope(sq, ray, t)
            assert point.tobytes() == (t * v + theta).tobytes()
            assert slope == float(grad.dot(v))

    def test_cubic_jet_is_one_block_and_matches_per_term_sums(self):
        sq = SquiggleProblem(6)
        warp = WarpConfig(1.0)
        cache = cache_at(sq, warp, np.array([0.5, -1.0, 0.2, 0.8, 1.5, -0.3]))
        jet = taylor_coefficients(sq, warp, cache, np.array([1.0, 0.3, -0.2, 0.5, -0.7, 0.4]))
        assert jet.curv.shape == (2, 6) and jet.curv.flags.c_contiguous
        q, k = jet.curv
        for t in (0.1, 0.5, 1.0):
            # The one product sums the terms in another order, so each entry
            # may differ by a rounding of its largest term, and no more.
            terms = [jet.theta, t * jet.v, (0.5 * t * t) * q, (t ** 3 / 6.0) * k]
            point = terms[0] + terms[1] + terms[2] + terms[3]
            assert np.all(abs(retract(jet, t) - point) <= 1e-15 * sum(map(abs, terms)))
            terms = [jet.v, t * q, (0.5 * t * t) * k]
            velocity = terms[0] + terms[1] + terms[2]
            assert np.all(abs(curve_velocity(jet, t) - velocity) <= 1e-15 * sum(map(abs, terms)))
            _, slope, _, grad = directional_value_and_slope(sq, jet, t)
            assert slope == pytest.approx(float(grad.dot(velocity)), rel=1e-14)


class TestCurveVelocity:
    def test_zero_time_is_direction(self):
        jet = make_jet()
        np.testing.assert_array_equal(curve_velocity(jet, 0.0), jet.v)

    def test_matches_fd_of_retraction(self):
        jet = make_jet()
        h = 1e-6
        for t in (0.0, 0.3, 1.1):
            fd = (retract(jet, t + h) - retract(jet, t - h)) / (2.0 * h)
            np.testing.assert_allclose(curve_velocity(jet, t), fd, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("with_q", [False, True])
    def test_truncated_jet_matches_fd_of_retraction(self, with_q):
        full = make_jet()
        jet = quadratic_part(full) if with_q else GeodesicJet(full.theta, full.v)
        v_before = jet.v.copy()
        h = 1e-6
        for t in (0.0, 0.3, 1.1):
            fd = (retract(jet, t + h) - retract(jet, t - h)) / (2.0 * h)
            np.testing.assert_allclose(curve_velocity(jet, t), fd, rtol=1e-8, atol=1e-9)
        np.testing.assert_array_equal(jet.v, v_before)


class TestDirectionalValueAndSlope:
    def test_slope_matches_fd_along_curve(self):
        sq = SquiggleProblem(4)
        theta = np.array([0.5, -1.0, 0.2, 0.8])
        warp = WarpConfig(1.0)
        cache = cache_at(sq, warp, theta)
        jet = taylor_coefficients(sq, warp, cache, np.array([1.0, 0.3, -0.2, 0.5]))
        h = 1e-6
        for t in (0.1, 0.5):
            val, slope, point, grad = directional_value_and_slope(sq, jet, t)
            assert val == sq.value(point)
            np.testing.assert_array_equal(grad, sq.grad(point))
            fd = (sq.value(retract(jet, t + h)) - sq.value(retract(jet, t - h))) / (2.0 * h)
            assert slope == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_initial_slope_is_plain_inner_product(self):
        sq = SquiggleProblem(3)
        theta = np.array([0.4, -0.3, 1.1])
        warp = WarpConfig(1.0)
        cache = cache_at(sq, warp, theta)
        v = np.array([0.5, 1.0, -0.2])
        jet = taylor_coefficients(sq, warp, cache, v)
        _, slope, _, _ = directional_value_and_slope(sq, jet, 0.0)
        assert slope == pytest.approx(float(cache.grad @ v), rel=1e-14)


class TestVectorTransport:
    def setup_method(self):
        self.rng = np.random.default_rng(8)
        self.sq = SquiggleProblem(5)
        self.warp = WarpConfig(1.0)

    def endpoints(self, t=0.6):
        theta = self.rng.standard_normal(5)
        src = cache_at(self.sq, self.warp, theta)
        v = self.rng.standard_normal(5)
        jet = taylor_coefficients(self.sq, self.warp, src, v)
        dst = cache_at(self.sq, self.warp, retract(jet, t))
        return src, dst, v, t

    def test_flat_limit_recovers_parallel_translation(self):
        # With a huge sigma^2 the warp vanishes and the secant transport of
        # the step direction itself must return (almost) that direction.
        warp = WarpConfig(1e16)
        theta = np.array([0.3, -0.5, 0.2, 0.1, 0.9])
        src = cache_at(self.sq, warp, theta)
        v = np.array([1.0, 0.2, -0.4, 0.6, 0.3])
        t = 0.5
        dst = cache_at(self.sq, warp, theta + t * v)
        res = vector_transport(src, dst, v, t, float(src.grad @ v))
        np.testing.assert_allclose(res.coords, v, rtol=1e-7, atol=1e-8)
        assert res.scale == pytest.approx(1.0, abs=1e-7)

    def test_small_step_limit(self):
        # As t -> 0 along a geodesic jet the transported direction tends to
        # the original one.
        theta = np.array([0.5, 0.1, -0.4, 0.8, -0.2])
        src = cache_at(self.sq, self.warp, theta)
        v = np.array([0.7, -0.3, 0.5, 0.1, 0.4])
        jet = taylor_coefficients(self.sq, self.warp, src, v)
        t = 1e-6
        dst = cache_at(self.sq, self.warp, retract(jet, t))
        res = vector_transport(src, dst, v, t, float(src.grad @ v))
        np.testing.assert_allclose(res.coords, v, rtol=1e-4, atol=1e-5)

    def test_matches_projection_of_ambient_secant(self):
        # The closed-form secant transport is algebraically the warped
        # projection of the ambient secant; the dense projection path must
        # agree to roundoff.
        for _ in range(20):
            src, dst, v, t = self.endpoints()
            res = vector_transport(src, dst, v, t, float(src.grad @ v))
            secant = np.append(dst.theta - src.theta, dst.value - src.value) / t
            ref = project_to_tangent(dst, secant)
            np.testing.assert_allclose(res.coords, ref, rtol=1e-11, atol=1e-11)

    def test_linearity_of_underlying_projection(self):
        src, dst, _, _ = self.endpoints()
        x = self.rng.standard_normal(5)
        y = self.rng.standard_normal(5)
        both = transport_by_projection(src, dst, 2.0 * x - 3.0 * y)
        parts = 2.0 * transport_by_projection(src, dst, x) - 3.0 * transport_by_projection(src, dst, y)
        np.testing.assert_allclose(both, parts, rtol=1e-12, atol=1e-12)

    def test_scale_never_expands(self):
        for _ in range(20):
            src, dst, v, t = self.endpoints()
            res = vector_transport(src, dst, v, t, float(src.grad @ v))
            assert 0.0 < res.scale <= 1.0
            scaled_norm = metric_norm(dst, res.scale * res.coords)
            assert scaled_norm <= metric_norm(src, v) * (1.0 + 1e-12)

    def test_each_product_taken_once_gives_the_metric_figures(self):
        # The transport reuses <coords, coords>, <dst.grad, coords> and the
        # caller's slope; its scale and dst_slope must be the bits that the
        # metric norms and a fresh inner product give.
        for _ in range(20):
            src, dst, v, t = self.endpoints()
            res = vector_transport(src, dst, v, t, float(src.grad @ v))
            assert res.dst_slope == float(dst.grad.dot(res.coords))
            assert res.scale == min(1.0, metric_norm(src, v) / metric_norm(dst, res.coords))

    def test_rejects_nonpositive_step(self):
        src, dst, v, _ = self.endpoints()
        with pytest.raises(DegenerateStep):
            vector_transport(src, dst, v, 0.0, float(src.grad @ v))
        with pytest.raises(DegenerateStep):
            vector_transport(src, dst, v, -1.0, float(src.grad @ v))

    def test_rejects_coincident_points(self):
        src, _, v, _ = self.endpoints()
        with pytest.raises(DegenerateStep):
            vector_transport(src, src, v, 0.5, float(src.grad @ v))

    def test_rejects_zero_norm_result(self):
        # Hand-built caches where the secant lands exactly on the destination
        # normal direction, so the projected chart vector is zero. With a
        # unit destination gradient and sigma^2 = 1 the correction weight is
        # 1/3, so delta_theta = 1 cancels exactly when delta_f = -2.
        def cache_at(theta0, value):
            return GeometryCache(
                theta=np.array([theta0]),
                value=value,
                grad=np.array([1.0]),
                grad_sq=1.0,
                psi_sq=0.5,
                w_sq=1.5,
            )

        src = cache_at(1.0, -2.0)
        dst = cache_at(0.0, 0.0)
        with pytest.raises(DegenerateStep):
            vector_transport(src, dst, np.array([1.0]), 1.0, float(src.grad @ np.array([1.0])))


class TestIdentityMetricTransport:
    """Between two points of the identity metric (psi^2 = 0 at both) the
    transport is v itself; a warped endpoint keeps the secant form."""

    def setup_method(self):
        self.sq = SquiggleProblem(5)
        rng = np.random.default_rng(9)
        self.theta = rng.standard_normal(5)
        self.v = rng.standard_normal(5)
        self.t = 0.6

    def flat_point(self, theta):
        return build_cache(None, theta, self.sq.value(theta), self.sq.grad(theta))

    def test_is_the_identity(self):
        src, dst = self.flat_point(self.theta), self.flat_point(self.theta + self.t * self.v)
        res = vector_transport(src, dst, self.v, self.t, float(src.grad @ self.v))
        assert res.coords is self.v
        assert res.scale == 1.0
        assert res.dst_slope == float(dst.grad.dot(self.v))

    def test_rejects_nonpositive_step(self):
        src, dst = self.flat_point(self.theta), self.flat_point(self.theta + self.t * self.v)
        for t in (0.0, -1.0, np.nan):
            with pytest.raises(DegenerateStep):
                vector_transport(src, dst, self.v, t, float(src.grad @ self.v))

    def test_warped_source_keeps_the_secant_form(self):
        # dst's psi^2 = 0 zeroes the secant's correction, so the coords are
        # the plain chart secant (dst - src) / t to the bit.
        src = cache_at(self.sq, WarpConfig(1.0), self.theta)
        dst = self.flat_point(self.theta + self.t * self.v)
        assert src.psi_sq > 0.0 and dst.psi_sq == 0.0
        res = vector_transport(src, dst, self.v, self.t, float(src.grad @ self.v))
        assert res.coords is not self.v
        np.testing.assert_array_equal(res.coords, (dst.theta - src.theta) / self.t)
        assert res.scale == min(1.0, metric_norm(src, self.v) / metric_norm(dst, res.coords))
