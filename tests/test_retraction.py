"""Cubic retraction, curve velocity, directional derivatives, and the
backward-secant vector transport."""

import numpy as np
import pytest

from warpcg import FdConfig, SquiggleProblem, WarpConfig
from warpcg.errors import DegenerateStep
from warpcg.geometry import (
    GeodesicJet,
    GeometryCache,
    build_cache,
    metric_norm,
    taylor_coefficients,
)
from warpcg.oracle import project_to_tangent, transport_by_projection
from warpcg.retraction import (
    curve_velocity,
    directional_value_and_slope,
    retract,
    vector_transport,
)

FD = FdConfig()


def make_jet():
    theta = np.array([1.0, 0.0])
    v = np.array([0.2, 1.0])
    q = np.array([-0.3, 0.1])
    k = np.array([0.05, -0.02])
    return GeodesicJet(theta=theta, v=v, q=q, k=k)


class TestRetract:
    def test_zero_time_is_identity(self):
        jet = make_jet()
        np.testing.assert_array_equal(retract(jet, 0.0), jet.theta)

    def test_polynomial_orders(self):
        jet = make_jet()
        t = 0.7
        first = jet.theta + t * jet.v
        second = first + 0.5 * t * t * jet.q
        third = second + (t ** 3 / 6.0) * jet.k
        np.testing.assert_allclose(retract(jet, t, order=1), first, rtol=1e-15)
        np.testing.assert_allclose(retract(jet, t, order=2), second, rtol=1e-15)
        np.testing.assert_allclose(retract(jet, t, order=3), third, rtol=1e-15)
        np.testing.assert_allclose(retract(jet, t), third, rtol=1e-15)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            retract(make_jet(), 0.5, order=4)
        with pytest.raises(ValueError):
            retract(make_jet(), 0.5, order=0)


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


class TestDirectionalValueAndSlope:
    def test_slope_matches_fd_along_curve(self):
        sq = SquiggleProblem(4)
        theta = np.array([0.5, -1.0, 0.2, 0.8])
        cache = build_cache(sq, WarpConfig(1.0), theta, FD)
        jet = taylor_coefficients(sq, cache, np.array([1.0, 0.3, -0.2, 0.5]), FD)
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
        cache = build_cache(sq, WarpConfig(1.0), theta, FD)
        v = np.array([0.5, 1.0, -0.2])
        jet = taylor_coefficients(sq, cache, v, FD)
        _, slope, _, _ = directional_value_and_slope(sq, jet, 0.0)
        assert slope == pytest.approx(float(cache.grad @ v), rel=1e-14)


class TestVectorTransport:
    def setup_method(self):
        self.rng = np.random.default_rng(8)
        self.sq = SquiggleProblem(5)
        self.warp = WarpConfig(1.0)

    def endpoints(self, t=0.6):
        theta = self.rng.standard_normal(5)
        src = build_cache(self.sq, self.warp, theta, FD)
        v = self.rng.standard_normal(5)
        jet = taylor_coefficients(self.sq, src, v, FD)
        dst = build_cache(self.sq, self.warp, retract(jet, t), FD)
        return src, dst, v, t

    def test_flat_limit_recovers_parallel_translation(self):
        # With a huge sigma^2 the warp vanishes and the secant transport of
        # the step direction itself must return (almost) that direction.
        warp = WarpConfig(1e16)
        theta = np.array([0.3, -0.5, 0.2, 0.1, 0.9])
        src = build_cache(self.sq, warp, theta, FD)
        v = np.array([1.0, 0.2, -0.4, 0.6, 0.3])
        t = 0.5
        dst = build_cache(self.sq, warp, theta + t * v, FD)
        res = vector_transport(src, dst, v, t)
        np.testing.assert_allclose(res.coords, v, rtol=1e-7, atol=1e-8)
        assert res.scale == pytest.approx(1.0, abs=1e-7)

    def test_small_step_limit(self):
        # As t -> 0 along a geodesic jet the transported direction tends to
        # the original one.
        theta = np.array([0.5, 0.1, -0.4, 0.8, -0.2])
        src = build_cache(self.sq, self.warp, theta, FD)
        v = np.array([0.7, -0.3, 0.5, 0.1, 0.4])
        jet = taylor_coefficients(self.sq, src, v, FD)
        t = 1e-6
        dst = build_cache(self.sq, self.warp, retract(jet, t), FD)
        res = vector_transport(src, dst, v, t)
        np.testing.assert_allclose(res.coords, v, rtol=1e-4, atol=1e-5)

    def test_matches_projection_of_ambient_secant(self):
        # The closed-form secant transport is algebraically the warped
        # projection of the ambient secant; the dense projection path must
        # agree to roundoff.
        for _ in range(20):
            src, dst, v, t = self.endpoints()
            res = vector_transport(src, dst, v, t)
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
            res = vector_transport(src, dst, v, t)
            assert 0.0 < res.scale <= 1.0
            scaled_norm = metric_norm(dst, res.scale * res.coords)
            assert scaled_norm <= metric_norm(src, v) * (1.0 + 1e-12)

    def test_rejects_nonpositive_step(self):
        src, dst, v, _ = self.endpoints()
        with pytest.raises(DegenerateStep):
            vector_transport(src, dst, v, 0.0)
        with pytest.raises(DegenerateStep):
            vector_transport(src, dst, v, -1.0)

    def test_rejects_coincident_points(self):
        src, _, v, _ = self.endpoints()
        with pytest.raises(DegenerateStep):
            vector_transport(src, src, v, 0.5)

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
                hess_grad=np.zeros(1),
                w_sigma_sq=2.0,
                psi_sq=0.5,
                grad_psi_sq=np.zeros(1),
                w_sq=1.5,
                sigma_sq=1.0,
            )

        src = cache_at(1.0, -2.0)
        dst = cache_at(0.0, 0.0)
        with pytest.raises(DegenerateStep):
            vector_transport(src, dst, np.array([1.0]), 1.0)
