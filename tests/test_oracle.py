"""Dense reference geometry and the geodesic integrator: internal
consistency between the two Christoffel routes, conservation laws, and
agreement between the dense and matrix-free right-hand sides."""

import numpy as np
import pytest

from warpcg import FdConfig, Objective, QuadraticProblem, SquiggleProblem, WarpConfig
from warpcg.errors import PsiDegenerate, StepUnstable
from warpcg.oracle import (
    DENSE_DIM_CAP,
    build_dense_geometry,
    christoffel_fd,
    dense_metric,
    fit_loglog_slope,
    geodesic_acceleration,
    integrate_geodesic,
    warped_speed,
)

FD = FdConfig()
WARP = WarpConfig(1.0)


class Bowl(Objective):
    """f = -1/2 |theta|^2; the geometry is exactly computable."""

    def __init__(self, dim=2):
        super().__init__(dim)

    def value(self, theta):
        return -0.5 * float(theta @ theta)

    def grad(self, theta):
        return -np.asarray(theta, dtype=float)

    def hvp(self, theta, v):
        return -np.asarray(v, dtype=float)


class TestDenseGeometry:
    def test_metric_and_inverse(self):
        geo = build_dense_geometry(Bowl(), WARP, np.array([1.0, 0.0]), FD)
        np.testing.assert_allclose(geo.metric, [[1.5, 0.0], [0.0, 1.0]], rtol=1e-15)
        np.testing.assert_allclose(geo.metric @ geo.metric_inv, np.eye(2), atol=1e-15)

    def test_christoffel_contraction_matches_acceleration(self):
        # Contracting the dense symbols with (v, v) must reproduce the
        # matrix-free geodesic acceleration for any direction.
        rng = np.random.default_rng(31)
        sq = SquiggleProblem(4)
        for _ in range(15):
            theta = rng.standard_normal(4)
            geo = build_dense_geometry(sq, WARP, theta, FD)
            v = rng.standard_normal(4)
            dense = -np.einsum("mij,i,j->m", geo.christoffels, v, v)
            free = geodesic_acceleration(sq, geo.cache, v, FD).v_dot
            np.testing.assert_allclose(dense, free, rtol=1e-10, atol=1e-12)

    def test_christoffel_symmetry_in_lower_indices(self):
        geo = build_dense_geometry(SquiggleProblem(3), WARP, np.array([0.4, -0.2, 0.9]), FD)
        np.testing.assert_allclose(
            geo.christoffels, np.swapaxes(geo.christoffels, 1, 2), atol=1e-14
        )

    def test_vanishes_at_critical_point(self):
        geo = build_dense_geometry(Bowl(), WARP, np.zeros(2), FD)
        np.testing.assert_allclose(geo.christoffels, np.zeros((2, 2, 2)), atol=1e-15)

    def test_dim_cap_enforced(self):
        with pytest.raises(ValueError):
            build_dense_geometry(Bowl(dim=DENSE_DIM_CAP + 1), WARP, np.zeros(DENSE_DIM_CAP + 1), FD)
        with pytest.raises(ValueError):
            christoffel_fd(Bowl(dim=DENSE_DIM_CAP + 1), WARP, np.zeros(DENSE_DIM_CAP + 1))


class TestChristoffelCrossCheck:
    """Closed form vs central differences of the dense metric. The two
    computations share only the metric definition."""

    def test_bowl(self):
        theta = np.array([1.0, 0.0])
        closed = build_dense_geometry(Bowl(), WARP, theta, FD).christoffels
        fd = christoffel_fd(Bowl(), WARP, theta, h=1e-6)
        np.testing.assert_allclose(fd, closed, rtol=1e-7, atol=1e-9)

    def test_squiggle_random_points(self):
        rng = np.random.default_rng(47)
        sq = SquiggleProblem(3)
        for _ in range(8):
            theta = rng.standard_normal(3)
            closed = build_dense_geometry(sq, WARP, theta, FD).christoffels
            fd = christoffel_fd(sq, WARP, theta, h=1e-6)
            scale = max(1.0, np.max(np.abs(closed)))
            assert np.max(np.abs(fd - closed)) <= 1e-6 * scale


class TestAmbientChristoffels:
    def test_chart_index_structure(self):
        geo = build_dense_geometry(Bowl(), WARP, np.array([1.0, 0.0]), FD)
        m0 = geo.ambient_christoffel(0)
        # Only the (function, function) corner is populated: -p_m / 2.
        want = np.zeros((3, 3))
        want[2, 2] = -0.25
        np.testing.assert_allclose(m0, want, rtol=1e-14)
        assert np.count_nonzero(geo.ambient_christoffel(1)) == 0

    def test_function_axis_symmetry(self):
        geo = build_dense_geometry(SquiggleProblem(3), WARP, np.array([0.5, -0.3, 0.8]), FD)
        top = geo.ambient_christoffel(3)
        np.testing.assert_allclose(top, top.T, atol=0)
        assert np.count_nonzero(np.diag(top)) == 0

    def test_function_axis_needs_warp(self):
        geo = build_dense_geometry(Bowl(), WARP, np.zeros(2), FD)
        with pytest.raises(PsiDegenerate):
            geo.ambient_christoffel(2)

    def test_bad_index_rejected(self):
        geo = build_dense_geometry(Bowl(), WARP, np.array([1.0, 0.0]), FD)
        with pytest.raises(ValueError):
            geo.ambient_christoffel(7)


class TestGeodesicIntegration:
    def test_straight_line_at_critical_point(self):
        # At a critical point the metric is flat to first order and the
        # geodesic through it with any velocity starts as a straight line.
        v0 = np.array([0.3, -0.4])
        path = integrate_geodesic(Bowl(), WARP, np.zeros(2), v0, t_end=1e-3, n_steps=8)
        np.testing.assert_allclose(path.endpoint, 1e-3 * v0, rtol=1e-9)

    def test_speed_conservation(self):
        # The warped speed is an exact invariant of the true geodesic flow;
        # RK4 drift over a long arc stays tiny.
        sq = SquiggleProblem(2)
        theta0 = np.array([1.2, -0.7])
        v0 = np.array([0.8, 0.5])
        path = integrate_geodesic(sq, WARP, theta0, v0, t_end=2.0, n_steps=400)
        speeds = [
            warped_speed(sq, WARP, th, vv) for th, vv in zip(path.thetas[::40], path.vels[::40])
        ]
        s0 = warped_speed(sq, WARP, theta0, v0)
        drift = max(abs(s - s0) for s in speeds) / s0
        assert drift < 1e-8

    def test_dense_and_matrix_free_agree(self):
        sq = SquiggleProblem(3)
        theta0 = np.array([0.6, -0.9, 0.3])
        v0 = np.array([1.0, 0.4, -0.7])
        free = integrate_geodesic(sq, WARP, theta0, v0, t_end=0.5, n_steps=50, dense=False)
        dense = integrate_geodesic(sq, WARP, theta0, v0, t_end=0.5, n_steps=50, dense=True)
        np.testing.assert_allclose(free.thetas, dense.thetas, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(free.vels, dense.vels, rtol=1e-10, atol=1e-10)

    def test_path_shapes_and_timestamps(self):
        path = integrate_geodesic(Bowl(), WARP, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                  t_end=1.0, n_steps=10)
        assert path.ts.shape == (11,)
        assert path.thetas.shape == (11, 2)
        assert path.vels.shape == (11, 2)
        assert path.ts[0] == 0.0 and path.ts[-1] == 1.0
        np.testing.assert_array_equal(path.thetas[0], [1.0, 0.0])

    def test_unstable_blowup_raises(self):
        quad = QuadraticProblem(2)
        with pytest.raises(StepUnstable), np.errstate(all="ignore"):
            integrate_geodesic(quad, WARP, np.zeros(2), np.array([1e200, 0.0]),
                               t_end=1.0, n_steps=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_geodesic(Bowl(), WARP, np.zeros(2), np.ones(2), t_end=1.0, n_steps=0)


class TestFitLoglogSlope:
    def test_recovers_power(self):
        ts = np.array([0.1, 0.2, 0.4, 0.8])
        for power in (1.0, 2.0, 3.5):
            errs = 5.0 * ts ** power
            assert fit_loglog_slope(ts, errs) == pytest.approx(power, rel=1e-12)

    def test_ignores_zero_errors(self):
        ts = np.array([0.1, 0.2, 0.4])
        errs = np.array([0.0, 0.04, 0.16])
        assert fit_loglog_slope(ts, errs) == pytest.approx(2.0, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([0.1, 0.2]), np.array([0.0, 0.0]))


class TestDenseMetricHelper:
    def test_flat_for_zero_gradient(self):
        np.testing.assert_array_equal(dense_metric(WARP, np.zeros(3)), np.eye(3))

    def test_rank_one_bump(self):
        g = np.array([2.0, 0.0])
        got = dense_metric(WarpConfig(1.0), g)
        psi_sq = 4.0 / 5.0
        np.testing.assert_allclose(got, np.eye(2) + psi_sq * np.outer(g, g), rtol=1e-15)
