"""Acceptance gate: the ten headline properties of the package, numbered
and reported one line each.

Each test prints exactly one `[PRIMARY n] label: PASS|FAIL` line on the
live terminal (bypassing capture) so a log of the suite shows the verdict
per property at a glance. Tolerance conventions used throughout:

* metric round-trips are measured relative to the computation's own scale,
  max(|x|, |G x|), since a rank-one metric with condition number W^2
  necessarily loses those digits against the raw input;
* identities with an exact zero on one side use an absolute floor of 1.0
  in the relative scale.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from warpcg import (
    QuadraticProblem,
    RcgConfig,
    RosenbrockProblem,
    SquiggleProblem,
    StopReason,
    WarpConfig,
    classify_rosenbrock_basin,
    initial_point,
    run_euclidean_cg,
    run_rcg,
)
from warpcg.geometry import (
    GeodesicJet,
    riemannian_gradient,
    taylor_coefficients,
)
from oracle import (
    build_dense_geometry,
    cache_at,
    central_diff_grad,
    exact_hessian_jet,
    fit_loglog_slope,
    geodesic_acceleration,
    integrate_geodesic,
    inverse_metric_apply,
    metric_inner,
    normal_vector,
    project_to_tangent,
)
from warpcg.objective import FD_STEP, fd_step
from recording import jet_hvps, recorded
from warpcg.retraction import directional_value_and_slope, retract, vector_transport

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.1
SQUIGGLE_WARP = WarpConfig(1.0)
ROSENBROCK_WARP = WarpConfig(sigma_sq=300.0 ** 2)


@contextmanager
def criterion(capsys, n, label):
    """Print the one-line verdict for a numbered acceptance property."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[PRIMARY {n}] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[PRIMARY {n}] {label}: PASS")


@pytest.fixture(scope="module")
def squiggle_runs():
    """Full optimizer runs on the bent-Gaussian benchmark, each with the
    recording of its geometry calls, shared by the convergence,
    certification, and budget checks."""
    runs = {}
    t0 = time.perf_counter()
    for dim in (2, 10, 50):
        problem = SquiggleProblem(dim)
        res, recording = recorded(
            run_rcg,
            problem,
            initial_point("squiggle", dim),
            warp=SQUIGGLE_WARP,
            cfg=RcgConfig(max_iters=8000, tol_df=0.0, tol_grad=1e-6),
        )
        runs[dim] = (problem, res, recording)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rosenbrock_runs():
    """Full optimizer runs on the bent-valley benchmark (strong warp
    sigma = 300), each with the recording of its geometry calls, shared by
    the convergence, certification, and budget checks."""
    runs = {}
    t0 = time.perf_counter()
    for dim in (2, 10):
        problem = RosenbrockProblem(dim)
        res, recording = recorded(
            run_rcg,
            problem,
            initial_point("rosenbrock", dim),
            warp=ROSENBROCK_WARP,
            cfg=RcgConfig(max_iters=8000, tol_df=0.0, tol_grad=1e-4),
        )
        runs[dim] = (problem, res, recording)
    return runs, time.perf_counter() - t0


def test_c01_metric_algebra(capsys):
    """Round-trip of the metric and its inverse, gradient duality, and the
    gradient-norm identity over 1000 random draws per problem and
    dimension."""
    with criterion(capsys, 1, "metric algebra identities"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240601)
        warp = WarpConfig(1.0)
        for make in (SquiggleProblem, RosenbrockProblem):
            for dim in (2, 10, 50):
                problem = make(dim)
                for _ in range(1000):
                    theta = rng.standard_normal(dim)
                    v = rng.standard_normal(dim)
                    cache = cache_at(problem, warp, theta)

                    gx = v + cache.psi_sq * float(cache.grad @ v) * cache.grad
                    back = inverse_metric_apply(cache, gx)
                    scale = max(np.linalg.norm(v), np.linalg.norm(gx))
                    assert np.linalg.norm(back - v) <= 1e-12 * scale

                    grad_r = riemannian_gradient(cache)
                    lhs = metric_inner(cache, grad_r, v)
                    rhs = float(cache.grad @ v)
                    pair_scale = max(
                        1.0, abs(rhs), np.linalg.norm(cache.grad) * np.linalg.norm(v)
                    )
                    assert abs(lhs - rhs) <= 1e-12 * pair_scale

                    norm_sq = metric_inner(cache, grad_r, grad_r)
                    want = cache.grad_sq / cache.w_sq
                    assert abs(norm_sq - want) <= 1e-12 * max(1.0, want)
        assert time.perf_counter() - t0 < 10.0


def test_c02_normal_vector(capsys):
    """Warped unit norm of the graph normal and its warped orthogonality to
    every chart tangent basis vector, dimensions 2 through 10."""
    with criterion(capsys, 2, "graph normal vector"):
        rng = np.random.default_rng(7711)
        warp = WarpConfig(1.0)
        for make in (SquiggleProblem, RosenbrockProblem):
            for dim in range(2, 11):
                problem = make(dim)
                for _ in range(25):
                    theta = rng.standard_normal(dim)
                    cache = cache_at(problem, warp, theta)
                    if cache.psi_sq == 0.0:
                        continue
                    n = normal_vector(cache)
                    norm_sq = float(n[:dim] @ n[:dim]) + cache.psi_sq * n[dim] ** 2
                    assert abs(norm_sq - 1.0) <= 1e-10
                    # Basis tangent i embeds as (e_i, g_i); its warped
                    # pairing with the normal must vanish.
                    inner = n[:dim] + cache.psi_sq * n[dim] * cache.grad
                    scale = np.maximum(1.0, np.abs(cache.grad))
                    assert np.all(np.abs(inner) <= 1e-10 * scale)


def test_c03_retraction_order(capsys):
    """Log-log error slopes of the truncated step curve against the
    RK4-integrated exact geodesic: cubic >= 3.6, quadratic >= 2.8,
    linear >= 1.9, for both benchmark geometries."""
    with criterion(capsys, 3, "retraction order of accuracy"):
        t0 = time.perf_counter()
        ts = np.geomspace(1e-3, 1e-1, 7)
        warp = WarpConfig(1.0)
        cases = [
            (
                QuadraticProblem(2, curvatures=np.array([1.0, 3.0]), center=np.zeros(2)),
                np.array([1.2, -0.7]),
                np.array([0.5, 1.0]),
            ),
            (SquiggleProblem(2), np.array([3.0, 1.4]), np.array([-1.2, -1.0])),
        ]
        floors = {3: 3.6, 2: 2.8, 1: 1.9}
        for problem, theta0, v0 in cases:
            cache = cache_at(problem, warp, theta0)
            jet = taylor_coefficients(problem, warp, cache, v0)
            truncated = {
                1: GeodesicJet(jet.theta, jet.v),
                2: GeodesicJet(jet.theta, jet.v, np.stack([jet.curv[0], np.zeros_like(jet.v)])),
                3: jet,
            }
            refs = [
                integrate_geodesic(problem, warp, theta0, v0, t, 200).endpoint
                for t in ts
            ]
            for order, floor in floors.items():
                errs = np.array(
                    [np.linalg.norm(retract(truncated[order], t) - ref)
                     for t, ref in zip(ts, refs)]
                )
                slope = fit_loglog_slope(ts, errs)
                assert slope >= floor, (type(problem).__name__, order, slope)
        assert time.perf_counter() - t0 < 30.0


def test_c04_matrix_free_equals_dense(capsys):
    """Matrix-free curvature scalars, acceleration, projection, and
    transport against their dense counterparts, 200 random trials."""
    with criterion(capsys, 4, "matrix-free vs dense geometry"):
        rng = np.random.default_rng(4242)
        warp = WarpConfig(1.0)
        for trial in range(200):
            dim = int(rng.integers(2, 6))
            problem = SquiggleProblem(dim) if trial % 2 == 0 else RosenbrockProblem(dim)
            theta = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            geo = build_dense_geometry(problem, warp, theta)
            cache = geo.cache

            # Acceleration vs dense Christoffel contraction.
            acc = geodesic_acceleration(problem, warp, cache, v)
            dense_qdot = -np.einsum("mij,i,j->m", geo.christoffels, v, v)
            scale = max(1.0, np.linalg.norm(dense_qdot))
            assert np.linalg.norm(acc.v_dot - dense_qdot) <= 1e-8 * scale

            # The two scalar coefficients, each from an independent dense
            # assembly: the gradient coefficient via the symmetrized
            # curvature matrix, the warp coefficient via its closed form.
            if cache.psi_sq > 0.0:
                psi = np.sqrt(cache.psi_sq)
                w = np.sqrt(cache.w_sq)
                grad_psi = geo.grad_psi_sq / (2.0 * psi)
                m = (
                    (2.0 / w) * np.outer(grad_psi, cache.grad)
                    + (psi / w) * geo.hessian
                    + (psi / (2.0 * w))
                    * float(geo.grad_psi_sq @ cache.grad)
                    * np.outer(cache.grad, cache.grad)
                )
                u1_dense = float(v @ ((m + m.T) / 2.0) @ v) * psi / w
                assert abs(acc.coef_grad - u1_dense) <= 1e-8 * max(1.0, abs(u1_dense))
            u2_dense = 0.5 * float(cache.grad @ v) ** 2
            assert abs(acc.coef_warp - u2_dense) <= 1e-8 * max(1.0, u2_dense)

            # Projection vs dense weighted least squares, solved in
            # square-root form (condition W rather than W^2) so the oracle
            # itself keeps the digits the tolerance demands.
            def dense_wls(point_cache, z):
                embed = np.vstack([np.eye(dim), point_cache.grad[None, :]])
                root_w = np.sqrt(np.append(np.ones(dim), point_cache.psi_sq))
                sol, *_ = np.linalg.lstsq(
                    root_w[:, None] * embed, root_w * z, rcond=None
                )
                return sol

            z = rng.standard_normal(dim + 1)
            dense_proj = dense_wls(cache, z)
            got = project_to_tangent(cache, z)
            assert np.linalg.norm(got - dense_proj) <= 1e-10 * max(
                1.0, np.linalg.norm(dense_proj)
            )

            # Transport vs dense projection of the ambient secant. The
            # step uses a unit direction and moderate length so the
            # destination gradient stays within the range where the dense
            # oracle itself holds 1e-10 digits.
            unit_v = v / np.linalg.norm(v)
            jet = taylor_coefficients(problem, warp, cache, unit_v)
            t_step = 0.2
            dst = cache_at(problem, warp, retract(jet, t_step))
            res = vector_transport(cache, dst, unit_v, t_step, float(cache.grad @ unit_v))
            secant = np.append(
                dst.theta - cache.theta, dst.value - cache.value
            ) / t_step
            dense_tr = dense_wls(dst, secant)
            assert np.linalg.norm(res.coords - dense_tr) <= 1e-10 * max(
                1.0, np.linalg.norm(dense_tr)
            )


def test_c05_euclidean_limit(capsys):
    """With a huge warp parameter the curved driver's iterates match the
    flat baseline to 1e-8 per iterate over ten iterations, and transport
    reduces to the identity."""
    with criterion(capsys, 5, "flat-space limit"):
        quad = QuadraticProblem(10)
        start = initial_point("quadratic", 10)
        cfg = RcgConfig(max_iters=10, tol_df=0.0, tol_grad=1e-10)
        curved = recorded(run_rcg, quad, start, warp=WarpConfig(1e12), cfg=cfg)
        flat = recorded(run_euclidean_cg, quad, start, cfg=cfg)
        assert curved[0].iterations >= 3
        assert flat[0].iterations >= 3

        def iterates(res, recording):
            # Each jet after the first starts at the previous accepted point.
            return [jet.theta for jet in recording.accepted_jets()[1:]] + [res.theta]

        for theta_c, theta_f in zip(iterates(*curved), iterates(*flat)):
            diff = np.linalg.norm(theta_c - theta_f)
            assert diff <= 1e-8 * max(1.0, np.linalg.norm(theta_f))

        warp = WarpConfig(1e12)
        src = cache_at(quad, warp, start)
        v = riemannian_gradient(src)
        t_step = 0.7
        dst = cache_at(quad, warp, start + t_step * v)
        moved = vector_transport(src, dst, v, t_step, float(src.grad @ v))
        assert np.linalg.norm(moved.coords - v) <= 1e-8 * max(1.0, np.linalg.norm(v))


def test_c06_convergence_squiggle(capsys, squiggle_runs):
    """Bent-Gaussian runs for dimensions 2, 10, 50 terminate cleanly within
    the iteration cap and close to within 1e-4 of the closed-form
    maximum."""
    runs, elapsed = squiggle_runs
    with criterion(capsys, 6, "convergence on the bent Gaussian"):
        for dim, (problem, res, _) in runs.items():
            assert res.stop_reason in (StopReason.SMALL_DELTA_F, StopReason.SMALL_GRAD)
            assert res.iterations <= 8000
            variances = np.full(dim, 0.5)
            variances[0] = 30.0
            closed_form = -0.5 * dim * np.log(2.0 * np.pi) - 0.5 * float(
                np.sum(np.log(variances))
            )
            assert abs(res.value - closed_form) < 1e-4, (dim, res.value)
        assert elapsed < 60.0


def test_c07_convergence_rosenbrock(capsys, rosenbrock_runs):
    """Bent-valley runs for dimensions 2 and 10 terminate within the cap
    with warped gradient norm below 1e-4; the reached basin is reported,
    and the 2-d run attains the global maximum to 1e-3."""
    runs, elapsed = rosenbrock_runs
    basins = {dim: classify_rosenbrock_basin(res.theta) for dim, (_, res, _) in runs.items()}
    label = "convergence on the bent valley (basins: " + ", ".join(
        f"D{dim}={basins[dim]}" for dim in sorted(basins)
    ) + ")"
    with criterion(capsys, 7, label):
        for dim, (problem, res, _) in runs.items():
            assert res.iterations <= 8000
            assert res.stop_reason in (StopReason.SMALL_DELTA_F, StopReason.SMALL_GRAD)
            assert res.grad_norm_riem < 1e-4
            assert basins[dim] in ("global", "local", "other")
        assert abs(runs[2][1].value) <= 1e-3
        assert elapsed < 60.0


def test_c08_wolfe_certification(capsys, squiggle_runs, rosenbrock_runs):
    """Every accepted step across the convergence runs satisfies both
    strong Wolfe inequalities on re-evaluation from the recorded step
    curves."""
    with criterion(capsys, 8, "line-search certification"):
        for runs, _ in (squiggle_runs, rosenbrock_runs):
            for _, (problem, res, recording) in runs.items():
                jets = recording.accepted_jets()
                assert len(jets) == res.iterations
                for i, (jet, row) in enumerate(zip(jets, res.trace)):
                    f0 = problem.value(jet.theta)
                    slope0 = float(
                        np.asarray(problem.grad(jet.theta), dtype=float) @ jet.v
                    )
                    value, slope, _, _ = directional_value_and_slope(problem, jet, row.t)
                    assert value >= f0 + WOLFE_C1 * row.t * slope0, i
                    assert abs(slope) <= WOLFE_C2 * slope0, i


def test_c09_budget(capsys, squiggle_runs, rosenbrock_runs):
    """Instrumented counters: exactly four Hessian-vector products (the
    jet's; a cache build costs none) per accepted iteration whose start
    point has psi^2 ||grad||^2 >= FLAT_WARP and none below it, exactly one
    geometry cache build per accepted iteration, and the run totals
    reconcile exactly with the per-row counts, failed searches' jets
    included. Every run has rows of both kinds."""
    with criterion(capsys, 9, "per-iteration evaluation budget"):
        for runs, _ in (squiggle_runs, rosenbrock_runs):
            for _, (_, res, recording) in runs.items():
                assert len(res.trace) > 0
                builds = recording.builds_per_step()
                assert len(builds) == len(res.trace)
                starts = recording.accepted_starts()
                assert {jet_hvps(p) for p in starts} == {0, 4}
                for i, (row, n_builds, start) in enumerate(zip(res.trace, builds, starts)):
                    assert row.n_hvp == jet_hvps(start), (i, row.n_hvp)
                    assert n_builds == 1, (i, n_builds)
                from_rows = sum(row.n_hvp for row in res.trace)
                failed = recording.failed_starts()
                assert len(failed) == res.failed_attempts
                assert res.n_hvp == from_rows + sum(jet_hvps(p) for p in failed)


def test_straight_rows_drop_curvature_below_rounding(squiggle_runs, rosenbrock_runs):
    """Each accepted row whose start point had psi^2 ||grad||^2 below
    FLAT_WARP searched the straight ray. The full jet that the oracle's
    exact_hessian_jet builds at the logged point along the row's direction
    has a curved part, at the row's t, below the unit roundoff 2^-53 of the
    straight part ||t v||."""
    straight = 0
    for (runs, _), warp in ((squiggle_runs, SQUIGGLE_WARP), (rosenbrock_runs, ROSENBROCK_WARP)):
        for problem, res, recording in runs.values():
            rows = zip(res.trace, recording.accepted_starts(), recording.accepted_jets())
            for i, (row, start, jet) in enumerate(rows):
                if jet_hvps(start):
                    continue
                assert jet.curv is None, i
                q, k = exact_hessian_jet(problem, warp, start, jet.v)
                curved = 0.5 * row.t * row.t * q + row.t ** 3 / 6.0 * k
                assert np.linalg.norm(curved) < 2.0 ** -53 * row.t * np.linalg.norm(jet.v), i
                straight += 1
    assert straight > 0


def test_c10_derivative_hygiene(capsys):
    """Analytic gradients and Hessian-vector products of every shipped
    problem agree with central differences to 1e-5 relative to the
    vector's own magnitude, 50 random points each."""
    with criterion(capsys, 10, "analytic-derivative hygiene"):
        rng = np.random.default_rng(9090)
        problems = [SquiggleProblem(6), RosenbrockProblem(5), QuadraticProblem(7)]
        for problem in problems:
            for _ in range(50):
                theta = rng.standard_normal(problem.dim)
                analytic = problem.grad(theta)
                step = FD_STEP * max(1.0, float(np.linalg.norm(theta)))
                fd_grad = central_diff_grad(problem, theta, step)
                g_scale = max(1.0, float(np.linalg.norm(analytic)))
                assert np.linalg.norm(analytic - fd_grad) <= 1e-5 * g_scale

                v = rng.standard_normal(problem.dim)
                hv = problem.hvp(theta, v)
                r = fd_step(theta, v)
                fd_hv = (problem.grad(theta + r * v) - problem.grad(theta - r * v)) / (
                    2.0 * r
                )
                h_scale = max(1.0, float(np.linalg.norm(hv)))
                assert np.linalg.norm(hv - fd_hv) <= 1e-5 * h_scale
