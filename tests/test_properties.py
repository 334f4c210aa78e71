"""Properties checked over generated inputs (hypothesis; the shared profile
is in conftest.py).

The Euclidean metric is sigma^2 = inf: there every point's cache is the
identity metric, psi^2 = 0 and W^2 = 1 exactly, and the transport between
two such points is the identity. The flat-space baseline rests on both.

At finite sigma^2: the jet is homogeneous in its direction, the transport
never lengthens a vector, and the line search either returns a strong Wolfe
point within its budget or says it found none.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from warpcg import QuadraticProblem, RosenbrockProblem, SquiggleProblem, WarpConfig
from warpcg.errors import DegenerateStep, LineSearchFail, NumericalBreakdown
from warpcg.geometry import build_cache, taylor_coefficients
from warpcg.linesearch import C1, C2, MAX_EVALS, strong_wolfe
from warpcg.retraction import vector_transport
from oracle import metric_norm

EUCLIDEAN = WarpConfig(math.inf)
DIMS = st.integers(1, 8)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Entries of magnitude at most 1e150 keep every squared norm and inner
# product of two such vectors finite up to dim 8 (8 * 1e300 < 1.8e308).
MODERATE = st.floats(-1e150, 1e150)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(grad=arrays(np.float64, array_shapes(max_dims=1, max_side=8)), value=FINITE)
def test_euclidean_cache_is_the_identity_metric(grad, value):
    # Every float64 entry may be drawn: NaN, inf and finite entries whose
    # squares overflow included.
    theta = np.zeros_like(grad)
    grad_sq = float(grad.dot(grad))
    if not math.isfinite(grad_sq):
        with pytest.raises(NumericalBreakdown):
            build_cache(EUCLIDEAN, theta, value, grad)
        return
    cache = build_cache(EUCLIDEAN, theta, value, grad)
    assert cache.psi_sq == 0.0
    assert cache.w_sq == 1.0
    assert cache.grad_sq == grad_sq


@given(st.data())
def test_euclidean_transport_is_the_identity(data):
    dim = data.draw(DIMS)
    vectors = arrays(np.float64, dim, elements=MODERATE)
    src, dst = (
        build_cache(EUCLIDEAN, data.draw(vectors), data.draw(FINITE), data.draw(vectors))
        for _ in range(2)
    )
    v = data.draw(vectors)
    t = data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    result = vector_transport(src, dst, v, t, float(src.grad.dot(v)))
    assert result.coords is v
    assert result.scale == 1.0
    assert result.dst_slope == float(dst.grad.dot(v))


PROBLEMS = st.sampled_from([SquiggleProblem, RosenbrockProblem, QuadraticProblem])
SIGMA_SQS = st.floats(1e-4, 1e8)


def jet_entries(bound):
    """0 and floats of magnitude 1e-8 to bound. The jet's products of such
    numbers stay normal, so doubling v doubles each of them exactly; an
    entry of 2.2e-308 or of 1e-50 made some jet product subnormal, and the
    doubled jet then rounded differently."""
    magnitudes = st.floats(1e-8, bound)
    return st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))


@given(st.data())
def test_jet_is_homogeneous_in_its_direction(data):
    # fd_step(theta, v) is FD_STEP max(1, ||theta||) / ||v|| for ||v|| >= 1,
    # so the probes theta +- r v are the same points along v and 2 v, and
    # each contraction doubles exactly.
    problem = data.draw(PROBLEMS)(data.draw(st.integers(2, 50)))
    warp = WarpConfig(data.draw(SIGMA_SQS))
    theta = data.draw(arrays(np.float64, problem.dim, elements=jet_entries(3.0)))
    v = data.draw(arrays(np.float64, problem.dim, elements=jet_entries(10.0)))
    assume(float(v.dot(v)) >= 1.0)
    cache = build_cache(warp, theta, float(problem.value(theta)), problem.grad(theta))
    curv = taylor_coefficients(problem, warp, cache, v).curv
    curv2 = taylor_coefficients(problem, warp, cache, 2.0 * v).curv
    np.testing.assert_array_equal(curv2[0], 4.0 * curv[0])
    np.testing.assert_array_equal(curv2[1], 8.0 * curv[1])


@given(
    scale=st.floats(0.0, 10.0),
    center=st.floats(-10.0, 10.0),
    waves=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 20.0), st.floats(-4.0, 4.0)),
                   max_size=4),
    t_init=st.floats(1e-4, 1e4),
)
def test_line_search_returns_a_wolfe_point_or_fails_within_budget(scale, center, waves, t_init):
    # phi(t) = -scale (t - center)^2 + sum a sin(w t + p): smooth and
    # bounded above, by sum |a| where scale is 0.
    def phi(t):
        calls.append(t)
        value = -scale * (t - center) ** 2 + sum(a * math.sin(w * t + p) for a, w, p in waves)
        slope = -2.0 * scale * (t - center) + sum(a * w * math.cos(w * t + p) for a, w, p in waves)
        return value, slope, np.array([t]), np.array([slope])

    calls = []
    f0, slope0, _, _ = phi(0.0)
    assume(slope0 > 0.0)
    calls.clear()
    try:
        res = strong_wolfe(phi, f0=f0, slope0=slope0, t_init=t_init)
    except LineSearchFail:
        res = None
    assert len(calls) <= MAX_EVALS
    assert all(t > 0.0 for t in calls)
    if res is not None:
        assert res.evals == len(calls) and res.t == calls[-1]
        assert (res.value, res.slope) == phi(res.t)[:2]
        assert res.value >= f0 + C1 * res.t * slope0
        assert abs(res.slope) <= C2 * slope0


@given(st.data())
def test_transport_never_lengthens_a_vector(data):
    # Entries of magnitude at most 1e6 keep every product the secant form
    # takes finite, so the only way out is a zero transported vector.
    dim = data.draw(DIMS)
    warp = WarpConfig(data.draw(SIGMA_SQS))
    vectors = arrays(np.float64, dim, elements=st.floats(-1e6, 1e6))
    values = st.floats(-1e6, 1e6)
    src, dst = (
        build_cache(warp, data.draw(vectors), data.draw(values), data.draw(vectors))
        for _ in range(2)
    )
    v = data.draw(vectors)
    t = data.draw(st.floats(1e-6, 1e6))
    try:
        result = vector_transport(src, dst, v, t, float(src.grad.dot(v)))
    except DegenerateStep:
        return  # a zero transported vector has no scale
    assert result.dst_slope == float(dst.grad.dot(result.coords))
    # "Up to rounding": a dot product of dim terms is off by at most
    # dim * 2^-53 of its terms' absolute sum, and <dst.grad, x> may cancel
    # far below that sum, in the transport's own norm as in this one.
    x = result.scale * result.coords
    terms = float(x.dot(x)) + dst.psi_sq * abs(float(dst.grad.dot(x))) * float(
        np.abs(dst.grad).dot(np.abs(x))
    )
    slack = 8 * (dim + 2) * 2.0**-53 * terms
    assert metric_norm(dst, x) ** 2 <= metric_norm(src, v) ** 2 + slack
