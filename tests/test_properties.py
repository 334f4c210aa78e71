"""Properties checked over generated inputs (hypothesis; the shared profile
is in conftest.py).

The Euclidean metric is sigma^2 = inf: there every point's cache is the
identity metric, psi^2 = 0 and W^2 = 1 exactly, and the transport between
two such points is the identity. The flat-space baseline rests on both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from warpcg import WarpConfig
from warpcg.errors import NumericalBreakdown
from warpcg.geometry import build_cache
from warpcg.retraction import vector_transport

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
