"""Derivatives: objective gradients and HVPs against the oracles'
central finite-difference HVP and dense Hessian."""

import numpy as np
import pytest

from spikelab import (ParamVector, QuadraticSpec, central_fd_hvp, default_fd_step,
                      dense_hessian, make_quadratic)
from spikelab.errors import DivergedEvaluation, InvalidDirection, OracleSizeExceeded


def test_gradient_refuses_nonfinite_point(quad3):
    with pytest.raises(DivergedEvaluation):
        quad3.gradient(np.array([1.0, np.nan, 0.0]))


def test_hvp_backends_agree_on_fnn(small_fnn, fnn_point):
    rng = np.random.default_rng(7)
    d = rng.standard_normal(fnn_point.dim)
    exact = small_fnn.hvp(fnn_point.values, d)
    approx = central_fd_hvp(small_fnn, fnn_point.values, d)
    assert np.allclose(exact, approx, rtol=1e-4, atol=1e-6)


def test_hvp_request_validation(quad3):
    with pytest.raises(InvalidDirection):
        central_fd_hvp(quad3, np.ones(3), np.zeros(3))
    with pytest.raises(InvalidDirection):
        central_fd_hvp(quad3, np.ones(3), np.ones(3), fd_step=0.0)


def test_hvp_symmetry_and_linearity(small_fnn, fnn_point):
    th = fnn_point.values
    rng = np.random.default_rng(8)
    v1 = rng.standard_normal(th.size)
    v2 = rng.standard_normal(th.size)
    hv1 = small_fnn.hvp(th, v1)
    hv2 = small_fnn.hvp(th, v2)
    assert float(v2 @ hv1) == pytest.approx(float(v1 @ hv2), rel=1e-9)
    combo = small_fnn.hvp(th, 2.0 * v1 - 3.0 * v2)
    assert np.allclose(combo, 2.0 * hv1 - 3.0 * hv2, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["quad3", "small_fnn"])
def test_hvp_closure_matches_fresh_hvp_bit_for_bit(name, request):
    obj = request.getfixturevalue(name)
    rng = np.random.default_rng(9)
    th = rng.standard_normal(obj.param_dim)
    v1, v2 = rng.standard_normal((2, obj.param_dim))
    point = th.copy()
    hvp = obj.hvp_at(point)
    point[:] = 0.0  # the closure does not follow later edits of its point
    got, kept = [], []
    for v in (v1, v2, v1):
        got.append(hvp(v))
        kept.append(got[-1].copy())
    for v, r, k in zip((v1, v2, v1), got, kept):
        assert np.array_equal(r, obj.hvp(th, v))
        assert np.array_equal(r, k)  # later calls leave earlier results alone
    bad = th.copy()
    bad[0] = np.nan
    with pytest.raises(DivergedEvaluation):
        obj.hvp_at(bad)(v1)


def test_dense_hessian_of_quadratic_is_exact(quad3):
    H = dense_hessian(quad3, ParamVector(np.ones(3)))
    assert np.allclose(H, np.diag([1.0, 5.0, 10.0]))


def test_dense_hessian_symmetric_on_fnn(small_fnn, fnn_point):
    H = dense_hessian(small_fnn, fnn_point)
    assert np.allclose(H, H.T)


def test_dense_hessian_size_cap():
    obj = make_quadratic(QuadraticSpec(eigenvalues=tuple([1.0] * 201)))
    with pytest.raises(OracleSizeExceeded):
        dense_hessian(obj, ParamVector(np.zeros(201)))


def test_fd_step_scales_with_point():
    near = default_fd_step(np.zeros(3))
    far = default_fd_step(np.full(3, 1e6))
    assert 0 < near < far
