"""Derivatives: objective gradients and HVPs against the oracles'
central finite-difference HVP and dense Hessian, and the FNN's in-place
evaluation against the allocating expressions it replaced."""

import resource
import sys
import threading
import time

import numpy as np
import pytest

from spikelab import (AdamHyper, FnnObjective, FnnTaskSpec, MitigationPlan, ParamVector,
                      QuadraticSpec, blas, central_fd_hvp, default_fd_step, dense_hessian,
                      make_quadratic, run)
from spikelab.errors import DivergedEvaluation, InvalidDirection, OracleSizeExceeded
from spikelab.objectives import BLOCK_ENTRIES


def test_gradient_refuses_nonfinite_point(quad3):
    with pytest.raises(DivergedEvaluation):
        quad3.gradient(np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("eigenvalues,theta", [
    ((1.0, 5.0), (1.0, np.nan)),  # a NaN point
    ((1.0, 1e300), (1.0, 1e10)),  # lambda * theta overflows at a finite point
    ((0.0, 1.0), (np.inf, 1.0)),  # 0 * inf
    ((-1.0, 1.0), (np.inf, np.inf)),  # terms of opposite infinite sign
])
def test_loss_and_gradient_refuse_a_nonfinite_gradient(eigenvalues, theta):
    # loss_and_gradient tests only the loss: a non-finite g_i makes d_i * g_i,
    # and so the loss, non-finite too
    obj = make_quadratic(QuadraticSpec(eigenvalues=eigenvalues))
    with np.errstate(all="ignore"):
        assert not np.isfinite(obj.lam * (np.array(theta) - obj.off)).all()
        with pytest.raises(DivergedEvaluation):
            obj.loss_and_gradient(np.array(theta))


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


# === FNN work buffers ========================================================


@pytest.fixture(scope="module")
def fig6_fnn():
    """The fig6 network's shape: 52k parameters, 200 x 1000 hidden activations."""
    return FnnObjective(FnnTaskSpec(input_dim=50, width=1000, n_samples=200,
                                     target="linear-plus-diag-quadratic"))


def _reference_unpack(obj, th):
    d, m = obj.spec.input_dim, obj.spec.width
    return th[: m * d].reshape(m, d), th[m * d : m * d + m], th[m * d + m : -1], th[-1]


def _reference_forward(obj, theta):
    W1, b1, W2, b2 = _reference_unpack(obj, theta)
    H = np.tanh(obj.X @ W1.T + b1)
    return W2, H, H @ W2 + b2 - obj.y


def _reference_loss_and_gradient(obj, theta):
    """The gradient as allocating expressions, in the operand order the
    in-place evaluation keeps."""
    W2, H, e = _reference_forward(obj, theta)
    n = e.size
    r = e / n
    dZ = (r[:, None] * W2[None, :]) * (1.0 - H * H)
    return 0.5 * float(e @ e) / n, np.concatenate(
        [(dZ.T @ obj.X).ravel(), dZ.sum(axis=0), H.T @ r, [r.sum()]])


def _reference_hvp(obj, theta, vec):
    """The forward-over-reverse HVP as allocating expressions."""
    W2, H, e = _reference_forward(obj, theta)
    n = e.size
    r = e / n
    T = 1.0 - H * H
    A2 = 2.0 * (r[:, None] * W2[None, :]) * H
    V1, c1, V2, c2 = _reference_unpack(obj, vec)
    RH = T * (obj.X @ V1.T + c1)
    Rr = (RH @ W2 + H @ V2 + c2) / n
    RdZ = (Rr[:, None] * W2[None, :] + r[:, None] * V2[None, :]) * T - A2 * RH
    return np.concatenate([(RdZ.T @ obj.X).ravel(), RdZ.sum(axis=0),
                           H.T @ Rr + RH.T @ r, [Rr.sum()]])


def _assert_matches_allocating_reference(obj, rng):
    for scale in (0.03, 0.1, 1.0):
        th = rng.normal(0.0, scale, obj.param_dim)
        v = rng.standard_normal(obj.param_dim)
        val, g = obj.loss_and_gradient(th)
        want_val, want_g = _reference_loss_and_gradient(obj, th)
        assert val == want_val and np.array_equal(g, want_g)
        assert obj.loss(th) == want_val
        hvp = obj.hvp_at(th)
        for w in (v, g):
            assert np.array_equal(hvp(w), _reference_hvp(obj, th, w))


def test_fnn_in_place_evaluation_matches_allocating_reference_bit_for_bit(fig6_fnn):
    # 200 x 1000: twelve row blocks of 16 and a ragged last block of 8
    assert [T.shape for _, T in fig6_fnn._blocks] == [(16, 1000)] * 12 + [(8, 1000)]
    _assert_matches_allocating_reference(fig6_fnn, np.random.default_rng(11))


@pytest.mark.parametrize("n,d,m,n_blocks", [
    (200, 1, 20, 1),  # fig5's shape, 200 x 20: every chain runs as one block
    (3, 2, BLOCK_ENTRIES + 1, 3),  # a row wider than a block: one-row blocks
], ids=["one-block", "one-row-blocks"])
def test_fnn_row_blocks_match_allocating_reference_bit_for_bit(n, d, m, n_blocks):
    obj = FnnObjective(FnnTaskSpec(input_dim=d, width=m, n_samples=n,
                                   target="linear-plus-diag-quadratic"))
    assert len(obj._blocks) == n_blocks
    _assert_matches_allocating_reference(obj, np.random.default_rng(14))


def test_fnn_calls_restore_the_callers_ufunc_buffer(fig6_fnn):
    # the chains with outer products shrink numpy's ufunc buffer; the caller's
    # setting comes back on return
    obj = fig6_fnn
    th = np.random.default_rng(15).normal(0.0, 0.05, obj.param_dim)
    with np.errstate():
        np.setbufsize(4096)
        _, g = obj.loss_and_gradient(th)
        obj.hvp_at(th)(g)
        assert np.getbufsize() == 4096


def test_fnn_closure_survives_later_calls_on_the_shared_buffers(fig6_fnn):
    obj = fig6_fnn
    rng = np.random.default_rng(12)
    th1, th2 = rng.normal(0.0, 0.05, (2, obj.param_dim))
    v = rng.standard_normal(obj.param_dim)
    first = obj.hvp_at(th1)
    before = first(v)
    kept = before.copy()
    _, g = obj.loss_and_gradient(th2)
    g_kept = g.copy()
    second = obj.hvp_at(th2)
    other = second(v)
    assert np.array_equal(first(v), kept)
    assert np.array_equal(before, kept) and np.array_equal(g, g_kept)
    assert np.array_equal(second(v), other)
    assert np.array_equal(other, _reference_hvp(obj, th2, v))


def test_fnn_closure_on_a_second_thread_matches_serial_calls(fig6_fnn):
    # a wide run's probe products run on a second thread beside the
    # objective's gradients; neither may write what the other reads
    obj = fig6_fnn
    rng = np.random.default_rng(16)
    th, *points = rng.normal(0.0, 0.05, (4, obj.param_dim))
    vecs = rng.standard_normal((6, obj.param_dim))
    threads = blas.set_threads(1)  # as run holds it, so no BLAS split moves a bit
    switch = sys.getswitchinterval()
    try:
        hvp = obj.hvp_at(th)
        want_h = [hvp(v) for v in vecs]
        want_g = [obj.loss_and_gradient(p) for p in points]
        got_h, got_g = [], []
        sys.setswitchinterval(1e-5)
        worker = threading.Thread(target=lambda: got_h.extend(hvp(v) for v in vecs))
        worker.start()
        deadline = time.monotonic() + 60
        while not got_g or worker.is_alive() and time.monotonic() < deadline:
            got_g += [obj.loss_and_gradient(p) for p in points]
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        if threads is not None:
            blas.set_threads(threads)
    assert not worker.is_alive()
    assert len(got_h) == len(vecs)
    assert all(np.array_equal(a, b) for a, b in zip(got_h, want_h))
    for k, (val, g) in enumerate(got_g):
        want_val, want_g_k = want_g[k % len(points)]
        assert val == want_val and np.array_equal(g, want_g_k)


def _minor_faults_per_call(fn, calls=20, warmup=3):
    for _ in range(warmup):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def test_fnn_calls_do_not_fault_in_fresh_work_buffers(fig6_fnn):
    # a call that allocated even one fresh n x m array would fault in its
    # pages every time, since glibc hands arrays this large back to the OS
    obj = fig6_fnn
    n, m = obj.spec.n_samples, obj.spec.width
    one_buffer = n * m * 8 / resource.getpagesize()
    rng = np.random.default_rng(13)
    th = rng.normal(0.0, 0.05, obj.param_dim)
    v = rng.standard_normal(obj.param_dim)
    hvp = obj.hvp_at(th)
    assert _minor_faults_per_call(lambda: obj.loss_and_gradient(th)) < one_buffer
    assert _minor_faults_per_call(lambda: obj.loss(th)) < one_buffer
    assert _minor_faults_per_call(lambda: hvp(v)) < one_buffer


def test_fnn_steps_do_not_fault_in_fresh_arrays(fig6_fnn):
    # figD8's step (Adam with a v floor on the 52k-parameter net) updates its
    # moments in place and reuses the pages it frees: 0 faults per step past
    # the run's set-up, against 5.7 with m and v allocated afresh each step;
    # one more temporary once cost a figD8 step 156 faults and 30% more time
    obj = fig6_fnn
    theta0, hyper, plan = obj.initial_point(), AdamHyper(eta=0.02), MitigationPlan(v_floor=0.01)
    faults = {k: _minor_faults_per_call(
        lambda: run(obj, theta0, "adam", hyper, plan=plan, n_steps=k), calls=2, warmup=1)
        for k in (5, 65)}
    assert (faults[65] - faults[5]) / 60 < 2.0


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
