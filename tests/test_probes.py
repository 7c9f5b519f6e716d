"""Spectral probes against dense linear-algebra oracles."""

import numpy as np
import pytest

from spikelab import (Preconditioner, ProbeWarmStart, compute_probe, dense_hessian,
                      lambda_grad, power_iteration, stream, sustained_predictor)
from spikelab.errors import BoundaryUndefined, ConfigError, ZeroGradient
from spikelab.oracles import lambda_grad_weighted

# === power iteration ========================================================


def _sym(seed, n):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T / n


def _cold(n):
    """A seeded random start vector for power iteration."""
    return stream(0, "power-iteration").standard_normal(n)


def test_power_iteration_matches_dense():
    A = _sym(0, 12)
    top = float(np.linalg.eigvalsh(A)[-1])
    res = power_iteration(lambda w: A @ w, _cold(12), max_iters=500, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(top, rel=1e-6)


def test_power_iteration_zero_operator():
    res = power_iteration(lambda w: np.zeros_like(w), _cold(4))
    assert res.value == 0.0 and res.converged


def test_power_iteration_warm_start_is_fast():
    A = _sym(1, 20)
    cold = power_iteration(lambda w: A @ w, _cold(20), tol=1e-10, max_iters=500)
    warm = power_iteration(lambda w: A @ w, cold.vector, tol=1e-10, max_iters=500)
    assert warm.iters_used <= 3
    assert warm.value == pytest.approx(cold.value, rel=1e-8)


def test_power_iteration_rejects_empty():
    for v0 in (np.empty(0), np.zeros(3), 3.0):
        with pytest.raises(ConfigError, match="nonzero start vector"):
            power_iteration(lambda w: w, v0)


# === preconditioner =========================================================


def test_adam_scale_formula():
    pre = Preconditioner.for_adam(0.9, 0.999, 1, np.ones(2), 0.0)
    want = (0.1 / 1.9) / (1.0 - 0.9)
    assert pre.scale == pytest.approx(want)
    assert np.allclose(pre.diag(), want)


def test_adam_scale_without_bias_correction():
    pre = Preconditioner.for_adam(0.9, 0.999, 1, np.ones(2), 0.0,
                                  bias_correction=False)
    assert pre.scale == pytest.approx(0.1 / 1.9)


def test_preconditioner_validation():
    with pytest.raises(ConfigError, match="t >= 1"):
        Preconditioner.for_adam(0.0, 0.999, 0, np.ones(2), 0.0)
    with pytest.raises(ConfigError, match="non-negative"):
        Preconditioner.for_adam(0.0, 0.999, 1, -np.ones(2), 0.0)
    with pytest.raises(ConfigError, match="scale"):
        Preconditioner(np.ones(2), 0.0, 0.0).diag()
    with pytest.raises(ConfigError, match="positive finite"):
        Preconditioner(np.array([1.0, np.inf]), 0.0, 1.0).diag()


# === preconditioned spectrum ================================================


def test_preconditioned_lambda_matches_dense(quad3):
    d = np.array([0.5, 2.0, 0.1])
    pre = Preconditioner(1.0 / d, 0.0, 1.0)
    assert np.allclose(pre.diag(), d)
    th = np.ones(3)
    rec = compute_probe(quad3, th, pre, quad3.gradient(th), eta_t=0.1, step=0,
                        seed=0, warm=ProbeWarmStart(), max_iters=500, tol=1e-12)
    want = float(np.max(d * np.array([1.0, 5.0, 10.0])))
    assert rec.lambda_max_Hhat == pytest.approx(want, rel=1e-6)


def test_raw_lambda_on_quadratic(quad3):
    res = power_iteration(lambda w: quad3.hvp(np.ones(3), w), _cold(3), tol=1e-12,
                          max_iters=500)
    assert res.value == pytest.approx(10.0, rel=1e-6)


def test_lambda_grad_quotient(quad3):
    d = np.array([1.0, 0.5, 0.25])
    pre = Preconditioner(1.0 / d, 0.0, 1.0)
    th = np.array([1.0, 1.0, 1.0])
    g = quad3.gradient(th)
    got = lambda_grad(pre.diag(), quad3.hvp_at(th), g)
    want = float(g @ (d * quad3.hvp(th, g))) / float(g @ g)
    assert got == pytest.approx(want, rel=1e-12)


def test_lambda_grad_zero_gradient(quad3):
    pre = Preconditioner(np.ones(3), 0.0, 1.0)
    with pytest.raises(ZeroGradient):
        lambda_grad(pre.diag(), quad3.hvp_at(np.zeros(3)), np.zeros(3))


def test_weighted_quotient_bounded_by_lambda_max(quad3):
    # the D^(-1) inner product makes the bound exact, not just approximate
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = np.exp(rng.standard_normal(3))
        pre = Preconditioner(1.0 / d, 0.0, 1.0)
        th = rng.standard_normal(3)
        g = quad3.gradient(th)
        if not np.any(g):
            continue
        lam = compute_probe(quad3, th, pre, g, eta_t=0.1, step=0, seed=0,
                            warm=ProbeWarmStart(), max_iters=1000,
                            tol=1e-12).lambda_max_Hhat
        got = lambda_grad_weighted(pre, quad3, th, g)
        assert got <= lam * (1.0 + 1e-8)


# === sustained predictor ====================================================


def test_sustained_is_min_of_three():
    s = [5.0, 1.0, 4.0, 2.0, 9.0]
    assert sustained_predictor(s, 1) == 1.0
    assert sustained_predictor(s, 2) == 1.0
    assert sustained_predictor(s, 3) == 2.0


def test_sustained_undefined_at_edges():
    with pytest.raises(BoundaryUndefined):
        sustained_predictor([1.0, 2.0, 3.0], 0)
    with pytest.raises(BoundaryUndefined):
        sustained_predictor([1.0, 2.0, 3.0], 2)


# === full probe =============================================================


def test_compute_probe_record(quad3):
    th = np.array([1.0, 1.0, 1.0])
    g = quad3.gradient(th)
    pre = Preconditioner(np.ones(3), 0.0, 1.0)
    warm = ProbeWarmStart()
    rec = compute_probe(quad3, th, pre, g, eta_t=0.1, step=7, seed=0, warm=warm)
    assert rec.step == 7
    assert rec.threshold == pytest.approx(20.0)
    assert rec.lambda_max_H == pytest.approx(10.0, rel=1e-4)
    assert rec.lambda_max_Hhat == pytest.approx(10.0, rel=1e-4)
    assert rec.lambda_grad_Hhat is not None
    assert rec.converged
    assert warm.raw is not None and warm.pre is not None


def test_compute_probe_skips_grad_quotient_at_minimum(quad3):
    th = np.zeros(3)
    pre = Preconditioner(np.ones(3), 0.0, 1.0)
    rec = compute_probe(quad3, th, pre, np.zeros(3), eta_t=0.1, step=0, seed=0,
                        warm=ProbeWarmStart())
    assert rec.lambda_grad_Hhat is None


def test_compute_probe_matches_dense_on_fnn(small_fnn, fnn_point):
    # a random positive v_hat, so D and H do not commute
    th = fnn_point.values
    v_hat = np.exp(np.random.default_rng(5).standard_normal(th.size))
    pre = Preconditioner.for_adam(0.9, 0.999, 3, v_hat, 1e-8)
    rec = compute_probe(small_fnn, th, pre, small_fnn.gradient(th), eta_t=0.01,
                        step=0, seed=0, warm=ProbeWarmStart(), max_iters=500,
                        tol=1e-10)
    H = dense_hessian(small_fnn, fnn_point)
    sq = np.sqrt(pre.diag())

    def dominant(A):
        ev = np.linalg.eigvalsh(A)
        return float(ev[np.argmax(np.abs(ev))])

    assert rec.converged
    assert rec.lambda_max_H == pytest.approx(dominant(H), rel=1e-6)
    assert rec.lambda_max_Hhat == pytest.approx(
        dominant(sq[:, None] * H * sq[None, :]), rel=1e-6)
