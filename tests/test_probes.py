"""Spectral probes against dense linear-algebra oracles."""

import itertools
import math

import numpy as np
import pytest

from spikelab import (OPTIMIZER_KINDS, AdamHyper, Preconditioner, ProbePlan, ProbeWarmStart,
                      QuadraticObjective, QuadraticSpec, build_scenario, compute_probe,
                      dense_hessian, lambda_grad, lanczos, make_quadratic, power_iteration,
                      preset_config, run, run_scenario, stream)
from spikelab import probes
from spikelab.errors import ConfigError, ZeroGradient

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


# === lanczos ================================================================


def test_lanczos_matches_dense_on_fnn(small_fnn, fnn_point):
    # 19 parameters against a 6-vector basis, so the solve restarts
    sq = np.sqrt(np.exp(np.random.default_rng(6).standard_normal(fnn_point.dim)))
    hvp = small_fnn.hvp_at(fnn_point.values)
    res = lanczos(lambda w: sq * hvp(sq * w), _cold(fnn_point.dim), max_iters=500,
                  tol=1e-12)
    H = dense_hessian(small_fnn, fnn_point)
    top = float(np.linalg.eigvalsh(sq[:, None] * H * sq[None, :])[-1])
    assert res.converged
    assert res.value == pytest.approx(top, rel=1e-10)


def test_lanczos_converges_where_power_iteration_does_not():
    # figD12's spectrum, 1-99 then 101-110, under a non-uniform diagonal D; the
    # top two eigenvalues of D H sit 1.1% apart. The stop divides by the Ritz
    # gap, which overstates the true gap, so the error exceeds tol (4.6e-6).
    eigs = preset_config("figD12-gd-delay")["objective.eigenvalues"]
    lam = np.array([float(v) for v in eigs.split(",")])
    d = np.exp(0.05 * np.random.default_rng(0).standard_normal(lam.size))
    top = float(np.max(d * lam))
    res = lanczos(lambda w: d * lam * w, _cold(lam.size))
    assert res.converged and res.iters_used <= 100
    assert res.value == pytest.approx(top, rel=1e-5)
    pi = power_iteration(lambda w: d * lam * w, _cold(lam.size))
    assert not pi.converged and abs(pi.value - top) > abs(res.value - top)


@pytest.mark.parametrize("a", [0.37, -2.5, 7.0, 123.456])
@pytest.mark.parametrize("v0", [2.0, -0.3])
def test_lanczos_at_d1_is_power_iteration(a, v0):
    start = np.array([v0])
    got = lanczos(lambda w: a * w, start)
    assert got.converged and got.iters_used == 1
    assert got.value == power_iteration(lambda w: a * w, start).value


def test_lanczos_zero_operator_and_bad_start():
    res = lanczos(lambda w: np.zeros_like(w), _cold(4))
    assert res.value == 0.0 and res.converged
    with pytest.raises(ConfigError, match="nonzero start vector"):
        lanczos(lambda w: w, np.zeros(3))


@np.errstate(invalid="ignore")  # as run's probes are
def test_lanczos_reports_a_non_finite_product_unconverged():
    res = lanczos(lambda w: np.full_like(w, np.inf), _cold(4))
    assert np.isnan(res.value) and not res.converged and res.iters_used == 1


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


@pytest.mark.parametrize("root,epsilon,scale", [
    ([1.0, np.nan], 1e-8, 1.0), ([np.inf, 1.0], 1e-8, 1.0), ([1.0, -np.inf], 1e-8, 1.0),
    ([2.0, -3.0], 1e-8, 1.0), ([1.0, 0.0], 0.0, 1.0),
    ([1.0, 2.0], 1e-8, 0.0), ([1.0, 2.0], 1e-8, -1.0), ([1.0, 2.0], 1e-8, np.nan),
    ([1.0, 2.0], 1e-8, np.inf), (None, 0.0, 0.0), (None, 0.0, -1.0), (None, 0.0, np.nan),
    (None, 0.0, np.inf),
], ids=["nan-root", "inf-root", "minus-inf-root", "negative-root", "zero-denominator",
        "scale-0", "scale-minus-1", "scale-nan", "scale-inf", "scalar-0", "scalar-minus-1",
        "scalar-nan", "scalar-inf"])
@np.errstate(divide="ignore")  # as run's probes are: a zero denominator gives inf
def test_preconditioner_diag_refuses_what_is_not_positive_finite(root, epsilon, scale):
    pre = Preconditioner(None if root is None else np.array(root), epsilon, scale)
    with pytest.raises(ConfigError, match="positive finite"):
        pre.diag()


def test_preconditioner_diag_is_the_quotient_and_a_scalar_is_its_scale():
    root = np.exp(np.random.default_rng(7).standard_normal(5))
    pre = Preconditioner(root, 1e-8, 0.3)
    assert pre.diag().tobytes() == (0.3 / (root + 1e-8)).tobytes()
    assert Preconditioner(None, 0.0, 0.9 / 1.1).diag() == 0.9 / 1.1


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
    # g^T H g / g^T D^(-1) g, the gradient quotient in the D^(-1) inner
    # product: that inner product makes the bound exact, not just approximate
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
        got = float(g @ quad3.hvp(th, g)) / float(np.sum(g * g / pre.diag()))
        assert got <= lam * (1.0 + 1e-8)


# === full probe =============================================================


class _RotatedQuadratic:
    """0.5 x.A x for A = Q diag(1, 5, 10) Q', whose Hessian is not diagonal."""

    def __init__(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
        self.A = q @ np.diag([1.0, 5.0, 10.0]) @ q.T

    def gradient(self, x):
        return self.A @ x

    def hvp_at(self, x):
        return lambda v: self.A @ v


def test_compute_probe_record():
    obj = _RotatedQuadratic()
    top = float(np.linalg.eigvalsh(obj.A)[-1])
    th = np.array([1.0, 1.0, 1.0])
    g = obj.gradient(th)
    pre = Preconditioner(np.ones(3), 0.0, 1.0)
    warm = ProbeWarmStart()
    rec = compute_probe(obj, th, pre, g, eta_t=0.1, step=7, seed=0, warm=warm)
    assert rec.step == 7
    assert rec.threshold == pytest.approx(20.0)
    assert rec.lambda_max_H == pytest.approx(top, rel=1e-4)
    assert rec.lambda_max_Hhat == pytest.approx(top, rel=1e-4)
    assert rec.lambda_grad_Hhat is not None
    assert rec.converged
    assert warm.raw is not None and warm.pre is not None


def test_compute_probe_takes_each_warm_norm_once(monkeypatch):
    # a warm vector is normed once, by the solver; one without a positive
    # norm (None, zero, NaN) gives the cold probe's record
    obj = _RotatedQuadratic()
    th = np.array([1.0, -0.5, 0.25])
    g, pre = obj.gradient(th), Preconditioner(np.array([1.0, 2.0, 3.0]), 1e-8, 0.5)

    def probe(warm):
        return compute_probe(obj, th, pre, g, eta_t=0.1, step=3, seed=0, warm=warm)

    cold = probe(ProbeWarmStart())
    for bad in (np.zeros(3), np.full(3, np.nan)):
        assert probe(ProbeWarmStart(bad, bad.copy())) == cold
    warm = ProbeWarmStart(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0]))
    starts, seen = (warm.raw, warm.pre), []
    real = probes.norm

    def norm(x):
        seen.extend(i for i, v in enumerate(starts) if x is v)
        return real(x)

    monkeypatch.setattr(probes, "norm", norm)
    probe(warm)
    assert sorted(seen) == [0, 1]


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

    assert rec.converged
    assert rec.lambda_max_H == pytest.approx(np.linalg.eigvalsh(H)[-1], rel=1e-6)
    assert rec.lambda_max_Hhat == pytest.approx(
        np.linalg.eigvalsh(sq[:, None] * H * sq[None, :])[-1], rel=1e-6)


def test_scalar_preconditioner_scales_the_raw_value(quad3):
    th = np.array([1.0, -2.0, 0.5])
    pre = Preconditioner(None, 0.0, 0.9 / 1.1)  # heavy-ball's D = c I
    warm = ProbeWarmStart()
    rec = compute_probe(quad3, th, pre, quad3.gradient(th), eta_t=0.1, step=3, seed=0,
                        warm=warm)
    assert rec.lambda_max_Hhat == pre.scale * rec.lambda_max_H
    assert rec.lambda_max_H == pytest.approx(10.0, rel=1e-4)
    assert warm.pre is None  # no second solve


def test_lambda_max_is_the_top_eigenvalue_not_the_dominant_one():
    # power iteration alone finds -3, the eigenvalue largest in magnitude
    obj = make_quadratic(QuadraticSpec(eigenvalues=(-3.0, 1.0)))
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.1), n_steps=4,
                probes=ProbePlan(every=1))
    for col in ("lambda_max_H", "lambda_max_Hhat"):
        assert trace.probes[col] == pytest.approx(1.0, rel=1e-6)
    assert trace.probes["converged"].all()


# === closed-form probes at one parameter ====================================

# lambda, the root of v_hat (None: D is the scalar scale), epsilon, scale and
# g. Each |lambda| squares to a normal float, where the one-element solvers
# take no rounding step (see the test after this one). |lambda| >= 1e100 under
# a root of 1e-300 and no epsilon makes sqrt(d) (lambda sqrt(d)) overflow; a root of 0
# or -0.0 with no epsilon is a zero denominator; g = 1e-170 squares to 0 and
# g = 1e200 to inf.
CLOSED_LAMS = (1.0, 0.37, 100.0, 2.0 ** 511, -3.0, -1e150, 0.0, -0.0, 1e100)
CLOSED_ROOTS = (None, 0.0, -0.0, 1e-300, 0.3, 2.0, 1e5)
CLOSED_EPSILONS = (0.0, 1e-8, 1e-3)
CLOSED_SCALES = (1.0, 0.9 / 1.1, 0.1 / 1.9 / 0.1, 1e-3)
CLOSED_GRADS = (0.0, -0.0, 1.0, -0.731, 1e-170, 1e200)


@pytest.mark.parametrize("lam", CLOSED_LAMS)
@np.errstate(all="ignore")  # as run's probes are
def test_closed_form_probe_has_the_one_element_solvers_bits(lam):
    # compute_probe on floats against compute_probe on one-element arrays,
    # whose solvers run: power iteration, Lanczos where lambda < 0, and a
    # second Lanczos under a v_hat root. The array probes share one warm start,
    # cold for the first probe and warm after, as in a run.
    obj = make_quadratic(QuadraticSpec(eigenvalues=(lam,)))
    warm, seen = ProbeWarmStart(), {"nan": 0, "no-grad": 0, "refused": 0}
    for root, eps, scale, g in itertools.product(CLOSED_ROOTS, CLOSED_EPSILONS,
                                                 CLOSED_SCALES, CLOSED_GRADS):
        if root is None and eps:
            continue  # epsilon is unread without a root
        pre = Preconditioner(root, eps, scale)
        pre_arr = pre if root is None else Preconditioner(np.array([root]), eps, scale)
        try:
            arr = compute_probe(obj, np.array([0.7]), pre_arr, np.array([g]), 0.1, 4, 0, warm)
        except ConfigError as err:
            with pytest.raises(ConfigError, match=str(err)):
                compute_probe(obj, 0.7, pre, g, 0.1, 4, 0, ProbeWarmStart())
            seen["refused"] += 1
            continue
        got = compute_probe(obj, 0.7, pre, g, 0.1, 4, 0, ProbeWarmStart())
        assert got.power_iters_used == 0
        assert repr(got._replace(power_iters_used=None)) == repr(
            arr._replace(power_iters_used=None)), (root, eps, scale, g)
        seen["nan"] += math.isnan(got.lambda_max_Hhat) and not got.converged
        seen["no-grad"] += got.lambda_grad_Hhat is None
    assert seen["no-grad"] and seen["refused"]
    assert bool(seen["nan"]) == (abs(lam) >= 1e100)  # d reaches 1e300


@pytest.mark.parametrize("lam", [1e200, -1e200, 1e-160, 1e-300])
def test_closed_form_reads_lambda_where_the_one_element_solvers_round(lam):
    # power iteration's norm squares lambda: past 2^512 the square overflows
    # and the solve reads 0.0; below 2^-511 it loses bits or underflows
    obj = make_quadratic(QuadraticSpec(eigenvalues=(lam,)))
    pre = Preconditioner(None, 0.0, 1.0)
    with np.errstate(all="ignore"):
        arr = compute_probe(obj, np.array([0.7]), pre, np.array([1.0]), 0.1, 0, 0,
                            ProbeWarmStart())
    got = compute_probe(obj, 0.7, pre, 1.0, 0.1, 0, 0, ProbeWarmStart())
    assert got.lambda_max_H == lam != arr.lambda_max_H
    assert got.converged


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_one_parameter_probes_take_no_product_or_solve(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-parameter probe took a product or a solve")

    monkeypatch.setattr(QuadraticObjective, "hvp_at", refuse)
    monkeypatch.setattr(probes, "power_iteration", refuse)
    monkeypatch.setattr(probes, "lanczos", refuse)
    obj = make_quadratic(QuadraticSpec(eigenvalues=(3.0,)))
    trace = run(obj, obj.initial_point(0.7), kind, AdamHyper(eta=0.05), n_steps=30,
                probes=ProbePlan(every=2))
    assert trace.status == "completed" and trace.probes.size == 15
    assert trace.probes["converged"].all() and not trace.probes["power_iters_used"].any()


def test_many_parameter_probes_still_take_the_solvers(monkeypatch):
    # figD12 (100 parameters) probes through the HVP closure and the solvers
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for owner, name in ((QuadraticObjective, "hvp_at"), (probes, "power_iteration")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    res = run_scenario(build_scenario({**preset_config("figD12-gd-delay"), "n_steps": 5}))
    assert res.trace.probes.size == 5 and res.trace.probes["power_iters_used"].all()
    # the first probe calls power_iteration twice: its missing warm vector is
    # refused and the cold draw taken
    assert calls.count("hvp_at") == 5 and calls.count("power_iteration") == 6
