"""Theory oracles: descent lemma, stability boundary, certificates, witnesses."""

import math

import numpy as np
import pytest

from spikelab import (AdamHyper, QuadraticSpec, check_descent_lemma,
                      five_stage_certificate, lr_decay_witness, make_quadratic,
                      momentum_boundary, momentum_stability_classify,
                      real_spectrum_check, run, spike_iff_check)
from spikelab.errors import (Indeterminate, OracleMisuse, OracleSizeExceeded,
                             PreconditionViolation, ZeroGradient)

# === descent lemma ==========================================================


def test_descent_lemma_holds_on_stable_gd():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.05),
                n_steps=50)
    report = check_descent_lemma(trace, obj)
    assert report.holds
    assert report.checked_steps > 0
    assert report.violations == 0
    assert report.worst_slack >= 0.0


def test_descent_lemma_rejects_wrong_optimizer():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))
    trace = run(obj, obj.initial_point(1.0), "adam", AdamHyper(eta=0.05),
                n_steps=10)
    with pytest.raises(OracleMisuse):
        check_descent_lemma(trace, obj)


# === momentum boundary ======================================================


def test_boundary_closed_form():
    # eta times the boundary depends only on beta1; 38 at beta1 = 0.9
    for eta in (0.05, 0.1, 0.5):
        assert eta * momentum_boundary(eta, 0.9) == pytest.approx(38.0, rel=1e-12)
    assert momentum_boundary(0.1, 0.0) == pytest.approx(20.0)


@pytest.mark.parametrize("beta1", [0.0, 0.5, 0.9])
def test_classifier_brackets_the_boundary(beta1):
    eta = 0.1
    lam_star = momentum_boundary(eta, beta1)
    assert momentum_stability_classify(0.98 * lam_star, eta, beta1) == "stable"
    assert momentum_stability_classify(1.02 * lam_star, eta, beta1) == "unstable"


def test_classifier_indeterminate_on_the_boundary():
    with pytest.raises(Indeterminate):
        momentum_stability_classify(momentum_boundary(0.1, 0.0), 0.1, 0.0)


def test_classifier_input_validation():
    with pytest.raises(PreconditionViolation):
        momentum_stability_classify(-1.0, 0.1, 0.5)
    with pytest.raises(PreconditionViolation):
        momentum_stability_classify(10.0, 0.1, 1.0)


# === real spectrum ==========================================================


def test_preconditioned_spectrum_is_real():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30))
    H = 0.5 * (a + a.T)
    d = np.exp(rng.standard_normal(30))
    report = real_spectrum_check(H, d)
    assert report.holds
    assert report.max_imag_ratio <= 1e-8
    assert report.max_rel_mismatch <= 1e-8


def test_real_spectrum_guards():
    with pytest.raises(OracleSizeExceeded):
        real_spectrum_check(np.eye(201), np.ones(201))
    with pytest.raises(PreconditionViolation):
        real_spectrum_check(np.eye(3), np.array([1.0, 0.0, 1.0]))


# === five-stage certificate =================================================


def test_certificate_frozen_reference_case():
    cert = five_stage_certificate(10.0, 0.15, 0.99)
    assert cert.hypothesis_ok
    assert cert.hypothesis_lhs == pytest.approx(99.49916247342153, rel=1e-12)
    assert cert.hypothesis_rhs == pytest.approx(1.6470748069599828, rel=1e-12)
    assert cert.t1_formula == pytest.approx(837.221194205736, rel=1e-12)
    assert cert.s == pytest.approx(0.985, rel=1e-12)
    assert cert.delta == pytest.approx(3.207191753041487e-05, rel=1e-10)
    assert cert.simulated_boundaries == {
        "t0": 0, "t1": 837, "t2": 1010, "t3": 1374, "t4": 1377, "t5": 1959}
    assert cert.t5_kind == "reviolation"
    assert cert.q > 1.0
    assert cert.all_hold()
    assert cert.worst_slack() >= -1e-12


def test_certificate_hypothesis_can_fail():
    cert = five_stage_certificate(10.0, 0.15, 0.5)
    assert not cert.hypothesis_ok
    assert cert.hypothesis_lhs == pytest.approx(1.4426950408889634, rel=1e-12)
    assert cert.hypothesis_lhs < cert.hypothesis_rhs
    assert cert.simulated_boundaries == {}
    assert not cert.all_hold()


def test_certificate_preconditions():
    with pytest.raises(PreconditionViolation):
        five_stage_certificate(10.0, -0.1, 0.99)
    with pytest.raises(PreconditionViolation):
        five_stage_certificate(10.0, 0.15, 1.0)
    with pytest.raises(PreconditionViolation):
        five_stage_certificate(0.05, 0.15, 0.99)
    for theta0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionViolation, match="finite"):
            five_stage_certificate(theta0, 0.15, 0.99)


def test_certificate_honors_max_steps():
    # 1500 covers t4 = 1377 but ends before the reviolation at 1959
    cert = five_stage_certificate(10.0, 0.15, 0.99, max_steps=1500)
    assert cert.max_steps == 1500
    assert cert.simulated_boundaries["t4"] == 1377
    assert cert.simulated_boundaries["t5"] == 1500
    assert cert.t5_kind == "trace-end"
    assert cert.all_hold()


# === exact iff condition ====================================================


class Quartic:
    """1-d f(theta) = theta^4 / 4, a clean non-quadratic test bed."""

    kind = "quartic"

    def loss(self, th):
        return float(th[0] ** 4) / 4.0

    def gradient(self, th):
        return np.array([th[0] ** 3])

    def hvp(self, th, v):
        return np.array([3.0 * th[0] ** 2 * v[0]])


@pytest.mark.parametrize("eta,expected", [(0.1, 2.805), (0.5, 2.125)])
def test_averaged_hessian_closed_form(eta, expected):
    # 2 int_0^1 (1-s) f''(1 - s eta) ds = 3 - 2 eta + eta^2 / 2 for the quartic
    res = spike_iff_check(Quartic(), np.array([1.0]), eta)
    assert res.estimate == pytest.approx(expected, rel=1e-10)
    assert res.determinate
    assert res.consistent()


def test_iff_detects_unstable_quadratic():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))
    res = spike_iff_check(obj, np.array([1.0]), eta=3.0)
    assert res.lhs and res.rhs and res.consistent()
    assert res.threshold == pytest.approx(2.0 / 3.0)


def test_iff_needs_a_gradient():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))
    with pytest.raises(ZeroGradient):
        spike_iff_check(obj, np.array([0.0]), eta=0.1)


# === decaying learning rate =================================================


def test_lr_decay_witness_frozen():
    report = lr_decay_witness(1.0, 0.1, 0.5, 0.9999)
    assert report.found
    assert report.step == 180984
    assert report.checked_steps == 180985


def test_lr_decay_control_is_reported_not_asserted():
    report = lr_decay_witness(1.0, 0.1, 0.5, 0.5)
    assert isinstance(report.found, bool)
    assert report.checked_steps >= 1
    assert report.params["beta2"] == 0.5


def test_lr_decay_preconditions():
    with pytest.raises(PreconditionViolation):
        lr_decay_witness(1.0, 0.1, 1.0, 0.9999)
    with pytest.raises(PreconditionViolation):
        lr_decay_witness(1.0, 0.1, 0.5, 1.0)
    with pytest.raises(PreconditionViolation):
        lr_decay_witness(0.2, 0.1, 0.5, 0.9999)
    for theta0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionViolation, match="finite"):
            lr_decay_witness(theta0, 0.1, 0.5, 0.9999, max_steps=10)
    for eta0 in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(PreconditionViolation, match="positive finite eta0"):
            lr_decay_witness(1.0, eta0, 0.5, 0.9999, max_steps=10)
