"""Theory oracles: descent lemma, stability boundary, certificates, witnesses."""

import math
import re

import numpy as np
import pytest

from spikelab import (AdamHyper, QuadraticSpec, check_descent_lemma,
                      five_stage_certificate, lr_decay_witness, make_quadratic,
                      momentum_boundary, momentum_stability_classify, real_spectrum_check,
                      run, spike_iff_certificate, spike_iff_check)
from spikelab.errors import (Indeterminate, OracleMisuse, OracleSizeExceeded,
                             PreconditionViolation, ZeroGradient)
from spikelab.oracles import FIVE_STAGE_HORIZON_CAP, theorem_recursion

# === descent lemma ==========================================================


def test_descent_lemma_holds_on_stable_gd():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.05),
                n_steps=50)
    report = check_descent_lemma(trace, obj)
    assert report["verdict"] == "PASS"
    assert report["checked_steps"] > 0
    assert report["violations"] == 0
    assert report["worst_slack"] >= 0.0


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
    assert report["verdict"] == "PASS"
    assert report["max_imag_ratio"] <= 1e-8
    assert report["max_rel_mismatch"] <= 1e-8


def test_real_spectrum_guards():
    with pytest.raises(OracleSizeExceeded):
        real_spectrum_check(np.eye(201), np.ones(201))
    with pytest.raises(PreconditionViolation):
        real_spectrum_check(np.eye(3), np.array([1.0, 0.0, 1.0]))


# === five-stage certificate =================================================


def test_certificate_frozen_reference_case():
    cert, _ = five_stage_certificate(10.0, 0.15, 0.99)
    assert cert["hypothesis"]["ok"]
    assert cert["hypothesis"]["lhs"] == pytest.approx(99.49916247342153, rel=1e-12)
    assert cert["hypothesis"]["rhs"] == pytest.approx(1.6470748069599828, rel=1e-12)
    assert cert["t1_formula"] == pytest.approx(837.221194205736, rel=1e-12)
    assert cert["s"] == pytest.approx(0.985, rel=1e-12)
    assert cert["delta"] == pytest.approx(3.207191753041487e-05, rel=1e-10)
    assert cert["boundaries"] == {
        "t0": 0, "t1": 837, "t2": 1010, "t3": 1374, "t4": 1377, "t5": 1959}
    assert cert["t5_kind"] == "reviolation"
    assert cert["q"] > 1.0
    assert cert["verdict"] == "PASS"
    assert cert["worst_slack"] >= -1e-12


def test_certificate_hypothesis_can_fail():
    cert, _ = five_stage_certificate(10.0, 0.15, 0.5)
    assert not cert["hypothesis"]["ok"]
    assert cert["hypothesis"]["lhs"] == pytest.approx(1.4426950408889634, rel=1e-12)
    assert cert["hypothesis"]["lhs"] < cert["hypothesis"]["rhs"]
    assert cert["boundaries"] == {}
    assert cert["verdict"] == "SKIPPED (hypothesis)"
    # no check ran, so no slack; the reason names both sides
    assert cert["worst_slack"] is None
    assert cert["reason"] == "need lhs > rhs, got lhs=1.4427 and rhs=1.64707"


def _assert_refused(body, theorem, match=""):
    """A SKIPPED (hypothesis) body that gives its reason and nothing else."""
    assert set(body) == {"theorem", "verdict", "reason"}
    assert body["theorem"] == theorem
    assert body["verdict"] == "SKIPPED (hypothesis)"
    assert re.search(match, body["reason"])


def test_certificate_preconditions():
    _assert_refused(five_stage_certificate(10.0, -0.1, 0.99)[0], "five-stage")
    _assert_refused(five_stage_certificate(10.0, 0.15, 1.0)[0], "five-stage")
    _assert_refused(five_stage_certificate(0.05, 0.15, 0.99)[0], "five-stage")
    for theta0 in (math.inf, -math.inf, math.nan):
        _assert_refused(five_stage_certificate(theta0, 0.15, 0.99)[0], "five-stage", "finite")


def _numpy_recursion(theta0, eta, beta2, n_steps):
    """theorem_recursion as a float64 array loop, one element at a time."""
    th = np.empty(n_steps + 1)
    v = np.empty(n_steps + 1)
    th[0] = theta0
    v[0] = theta0 * theta0
    for t in range(n_steps):
        th[t + 1] = (1.0 - eta / math.sqrt(v[t])) * th[t]
        v[t + 1] = beta2 * v[t] + (1.0 - beta2) * th[t] * th[t]
    return th, v


@pytest.mark.parametrize("n_steps", [8373, 10 ** 5])  # thmD4's horizon, and longer
def test_theorem_recursion_matches_a_numpy_loop_bit_for_bit(n_steps):
    got = theorem_recursion(10.0, 0.15, 0.99, n_steps)
    want = _numpy_recursion(10.0, 0.15, 0.99, n_steps)
    for a, b in zip(got, want):
        assert a.dtype == np.float64 and a.shape == (n_steps + 1,)
        assert a.tobytes() == b.tobytes()


def test_simulation_returns_the_arrays_its_certificate_read():
    _, (th, rv) = five_stage_certificate(10.0, 0.15, 0.99, max_steps=1500)
    want_th, want_v = theorem_recursion(10.0, 0.15, 0.99, 1500)
    assert th.tobytes() == want_th.tobytes() and rv.tobytes() == np.sqrt(want_v).tobytes()
    for args in ((10.0, 0.15, 0.5), (10.0, -0.1, 0.99)):  # outside, refused
        assert five_stage_certificate(*args)[1] is None


def test_certificate_honors_max_steps():
    # 1500 covers t4 = 1377 but ends before the reviolation at 1959
    cert, _ = five_stage_certificate(10.0, 0.15, 0.99, max_steps=1500)
    assert cert["params"]["max_steps"] == 1500
    assert cert["boundaries"]["t4"] == 1377
    assert cert["boundaries"]["t5"] == 1500
    assert cert["t5_kind"] == "trace-end"
    assert cert["verdict"] == "PASS"


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
    assert res["estimate"] == pytest.approx(expected, rel=1e-10)
    assert res["determinate"]
    assert res["lhs"] == res["rhs"]


def test_iff_detects_unstable_quadratic():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))
    res = spike_iff_check(obj, np.array([1.0]), eta=3.0)
    assert res["lhs"] and res["rhs"]
    assert res["threshold"] == pytest.approx(2.0 / 3.0)
    assert set(res) == {"lhs", "rhs", "estimate", "threshold", "residual", "determinate"}


def test_iff_needs_a_gradient():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))
    with pytest.raises(ZeroGradient):
        spike_iff_check(obj, np.array([0.0]), eta=0.1)


def test_iff_walk_counts_each_step_it_checks():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
    cert = spike_iff_certificate(obj, np.ones(3), 0.19, 100)
    assert cert == {"theorem": "spike-iff", "verdict": "PASS", "consistent_fraction": 1.0,
                    "determinate_steps": 100, "checked_steps": 100, "total_steps": 100,
                    "worst_margin": cert["worst_margin"]}
    assert cert["worst_margin"] > 0
    # from the minimum, GD never moves: the walk checks nothing
    cert = spike_iff_certificate(obj, np.zeros(3), 0.19, 100)
    assert (cert["verdict"], cert["checked_steps"], cert["determinate_steps"]) == (
        "SKIPPED (no evidence)", 0, 0)
    assert cert["consistent_fraction"] is None and cert["worst_margin"] is None


# === decaying learning rate =================================================


def test_lr_decay_witness_frozen():
    report = lr_decay_witness(1.0, 0.1, 0.5, 0.9999)
    assert report["verdict"] == "WITNESS-FOUND"
    assert report["witness_step"] == 180984
    assert report["checked_steps"] == 180985


def test_lr_decay_control_is_reported_not_asserted():
    report = lr_decay_witness(1.0, 0.1, 0.5, 0.5)
    assert report["verdict"] in ("WITNESS-FOUND", "NO-WITNESS")
    assert report["checked_steps"] >= 1
    assert report["params"]["beta2"] == 0.5


def test_lr_decay_preconditions():
    _assert_refused(lr_decay_witness(1.0, 0.1, 1.0, 0.9999), "lr-decay")
    _assert_refused(lr_decay_witness(1.0, 0.1, 0.5, 1.0), "lr-decay")
    _assert_refused(lr_decay_witness(0.2, 0.1, 0.5, 0.9999), "lr-decay")
    for theta0 in (math.inf, -math.inf, math.nan):
        _assert_refused(lr_decay_witness(theta0, 0.1, 0.5, 0.9999, max_steps=10),
                        "lr-decay", "finite")
    for eta0 in (-0.1, 0.0, math.nan, math.inf):
        _assert_refused(lr_decay_witness(1.0, eta0, 0.5, 0.9999, max_steps=10),
                        "lr-decay", "positive finite eta0")


def test_certificate_refuses_a_horizon_above_the_cap():
    # beta2 = 0.99999 implies 8.4e6 steps, which used to take 12 s to simulate
    _assert_refused(five_stage_certificate(10.0, 0.15, 0.99999)[0], "five-stage",
                    "horizon of at most 1000000")
    _assert_refused(five_stage_certificate(10.0, 0.15, 0.99,
                                           max_steps=FIVE_STAGE_HORIZON_CAP + 1)[0],
                    "five-stage", "horizon")
    # |theta0|/eta overflows, so t1 is infinite even with a short horizon
    _assert_refused(five_stage_certificate(1e150, 1e-200, 0.99, max_steps=100)[0],
                    "five-stage", "finite t1")


def test_certificate_refuses_theta0_whose_square_overflows():
    _assert_refused(five_stage_certificate(1e200, 1.0, 0.9)[0], "five-stage", "finite square")
