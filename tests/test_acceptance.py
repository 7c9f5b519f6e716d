"""Acceptance gate: thirteen numbered criteria, one verdict line each.

Every check runs the real pipeline at the contractual tolerances; the heavy
50-d runs are shared through module-scoped fixtures. Budgets are wall-clock
upper bounds, generous on purpose so only real regressions trip them.
"""

import math
import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from spikelab import (build_scenario, dense_hessian, five_stage_certificate,
                      lr_decay_witness, momentum_boundary,
                      momentum_stability_classify, power_iteration,
                      preset_config, real_spectrum_check, run_scenario,
                      spike_iff_certificate)
from spikelab.harness import run_sweep
from spikelab.rngs import stream


def _gate(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# === shared heavy runs ======================================================


@pytest.fixture(scope="module")
def fig2_sweep(tmp_path_factory):
    flat = preset_config("fig2bc-sweep")
    values = [float(v) for v in flat["sweep.values"].split(",")]
    t0 = time.monotonic()
    res = run_sweep(flat, "optimizer.eta", values,
                    out=tmp_path_factory.mktemp("fig2-sweep"))
    return res.rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def fig6_run():
    sc = build_scenario(preset_config("fig6-fnn50d"))
    t0 = time.monotonic()
    return run_scenario(sc), time.monotonic() - t0


# === 1-2: eta sweep on the scalar quadratic =================================


def test_criterion_01_eta_over_vhat_band(fig2_sweep):
    rows, dt = fig2_sweep
    ratios = [r["eta_over_vhat_at_spike"] for r in rows]
    ok = (len(rows) == 7
          and all(r["status"] == "completed" for r in rows)
          and all(v is not None for v in ratios)
          and all(25.0 <= v <= 55.0 for v in ratios))
    gm = math.exp(np.mean(np.log(ratios)))
    ok = ok and all(0.8 * gm <= v <= 1.2 * gm for v in ratios)
    ok = ok and dt < 10.0
    _gate(1, ok, f"eta/vhat in [{min(ratios):.1f}, {max(ratios):.1f}], "
                 f"geomean {gm:.1f}, {dt:.1f}s")


def test_criterion_02_vhat_scales_linearly(fig2_sweep):
    rows, _ = fig2_sweep
    etas = np.array([r["value"] for r in rows])
    vhats = np.array([r["vhat_at_spike"] for r in rows], dtype=float)
    slope = np.polyfit(np.log(etas), np.log(vhats), 1)[0]
    _gate(2, abs(slope - 1.0) <= 0.1, f"log-log slope {slope:.4f}")


# === 3-4: spike anatomy and the no-spike control ============================


def test_criterion_03_stage_structure():
    # spike onset must land after the stability violation (t2) and before the
    # v-recovery (t4, first second-moment growth), which must itself precede
    # the recovery boundary: onset stage, then v-recovery stage, in order
    t0 = time.monotonic()
    result = run_scenario(build_scenario(preset_config("fig3-spike")))
    dt = time.monotonic() - t0
    a = result.analysis
    fit = a["decay_fit"]
    seg = a["segmentation"]
    onset = a["spikes"][0]["onset_step"]
    b = seg["boundaries"]
    ok = (fit is not None and 0.990 <= fit["alpha_hat"] <= 0.999
          and fit["r_squared"] > 0.95
          and seg["ordered"]
          and all(b[k] is not None for k in ("t2", "t4", "t5"))
          and b["t2"] <= onset < b["t4"] < b["t5"]
          and dt < 5.0)
    _gate(3, ok, f"alpha {fit['alpha_hat']:.4f} r2 {fit['r_squared']:.4f}, "
                 f"onset {onset} in [{b['t2']}, {b['t4']}), v-recovery "
                 f"{b['t4']} before {b['t5']}, {dt:.1f}s")


def test_criterion_04_low_beta2_oscillates_without_spikes():
    t0 = time.monotonic()
    result = run_scenario(build_scenario(preset_config("fig3-oscillation")))
    dt = time.monotonic() - t0
    a = result.analysis
    crossings = a["crossings"]["lambda_max_crossing_steps"]
    ok = (a["spikes"] == [] and crossings >= 1 and a["n_steps"] == 5000
          and dt < 5.0)
    _gate(4, ok, f"0 spike events, {crossings} lambda_max crossing steps "
                 f"over 5000, {dt:.1f}s")


# === 5: five-stage certificates over a grid =================================


def test_criterion_05_certificate_grid():
    t0 = time.monotonic()
    passed = 0
    worst = math.inf
    bad = []
    for theta0 in (6.0, 10.0):
        for eta in (0.08, 0.1, 0.15, 0.2):
            for beta2 in (0.98, 0.985, 0.99):
                cert, _ = five_stage_certificate(theta0, eta, beta2)
                b = cert["boundaries"]
                seq = [b.get(k) for k in ("t0", "t1", "t2", "t3", "t4", "t5")]
                ordered = (all(v is not None for v in seq)
                           and all(x < y for x, y in zip(seq, seq[1:])))
                if cert["hypothesis"]["ok"] and cert["verdict"] == "PASS" and ordered \
                        and cert["worst_slack"] >= -1e-12:
                    passed += 1
                    worst = min(worst, cert["worst_slack"])
                else:
                    bad.append((theta0, eta, beta2))
    dt = time.monotonic() - t0
    ok = passed >= 20 and not bad and dt < 60.0
    _gate(5, ok, f"{passed}/24 triples certified, worst slack {worst:.2e}, "
                 f"{dt:.1f}s (bad: {bad})")


# === 6: momentum stability classifier =======================================


def test_criterion_06_classifier_matches_threshold():
    t0 = time.monotonic()
    eta = 0.1
    factors = (0.5, 0.8, 0.9, 0.95, 0.98, 1.02, 1.05, 1.1, 1.25, 2.0)
    mismatches = []
    for beta1 in (0.0, 0.5, 0.9):
        boundary = momentum_boundary(eta, beta1)
        for f in factors:
            want = "stable" if f < 1.0 else "unstable"
            got = momentum_stability_classify(f * boundary, eta, beta1)
            if got != want:
                mismatches.append((beta1, f))
    dt = time.monotonic() - t0
    ok = not mismatches and dt < 10.0
    _gate(6, ok, f"30/30 grid points matched across beta1 in (0, 0.5, 0.9), "
                 f"{dt:.1f}s (mismatches: {mismatches})")


# === 7: exact iff condition along GD trajectories ===========================


def test_criterion_07_iff_along_gd(quad3):
    # every step must be checked: a walk that ends early fails the gate
    t0 = time.monotonic()
    quad_ok = True
    for eta in (0.15, 0.19, 0.22):
        cert = spike_iff_certificate(quad3, np.ones(3), eta, 100)
        quad_ok = (quad_ok and cert["checked_steps"] == 100
                   and cert["determinate_steps"] == 100 and cert["consistent_fraction"] == 1.0)

    sc = build_scenario(preset_config("fig5-gd"))
    cert = spike_iff_certificate(sc.objective, sc.theta0.values, sc.hyper.eta, 300)
    det, frac = cert["determinate_steps"], cert["consistent_fraction"] or 0.0
    dt = time.monotonic() - t0
    ok = quad_ok and cert["checked_steps"] == 300 and frac >= 0.99 and dt < 120.0
    _gate(7, ok, f"quadratic 300/300 consistent, fnn {round(frac * det)}/{det} "
                 f"({100 * frac:.1f}%) determinate steps of {cert['checked_steps']} "
                 f"checked, {dt:.1f}s")


# === 8-9: 50-d crossing order and sustained predictor =======================


def test_criterion_08_crossing_order(fig6_run):
    result, dt = fig6_run
    c = result.analysis["crossings"]
    onset = result.analysis["spikes"][0]["onset_step"]
    lam_max_first = c["first_lambda_max_crossing"]
    lam_grad_first = c["first_lambda_grad_crossing"]
    probe_every = result.scenario.probes.every
    ok = (lam_max_first is not None and lam_grad_first is not None
          and lam_max_first < lam_grad_first
          and abs(lam_grad_first - onset) <= 2 * probe_every
          and dt < 600.0)
    _gate(8, ok, f"lambda_max crossed at {lam_max_first} < lambda_grad at "
                 f"{lam_grad_first}, onset {onset} within +-{2 * probe_every}, "
                 f"{dt:.0f}s")


def test_criterion_09_sustained_crossings_live_inside_spikes(fig6_run):
    # the sustained predictor is a min over three consecutive probe samples,
    # so containment is only demanded of events at least that wide; spurious
    # crossings get the same +-2-probe-sample margin as the onset coincidence
    result, _ = fig6_run
    trace = result.trace
    events = result.analysis["spikes"]
    every = result.scenario.probes.every
    wide = [e for e in events
            if e["recovery_step"] - e["onset_step"] >= 2 * every]

    eta = trace.eta_t
    s_steps = trace.probe_series("lambda_grad_Hhat")[0][trace.sustained_rows()]
    sus_steps = s_steps[trace.sustained > 2.0 / eta[s_steps]]
    raw_total = result.analysis["crossings"]["lambda_grad_crossing_steps"]

    def contains(e):
        return np.any((sus_steps >= e["onset_step"])
                      & (sus_steps <= e["recovery_step"]))

    margin = 2 * every
    spurious = sum(
        1 for s in sus_steps
        if not any(e["onset_step"] - margin <= s <= e["recovery_step"] + margin
                   for e in events))
    ok = (len(wide) >= 3
          and all(contains(e) for e in wide)
          and spurious * 10 <= raw_total)
    _gate(9, ok, f"{len(wide)}/{len(events)} events span the predictor "
                 f"support and every one contains a sustained crossing; "
                 f"{spurious} spurious vs {raw_total} raw crossings")


# === 10: mitigations kill the spikes ========================================


def _analysis_of(flat):
    """One run's analysis; at module level, so a spawned worker can run it.

    A spawned worker starts with Python's default warning filters, not the
    suite's, so a RuntimeWarning is made an error here as it is in the suite.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_scenario(build_scenario(flat)).analysis


def test_criterion_10_mitigations(fig6_run):
    base_result, _ = fig6_run
    onset = base_result.analysis["spikes"][0]["onset_step"]

    t0 = time.monotonic()
    bump_cfg = preset_config("fig6-fnn50d")
    bump_cfg["probes.every"] = 0
    bump_cfg["plan.epsilon_bump_step"] = onset
    # the two runs are independent, so they take one core each
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        bump, floor = pool.map(_analysis_of, [bump_cfg, preset_config("figD8-mitigations")])
    bump_post = [e for e in bump["spikes"] if e["onset_step"] >= onset]
    dt = time.monotonic() - t0

    ok = (not bump_post and not floor["spikes"]
          and bump["status"] == "completed" and floor["status"] == "completed"
          and dt < 600.0)
    _gate(10, ok, f"epsilon bump at {onset}: {len(bump_post)} post-bump events "
                  f"(final {bump['final_loss']:.2e}); v-floor: "
                  f"{len(floor['spikes'])} events, {dt:.0f}s")


# === 11: optimizer family controls ==========================================


def test_criterion_11_family_controls():
    t0 = time.monotonic()
    adagrad = run_scenario(build_scenario(preset_config("figD9-adagrad")))
    rmsprop = run_scenario(build_scenario(preset_config("figD10-rmsprop")))
    flat = preset_config("figD10-rmsprop")
    flat["optimizer.beta2"] = 0.0
    beta2_zero = run_scenario(build_scenario(flat))
    dt = time.monotonic() - t0

    z = beta2_zero.trace.losses()
    upsteps = int(np.sum(np.diff(z) > 0))
    ok = (adagrad.analysis["spikes"] == []
          and len(rmsprop.analysis["spikes"]) >= 1
          and beta2_zero.analysis["spikes"] == []
          and upsteps >= len(z) // 10
          and z[-1] > 1e-8
          and dt < 10.0)
    _gate(11, ok, f"adagrad 0 events over 1e5 steps; rmsprop(0.99) "
                  f"{len(rmsprop.analysis['spikes'])} events; rmsprop(0.0) 0 "
                  f"events with {upsteps} loss up-steps, {dt:.1f}s")


# === 12: decaying learning rate witness =====================================


def test_criterion_12_lr_decay_witness():
    t0 = time.monotonic()
    report = lr_decay_witness(1.0, 0.1, 0.5, 0.9999)
    control = lr_decay_witness(1.0, 0.1, 0.5, 0.5)
    dt = time.monotonic() - t0
    ok = (report["verdict"] == "WITNESS-FOUND" and report["witness_step"] == 180984
          and dt < 30.0)
    _gate(12, ok, f"beta2=0.9999 witness at step {report['witness_step']}; control "
                  f"beta2=0.5 reported {control['verdict']} "
                  f"step={control['witness_step']} (not asserted), {dt:.1f}s")


# === 13: numerical hygiene ==================================================


def test_criterion_13_hygiene(quad3, small_fnn, fnn_point):
    t0 = time.monotonic()
    failures = []
    theta = fnn_point
    x = theta.values
    g = small_fnn.gradient(x)
    rng = stream(11, "acceptance")

    h = 1e-6
    for _ in range(3):
        d = rng.normal(size=x.size)
        d /= np.linalg.norm(d)
        fd = (small_fnn.loss(x + h * d) - small_fnn.loss(x - h * d)) / (2 * h)
        if not math.isclose(fd, float(g @ d), rel_tol=1e-5, abs_tol=1e-9):
            failures.append("gradient-vs-fd")

    d1 = rng.normal(size=x.size)
    d2 = rng.normal(size=x.size)
    h1, h2 = small_fnn.hvp(x, d1), small_fnn.hvp(x, d2)
    if not math.isclose(float(d2 @ h1), float(d1 @ h2), rel_tol=1e-9):
        failures.append("hvp-symmetry")
    lin = small_fnn.hvp(x, 2.5 * d1 + d2)
    if not np.allclose(lin, 2.5 * h1 + h2, rtol=1e-9, atol=1e-12):
        failures.append("hvp-linearity")

    p = power_iteration(lambda v: quad3.hvp(np.ones(3), v),
                        stream(0, "power-iteration").standard_normal(3))
    if not (p.converged and math.isclose(p.value, 10.0, rel_tol=1e-6)):
        failures.append("power-vs-dense-quadratic")
    dense = dense_hessian(small_fnn, theta)
    top = float(np.abs(np.linalg.eigvalsh(dense)).max())
    p2 = power_iteration(lambda v: small_fnn.hvp(x, v),
                         stream(0, "power-iteration").standard_normal(x.size), max_iters=500)
    if not math.isclose(abs(p2.value), top, rel_tol=1e-4):
        failures.append("power-vs-dense-fnn")

    a = rng.normal(size=(40, 40))
    spec = real_spectrum_check(0.5 * (a + a.T), np.exp(rng.normal(size=40)))
    if spec["verdict"] != "PASS":
        failures.append("real-spectrum")

    dt = time.monotonic() - t0
    ok = not failures and dt < 30.0
    _gate(13, ok, f"gradient, hvp, power-iteration, and spectrum suites clean, "
                  f"{dt:.1f}s (failures: {failures})")
