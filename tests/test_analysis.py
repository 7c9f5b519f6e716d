"""Detector, decay fit, taxonomy, and the pre-spike walk-back."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab import (AdamHyper, ProbeRecord, RunTrace, SpikeEvent,
                      StageSegmentation, StepRecord, TaxonomyConfig,
                      classify_spike, crossing_summary, detect_spikes_series,
                      fit_decay, pre_spike_index, segment_stages)
from spikelab.errors import ConfigError, InsufficientWindow, InvalidSeries

# === detection ==============================================================


def test_detector_finds_a_planted_spike():
    losses = [1.0, 1.0, 1.0, 10.0, 1.0, 1.0]
    events = detect_spikes_series(losses, rho=3.0, window=2)
    assert len(events) == 1
    e = events[0]
    assert (e.onset_step, e.peak_step, e.recovery_step) == (3, 3, 4)
    assert e.peak_ratio == pytest.approx(10.0)
    assert not e.recovery_at_end


def test_detector_flags_truncated_event():
    losses = [1.0, 1.0, 1.0, 10.0, 20.0]
    events = detect_spikes_series(losses, rho=3.0, window=2)
    assert len(events) == 1
    e = events[0]
    assert e.recovery_at_end
    assert e.recovery_step == 4 and e.peak_step == 4


def test_detector_quiet_series():
    assert detect_spikes_series(np.ones(100), rho=3.0, window=10) == []


def test_detector_validation():
    with pytest.raises(ConfigError):
        detect_spikes_series([1.0] * 10, rho=1.0, window=2)
    with pytest.raises(ConfigError):
        detect_spikes_series([1.0, 2.0], rho=3.0, window=5)


def test_event_ordering_enforced():
    with pytest.raises(ConfigError):
        SpikeEvent(onset_step=5, peak_step=4, recovery_step=6, peak_ratio=2.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=30,
                max_size=90))
def test_detector_invariants(losses):
    window = 5
    events = detect_spikes_series(losses, rho=3.0, window=window)
    n = len(losses)
    prev_end = -1
    arr = np.asarray(losses)
    for e in events:
        assert window <= e.onset_step <= e.peak_step <= e.recovery_step < n
        assert e.onset_step > prev_end
        prev_end = e.recovery_step
        # the peak is the max inside the event window
        seg = arr[e.onset_step:e.recovery_step + 1]
        assert arr[e.peak_step] == seg.max()
        # onset really exceeded its trailing baseline
        base = np.median(arr[e.onset_step - window:e.onset_step])
        assert arr[e.onset_step] > 3.0 * base


def _reference_detector(losses, rho, window):
    """The per-step loop: one np.median call for every trailing window."""
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    events = []
    t = window
    while t < n:
        baseline = float(np.median(losses[t - window:t]))
        if losses[t] > rho * baseline:
            onset = t
            recovery = None
            for u in range(onset + 1, n):
                if losses[u] < np.median(losses[u - window:u]):
                    recovery = u
                    break
            at_end = recovery is None
            rec = recovery if recovery is not None else n - 1
            peak = onset + int(np.argmax(losses[onset:rec + 1]))
            ratio = float(losses[peak] / baseline) if baseline > 0 else math.inf
            events.append(SpikeEvent(onset, peak, rec, ratio, at_end))
            t = rec + 1
        else:
            t += 1
    return events


def _outcome(detector, losses, rho, window):
    """Events as exact tuples (the ratio as its bytes), or the exception type."""
    try:
        events = detector(losses, rho, window)
    except RuntimeWarning as exc:  # an overflowing peak ratio, under -W error
        return type(exc)
    return [(e.onset_step, e.peak_step, e.recovery_step,
             struct.pack("<d", e.peak_ratio), e.recovery_at_end) for e in events]


_LOSS = st.one_of(st.floats(min_value=0.0, max_value=1e6),
                  st.sampled_from([0.0, 1.0, math.inf, math.nan]))


@st.composite
def _detector_inputs(draw):
    window = draw(st.integers(min_value=1, max_value=60))
    plateaus = draw(st.lists(st.tuples(_LOSS, st.integers(1, 12)), min_size=1,
                             max_size=40))
    losses = [v for v, k in plateaus for _ in range(k)]
    losses += draw(st.lists(_LOSS, min_size=max(0, window + 1 - len(losses)),
                            max_size=window + 20))
    rho = draw(st.floats(min_value=1.0, max_value=10.0, exclude_min=True))
    return losses, rho, window


@settings(max_examples=300, deadline=None)
@given(_detector_inputs())
def test_detector_matches_per_step_reference(inputs):
    losses, rho, window = inputs
    want = _outcome(_reference_detector, losses, rho, window)
    assert _outcome(detect_spikes_series, losses, rho, window) == want


def test_detector_matches_reference_across_median_blocks():
    rng = np.random.default_rng(0)
    losses = np.exp(rng.normal(size=3000))
    losses[::97] *= 40.0
    want = _outcome(_reference_detector, losses, 3.0, 50)
    assert len(want) > 10
    assert _outcome(detect_spikes_series, losses, 3.0, 50) == want


# === decay fit ==============================================================


def test_fit_recovers_sqrt_beta2():
    beta2 = 0.99
    v = beta2 ** np.arange(200)
    fit = fit_decay(v, (0, 200))
    assert fit.alpha_hat == pytest.approx(math.sqrt(beta2), rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.window == (0, 200)


def test_fit_window_validation():
    v = 0.9 ** np.arange(100)
    with pytest.raises(InvalidSeries):
        fit_decay(v, (0, 5))
    with pytest.raises(InvalidSeries):
        fit_decay(np.zeros(100), (0, 50))


# === pre-spike walk-back ====================================================


def test_walkback_through_rising_run():
    losses = [5.0, 1.0, 2.0, 3.0, 9.0]
    assert pre_spike_index(losses, 4) == 1


def test_walkback_stops_at_flat_step():
    losses = [5.0, 1.0, 1.0, 3.0, 9.0]
    assert pre_spike_index(losses, 4) == 2


def test_walkback_clamps_at_zero():
    losses = [1.0, 2.0, 3.0, 4.0]
    assert pre_spike_index(losses, 1) == 0
    assert pre_spike_index(losses, 0) == 0


# === taxonomy ===============================================================


def _series(pre, spike, post, w=5):
    return np.concatenate([np.full(w, pre), np.full(3, spike), np.full(w, post)])


def _event(w=5):
    return SpikeEvent(onset_step=w, peak_step=w + 1, recovery_step=w + 2,
                      peak_ratio=10.0)


CFG = TaxonomyConfig(window=5)


def test_catastrophic_label():
    train = _series(1.0, 50.0, 40.0)
    test = _series(1.0, 50.0, 40.0)
    assert classify_spike(train, test, _event(), CFG).label == "catastrophic"


def test_malignant_label():
    train = _series(1.0, 50.0, 1.0)
    test = _series(1.0, 50.0, 5.0)
    assert classify_spike(train, test, _event(), CFG).label == "malignant"


def test_benign_label():
    train = _series(1.0, 50.0, 1.0)
    test = _series(2.0, 50.0, 1.5)
    out = classify_spike(train, test, _event(), CFG)
    assert out.label == "benign"
    assert out.evidence["pre_gap"]


def test_neutral_label():
    train = _series(1.0, 50.0, 1.0)
    test = _series(1.0, 50.0, 1.0)
    assert classify_spike(train, test, _event(), CFG).label == "neutral"


def test_taxonomy_needs_full_window():
    short = _series(1.0, 50.0, 1.0, w=2)
    with pytest.raises(InsufficientWindow):
        classify_spike(short, short,
                       SpikeEvent(onset_step=2, peak_step=3, recovery_step=4,
                                  peak_ratio=5.0), CFG)


# === segmentation helpers ===================================================


def test_stage_labels_extend_last_open_stage():
    seg = StageSegmentation(boundaries={"t0": 0, "t1": 2, "t2": 4, "t3": None,
                                        "t4": None, "t5": None})
    labels = seg.stage_labels(6)
    assert labels == ["1", "1", "2", "2", "3", "3"]
    assert seg.ordered()


def test_stage_labels_empty_when_t1_missing():
    seg = StageSegmentation(boundaries={"t0": 0, "t1": None, "t2": None,
                                        "t3": None, "t4": None, "t5": None})
    assert seg.stage_labels(4) == ["1", "1", "1", "1"]


def test_ordered_rejects_regression():
    seg = StageSegmentation(boundaries={"t0": 0, "t1": 5, "t2": 3, "t3": None,
                                        "t4": None, "t5": None})
    assert not seg.ordered()


# === first crossings ========================================================

ETA = 0.5  # threshold 2/eta = 4.0 exactly
N_HAND = 80


def _hand_trace(probes=True):
    """Hand-built trace whose stage boundaries and crossings are known.

    sqrt(v) decays as 0.99^(t/2) and jumps up at step 70. lambda_max sits
    exactly at 4.0 at steps 58 and 72 and crosses above at 60 and below at
    73/74; lambda_grad crosses at 60, sits at 4.0 at 61, is None at 62 and
    crosses again at 63. The loss falls at 70, 72 and 74 only, so each
    boundary has a candidate at its predecessor's step.
    """
    lm = {58: 4.0, 60: 5.0, 72: 4.0, 73: 3.0, 74: 3.0}
    lg = {60: 5.0, 61: 4.0, 62: None, 63: 5.0}
    sustained = {40: 4.0, 63: 4.5, 64: 4.5}
    losses = np.ones(N_HAND)
    losses[[70, 72, 74]] = 0.5
    records = []
    for i in range(N_HAND):
        v = 0.99 ** (i / 2) * (2.0 if i >= 70 else 1.0)
        probe = ProbeRecord(step=i, lambda_max_H=1.0,
                            lambda_max_Hhat=lm.get(i, 1.0),
                            lambda_grad_Hhat=lg.get(i, 1.0), threshold=2 / ETA,
                            power_iters_used=1, converged=True)
        records.append(StepRecord(
            step=i, loss=float(losses[i]), grad_norm=1.0, vhat_norm_total=v,
            vhat_norm_blocks=(v,), eta_t=ETA, probe=probe if probes else None,
            lambda_grad_sustained=sustained.get(i) if probes else None))
    return RunTrace(config={}, seed=0, status="completed", block_names=("theta",),
                    initial_loss=1.0, records=records).validate()


def test_first_crossings_on_hand_built_trace():
    trace = _hand_trace()
    seg = segment_stages(trace, AdamHyper(eta=ETA, beta2=0.99))
    assert seg.boundaries == {"t0": 0, "t1": 1, "t2": 60, "t3": 63, "t4": 70,
                              "t5": 74}
    assert crossing_summary(trace) == {
        "first_lambda_max_crossing": 60, "lambda_max_crossing_steps": 1,
        "first_lambda_grad_crossing": 60, "lambda_grad_crossing_steps": 2,
        "first_sustained_crossing": 63, "sustained_crossing_steps": 2}


def test_first_crossings_without_probes():
    trace = _hand_trace(probes=False)
    seg = segment_stages(trace, AdamHyper(eta=ETA, beta2=0.99))
    # with no t2 anchor the decay fit spans the jump at 70 and fails
    assert seg.boundaries == {"t0": 0, "t1": None, "t2": None, "t3": None,
                              "t4": None, "t5": None}
    assert crossing_summary(trace) == {
        "first_lambda_max_crossing": None, "lambda_max_crossing_steps": 0,
        "first_lambda_grad_crossing": None, "lambda_grad_crossing_steps": 0,
        "first_sustained_crossing": None, "sustained_crossing_steps": 0}
