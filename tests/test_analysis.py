"""Detector, decay fit, segmentation, crossings, and the pre-spike walk-back."""

import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from spikelab import (AdamHyper, ProbePlan, QuadraticSpec, RunTrace,
                      build_scenario, crossing_summary, detect_spikes_series,
                      fill_sustained, fit_decay, make_quadratic, pre_spike_index,
                      preset_config, run, run_scenario, segment_stages)
from spikelab import analysis, harness
from spikelab.errors import ConfigError, InvalidSeries
from spikelab.trace import PROBE_DTYPE

# === detection ==============================================================


def test_detector_finds_a_planted_spike():
    losses = [1.0, 1.0, 1.0, 10.0, 1.0, 1.0]
    events = detect_spikes_series(losses, rho=3.0, window=2)
    assert len(events) == 1
    e = events[0]
    assert (e["onset_step"], e["peak_step"], e["recovery_step"]) == (3, 3, 4)
    assert e["peak_ratio"] == pytest.approx(10.0)
    assert not e["recovery_at_end"]


def test_detector_flags_truncated_event():
    losses = [1.0, 1.0, 1.0, 10.0, 20.0]
    events = detect_spikes_series(losses, rho=3.0, window=2)
    assert len(events) == 1
    e = events[0]
    assert e["recovery_at_end"]
    assert e["recovery_step"] == 4 and e["peak_step"] == 4


def test_detector_quiet_series():
    assert detect_spikes_series(np.ones(100), rho=3.0, window=10) == []


def test_detector_validation():
    with pytest.raises(ConfigError):
        detect_spikes_series([1.0] * 10, rho=1.0, window=2)
    with pytest.raises(ConfigError):
        detect_spikes_series([1.0, 2.0], rho=3.0, window=5)


@pytest.mark.parametrize("rho,window", [(math.nan, 2), (0.5, 2), (-math.inf, 2),
                                        (3.0, 0), (3.0, -3), (3.0, 2.5), (3.0, 2.0)],
                         ids=["rho-nan", "rho-below-1", "rho-minus-inf", "window-0",
                              "window-negative", "window-fraction", "window-float"])
def test_detector_refuses_bad_rho_and_window(rho, window):
    # AnalysisPlan refuses these on the config path; a direct call used to
    # return [] (rho NaN, window 0) or raise numpy's or Python's own errors
    with pytest.raises(ConfigError):
        detect_spikes_series(np.ones(20), rho=rho, window=window)


def test_detector_takes_numpy_integer_windows():
    losses = [1.0, 1.0, 1.0, 10.0, 1.0, 1.0]
    assert detect_spikes_series(losses, 3.0, np.int64(2)) == detect_spikes_series(losses, 3.0, 2)


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
        assert window <= e["onset_step"] <= e["peak_step"] <= e["recovery_step"] < n
        assert e["onset_step"] > prev_end
        prev_end = e["recovery_step"]
        # the peak is the max inside the event window
        seg = arr[e["onset_step"]:e["recovery_step"] + 1]
        assert arr[e["peak_step"]] == seg.max()
        # onset really exceeded its trailing baseline
        base = np.median(arr[e["onset_step"] - window:e["onset_step"]])
        assert arr[e["onset_step"]] > 3.0 * base


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
            events.append({"onset_step": onset, "peak_step": peak, "recovery_step": rec,
                           "peak_ratio": ratio, "recovery_at_end": at_end})
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
    return [(e["onset_step"], e["peak_step"], e["recovery_step"],
             struct.pack("<d", e["peak_ratio"]), e["recovery_at_end"]) for e in events]


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


def _vectorized_detector(losses, rho, window):
    """The detector that held whole-series columns: every trailing median,
    the onset and recovery steps, then a walk over them."""
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    rows = sliding_window_view(losses[:-1], window)
    baseline = np.concatenate([np.median(rows[i:i + analysis.MEDIAN_BLOCK_ROWS], axis=1)
                               for i in range(0, len(rows), analysis.MEDIAN_BLOCK_ROWS)])
    tail = losses[window:]
    with np.errstate(over="ignore"):
        onsets = np.flatnonzero(tail > rho * baseline) + window
    recoveries = np.flatnonzero(tail < baseline) + window
    events = []
    t = window
    while (i := np.searchsorted(onsets, t)) < onsets.size:
        onset = int(onsets[i])
        j = np.searchsorted(recoveries, onset + 1)
        at_end = j == recoveries.size
        rec = n - 1 if at_end else int(recoveries[j])
        peak = onset + int(np.argmax(losses[onset:rec + 1]))
        base = baseline[onset - window]
        ratio = float(losses[peak] / base) if base > 0 else math.inf
        events.append({"onset_step": onset, "peak_step": peak, "recovery_step": rec,
                       "peak_ratio": ratio, "recovery_at_end": bool(at_end)})
        t = rec + 1
    return events


def _quiet_outcome(detector, losses, rho, window):
    """_outcome with numpy's warnings off, so a NaN or inf median is compared,
    not just the warning it raises."""
    with np.errstate(all="ignore"):
        return _outcome(detector, losses, rho, window)


def _block_edge_series(rng, window, blocks):
    """Log-normal noise over `blocks` median blocks, with excursions that
    start, peak and end on the steps either side of each block edge."""
    n = window + blocks * analysis.MEDIAN_BLOCK_ROWS + int(rng.integers(0, 40))
    losses = np.exp(0.1 * rng.normal(size=n))
    for k in range(1, blocks + 1):
        edge = window + k * analysis.MEDIAN_BLOCK_ROWS  # first step of block k
        start = edge + int(rng.integers(-2, 2))
        losses[start:start + int(rng.integers(1, 4))] *= 50.0
    return losses


def test_streaming_detector_matches_the_vectorized_one_on_block_edges():
    # onsets, peaks and recoveries one step either side of every median-block
    # edge, then a last event that recovers on the final step and one that
    # never does
    rng = np.random.default_rng(7)
    for window in (1, 2, 5, 50):
        losses = _block_edge_series(rng, window, 4)
        recovers_last = losses.copy()
        recovers_last[-3:-1], recovers_last[-1] = 80.0, 0.5
        open_end = losses.copy()
        open_end[-4:] = 90.0
        for series in (losses, recovers_last, open_end):
            want = _quiet_outcome(_vectorized_detector, series, 3.0, window)
            assert len(want) >= 4
            assert _quiet_outcome(detect_spikes_series, series, 3.0, window) == want
        *_, last = _quiet_outcome(detect_spikes_series, recovers_last, 3.0, window)
        assert last[2] == recovers_last.size - 1 and last[4] is False
        *_, last = _quiet_outcome(detect_spikes_series, open_end, 3.0, window)
        assert last[2] == open_end.size - 1 and last[4] is True


@pytest.mark.parametrize("seed", range(60))
def test_streaming_detector_matches_the_vectorized_one_on_hard_values(seed):
    # several median blocks long, with NaN, +-inf and 1e308 losses (a
    # 1e308 median times rho overflows to an inf threshold) and negative runs
    rng = np.random.default_rng(seed)
    window = int(rng.integers(1, 51))
    losses = _block_edge_series(rng, window, int(rng.integers(2, 6)))
    hard = rng.choice(losses.size, size=int(rng.integers(1, 30)), replace=False)
    losses[hard] = rng.choice([math.nan, math.inf, -math.inf, 1e308, 0.0], size=hard.size)
    start = int(rng.integers(window, losses.size - 2 * window - 9))
    if seed % 3 == 0:  # a run of 1e308 longer than the window
        losses[start:start + window + 3] = 1e308
    elif seed % 3 == 1:  # negative medians, under which one step can be onset and recovery
        losses[start:start + 2 * window + 9] = -rng.random(2 * window + 9) * 1e3
    rho = float(rng.choice([1.5, 3.0, 10.0]))
    want = _quiet_outcome(_vectorized_detector, losses, rho, window)
    assert _quiet_outcome(detect_spikes_series, losses, rho, window) == want


def test_detector_holds_one_block_of_medians():
    # the vectorized detector held the series' trailing medians, its onset
    # threshold and the comparison masks: 3.3 MB at 2e5 samples
    rng = np.random.default_rng(0)
    losses = np.exp(0.1 * rng.normal(size=200_000))
    losses[::997] *= 40.0
    detect_spikes_series(losses[:2000], 3.0, 50)  # first calls load what they load once
    tracemalloc.start()
    try:
        events = detect_spikes_series(losses, 3.0, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 150
    assert peak < 500_000


def test_trailing_medians_are_np_median_bit_for_bit():
    # the detector's medians make np.median's own calls, without its NaN
    # check, which loads numpy.ma; a hand-written middle copy or (a + b) / 2
    # differs from np.median on -0.0. Windows 1-100, each over two blocks cut
    # at MEDIAN_BLOCK_ROWS, on normal noise, on signed zeros with some +-1
    # and +-inf, and on the same with NaN
    rng = np.random.default_rng(3)
    cells = np.array([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])
    mixes = ([.4, .4, .05, .05, .05, .05, 0.0], [.3, .3, .1, .1, .05, .05, .1])
    blocks = 0
    for window in range(1, 101):
        n = window + analysis.MEDIAN_BLOCK_ROWS + int(rng.integers(2, 300))
        for losses in (rng.standard_normal(n), *(rng.choice(cells, n, p=p) for p in mixes)):
            rows = sliding_window_view(losses[:-1], window)
            for a in range(0, len(rows), analysis.MEDIAN_BLOCK_ROWS):
                block = rows[a:a + analysis.MEDIAN_BLOCK_ROWS]
                with np.errstate(invalid="ignore"):  # inf - inf in a middle pair
                    want = np.median(block, axis=1)
                    got = analysis._trailing_medians(block)
                assert got.tobytes() == want.tobytes(), (window, a)
                blocks += 1
    assert blocks == 600


# === decay fit ==============================================================


def test_fit_recovers_sqrt_beta2():
    beta2 = 0.99
    v = beta2 ** np.arange(200)
    fit = fit_decay(v, (0, 200))
    assert fit["alpha_hat"] == pytest.approx(math.sqrt(beta2), rel=1e-9)
    assert fit["r_squared"] == pytest.approx(1.0)
    assert fit["window"] == [0, 200]


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


# === the t1 scan ============================================================


def _t1_by_refitting_every_tail(trace, beta2):
    """t1 and its decay fit as the scan that fits each tail in turn finds them."""
    n = len(trace)
    steps, vals = trace.probe_series("lambda_max_Hhat")
    over = steps[vals > 2.0 / trace.eta_t[steps]]
    anchor = int(over[0]) if over.size else n
    v_sq, target = trace.vhat_norms() ** 2, math.sqrt(beta2)
    for i in range(1, anchor - 50 + 1):
        seg = v_sq[i:anchor]
        if np.any(~np.isfinite(seg)) or np.any(seg <= 0) or np.all(seg == seg[-1]):
            continue
        fit = fit_decay(v_sq, (i, anchor))
        if fit["r_squared"] > 0.95 and abs(fit["alpha_hat"] - target) <= 0.05 * target:
            return i, {"alpha_hat": fit["alpha_hat"], "r_squared": fit["r_squared"],
                       "target": target, "window": list(fit["window"])}
    return None, None


def _synthetic_v_trace(seed):
    """A v series decaying near, on or past the edge of the sqrt(beta2) band,
    with noise, a raised head and sometimes a bad sample or a flat stretch."""
    rng = np.random.default_rng(seed)
    n, beta2 = int(rng.integers(60, 700)), float(rng.choice([0.5, 0.9, 0.99, 0.999]))
    alpha = math.sqrt(beta2) * (1.0 + rng.choice([0.0, 0.04, 0.05, 0.06, -0.05]))
    v = alpha ** (2.0 * np.arange(n)) * np.exp(rng.normal(0.0, rng.choice([0, 1e-3, 0.05, 0.3]), n))
    v[:int(rng.integers(0, n))] *= rng.choice([1.0, 5.0, 100.0])
    if seed % 4 == 1:
        v[int(rng.integers(0, n))] = rng.choice([0.0, np.nan, np.inf, -1.0])
    if seed % 9 == 2:
        v[n // 2:] = 3.0
    root = np.sqrt(v)
    trace = RunTrace(config={}, status="completed", block_names=("theta",),
                     initial_loss=1.0, loss=np.ones(n), grad_norm=np.ones(n),
                     eta_t=np.full(n, 0.1), vhat=np.column_stack([root, root]))
    return trace, beta2


@pytest.mark.parametrize("case", ["fig3-spike", "fig3-oscillation"]
                         + [f"synthetic-{seed}" for seed in range(24)])
def test_t1_scan_matches_refitting_every_tail(case):
    if case.startswith("synthetic"):
        trace, beta2 = _synthetic_v_trace(int(case.split("-")[1]))
    else:
        sc = build_scenario(preset_config(case))
        trace, beta2 = run_scenario(sc).trace, sc.hyper.beta2
    seg = segment_stages(trace, AdamHyper(eta=0.1, beta2=beta2))
    t1, detail = _t1_by_refitting_every_tail(trace, beta2)
    assert seg["boundaries"]["t1"] == t1
    assert seg["verdicts"][0]["detail"] == detail


def test_t1_scan_is_linear_on_a_long_run(monkeypatch):
    # figD9's v never decays, so the scan screens every tail up to the end:
    # refitting each one took 0.7 s at 2e4 steps and grew with the square
    def run_s(segment):
        sc = build_scenario({**preset_config("figD9-adagrad"), "n_steps": 20000,
                             "analysis.segment": segment})
        t0 = time.perf_counter()
        return run_scenario(sc), time.perf_counter() - t0

    segmented, with_scan = run_s(True)
    _, without = run_s(False)
    assert with_scan < without + 1.0

    # against a trace a fifth as long, so the box's load divides out. Its v is
    # exactly constant from step 528: such a tail is no decay, so neither
    # trace has a t1, and the screen leaves the same two tails (526 and 527)
    # for fit_decay at either length. Per step, the longer trace segments in
    # 1.3-1.7 times the shorter one's time (cache); a quadratic scan reads 5
    fits = []
    monkeypatch.setattr(analysis, "fit_decay",
                        lambda *a: fits.append(a[1]) or fit_decay(*a))

    def segment_s(res):
        best = math.inf
        for _ in range(3):
            fits.clear()
            t0 = time.perf_counter()
            seg = segment_stages(res.trace, res.scenario.hyper)
            best = min(best, time.perf_counter() - t0)
        assert seg["boundaries"]["t1"] is None
        return best / len(res.trace), sorted(w[0] for w in fits)

    short = run_scenario(build_scenario({**preset_config("figD9-adagrad"), "n_steps": 4000}))
    (long_s, long_fits), (short_s, short_fits) = segment_s(segmented), segment_s(short)
    assert long_fits == short_fits == [526, 527]
    assert long_s < 3.0 * short_s


# === first crossings ========================================================

ETA = 0.5  # threshold 2/eta = 4.0 exactly
N_HAND = 80


def _hand_trace(probes=True, sustained=True):
    """Hand-built trace whose stage boundaries and crossings are known.

    sqrt(v) decays as 0.99^(t/2) and jumps up at step 70. lambda_max sits
    exactly at 4.0 at steps 58 and 72 and crosses above at 60 and below at
    73/74; lambda_grad crosses at 60, sits at 4.0 at 61, is None at 62 and
    crosses again at 63, 64 and 65. fill_sustained skips the missing 62, so
    the sustained series sits at 4.0 at 61 and 63 (min over 60, 61, 63 and
    over 61, 63, 64) and crosses at 64 only. The loss falls at 70, 72 and 74
    only, so each boundary has a candidate at its predecessor's step.
    """
    lm = {58: 4.0, 60: 5.0, 72: 4.0, 73: 3.0, 74: 3.0}
    lg = {60: 5.0, 61: 4.0, 62: None, 63: 5.0, 64: 5.0, 65: 5.0}
    losses = np.ones(N_HAND)
    losses[[70, 72, 74]] = 0.5
    steps = np.arange(N_HAND)
    v = np.array([0.99 ** (i / 2) * (2.0 if i >= 70 else 1.0) for i in range(N_HAND)])
    trace = RunTrace(config={}, status="completed", block_names=("theta",),
                     initial_loss=1.0, loss=losses, grad_norm=np.ones(N_HAND),
                     eta_t=np.full(N_HAND, ETA), vhat=np.column_stack([v, v]))
    if probes:
        table = np.zeros(N_HAND, PROBE_DTYPE)
        table["step"] = steps
        table["lambda_max_H"] = 1.0
        table["lambda_max_Hhat"] = [lm.get(i, 1.0) for i in steps]
        table["lambda_grad_Hhat"] = [lg.get(i, 1.0) or 0.0 for i in steps]
        table["has_lambda_grad"] = [lg.get(i, 1.0) is not None for i in steps]
        table["threshold"] = 2 / ETA
        table["power_iters_used"] = 1
        table["converged"] = True
        trace.probes = table
        if sustained:
            fill_sustained(trace)
    return trace


def test_sustained_column_matches_per_sample_reference():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 4.0, 9.0)))
    trace = run(obj, obj.initial_point(1.0), "adam", AdamHyper(eta=0.3),
                n_steps=60, probes=ProbePlan(every=2))
    steps, vals = trace.probe_series("lambda_grad_Hhat")
    fill_sustained(trace)
    assert steps[trace.sustained_rows()].tolist() == steps[1:-1].tolist()
    assert trace.sustained.tolist() == [min(vals[j - 1:j + 2]) for j in range(1, len(vals) - 1)]
    # fewer than three samples leave no interior sample
    trace.probes = trace.probes[:2]
    fill_sustained(trace)
    assert trace.sustained.size == 0 and steps[trace.sustained_rows()].size == 0


def _grad_samples(steps, vals, present=None):
    """A trace holding only lambda_grad samples; present masks missing ones."""
    table = np.zeros(len(steps), PROBE_DTYPE)
    table["step"], table["lambda_grad_Hhat"] = steps, vals
    table["has_lambda_grad"] = True if present is None else present
    trace = RunTrace(config={}, status="completed", block_names=("theta",),
                     initial_loss=1.0, probes=table)
    fill_sustained(trace)
    steps = trace.probe_series("lambda_grad_Hhat")[0]
    return [steps[trace.sustained_rows()].tolist(), trace.sustained.tolist()]


def test_fill_sustained_is_min_of_three():
    assert _grad_samples([0, 2, 4, 6, 8], [5.0, 1.0, 4.0, 2.0, 9.0]) == [
        [2, 4, 6], [1.0, 1.0, 2.0]]


def test_fill_sustained_matches_the_stacked_minimum_bit_for_bit():
    # reference: np.minimum.reduce over a stacked (3, n) copy; the pairwise
    # minimum must keep its bits, NaN, signed zeros and infs included
    hard = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     1e308, -1e308, 1.0, -2.5])
    rng = np.random.default_rng(0)
    for _ in range(2000):
        vals = rng.choice(hard, size=int(rng.integers(0, 12)))
        steps = np.arange(vals.size)
        table = np.zeros(vals.size, PROBE_DTYPE)
        table["step"], table["lambda_grad_Hhat"], table["has_lambda_grad"] = steps, vals, True
        trace = RunTrace(config={}, status="completed", block_names=("theta",),
                         initial_loss=1.0, probes=table)
        fill_sustained(trace)
        stacked = np.minimum.reduce([vals[:-2], vals[1:-1], vals[2:]])
        assert trace.sustained.tobytes() == stacked.tobytes()


def test_fill_sustained_skips_edge_samples():
    # the first and last sample have no neighbour on one side, so no value
    assert _grad_samples([0, 1, 2], [1.0, 2.0, 3.0]) == [[1], [1.0]]
    # a missing sample is skipped, not a neighbour: 0.0 never enters a minimum
    assert _grad_samples([0, 1, 2, 3], [3.0, 0.0, 2.0, 4.0],
                         [True, False, True, True]) == [[2], [2.0]]


def test_first_crossings_on_hand_built_trace():
    trace = _hand_trace()
    seg = segment_stages(trace, AdamHyper(eta=ETA, beta2=0.99))
    assert seg["boundaries"] == {"t0": 0, "t1": 1, "t2": 60, "t3": 63, "t4": 70,
                                 "t5": 74}
    assert crossing_summary(trace) == {
        "first_lambda_max_crossing": 60, "lambda_max_crossing_steps": 1,
        "first_lambda_grad_crossing": 60, "lambda_grad_crossing_steps": 4,
        "first_sustained_crossing": 64, "sustained_crossing_steps": 1}


def test_unfilled_sustained_series_never_crosses():
    # a probed trace whose sustained series was never filled keeps the empty
    # default: it reports no sustained crossing, and the probe series still cross
    filled = crossing_summary(_hand_trace())
    assert crossing_summary(_hand_trace(sustained=False)) == dict(
        filled, first_sustained_crossing=None, sustained_crossing_steps=0)


def test_probe_series_drops_missing_lambda_grad_rows_from_every_field():
    trace = _hand_trace()
    steps, lg, thr = trace.probe_series("lambda_grad_Hhat", "threshold")
    assert steps.tolist() == [i for i in range(N_HAND) if i != 62]
    assert lg.size == thr.size == N_HAND - 1 and np.all(thr == 2 / ETA)
    assert lg[60:64].tolist() == [5.0, 4.0, 5.0, 5.0]  # steps 60, 61, 63 and 64
    # GD at eta = 1 on lambda = 1 lands on the minimum in one step, so only
    # step 0's probe sees a gradient
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=1.0), n_steps=80,
                probes=ProbePlan(every=1))
    p = trace.probes
    assert p.size == 80 and int(p["has_lambda_grad"].sum()) == 1
    steps, lg, thr, conv = trace.probe_series("lambda_grad_Hhat", "threshold", "converged")
    assert steps.tolist() == [0] and thr.tolist() == [2.0] and conv.tolist() == [1.0]
    assert lg.tolist() == p["lambda_grad_Hhat"][:1].tolist()
    # a call that does not name lambda_grad keeps every row, as views
    steps, thr = trace.probe_series("threshold")
    assert steps.size == thr.size == 80 and np.shares_memory(thr, trace.probes)


THRESHOLD_RUNS = {name: (name, {}) for name in (
    "fig2a", "fig3-spike", "fig3-oscillation", "fig5-gd", "figD10-rmsprop",
    "figD11-adafactor", "figD12-gd-delay", "thmD4")}
THRESHOLD_RUNS.update({
    "fig5-adam-600": ("fig5-adam", {"n_steps": 600}),
    "power-decay": ("figD10-rmsprop", {"schedule.kind": "power-decay", "schedule.alpha": 0.1}),
    "diverged": ("fig2a", {"optimizer.kind": "gd", "optimizer.eta": 3.0, "n_steps": 800}),
})


def _crossings_from_eta(trace):
    """crossing_summary with each series' threshold taken as 2.0 / eta_t at its steps."""
    lg_steps, lg = trace.probe_series("lambda_grad_Hhat")
    out = {}
    for key, (steps, vals) in (("lambda_max", trace.probe_series("lambda_max_Hhat")),
                               ("lambda_grad", (lg_steps, lg)),
                               ("sustained", (lg_steps[trace.sustained_rows()],
                                              trace.sustained))):
        over = steps[vals > 2.0 / trace.eta_t[steps]]
        out[f"first_{key}_crossing"] = int(over[0]) if over.size else None
        out[f"{key}_crossing_steps"] = int(over.size)
    return out


@pytest.mark.parametrize("case", sorted(THRESHOLD_RUNS))
def test_each_probe_stores_the_threshold_of_its_step(case):
    # the crossings compare each probe with its row's threshold, standing in
    # for 2.0 / eta_t[step]: the two must be the same bits on every kind of run
    name, extra = THRESHOLD_RUNS[case]
    result = run_scenario(build_scenario({**preset_config(name), **extra}))
    trace, crossings = result.trace, result.analysis["crossings"]
    p = trace.probes
    assert p.size and p["threshold"].tobytes() == (2.0 / trace.eta_t[p["step"]]).tobytes()
    assert crossings == _crossings_from_eta(trace)
    if case == "power-decay":
        # every threshold differs, so a sustained sample compared with a
        # neighbour's row would count differently (1,248 or 1,070 crossings)
        assert np.unique(p["threshold"]).size == p.size
        assert crossings["sustained_crossing_steps"] == 1126
    if case == "diverged":
        assert trace.status == "diverged"


def test_analysis_copies_no_probe_field():
    # the crossings read the steps, lambda_grad and thresholds as views of the
    # probe table (5.0 MB here). Re-deriving 2/eta_t and copying lambda_grad's
    # rows peaked at 4.9 MB at 1e5 probed steps; the views peak at 1.3 MB, of
    # which 0.8 MB is the sustained series the trace keeps
    sc = build_scenario({**preset_config("fig3-oscillation"), "n_steps": 100_000})
    trace = run_scenario(sc).trace  # first calls load what they load once
    tracemalloc.start()
    try:
        harness._analyze(trace, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.probes.size == 100_000
    assert peak < 3_500_000, peak


def test_first_crossings_without_probes():
    trace = _hand_trace(probes=False)
    seg = segment_stages(trace, AdamHyper(eta=ETA, beta2=0.99))
    # with no t2 anchor the decay fit spans the jump at 70 and fails
    assert seg["boundaries"] == {"t0": 0, "t1": None, "t2": None, "t3": None,
                                 "t4": None, "t5": None}
    assert crossing_summary(trace) == {
        "first_lambda_max_crossing": None, "lambda_max_crossing_steps": 0,
        "first_lambda_grad_crossing": None, "lambda_grad_crossing_steps": 0,
        "first_sustained_crossing": None, "sustained_crossing_steps": 0}
