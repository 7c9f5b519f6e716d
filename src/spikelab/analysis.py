"""Spike detection, five-stage segmentation, decay fitting, and crossings.

Detection uses a trailing-median excursion rule: onset fires when the loss
exceeds rho times the median of the previous `window` losses, and the event
closes at the first later step whose loss is again below its own trailing
median. The detector takes those medians one MEDIAN_BLOCK_ROWS block at a
time and keeps only the current block, so its temporaries do not grow with
the series. _trailing_medians computes them with np.median's own calls, bit
for bit, but not through np.median, whose NaN check loads numpy.ma: a run's
analysis loads no numpy subpackage its numbers do not need. Segmentation
assigns the stage boundaries strictly sequentially, so a missing earlier
boundary leaves all later ones absent.

detect_spikes_series, fit_decay and segment_stages return the bodies that
analysis.json records: the spike list, the decay fit and the segmentation
block; the trace keeps the boundaries as its stage column.
"""

import math
import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InvalidSeries

DEFAULT_RHO = 3.0
DEFAULT_WINDOW = 50
MIN_FIT_WINDOW = 10
STAGE1_MIN_TAIL = 50  # shortest tail accepted as evidence of Stage-2 decay
STAGE1_R2 = 0.95
STAGE1_ALPHA_BAND = 0.05
STAGE1_SCREEN_MARGIN = 1e-6  # slack of the O(1) window screen, whose rounding measured < 1e-13
MEDIAN_BLOCK_ROWS = 512  # trailing medians per _trailing_medians call and per detector scan; bounds both
BOUNDARIES = ("t0", "t1", "t2", "t3", "t4", "t5")

# === spike detection ========================================================


def _trailing_medians(rows):
    """np.median(rows, axis=1), bit for bit, from np.median's own calls:
    partition at the middle one or two columns and at -1 (a NaN sorts last),
    add.reduce the middle and divide by its width, and NaN wherever the last
    partitioned entry is NaN. np.median's NaN check would load numpy.ma."""
    w = rows.shape[1]
    lo, hi = (w - 1) // 2, w // 2 + 1  # the middle column, or the middle two
    part = np.partition(rows, [*range(lo, hi), -1], axis=1)
    medians = np.add.reduce(part[:, lo:hi], axis=1)
    medians /= hi - lo
    last = part[:, -1]
    np.copyto(medians, last, where=np.isnan(last))
    return medians


def detect_spikes_series(losses, rho=DEFAULT_RHO, window=DEFAULT_WINDOW) -> list:
    """Trailing-median excursion detector on a raw loss series: one spike
    body per event, onset <= peak <= recovery.

    The series is walked one MEDIAN_BLOCK_ROWS block of trailing medians at
    a time; within a block the next onset (loss > rho * median) or recovery
    (loss < median) is looked up from the current step, and an event's peak
    is the argmax over its losses once its recovery is known. So the
    detector holds one block of medians, never a column of the series' length.
    """
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    if not rho > 1:
        raise ConfigError("rho must be > 1")
    if not isinstance(window, numbers.Integral) or window < 1:
        raise ConfigError("window must be an integer >= 1")
    if n <= window:
        raise ConfigError("trace must be longer than the detection window")

    def spike(onset, rec, base, at_end):
        peak = onset + int(np.argmax(losses[onset:rec + 1]))
        ratio = float(losses[peak] / base) if base > 0 else math.inf
        return {"onset_step": onset, "peak_step": peak, "recovery_step": rec,
                "peak_ratio": ratio, "recovery_at_end": at_end}

    rows = sliding_window_view(losses[:-1], window)  # row k trails step window + k
    events, onset, base, t = [], None, None, window
    for a in range(0, len(rows), MEDIAN_BLOCK_ROWS):
        first = window + a  # the block's first step
        medians = _trailing_medians(rows[a:a + MEDIAN_BLOCK_ROWS])
        tail = losses[first:first + medians.size]
        with np.errstate(over="ignore"):  # an overflowing rho * median is an inf threshold
            onsets = np.flatnonzero(tail > rho * medians) + first
        recoveries = np.flatnonzero(tail < medians) + first
        while True:
            if onset is None:
                i = np.searchsorted(onsets, t)
                if i == onsets.size:
                    break
                onset = int(onsets[i])
                base = medians[onset - first]
            j = np.searchsorted(recoveries, onset + 1)
            if j == recoveries.size:
                break
            rec = int(recoveries[j])
            events.append(spike(onset, rec, base, False))
            onset, t = None, rec + 1
    if onset is not None:
        events.append(spike(onset, n - 1, base, True))
    return events


# === decay fit ==============================================================


def fit_decay(v_series, window) -> dict:
    """Least-squares fit of log sqrt(v_t) against t over window=(start, end):
    {alpha_hat, r_squared, window} for sqrt(v_t) ~ C alpha_hat^t.

    The input is the second-moment series (v-valued); the square root is
    taken inside, so an exact v_t = beta2^t yields alpha_hat = sqrt(beta2).
    """
    start, end = window
    v = np.asarray(v_series, dtype=float)[start:end]
    if v.size < MIN_FIT_WINDOW:
        raise InvalidSeries("decay fit needs a window of at least 10 samples")
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise InvalidSeries("decay fit needs positive finite values")
    t = np.arange(start, end, dtype=float)
    y = 0.5 * np.log(v)
    tm, ym = t.mean(), y.mean()
    dt = t - tm
    denom = float(dt @ dt)
    slope = float(dt @ (y - ym)) / denom
    resid = y - (ym + slope * dt)
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return {"alpha_hat": math.exp(slope), "r_squared": r2,
            "window": [int(start), int(end)]}


# === stage segmentation =====================================================


def _first(steps, mask, after=-1):
    """First of `steps` strictly after `after` where `mask` holds, else None."""
    hits = mask & (steps > after)
    return int(steps[hits.argmax()]) if hits.any() else None


def _stage1_start(v_sq, anchor, target):
    """(t1, its fit): the earliest i >= 1 whose whole tail v_sq[i:anchor], at
    least STAGE1_MIN_TAIL long and positive finite, fits the decay to target;
    (None, None) if none does.

    Every window ends at the anchor, so suffix sums of t, y, t*y and y^2 give
    each window's slope and R^2 in O(1). An i that passes them to within
    STAGE1_SCREEN_MARGIN is confirmed with fit_decay, whose result decides:
    t1 and its fit are those of fitting every tail in turn. Each tail that
    passes the screen but not the fit, so sits within the margin of a
    threshold, costs one fit.
    """
    seg = v_sq[:anchor]
    bad = np.flatnonzero(~np.isfinite(seg) | (seg <= 0))
    lo = max(1, int(bad[-1]) + 1 if bad.size else 0)
    if lo > anchor - STAGE1_MIN_TAIL:
        return None, None
    y = 0.5 * np.log(seg[lo:])
    y -= y[-1]  # windows share this end; small sums lose less to rounding
    t = np.arange(lo - anchor + 1.0, 1.0)  # step minus the last step, <= 0
    k = np.arange(anchor - lo, 0, -1.0)  # samples in window [lo + j, anchor)
    st, sy, sty, syy = (np.cumsum(x[::-1])[::-1] for x in (t, y, t * y, y * y))
    with np.errstate(divide="ignore", invalid="ignore"):
        ctt = k * (k * k - 1.0) / 12.0  # sum of (t - mean t)^2 over k consecutive steps
        cty = sty - st * sy / k
        slope = cty / ctt
        r2 = cty * cty / (ctt * np.maximum(syy - sy * sy / k, 0.0))  # inf, nan: maybe
        maybe = ~(r2 <= STAGE1_R2 - STAGE1_SCREEN_MARGIN) & ~(
            np.abs(np.exp(slope) - target)
            > STAGE1_ALPHA_BAND * target + STAGE1_SCREEN_MARGIN)
    moving = np.flatnonzero(seg[lo:] != seg[-1])
    maybe[moving[-1] + 1 if moving.size else 0:] = False  # a constant tail is no decay
    for i in np.flatnonzero(maybe[:anchor - STAGE1_MIN_TAIL - lo + 1]) + lo:
        fit = fit_decay(v_sq, (int(i), anchor))
        if (fit["r_squared"] > STAGE1_R2
                and abs(fit["alpha_hat"] - target) <= STAGE1_ALPHA_BAND * target):
            return int(i), fit
    return None, None


def segment_stages(trace, hyper) -> dict:
    """Assign t0..t5 from probe crossings, v-norm decay, and loss movement:
    the segmentation body {boundaries, verdicts, ordered}."""
    n = len(trace)
    losses = trace.losses()
    vnorm = trace.vhat_norms()
    lm_steps, lm_vals, lm_thr = trace.probe_series("lambda_max_Hhat", "threshold")
    lg_steps, lg_vals, lg_thr = trace.probe_series("lambda_grad_Hhat", "threshold")

    bounds = dict.fromkeys(BOUNDARIES)
    bounds["t0"] = 0 if n else None
    verdicts = []

    # t2 first (it anchors the Stage-1/2 decay scan).
    t2 = _first(lm_steps, lm_vals > lm_thr)
    anchor = t2 if t2 is not None else n

    target = math.sqrt(hyper.beta2)
    t1, fit = _stage1_start(vnorm[:anchor] ** 2, anchor, target)
    verdicts.append({
        "name": "stage2-decay-fit",
        "holds": t1 is not None,
        "detail": None if fit is None else dict(fit, target=target),
    })
    bounds["t1"] = t1

    if t1 is not None and t2 is not None:
        bounds["t2"] = t2
        t3 = _first(lg_steps, lg_vals > lg_thr, after=t2)
        bounds["t3"] = t3
        if t3 is not None:
            v_up = (np.isfinite(vnorm[1:]) & np.isfinite(vnorm[:-1])
                    & (vnorm[1:] > vnorm[:-1]))
            t4 = _first(np.arange(1, n), v_up, after=t3)
            bounds["t4"] = t4
            if t4 is not None:
                # step 0 wraps to losses[-1]; after=t4 >= 1 excludes it
                loss_down = losses[lm_steps] < losses[lm_steps - 1]
                bounds["t5"] = _first(lm_steps, (lm_vals < lm_thr) & loss_down, after=t4)

    present = [k for k in BOUNDARIES if bounds[k] is not None]
    ordered = all(bounds[a] < bounds[b] for a, b in zip(present, present[1:]))
    verdicts.append({"name": "boundary-ordering", "holds": ordered,
                     "detail": {k: bounds[k] for k in present}})
    return {"boundaries": bounds, "verdicts": verdicts, "ordered": ordered}


# === sustained predictor column =============================================


def fill_sustained(trace) -> None:
    """Sustained series on lambda_grad's interior present rows: the min with both neighbours."""
    steps, vals = trace.probe_series("lambda_grad_Hhat")
    low = np.minimum(vals[:-2], vals[1:-1])
    trace.sustained = steps[1:-1], np.minimum(low, vals[2:], out=low)


# === pre-spike index ========================================================


def pre_spike_index(losses, onset_step: int) -> int:
    """Last step before the loss run that culminates in the detected onset.

    Walks back through the strictly increasing stretch ending at the onset
    and returns the index just before it; the effective learning rate
    sampled there is the pre-spike value.
    """
    losses = np.asarray(losses, dtype=float)
    r = onset_step
    while r - 1 > 0 and losses[r - 1] > losses[r - 2]:
        r -= 1
    return max(r - 1, 0)


# === crossing summaries =====================================================


def crossing_summary(trace) -> dict:
    """First crossings and their counts, each sample against the threshold of its probe row."""
    lm_steps, lm_vals, lm_thr = trace.probe_series("lambda_max_Hhat", "threshold")
    lg_steps, lg_vals, lg_thr = trace.probe_series("lambda_grad_Hhat", "threshold")
    s_steps, s_vals = trace.sustained
    out = {}
    for key, steps, mask in (("lambda_max", lm_steps, lm_vals > lm_thr),
                             ("lambda_grad", lg_steps, lg_vals > lg_thr),
                             ("sustained", s_steps, s_vals > lg_thr[1:1 + s_vals.size])):
        out[f"first_{key}_crossing"] = _first(steps, mask)
        out[f"{key}_crossing_steps"] = int(mask.sum())
    return out
