"""Spike detection, five-stage segmentation, decay fitting, and taxonomy.

Detection uses a trailing-median excursion rule: onset fires when the loss
exceeds rho times the median of the previous `window` losses, and the event
closes at the first later step whose loss is again below its own trailing
median. Segmentation assigns the stage boundaries strictly sequentially, so
a missing earlier boundary leaves all later ones absent.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InsufficientWindow, InvalidSeries
from .probes import sustained_predictor

DEFAULT_RHO = 3.0
DEFAULT_WINDOW = 50
MIN_FIT_WINDOW = 10
STAGE1_MIN_TAIL = 50  # shortest tail accepted as evidence of Stage-2 decay
STAGE1_R2 = 0.95
STAGE1_ALPHA_BAND = 0.05
MEDIAN_BLOCK_ROWS = 512  # trailing windows per np.median call; bounds its copy

# === spike detection ========================================================


@dataclass(frozen=True)
class SpikeEvent:
    """One loss excursion: onset, peak, recovery, and its height ratio."""

    onset_step: int
    peak_step: int
    recovery_step: int
    peak_ratio: float
    recovery_at_end: bool = False

    def __post_init__(self):
        if not self.onset_step <= self.peak_step <= self.recovery_step:
            raise ConfigError("spike event must satisfy onset <= peak <= recovery")


def detect_spikes_series(losses, rho=DEFAULT_RHO, window=DEFAULT_WINDOW) -> list:
    """Trailing-median excursion detector on a raw loss series."""
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    if rho <= 1:
        raise ConfigError("rho must be > 1")
    if n <= window:
        raise ConfigError("trace must be longer than the detection window")
    # baseline[k] is the median of the `window` losses before step window + k
    rows = sliding_window_view(losses[:-1], window)
    baseline = np.concatenate([np.median(rows[i:i + MEDIAN_BLOCK_ROWS], axis=1)
                               for i in range(0, len(rows), MEDIAN_BLOCK_ROWS)])
    tail = losses[window:]
    with np.errstate(over="ignore"):  # an overflowing rho * baseline is an inf threshold
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
        events.append(SpikeEvent(onset, peak, rec, ratio, bool(at_end)))
        t = rec + 1
    return events


# === decay fit ==============================================================


@dataclass(frozen=True)
class DecayFit:
    """Exponential-decay fit of sqrt(v_t) over a window: sqrt(v_t) ~ C alpha^t."""

    window: tuple
    alpha_hat: float
    r_squared: float


def fit_decay(v_series, window) -> DecayFit:
    """Least-squares fit of log sqrt(v_t) against t over window=(start, end).

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
    return DecayFit(window=(int(start), int(end)), alpha_hat=math.exp(slope),
                    r_squared=r2)


# === stage segmentation =====================================================


@dataclass
class StageSegmentation:
    """Boundary steps t0..t5 (None when absent) plus per-stage verdicts."""

    boundaries: dict
    verdicts: list = field(default_factory=list)

    def ordered(self) -> bool:
        vals = [self.boundaries[k] for k in ("t0", "t1", "t2", "t3", "t4", "t5")]
        present = [v for v in vals if v is not None]
        return all(a < b for a, b in zip(present, present[1:]))

    def stage_labels(self, n: int) -> list:
        """Per-step labels '1'..'5'; empty outside detected stages."""
        labels = [None] * n
        b = self.boundaries
        keys = ["t0", "t1", "t2", "t3", "t4", "t5"]
        for k in range(5):
            lo, hi = b.get(keys[k]), b.get(keys[k + 1])
            if lo is None:
                break
            stop = hi if hi is not None else n
            for i in range(lo, min(stop, n)):
                labels[i] = str(k + 1)
        return labels


def _first(steps, mask, after=-1):
    """First of `steps` strictly after `after` where `mask` holds, else None."""
    hits = steps[mask & (steps > after)]
    return int(hits[0]) if hits.size else None


def segment_stages(trace, hyper) -> StageSegmentation:
    """Assign t0..t5 from probe crossings, v-norm decay, and loss movement."""
    n = len(trace.records)
    losses = trace.losses()
    vnorm = trace.vhat_norms()
    eta = trace.eta_series()
    lm_steps, lm_vals = trace.probe_series("lambda_max_Hhat")
    lg_steps, lg_vals = trace.probe_series("lambda_grad_Hhat")
    lm_thr = 2.0 / eta[lm_steps]

    bounds = {"t0": 0 if n else None, "t1": None, "t2": None,
              "t3": None, "t4": None, "t5": None}
    verdicts = []

    # t2 first (it anchors the Stage-1/2 decay scan).
    t2 = _first(lm_steps, lm_vals > lm_thr)
    anchor = t2 if t2 is not None else n

    # t1: earliest index whose whole tail up to the anchor fits the
    # sqrt(beta2) decay; short tails are not accepted as evidence.
    t1 = None
    fit = None
    target = math.sqrt(hyper.beta2)
    v_sq = vnorm ** 2
    for i in range(1, anchor - STAGE1_MIN_TAIL + 1):
        seg = v_sq[i:anchor]
        if np.any(~np.isfinite(seg)) or np.any(seg <= 0):
            continue
        cand = fit_decay(v_sq, (i, anchor))
        if cand.r_squared > STAGE1_R2 and abs(cand.alpha_hat - target) <= STAGE1_ALPHA_BAND * target:
            t1, fit = i, cand
            break
    verdicts.append({
        "name": "stage2-decay-fit",
        "holds": t1 is not None,
        "detail": None if fit is None else
        {"alpha_hat": fit.alpha_hat, "r_squared": fit.r_squared,
         "target": target, "window": list(fit.window)},
    })
    bounds["t1"] = t1

    if t1 is not None and t2 is not None:
        bounds["t2"] = t2
        t3 = _first(lg_steps, lg_vals > 2.0 / eta[lg_steps], after=t2)
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

    present = [k for k in ("t0", "t1", "t2", "t3", "t4", "t5") if bounds[k] is not None]
    verdicts.append({
        "name": "boundary-ordering",
        "holds": all(bounds[a] < bounds[b] for a, b in zip(present, present[1:])),
        "detail": {k: bounds[k] for k in present},
    })
    return StageSegmentation(boundaries=bounds, verdicts=verdicts)


# === sustained predictor column =============================================


def fill_sustained(trace) -> None:
    """Attach min-of-3-consecutive lambda_grad to interior probe samples."""
    steps, vals = trace.probe_series("lambda_grad_Hhat")
    for j in range(1, len(steps) - 1):
        trace.records[int(steps[j])].lambda_grad_sustained = sustained_predictor(vals, j)


# === taxonomy ===============================================================


@dataclass(frozen=True)
class TaxonomyConfig:
    """Thresholds for the four-way spike classification."""

    kappa_rec: float = 1.5
    plateau_margin_frac: float = 0.10
    window: int = 200


@dataclass(frozen=True)
class SpikeTaxonomy:
    label: str  # neutral | benign | malignant | catastrophic
    evidence: dict


def classify_spike(train, test, event: SpikeEvent,
                   cfg: TaxonomyConfig = TaxonomyConfig()) -> SpikeTaxonomy:
    """Classify one spike from pre/post windows of train and test loss."""
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    W = cfg.window
    lo = event.onset_step - W
    hi = event.recovery_step + W
    if lo < 0 or hi >= train.size or hi >= test.size:
        raise InsufficientWindow("series do not cover onset-W .. recovery+W")

    train_pre = train[lo:event.onset_step]
    test_pre = test[lo:event.onset_step]
    train_post = train[event.recovery_step:hi + 1]
    test_post = test[event.recovery_step:hi + 1]

    pre_train = float(train_pre.min())
    pre_test = float(test_pre.min())
    train_recovers = bool(train_post.min() <= cfg.kappa_rec * pre_train)
    test_recovers = bool(test_post.min() <= cfg.kappa_rec * pre_test)
    margin = cfg.plateau_margin_frac * float(test_pre.max() - test_pre.min())
    test_plateaus = bool(test_post.min() > pre_test + margin)
    pre_gap = bool(pre_test > cfg.kappa_rec * pre_train)
    test_improves = bool(test_post.min() < pre_test)

    if not train_recovers and not test_recovers:
        label = "catastrophic"
    elif train_recovers and test_plateaus:
        label = "malignant"
    elif pre_gap and test_improves:
        label = "benign"
    else:
        label = "neutral"
    return SpikeTaxonomy(label=label, evidence={
        "pre_train_min": pre_train,
        "pre_test_min": pre_test,
        "post_train_min": float(train_post.min()),
        "post_test_min": float(test_post.min()),
        "train_recovers": train_recovers,
        "test_recovers": test_recovers,
        "test_plateaus": test_plateaus,
        "pre_gap": pre_gap,
        "window": W,
    })


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
    """First-crossing steps and crossing counts for the probe columns."""
    eta = trace.eta_series()
    out = {}
    for key, (steps, vals) in (("lambda_max", trace.probe_series("lambda_max_Hhat")),
                               ("lambda_grad", trace.probe_series("lambda_grad_Hhat")),
                               ("sustained", trace.sustained_series())):
        mask = vals > 2.0 / eta[steps]
        out[f"first_{key}_crossing"] = _first(steps, mask)
        out[f"{key}_crossing_steps"] = int(mask.sum())
    return out
