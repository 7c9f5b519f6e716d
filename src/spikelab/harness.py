"""Scenario execution: single runs, theorem modes, run directories, sweeps.

A run directory holds config.json, trace.csv, analysis.json, and (for
theorem modes) certificate.json. Sweeps write one child directory per value
plus sweep_summary.csv; every summary row is recomputable from the child's
trace alone.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (crossing_summary, detect_spikes_series, fill_sustained,
                       pre_spike_index, segment_stages)
from .errors import ConfigError, PreconditionViolation
from .oracles import five_stage_certificate, lr_decay_witness, theorem_recursion
from .optimizers import run
from .probes import ProbeRecord
from .scenarios import Scenario, _float, _int, build_scenario
from .trace import RunTrace, StepRecord, write_csv, write_json, write_trace_csv

# === results ================================================================


@dataclass
class RunResult:
    """One executed scenario: the trace plus derived analysis blocks."""

    scenario: Scenario
    trace: RunTrace
    analysis: dict
    certificate: dict = None

    @property
    def status(self) -> str:
        return self.trace.status


def _clean(x):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats stringified."""
    if isinstance(x, dict):
        return {str(k): _clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (float, np.floating)):
        f = float(x)
        return f if math.isfinite(f) else repr(f)
    return x


# === analysis attachment ====================================================


def _analyze(trace: RunTrace, sc: Scenario) -> dict:
    fill_sustained(trace)
    n = len(trace.records)
    losses = trace.losses()

    spikes = []
    if n > sc.analysis.window:
        spikes = detect_spikes_series(losses, rho=sc.analysis.rho,
                                      window=sc.analysis.window)

    seg_block = None
    fit_block = None
    if sc.analysis.segment and n:
        seg = segment_stages(trace, sc.hyper)
        for rec, label in zip(trace.records, seg.stage_labels(n)):
            rec.stage = label
        seg_block = {"boundaries": seg.boundaries, "verdicts": seg.verdicts,
                     "ordered": seg.ordered()}
        for v in seg.verdicts:
            if v["name"] == "stage2-decay-fit" and v.get("detail"):
                fit_block = v["detail"]

    final_loss = trace.records[-1].loss if n else trace.initial_loss
    return {
        "scenario_id": sc.scenario_id,
        "seed": sc.seed,
        "status": trace.status,
        "n_steps": n,
        "initial_loss": trace.initial_loss,
        "final_loss": final_loss,
        "spikes": [{"onset_step": e.onset_step, "peak_step": e.peak_step,
                    "recovery_step": e.recovery_step, "peak_ratio": e.peak_ratio,
                    "recovery_at_end": e.recovery_at_end} for e in spikes],
        "crossings": crossing_summary(trace),
        "decay_fit": fit_block,
        "segmentation": seg_block,
    }


# === mode dispatch ==========================================================


def run_scenario(sc: Scenario) -> RunResult:
    """Execute one built scenario and attach its analysis."""
    if sc.mode == "run":
        return _run_mode(sc)
    if sc.mode == "five-stage":
        return _five_stage_mode(sc)
    if sc.mode == "lr-decay":
        return _lr_decay_mode(sc)
    raise ConfigError(f"unknown mode {sc.mode!r}")


def _run_mode(sc: Scenario) -> RunResult:
    trace = run(sc.objective, sc.theta0, sc.kind, sc.hyper, sched=sc.sched,
                plan=sc.plan, n_steps=sc.n_steps, probes=sc.probes,
                seed=sc.seed, config_echo=sc.flat)
    return RunResult(scenario=sc, trace=trace, analysis=_analyze(trace, sc))


def _empty_trace(sc: Scenario, theta0: float) -> RunTrace:
    return RunTrace(config=dict(sc.flat), seed=sc.seed, status="completed",
                    block_names=("theta",), initial_loss=0.5 * theta0 * theta0,
                    records=[])


def _theorem_trace(sc: Scenario, cert) -> RunTrace:
    """Trace of the beta1=0 scalar recursion, probes synthesized exactly.

    Record i covers theta_i -> theta_{i+1}; the preconditioned curvature at
    step i is 1/sqrt(v_i) because the recursion applies the delayed second
    moment, and the raw curvature of the scalar objective is 1.
    """
    eta = cert.eta
    n = cert.max_steps
    th, v = theorem_recursion(cert.theta0, eta, cert.beta2, n)
    rv = np.sqrt(v)
    thr = 2.0 / eta
    records = []
    for i in range(n):
        lam = float(1.0 / rv[i])
        probe = ProbeRecord(step=i, lambda_max_H=1.0, lambda_max_Hhat=lam,
                            lambda_grad_Hhat=lam, threshold=thr,
                            power_iters_used=0, converged=True)
        records.append(StepRecord(
            step=i, loss=float(0.5 * th[i + 1] ** 2),
            grad_norm=float(abs(th[i])),
            vhat_norm_total=float(rv[i + 1]),
            vhat_norm_blocks=(float(rv[i + 1]),),
            eta_t=eta, probe=probe))
    return RunTrace(config=dict(sc.flat), seed=sc.seed, status="completed",
                    block_names=("theta",),
                    initial_loss=float(0.5 * th[0] ** 2),
                    records=records).validate()


def _five_stage_mode(sc: Scenario) -> RunResult:
    theta0 = _float(sc.flat, "theta0", 1.0)
    cert, payload = five_stage_check(theta0, sc.hyper.eta, sc.hyper.beta2,
                                     sc.n_steps or None)
    ok = cert is not None and cert.hypothesis_ok
    trace = _theorem_trace(sc, cert) if ok else _empty_trace(sc, theta0)
    analysis = _analyze(trace, sc)

    if ok and analysis.get("segmentation"):
        segb = analysis["segmentation"]["boundaries"]
        certb = cert.simulated_boundaries
        checks = {
            "t2_matches": segb["t2"] == certb["t2"],
            "t3_follows_t2": (certb["t2"] is not None
                              and segb["t3"] == certb["t2"] + 1),
            "t4_matches_growth": segb["t4"] == certb["t3"],
            "t5_matches_reviolation": segb["t5"] == certb["t4"],
            "t1_present_before_t2": (segb["t1"] is not None
                                     and segb["t2"] is not None
                                     and segb["t1"] < segb["t2"]),
        }
        analysis["theorem_consistency"] = dict(
            checks, all_consistent=all(checks.values()))

    return RunResult(scenario=sc, trace=trace, analysis=analysis,
                     certificate=payload)


def five_stage_check(theta0, eta, beta2, max_steps):
    """(certificate, certificate.json body) for the five-stage theorem.

    The certificate is None when the oracle refuses the input; the body then
    gives the refusal as a SKIPPED (hypothesis) verdict and its reason.
    """
    try:
        cert = five_stage_certificate(theta0, eta, beta2, max_steps=max_steps)
    except PreconditionViolation as exc:
        return None, _skipped("five-stage", exc)
    if not cert.hypothesis_ok:
        verdict = "SKIPPED (hypothesis)"
    else:
        verdict = "PASS" if cert.all_hold() else "FAIL"
    return cert, {
        "theorem": "five-stage",
        "verdict": verdict,
        "params": {"theta0": cert.theta0, "eta": cert.eta,
                   "beta2": cert.beta2, "max_steps": cert.max_steps},
        "hypothesis": {"ok": cert.hypothesis_ok, "lhs": cert.hypothesis_lhs,
                       "rhs": cert.hypothesis_rhs},
        "t1_formula": cert.t1_formula,
        "s": cert.s,
        "delta": cert.delta,
        "q": cert.q,
        "t5_kind": cert.t5_kind,
        "boundaries": cert.simulated_boundaries,
        "checks": cert.per_stage_inequalities,
        "worst_slack": cert.worst_slack(),
    }


def _lr_decay_mode(sc: Scenario) -> RunResult:
    theta0 = _float(sc.flat, "theta0", 1.0)
    report, payload = lr_decay_check(theta0, sc.hyper.eta, sc.sched.alpha,
                                     sc.hyper.beta2, sc.n_steps)
    trace = _empty_trace(sc, theta0)
    analysis = {
        "scenario_id": sc.scenario_id,
        "seed": sc.seed,
        "status": "completed",
        "n_steps": 0,
        "initial_loss": trace.initial_loss,
        "final_loss": trace.initial_loss,
        "spikes": [],
        "crossings": {},
        "decay_fit": None,
        "segmentation": None,
        "witness": None if report is None else {
            "found": report.found, "step": report.step,
            "checked_steps": report.checked_steps},
    }
    return RunResult(scenario=sc, trace=trace, analysis=analysis,
                     certificate=payload)


def lr_decay_check(theta0, eta0, alpha, beta2, max_steps):
    """(report, certificate.json body) for the lr-decay witness search.

    As in five_stage_check, the report is None when the oracle refuses.
    """
    try:
        report = lr_decay_witness(theta0, eta0, alpha, beta2, max_steps=max_steps)
    except PreconditionViolation as exc:
        return None, _skipped("lr-decay", exc)
    return report, {
        "theorem": "lr-decay",
        "verdict": "WITNESS-FOUND" if report.found else "NO-WITNESS",
        "params": report.params,
        "witness_step": report.step,
        "checked_steps": report.checked_steps,
    }


def _skipped(theorem: str, exc: PreconditionViolation) -> dict:
    return {"theorem": theorem, "verdict": "SKIPPED (hypothesis)",
            "reason": str(exc)}


# === run directories ========================================================


def output_root(out=None) -> Path:
    if out is not None:
        return Path(out)
    return Path(os.environ.get("SPIKELAB_OUT", "runs"))


def fresh_dir(root: Path, scenario_id: str, seed: int) -> Path:
    """Make <root>/<scenario_id>/<UTC stamp>-<seed>, adding -1, -2, ... if taken."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = root / scenario_id / f"{stamp}-{seed}"
    base.parent.mkdir(parents=True, exist_ok=True)
    d = base
    k = 1
    while True:
        try:
            d.mkdir()
            return d
        except FileExistsError:
            d = base.with_name(f"{base.name}-{k}")
            k += 1


def _write_run_files(result: RunResult, d: Path) -> None:
    write_json(_clean(dict(result.scenario.flat)), d / "config.json")
    write_trace_csv(result.trace, d / "trace.csv")
    write_json(_clean(result.analysis), d / "analysis.json")
    if result.certificate is not None:
        write_json(_clean(result.certificate), d / "certificate.json")


def write_run_dir(result: RunResult, out=None) -> Path:
    """Persist one result under <out>/<scenario_id>/<timestamp>-<seed>/."""
    d = fresh_dir(output_root(out), result.scenario.scenario_id,
                  result.scenario.seed)
    _write_run_files(result, d)
    return d


def write_certificate_dir(certificate: dict, scenario_id: str, out=None,
                          seed: int = 0) -> Path:
    d = fresh_dir(output_root(out), scenario_id, seed)
    write_json(_clean(certificate), d / "certificate.json")
    return d


def summary_line(result: RunResult, run_dir=None) -> str:
    a = result.analysis
    parts = [a["scenario_id"], f"seed={a['seed']}", f"status={a['status']}"]
    if result.certificate is not None:
        parts.append(f"verdict={result.certificate['verdict']}")
        if "worst_slack" in result.certificate:
            parts.append(f"worst_slack={result.certificate['worst_slack']:.3g}")
        if "witness_step" in result.certificate:
            parts.append(f"witness_step={result.certificate['witness_step']}")
    if a["n_steps"]:
        parts.append(f"steps={a['n_steps']}")
        parts.append(f"final_loss={a['final_loss']:.6g}")
        parts.append(f"spikes={len(a['spikes'])}")
    if run_dir is not None:
        parts.append(f"dir={run_dir}")
    return " ".join(parts)


# === sweeps =================================================================

SWEEP_COLUMNS = ("param", "value", "onset_step", "vhat_at_spike",
                 "eta_over_vhat_at_spike", "max_lambda_grad", "status")


def sweep_row(result: RunResult, param: str, value) -> dict:
    """Summary row for one child, from its trace and its analysis' first spike."""
    trace = result.trace
    row = dict.fromkeys(SWEEP_COLUMNS)
    row["param"] = param
    row["value"] = float(value)
    row["status"] = trace.status

    spikes = result.analysis["spikes"]
    if spikes:
        onset = spikes[0]["onset_step"]
        pre = pre_spike_index(trace.losses(), onset)
        rec = trace.records[pre]
        row["onset_step"] = onset
        row["vhat_at_spike"] = rec.vhat_norm_total
        if rec.vhat_norm_total:
            row["eta_over_vhat_at_spike"] = rec.eta_t / rec.vhat_norm_total
    _, lg_vals = trace.probe_series("lambda_grad_Hhat")
    if lg_vals.size:
        row["max_lambda_grad"] = float(lg_vals.max())
    return row


def write_sweep_summary(rows, path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


def _child_id(param: str, value) -> str:
    return f"{param}={float(value):.6g}"


def _sweep_child(args):
    """Run one sweep child and write its files; failures become row text."""
    flat, child_dir, param, value = args
    row = dict.fromkeys(SWEEP_COLUMNS)
    row["param"] = param
    row["value"] = float(value)
    try:
        sc = build_scenario(flat)
        result = run_scenario(sc)
        d = Path(child_dir)
        d.mkdir(parents=True, exist_ok=True)
        _write_run_files(result, d)
        return sweep_row(result, param, value)
    except Exception as exc:
        row["status"] = f"error: {exc}"
        return row


@dataclass
class SweepResult:
    sweep_dir: Path
    rows: list

    def all_completed(self) -> bool:
        return all(r["status"] == "completed" for r in self.rows)


def run_sweep(base_flat: dict, param: str, values, out=None,
              jobs: int = 1) -> SweepResult:
    """One child run per value; children land inside the sweep directory."""
    values = list(values)
    if not values:
        raise ConfigError("sweep needs a non-empty list of values")
    if jobs < 1:
        raise ConfigError("sweep needs jobs >= 1")
    base = dict(base_flat)
    base.pop("sweep.param", None)
    base.pop("sweep.values", None)
    if param not in base:
        raise ConfigError(f"sweep parameter {param!r} is not a config key")
    base_id = str(base.get("scenario", "sweep"))
    seed = _int(base, "seed", 0)

    sweep_dir = fresh_dir(output_root(out), base_id, seed)
    write_json(_clean(dict(base_flat, **{"sweep.param": param})),
               sweep_dir / "config.json")

    tasks = []
    for value in values:
        flat = dict(base)
        flat[param] = value
        flat["scenario"] = _child_id(param, value)
        tasks.append((flat, str(sweep_dir / _child_id(param, value)),
                      param, value))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(values))) as pool:
            rows = list(pool.map(_sweep_child, tasks))
    else:
        rows = [_sweep_child(t) for t in tasks]

    write_sweep_summary(rows, sweep_dir / "sweep_summary.csv")
    return SweepResult(sweep_dir=sweep_dir, rows=rows)
