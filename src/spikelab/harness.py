"""Scenario execution: single runs, theorem modes, run directories, sweeps.

A run directory holds config.json, trace.csv, analysis.json, and (for
theorem modes) certificate.json, the oracle's body as it returned it, a
SKIPPED (hypothesis) refusal included. Sweeps write one child directory per
value plus sweep_summary.csv; every summary row is recomputable from the
child's trace alone.
"""

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (crossing_summary, detect_spikes_series, fill_sustained,
                       pre_spike_index, segment_stages)
from .errors import ConfigError, SpikelabError
from .oracles import five_stage_certificate, lr_decay_witness
from .optimizers import run
from .scenarios import Scenario, build_scenario
from .trace import PROBE_DTYPE, RunTrace, write_csv, write_json, write_trace_csv

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
    n = len(trace)

    spikes = []
    if n > sc.analysis.window:
        spikes = detect_spikes_series(trace.losses(), rho=sc.analysis.rho,
                                      window=sc.analysis.window)

    seg = segment_stages(trace, sc.hyper) if sc.analysis.segment and n else None
    trace.stage = seg and seg["boundaries"]

    final_loss = float(trace.loss[-1]) if n else trace.initial_loss
    return {
        "scenario_id": sc.scenario_id,
        "seed": sc.seed,
        "status": trace.status,
        "n_steps": n,
        "initial_loss": trace.initial_loss,
        "final_loss": final_loss,
        "spikes": spikes,
        "crossings": crossing_summary(trace),
        "decay_fit": seg and seg["verdicts"][0]["detail"],  # stage2-decay-fit
        "segmentation": seg,
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


def _empty_trace(sc: Scenario) -> RunTrace:
    return RunTrace(config=dict(sc.flat), status="completed",
                    block_names=("theta",), initial_loss=0.5 * sc.theta0 * sc.theta0)


def _theorem_trace(sc: Scenario, th, rv) -> RunTrace:
    """Trace of the beta1=0 scalar recursion's theta and sqrt(v); probes
    synthesized exactly.

    Record i covers theta_i -> theta_{i+1}; the preconditioned curvature at
    step i is 1/sqrt(v_i) because the recursion applies the delayed second
    moment, and the raw curvature of the scalar objective is 1.
    """
    eta = sc.hyper.eta
    n = th.size - 1
    lam, yes = 1.0 / rv[:n], np.ones(n, bool)
    probes = np.rec.fromarrays([np.arange(n), np.ones(n), lam, lam, np.full(n, 2.0 / eta),
                                np.zeros(n), yes, yes], dtype=PROBE_DTYPE)
    # the loss squares through pow() one float at a time: numpy's vector
    # square rounds a few of thmD4's losses differently, moving trace.csv
    return RunTrace(config=dict(sc.flat), status="completed",
                    block_names=("theta",),
                    initial_loss=float(0.5 * th[0] ** 2),
                    loss=0.5 * np.array([x ** 2 for x in th[1:].tolist()]),
                    grad_norm=np.abs(th[:n]),
                    eta_t=np.broadcast_to(eta, (n,)),
                    vhat=np.broadcast_to(rv[1:, None], (n, 2)), probes=probes)


def _five_stage_mode(sc: Scenario) -> RunResult:
    cert, simulated = five_stage_certificate(sc.theta0, sc.hyper.eta, sc.hyper.beta2,
                                             sc.n_steps or None)
    trace = _empty_trace(sc) if simulated is None else _theorem_trace(sc, *simulated)
    analysis = _analyze(trace, sc)

    if analysis["segmentation"]:  # None for the empty trace of a SKIPPED body
        segb = analysis["segmentation"]["boundaries"]
        certb = cert["boundaries"]
        checks = {
            "t2_matches": segb["t2"] == certb["t2"],
            "t3_follows_t2": certb["t2"] is not None and segb["t3"] == certb["t2"] + 1,
            "t4_matches_growth": segb["t4"] == certb["t3"],
            "t5_matches_reviolation": segb["t5"] == certb["t4"],
            "t1_present_before_t2": (None not in (segb["t1"], segb["t2"])
                                     and segb["t1"] < segb["t2"]),
        }
        analysis["theorem_consistency"] = dict(checks, all_consistent=all(checks.values()))

    return RunResult(scenario=sc, trace=trace, analysis=analysis, certificate=cert)


def _lr_decay_mode(sc: Scenario) -> RunResult:
    cert = lr_decay_witness(sc.theta0, sc.hyper.eta, sc.alpha, sc.hyper.beta2, sc.n_steps)
    trace = _empty_trace(sc)
    witness = None if "reason" in cert else {
        "found": cert["verdict"] == "WITNESS-FOUND", "step": cert["witness_step"],
        "checked_steps": cert["checked_steps"]}
    analysis = dict(_analyze(trace, sc), crossings={}, witness=witness)
    return RunResult(scenario=sc, trace=trace, analysis=analysis, certificate=cert)


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


def write_certificate_dir(certificate: dict, scenario_id: str, out=None) -> Path:
    d = fresh_dir(output_root(out), scenario_id, 0)
    write_json(_clean(certificate), d / "certificate.json")
    return d


def summary_line(result: RunResult, run_dir=None) -> str:
    a = result.analysis
    parts = [a["scenario_id"], f"seed={a['seed']}", f"status={a['status']}"]
    cert = result.certificate
    if cert is not None:
        parts.append(f"verdict={cert['verdict']}"
                     + (f": {cert['reason']}" if "reason" in cert else ""))
        if cert.get("worst_slack") is not None:
            parts.append(f"worst_slack={cert['worst_slack']:.3g}")
        if "witness_step" in cert:
            parts.append(f"witness_step={cert['witness_step']}")
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
    row = dict(dict.fromkeys(SWEEP_COLUMNS), param=param, value=float(value),
               status=trace.status)
    spikes = result.analysis["spikes"]
    if spikes:
        onset = spikes[0]["onset_step"]
        pre = pre_spike_index(trace.losses(), onset)
        row["onset_step"] = onset
        if trace.vhat is not None:
            vhat = row["vhat_at_spike"] = float(trace.vhat[pre, 0])
            if vhat:
                row["eta_over_vhat_at_spike"] = float(trace.eta_t[pre]) / vhat
    _, lg_vals = trace.probe_series("lambda_grad_Hhat")
    if lg_vals.size:
        row["max_lambda_grad"] = float(lg_vals.max())
    return row


def write_sweep_summary(rows, path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


def _child_id(param: str, value) -> str:
    return f"{param}={float(value):.6g}"


def _sweep_child(args):
    """Run one sweep child and write its files; a SpikelabError becomes row text."""
    flat, child_dir, param, value = args
    try:
        result = run_scenario(build_scenario(flat))
    except SpikelabError as exc:
        return dict(dict.fromkeys(SWEEP_COLUMNS), param=param, value=float(value),
                    status=f"error: {exc}")
    Path(child_dir).mkdir(parents=True, exist_ok=True)
    _write_run_files(result, Path(child_dir))
    return sweep_row(result, param, value)


@dataclass
class SweepResult:
    sweep_dir: Path
    rows: list

    def all_completed(self) -> bool:
        return all(r["status"] == "completed" for r in self.rows)


def run_sweep(base_flat: dict, param: str, values, out=None) -> SweepResult:
    """One child run per value; children land inside the sweep directory.

    Children run in a process pool, one worker per value up to the CPU count.
    Each child is a pure function of its config, so its files do not depend
    on the worker that ran it, and rows keep the order of the values. Workers
    are spawned, not forked, because numpy's BLAS threads make fork unsafe; a
    script that calls run_sweep does so under `if __name__ == "__main__":`.
    """
    # imported here: a process that never sweeps does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    values = list(values)
    if not values:
        raise ConfigError("sweep needs a non-empty list of values")
    base = {k: v for k, v in base_flat.items()
            if k not in ("sweep.param", "sweep.values", param)}
    seed = build_scenario(dict(base, **{"sweep.param": param})).seed
    ids = [_child_id(param, value) for value in values]
    clashes = [f"{float(v)!r} -> {cid}" for v, cid in zip(values, ids) if ids.count(cid) > 1]
    if clashes:
        raise ConfigError("sweep values share a child directory: " + ", ".join(clashes))

    sweep_dir = fresh_dir(output_root(out), str(base.get("scenario", "sweep")), seed)
    write_json(_clean(dict(base_flat, **{"sweep.param": param})),
               sweep_dir / "config.json")

    tasks = [(dict(base, **{param: value, "scenario": cid}), str(sweep_dir / cid),
              param, value) for value, cid in zip(values, ids)]
    with ProcessPoolExecutor(max_workers=min(len(values), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        rows = list(pool.map(_sweep_child, tasks))

    write_sweep_summary(rows, sweep_dir / "sweep_summary.csv")
    return SweepResult(sweep_dir=sweep_dir, rows=rows)
