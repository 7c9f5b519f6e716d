"""The four benchmark workloads, their correctness checks and output digests.

Every workload drives spikelab only through its public pipeline:
build_scenario -> run_scenario -> write_run_dir for single runs, run_sweep
for sweeps, exactly as `spikelab run` and `spikelab sweep` do. The program's
inputs are fixed presets; the benchmark seed only shuffles the order in which
preset-mix runs its presets, so output digests are comparable across seeds.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import spikelab as sl

# fig6 reaches its first spike onset at step 521; 560 steps add cold probes,
# warm-started probes in a calm stretch and seven probes inside the spike.
FNN_STEPS = 560

PRESET_MIX = ("fig2a", "fig2bc-sweep", "fig3-spike", "fig3-oscillation",
              "fig5-gd", "fig5-adam", "figD10-rmsprop", "figD11-adafactor",
              "figD12-gd-delay", "thmD4", "thmD6")

WORKLOADS = ("fnn-probe", "fnn-train", "long-trace", "preset-mix")

DIGESTED = ("trace.csv", "analysis.json", "certificate.json", "sweep_summary.csv")


@dataclass
class Job:
    """One scenario (or one sweep) of a workload, built before any step runs."""

    name: str
    flat: dict
    scenario: object = None  # None for sweeps; run_sweep builds its children
    sweep: tuple = None  # (param, values)


@dataclass
class JobOutcome:
    name: str
    run_dir: Path = None
    result: object = None  # RunResult for single runs
    sweep: object = None  # SweepResult for sweeps
    error: str = None


def _preset(name, n_steps=None):
    flat = sl.preset_config(name)
    if n_steps is not None:
        flat["n_steps"] = n_steps
    return flat


def workload_flats(workload, seed):
    """(job name, flat config) pairs of one workload, in run order."""
    if workload == "fnn-probe":
        return [("fig6-fnn50d", _preset("fig6-fnn50d", FNN_STEPS))]
    if workload == "fnn-train":
        return [("figD8-mitigations", _preset("figD8-mitigations", FNN_STEPS))]
    if workload == "long-trace":
        return [("figD9-adagrad", _preset("figD9-adagrad"))]
    if workload == "preset-mix":
        names = list(PRESET_MIX)
        random.Random(seed).shuffle(names)
        return [(name, _preset(name)) for name in names]
    raise ValueError(f"unknown workload {workload!r}")


def build_jobs(workload, seed):
    """Build every scenario of the workload; this is the measured set-up."""
    jobs = []
    for name, flat in workload_flats(workload, seed):
        if "sweep.param" in flat:
            values = [float(tok) for tok in str(flat["sweep.values"]).split(",")
                      if tok.strip()]
            jobs.append(Job(name, flat, sweep=(flat["sweep.param"], values)))
        else:
            jobs.append(Job(name, flat, scenario=sl.build_scenario(flat)))
    return jobs


def execute(job, out):
    """Run one job through the public pipeline and write its files."""
    outcome = JobOutcome(job.name)
    try:
        if job.sweep is not None:
            param, values = job.sweep
            outcome.sweep = sl.run_sweep(job.flat, param, values, out=out)
            outcome.run_dir = outcome.sweep.sweep_dir
        else:
            outcome.result = sl.run_scenario(job.scenario)
            outcome.run_dir = sl.write_run_dir(outcome.result, out=out)
    except Exception as exc:  # a raising run is an error the benchmark counts
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


# === correctness ============================================================


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _run_dir_checks(d):
    """Every JSON file parses strictly and the run says status=completed."""
    checks, parsed = [], {}
    for path in sorted(d.glob("*.json")):
        try:
            parsed[path.name] = _strict_json(path)
            checks.append((f"{path.name} parses", True, ""))
        except ValueError as exc:
            checks.append((f"{path.name} parses", False, str(exc)))
    status = parsed.get("analysis.json", {}).get("status")
    checks.append(("status=completed", status == "completed", str(status)))
    return checks, parsed


def _finite(x):
    return x is not None and math.isfinite(x)


def _scenario_checks(name, d, result):
    """Generic checks plus the workload-specific ones for this preset."""
    checks, parsed = _run_dir_checks(d)
    a = parsed["analysis.json"]
    spikes = len(a["spikes"])
    if name == "fig6-fnn50d":
        probes = [r.probe for r in result.trace.records if r.probe is not None]
        finite = all(_finite(p.lambda_max_H) and _finite(p.lambda_max_Hhat)
                     and _finite(p.lambda_grad_Hhat) for p in probes)
        checks.append(("probes taken, values finite", bool(probes) and finite,
                       f"{len(probes)} probes"))
        c = a["crossings"]
        lm, lg = c["first_lambda_max_crossing"], c["first_lambda_grad_crossing"]
        checks.append(("lambda_max crosses before lambda_grad",
                       lm is not None and lg is not None and lm < lg,
                       f"lambda_max {lm}, lambda_grad {lg}"))
    elif name == "figD8-mitigations":
        checks.append(("final loss below initial loss",
                       a["final_loss"] < a["initial_loss"],
                       f"{a['initial_loss']:.6g} -> {a['final_loss']:.6g}"))
    elif name == "figD9-adagrad":
        checks.append(("0 spikes over 1e5 rows",
                       spikes == 0 and a["n_steps"] == 100000,
                       f"{spikes} spikes, {a['n_steps']} rows"))
    elif name in ("fig2a", "figD10-rmsprop"):
        checks.append(("spikes", spikes > 0, f"{spikes} spikes"))
    elif name == "fig3-oscillation":
        checks.append(("no spikes", spikes == 0, f"{spikes} spikes"))
    elif name in ("thmD4", "thmD6"):
        want = "PASS" if name == "thmD4" else "WITNESS-FOUND"
        verdict = parsed["certificate.json"]["verdict"]
        checks.append((f"verdict {want}", verdict == want, verdict))
    return [(name,) + c for c in checks]


def _sweep_checks(name, sweep):
    """One check list per sweep child, so each child counts as one run."""
    d = sweep.sweep_dir
    per_child = []
    for row in sweep.rows:
        child_id = f"{row['param']}={row['value']:.6g}"
        child = f"{name}/{child_id}"
        checks = [(child, "status=completed", row["status"] == "completed",
                   row["status"])]
        if row["status"] == "completed":
            child_checks, _ = _run_dir_checks(d / child_id)
            checks += [(child,) + c for c in child_checks]
        per_child.append(checks)
    summary = (d / "sweep_summary.csv").read_text().splitlines()
    per_child[0].append((name, "7 children completed",
                         len(sweep.rows) == 7 and sweep.all_completed()
                         and len(summary) == 8, f"{len(summary) - 1} rows"))
    return per_child


def check(outcome):
    """Check lists, one per scenario run (sweep children one by one)."""
    if outcome.error is not None:
        return [[(outcome.name, "runs without raising", False, outcome.error)]]
    try:
        if outcome.sweep is not None:
            return _sweep_checks(outcome.name, outcome.sweep)
        return [_scenario_checks(outcome.name, outcome.run_dir, outcome.result)]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [[(outcome.name, "outputs readable", False,
                  f"{type(exc).__name__}: {exc}")]]


# === digests and probe health ===============================================


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(outcome):
    """sha256 of every digested file, keyed by scenario[/child]/file."""
    out = {}
    if outcome.run_dir is None:
        return out
    d = outcome.run_dir
    for f in DIGESTED:
        if (d / f).exists():
            out[f"{outcome.name}/{f}"] = _sha256(d / f)
    if outcome.sweep is not None:
        for child in sorted(p for p in d.iterdir() if p.is_dir()):
            for f in DIGESTED:
                if (child / f).exists():
                    out[f"{outcome.name}/{child.name}/{f}"] = _sha256(child / f)
    return out


def probe_counts(outcome):
    """(probes taken, probes unconverged) of a single run's trace.

    Sweep children are not counted: run_sweep keeps only their summary rows.
    """
    if outcome.result is None:
        return 0, 0
    _, conv = outcome.result.trace.probe_series("converged")
    return int(conv.size), int((conv == 0).sum())
