"""Command-line front end: runs, sweeps, theorem checks, dataset export.

Exit codes: 0 success (including SKIPPED and no-witness verdicts), 1 usage
or config error (a sweep also exits 1 when a child failed with one, after
writing its summary), 2 diverged run or FAIL verdict.
"""

import argparse
import contextlib
import csv
import sys

import numpy as np

from .errors import ConfigError, Indeterminate, SpikelabError
from .harness import (five_stage_check, fresh_dir, lr_decay_check, output_root,
                      run_scenario, run_sweep, summary_line,
                      write_certificate_dir, write_run_dir)
from .objectives import QuadraticSpec, export_dataset_rows, make_quadratic
from .oracles import (check_descent_lemma, momentum_boundary,
                      momentum_stability_classify, real_spectrum_check,
                      spike_iff_check)
from .rngs import stream
from .scenarios import (PRESETS, apply_overrides, build_scenario,
                        load_config_file, preset_config)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 (2 is reserved for failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# === shared config plumbing =================================================


def _add_config_args(sp):
    sp.add_argument("--scenario", help="preset name from the registry")
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override one config key (repeatable)")
    sp.add_argument("--seed", type=int, default=None, help="override the seed")
    sp.add_argument("--out", default=None,
                    help="output root (default $SPIKELAB_OUT or ./runs)")


def _resolve_config(args) -> dict:
    if args.config:
        flat = load_config_file(args.config)
    elif args.scenario:
        flat = preset_config(args.scenario)
    else:
        raise SpikelabError(
            "need --scenario or --config; presets: " + ", ".join(sorted(PRESETS)))
    flat = apply_overrides(flat, args.set)
    if args.seed is not None:
        flat["seed"] = args.seed
    return flat


# === run ====================================================================


def cmd_run(args) -> int:
    flat = _resolve_config(args)
    sc = build_scenario(flat)
    result = run_scenario(sc)
    run_dir = write_run_dir(result, out=args.out)
    print(summary_line(result, run_dir))
    if result.certificate is not None and result.certificate["verdict"] == "FAIL":
        return 2
    return 0 if result.status == "completed" else 2


# === sweep ==================================================================


def cmd_sweep(args) -> int:
    flat = _resolve_config(args)
    param = args.param or flat.get("sweep.param")
    raw_values = args.values if args.values is not None else flat.get("sweep.values", "")
    if not param:
        raise SpikelabError("sweep needs --param (or a sweep.param config key)")
    values = [float(tok) for tok in str(raw_values).split(",") if tok.strip()]
    if not values:
        raise SpikelabError("sweep needs a non-empty --values list")
    result = run_sweep(flat, param, values, out=args.out, jobs=args.jobs)
    for row in result.rows:
        bits = [f"{row['param']}={row['value']:.6g}", f"status={row['status']}"]
        if row["onset_step"] is not None:
            bits.append(f"onset={row['onset_step']}")
        if row["eta_over_vhat_at_spike"] is not None:
            bits.append(f"eta_over_vhat={row['eta_over_vhat_at_spike']:.4g}")
        print("  " + " ".join(bits))
    print(f"sweep_summary: {result.sweep_dir / 'sweep_summary.csv'}")
    failed = sum(str(row["status"]).startswith("error") for row in result.rows)
    if failed:
        print(f"error: {failed} of {len(result.rows)} sweep children failed", file=sys.stderr)
    return 1 if failed else 0


# === verify =================================================================


def _verdict(evidence: int, holds: bool) -> str:
    """PASS or FAIL over `evidence` checked steps; with none, no verdict."""
    return ("PASS" if holds else "FAIL") if evidence else "SKIPPED (no evidence)"


def _verify_five_stage(args):
    theta0 = 10.0 if args.theta0 is None else args.theta0
    cert, payload = five_stage_check(theta0, args.eta, args.beta2, args.max_steps)
    if cert is None:
        return payload, f": {payload['reason']}"
    if not cert.hypothesis_ok:
        return payload, ""
    b = cert.simulated_boundaries
    bounds = " ".join(f"{k}={b[k]}" for k in ("t0", "t1", "t2", "t3", "t4", "t5"))
    return payload, f" worst_slack={payload['worst_slack']:.3g} {bounds}"


def _verify_momentum_boundary(args):
    beta1 = 0.9 if args.beta1 is None else args.beta1
    boundary = momentum_boundary(args.eta, beta1)
    lo = boundary * (1.0 - args.margin)
    hi = boundary * (1.0 + args.margin)
    below = momentum_stability_classify(lo, args.eta, beta1)
    above = momentum_stability_classify(hi, args.eta, beta1)
    payload = {
        "theorem": "momentum-boundary",
        "verdict": "PASS" if below == "stable" and above == "unstable" else "FAIL",
        "boundary": boundary,
        "margin": args.margin,
        "bracket": {"lambda_below": lo, "classified_below": below,
                    "lambda_above": hi, "classified_above": above},
    }
    if args.lam is not None:
        try:
            verdict = momentum_stability_classify(args.lam, args.eta, beta1)
        except Indeterminate:
            verdict = "indeterminate"
        payload["query"] = {"lambda": args.lam, "classified": verdict}
        print(f"lambda={args.lam:g}: {verdict}")
    return payload, f" boundary={boundary:g} bracket=({lo:g}:{below}, {hi:g}:{above})"


def _verify_descent(args):
    flat = {
        "scenario": "verify-descent", "mode": "run",
        "seed": 0 if args.seed is None else args.seed,
        "n_steps": args.steps,
        "theta0": 1.0 if args.theta0 is None else args.theta0,
        "objective.kind": "quadratic",
        "objective.eigenvalues": args.eigenvalues,
        "optimizer.kind": "gd", "optimizer.eta": args.eta,
        "probes.every": 0,
    }
    sc = build_scenario(flat)
    result = run_scenario(sc)
    report = check_descent_lemma(result.trace, sc.objective)
    payload = {
        "theorem": "descent",
        "verdict": _verdict(report.checked_steps, report.holds),
        "worst_slack": report.worst_slack,
        "checked_steps": report.checked_steps,
        "skipped_steps": report.skipped_steps,
        "violations": report.violations,
        "params": {"eta": args.eta, "eigenvalues": args.eigenvalues,
                   "steps": args.steps},
    }
    return payload, (f" worst_slack={report.worst_slack:.3g} "
                     f"checked={report.checked_steps} skipped={report.skipped_steps}")


def _verify_spike_iff(args):
    eig = tuple(float(x) for x in args.eigenvalues.split(","))
    obj = make_quadratic(QuadraticSpec(eigenvalues=eig))
    theta = obj.initial_point((1.0 if args.theta0 is None else args.theta0,)).values
    determinate = consistent = 0
    worst_margin = None
    for _ in range(args.steps):
        res = spike_iff_check(obj, theta, args.eta, quadrature_nodes=args.nodes)
        if res.determinate:
            determinate += 1
            consistent += res.consistent()
            margin = abs(res.estimate - res.threshold)
            worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        theta = theta - args.eta * obj.gradient(theta)
    frac = consistent / determinate if determinate else None
    payload = {
        "theorem": "spike-iff",
        "verdict": _verdict(determinate, frac is not None and frac >= args.min_consistency),
        "consistent_fraction": frac,
        "determinate_steps": determinate,
        "total_steps": args.steps,
        "worst_margin": worst_margin,
        "params": {"eta": args.eta, "eigenvalues": args.eigenvalues,
                   "quadrature_nodes": args.nodes},
    }
    return payload, f" consistent={consistent}/{determinate} determinate steps"


def _verify_lr_decay(args):
    theta0 = 1.0 if args.theta0 is None else args.theta0
    report, payload = lr_decay_check(theta0, args.eta0, args.alpha, args.beta2,
                                     args.max_steps or 10 ** 6)
    if report is None:
        return payload, f": {payload['reason']}"
    return payload, f" step={report.step} checked={report.checked_steps}"


def _verify_real_spectrum(args):
    rng = stream(0 if args.seed is None else args.seed, "verify")
    a = rng.normal(size=(args.dim, args.dim))
    H = 0.5 * (a + a.T)
    d = np.exp(rng.normal(size=args.dim))
    report = real_spectrum_check(H, d)
    payload = {
        "theorem": "real-spectrum",
        "verdict": "PASS" if report.holds else "FAIL",
        "max_imag_ratio": report.max_imag_ratio,
        "max_rel_mismatch": report.max_rel_mismatch,
        "spectral_radius": report.spectral_radius,
        "params": {"dim": args.dim, "seed": 0 if args.seed is None else args.seed},
    }
    return payload, (f" max_imag_ratio={report.max_imag_ratio:.3g} "
                     f"max_rel_mismatch={report.max_rel_mismatch:.3g}")


# Each verifier returns (certificate.json body, detail for the summary line).
VERIFIERS = {
    "descent": _verify_descent,
    "momentum-boundary": _verify_momentum_boundary,
    "five-stage": _verify_five_stage,
    "spike-iff": _verify_spike_iff,
    "lr-decay": _verify_lr_decay,
    "real-spectrum": _verify_real_spectrum,
}


def cmd_verify(args) -> int:
    for flag, ok, domain in (
            ("--max-steps", args.max_steps is None or args.max_steps >= 1, ">= 1"),
            ("--steps", args.steps >= 1, ">= 1"),
            ("--dim", args.dim >= 1, ">= 1"),
            ("--margin", 0.0 < args.margin < 1.0, "in (0, 1)")):
        if not ok:
            raise ConfigError(f"{flag} must be {domain}")
    payload, detail = VERIFIERS[args.theorem](args)
    print(f"{args.theorem}: {payload['verdict']}{detail}")
    d = write_certificate_dir(payload, f"verify-{args.theorem}", args.out)
    print(f"certificate: {d / 'certificate.json'}")
    return 2 if payload["verdict"] == "FAIL" else 0


# === export-dataset =========================================================


def cmd_export_dataset(args) -> int:
    flat = _resolve_config(args)
    sc = build_scenario(flat)
    if sc.objective is None or getattr(sc.objective, "dataset", None) is None:
        raise SpikelabError("scenario has no dataset; use an fnn objective")
    rows = export_dataset_rows(sc.objective)
    if args.file == "-":
        path, sink = None, contextlib.nullcontext(sys.stdout)
    else:
        path = args.file or (fresh_dir(output_root(args.out), sc.scenario_id,
                                       sc.seed) / "dataset.csv")
        sink = open(path, "w", newline="")
    with sink as fh:
        csv.writer(fh).writerows(rows)
    if path is not None:
        print(f"dataset: {path}")
    return 0


# === parser =================================================================


def build_parser() -> _Parser:
    p = _Parser(prog="spikelab",
                description="Adaptive-optimizer spike instrumentation harness.")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one scenario")
    _add_config_args(runp)
    runp.set_defaults(func=cmd_run)

    sweepp = sub.add_parser("sweep", help="run one scenario across an axis")
    _add_config_args(sweepp)
    sweepp.add_argument("--param", help="dotted config key to sweep")
    sweepp.add_argument("--values", help="comma-separated numeric values")
    sweepp.add_argument("--jobs", type=int, default=1)
    sweepp.set_defaults(func=cmd_sweep)

    verp = sub.add_parser("verify", help="check one theorem numerically")
    verp.add_argument("theorem", choices=VERIFIERS)
    verp.add_argument("--theta0", type=float, default=None)
    verp.add_argument("--eta", type=float, default=0.15)
    verp.add_argument("--eta0", type=float, default=0.1)
    verp.add_argument("--beta1", type=float, default=None)
    verp.add_argument("--beta2", type=float, default=0.99)
    verp.add_argument("--alpha", type=float, default=0.5)
    verp.add_argument("--lam", type=float, default=None,
                      help="momentum-boundary: classify this eigenvalue")
    verp.add_argument("--margin", type=float, default=0.02,
                      help="momentum-boundary: bracket width around the threshold")
    verp.add_argument("--eigenvalues", default="1.0,5.0,10.0")
    verp.add_argument("--steps", type=int, default=100)
    verp.add_argument("--max-steps", type=int, default=None)
    verp.add_argument("--nodes", type=int, default=16)
    verp.add_argument("--min-consistency", type=float, default=1.0)
    verp.add_argument("--dim", type=int, default=40)
    verp.add_argument("--seed", type=int, default=None)
    verp.add_argument("--out", default=None)
    verp.set_defaults(func=cmd_verify)

    exp = sub.add_parser("export-dataset", help="write a scenario's dataset CSV")
    _add_config_args(exp)
    exp.add_argument("--file", default=None,
                     help="target path ('-' for stdout; default under --out)")
    exp.set_defaults(func=cmd_export_dataset)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpikelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
