"""Command-line front end: runs, sweeps, theorem checks, dataset export.

Exit codes: 0 success (including SKIPPED and no-witness verdicts), 1 usage
or config error (a sweep also exits 1 when a child failed with one, after
writing its summary), 2 diverged run or FAIL verdict.
"""

import argparse
import contextlib
import csv
import math
import sys

import numpy as np

from .analysis import BOUNDARIES
from .errors import ConfigError, SpikelabError
from .harness import (fresh_dir, output_root, run_scenario, run_sweep, summary_line,
                      write_certificate_dir, write_run_dir)
from .objectives import QuadraticSpec, export_dataset_rows, make_quadratic
from .oracles import (DENSE_ORACLE_CAP, QUADRATURE_NODES, check_descent_lemma,
                      five_stage_certificate, lr_decay_witness, momentum_boundary_check,
                      real_spectrum_check, spike_iff_certificate)
from .rngs import stream
from .scenarios import (PRESETS, apply_overrides, build_scenario, load_config_file,
                        preset_config, read_floats)


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
    if not param:
        raise SpikelabError("sweep needs --param (or a sweep.param config key)")
    values = (read_floats(flat, "sweep.values", "") if args.values is None
              else read_floats({}, "--values", args.values))
    if not values:
        raise SpikelabError("sweep needs a non-empty --values list")
    result = run_sweep(flat, param, values, out=args.out)
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


def _verify_five_stage(theta0, eta, beta2, max_steps):
    cert, _ = five_stage_certificate(theta0, eta, beta2, max_steps)
    if "reason" in cert:
        return cert, f": {cert['reason']}"
    b = cert["boundaries"]
    bounds = " ".join(f"{k}={b[k]}" for k in BOUNDARIES)
    return cert, f" worst_slack={cert['worst_slack']:.3g} {bounds}"


def _verify_momentum_boundary(eta, beta1, margin, lam):
    cert = momentum_boundary_check(eta, beta1, margin, lam)
    if "query" in cert:
        print(f"lambda={lam:g}: {cert['query']['classified']}")
    b = cert["bracket"]
    return cert, (f" boundary={cert['boundary']:g} bracket=({b['lambda_below']:g}:"
                  f"{b['classified_below']}, {b['lambda_above']:g}:{b['classified_above']})")


def _verify_descent(eta, eigenvalues, steps, theta0):
    flat = {
        "scenario": "verify-descent", "mode": "run", "seed": 0,
        "n_steps": steps, "theta0": theta0,
        "objective.kind": "quadratic",
        "objective.eigenvalues": read_floats({}, "--eigenvalues", eigenvalues),
        "optimizer.kind": "gd", "optimizer.eta": eta,
        "probes.every": 0,
    }
    sc = build_scenario(flat)
    result = run_scenario(sc)
    cert = dict(check_descent_lemma(result.trace, sc.objective),
                params={"eta": eta, "eigenvalues": eigenvalues, "steps": steps})
    return cert, (f" worst_slack={cert['worst_slack']:.3g} "
                  f"checked={cert['checked_steps']} skipped={cert['skipped_steps']}")


def _verify_spike_iff(eigenvalues, theta0, steps, eta, nodes, min_consistency):
    obj = make_quadratic(QuadraticSpec(eigenvalues=read_floats({}, "--eigenvalues", eigenvalues)))
    cert = dict(spike_iff_certificate(obj, obj.initial_point((theta0,)).values, eta, steps,
                                      nodes, min_consistency),
                params={"eta": eta, "eigenvalues": eigenvalues, "quadrature_nodes": nodes})
    determinate = cert["determinate_steps"]
    consistent = round((cert["consistent_fraction"] or 0) * determinate)
    return cert, f" consistent={consistent}/{determinate} determinate steps"


def _verify_lr_decay(theta0, eta0, alpha, beta2, max_steps):
    cert = lr_decay_witness(theta0, eta0, alpha, beta2, max_steps)
    if "reason" in cert:
        return cert, f": {cert['reason']}"
    return cert, f" step={cert['witness_step']} checked={cert['checked_steps']}"


def _verify_real_spectrum(dim, seed):
    rng = stream(seed, "verify")
    a = rng.normal(size=(dim, dim))
    H = 0.5 * (a + a.T)
    d = np.exp(rng.normal(size=dim))
    cert = dict(real_spectrum_check(H, d), params={"dim": dim, "seed": seed})
    return cert, (f" max_imag_ratio={cert['max_imag_ratio']:.3g} "
                  f"max_rel_mismatch={cert['max_rel_mismatch']:.3g}")


# A domain is (what a value must be, its test); None admits any value.
AT_LEAST_ONE = (">= 1", lambda x: x >= 1)
POSITIVE = ("a positive finite number", lambda x: 0.0 < x < math.inf)
ETA, STEPS = (float, 0.15, POSITIVE), (int, 100, AT_LEAST_ONE)
THETA0 = (float, 1.0, ("a finite number", math.isfinite))
EIGENVALUES = (str, "1.0,5.0,10.0", None)  # read by read_floats in the verifier

# theorem -> (verifier, {flag: (type, default, domain)}): a theorem accepts
# only its own flags (plus --out), which its verifier takes as keywords, and
# returns (certificate.json body, detail for the summary line). five-stage and
# lr-decay hand their real values to the oracle, whose refusal is a verdict.
VERIFIERS = {
    "descent": (_verify_descent, dict(
        eta=ETA, eigenvalues=EIGENVALUES, steps=STEPS, theta0=THETA0)),
    "momentum-boundary": (_verify_momentum_boundary, dict(
        eta=ETA, beta1=(float, 0.9, ("in [0, 1)", lambda x: 0.0 <= x < 1.0)),
        margin=(float, 0.02, ("in (0, 1)", lambda x: 0.0 < x < 1.0)),
        lam=(float, None, POSITIVE))),
    "five-stage": (_verify_five_stage, dict(
        theta0=(float, 10.0, None), eta=(float, 0.15, None),
        beta2=(float, 0.99, None), max_steps=(int, None, AT_LEAST_ONE))),
    "spike-iff": (_verify_spike_iff, dict(
        eigenvalues=EIGENVALUES, theta0=THETA0, steps=STEPS, eta=ETA,
        nodes=(int, QUADRATURE_NODES, AT_LEAST_ONE),
        min_consistency=(float, 1.0, ("in [0, 1]", lambda x: 0.0 <= x <= 1.0)))),
    "lr-decay": (_verify_lr_decay, dict(
        theta0=(float, 1.0, None), eta0=(float, 0.1, None), alpha=(float, 0.5, None),
        beta2=(float, 0.99, None), max_steps=(int, 10 ** 6, AT_LEAST_ONE))),
    "real-spectrum": (_verify_real_spectrum, dict(
        dim=(int, 40, (f">= 1 and <= {DENSE_ORACLE_CAP}",
                       lambda n: 1 <= n <= DENSE_ORACLE_CAP)),
        seed=(int, 0, (">= 0", lambda n: n >= 0)))),
}


def cmd_verify(args) -> int:
    verifier, flags = VERIFIERS[args.theorem]
    kwargs = {name: getattr(args, name) for name in flags}
    for name, (_, _, domain) in flags.items():
        if domain is not None and kwargs[name] is not None and not domain[1](kwargs[name]):
            raise ConfigError(f"--{name.replace('_', '-')} must be {domain[0]}")
    payload, detail = verifier(**kwargs)
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
    sweepp.set_defaults(func=cmd_sweep)

    verp = sub.add_parser("verify", help="check one theorem numerically")
    theorems = verp.add_subparsers(dest="theorem", required=True)
    for theorem, (_, flags) in VERIFIERS.items():
        tp = theorems.add_parser(theorem, allow_abbrev=False)
        for name, (kind, default, _) in flags.items():
            tp.add_argument("--" + name.replace("_", "-"), type=kind, default=default)
        tp.add_argument("--out", default=None)
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
    except (SpikelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
