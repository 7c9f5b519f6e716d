"""Fuzzed entry points: random `verify` argv through `cli.main`, and random
flat configs through build_scenario -> run_scenario -> write_run_dir.

Every outcome must be a usage error (argparse's SystemExit(1)), a refusal
(exit 1 with an `error:` line, or a SpikelabError from the library), or a
result (exit 0 or 2) whose JSON files parse strictly; a run directory's
trace.csv also holds each sustained cell on its lambda_grad row, with the
minimum of that row and its two present neighbours. Examples stay small:
n_steps <= 200, dims <= 20, fnn width <= 8, --steps <= 50, --nodes <= 64,
--dim <= 260, and five-stage and lr-decay always get --max-steps <= 10**4.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spikelab import build_scenario, run_scenario, write_run_dir
from spikelab.cli import VERIFIERS, main
from spikelab.errors import SpikelabError
from spikelab.optimizers import OPTIMIZER_KINDS

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _strict_json(path: Path):
    def no_constants(token):
        raise AssertionError(f"bare {token} token in {path}")

    return json.loads(path.read_text(), parse_constant=no_constants)


# === verify argv ============================================================

TEXT = ["0", "1", "2", "7", "-1", "-0", "0.15", "0.5", "0.99", "1e-9", "10",
        "inf", "-inf", "nan", "1e308", "-1e308", "abc", "", "1.0,5.0,10.0"]
SMALL_INT = {"steps": 50, "nodes": 64, "dim": 260, "seed": 50, "max_steps": 10 ** 4}
ALL_FLAGS = sorted({name for _, flags in VERIFIERS.values() for name in flags})


def _value(name):
    if name in SMALL_INT:
        junk = st.sampled_from(["-1", "-0", "0", "1.5", "inf", "nan", "abc", ""])
        return st.integers(1, SMALL_INT[name]).map(str) | junk
    return st.sampled_from(TEXT)


@st.composite
def verify_argv(draw):
    theorem = draw(st.sampled_from(sorted(VERIFIERS)))
    names = draw(st.lists(st.sampled_from(ALL_FLAGS), unique=True, max_size=4))
    if theorem in ("five-stage", "lr-decay") and "max_steps" not in names:
        names.append("max_steps")
    argv = ["verify", theorem]
    for name in names:
        argv.append(f"--{name.replace('_', '-')}={draw(_value(name))}")
    return argv


@FUZZ
@given(argv=verify_argv())
def test_verify_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 1, argv
            return
    if rc == 1:
        assert any(l.startswith("error: ") for l in err.getvalue().splitlines()), argv
        return
    assert rc in (0, 2), argv
    line = next(l for l in out.getvalue().splitlines() if l.startswith("certificate: "))
    assert _strict_json(Path(line.split(": ", 1)[1]))["theorem"] == argv[1]


# === flat configs ===========================================================

# A config is drawn mostly valid for one mode or objective, then up to two
# keys are set to a value from another key's pool, junk, or a foreign key.
JUNK = st.sampled_from([2.5, True, "abc", "", math.inf, -math.inf, math.nan,
                        -1, 0, -0.0, 1e308, 1e-8, "1.0,nan"])
BETA = st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999])
POSITIVE = st.sampled_from([1e-3, 0.01, 0.1, 0.5, 1.0, 3.0])
EIGS = st.lists(st.sampled_from([0.5, 1.0, 2.0, 10.0, 100.0]), min_size=1,
                max_size=20).map(lambda vs: ",".join(map(repr, vs)))

COMMON = {
    "seed": st.integers(0, 5),
    "optimizer.kind": st.sampled_from(OPTIMIZER_KINDS),
    "optimizer.eta": POSITIVE,
    "optimizer.beta1": BETA,
    "optimizer.beta2": BETA,
    "optimizer.epsilon": st.sampled_from([0.0, 1e-8, 1e-3]),
    "optimizer.bias_correction": st.booleans(),
    "schedule.kind": st.sampled_from(["constant", "power-decay"]),
    "schedule.alpha": st.sampled_from([0.25, 0.5, 0.75]),
    "plan.epsilon_bump_step": st.integers(0, 200),
    "plan.epsilon_bump_value": st.sampled_from([0.0, 0.1, 1.0]),
    "plan.v_floor": st.sampled_from([0.0, 0.01, 1.0]),
    "probes.every": st.integers(0, 5),
    "probes.max_iters": st.integers(1, 100),
    "probes.tol": st.sampled_from([1e-9, 1e-6, 1e-3]),
    "analysis.rho": st.sampled_from([1.5, 3.0, 10.0]),
    "analysis.window": st.integers(1, 60),
    "analysis.segment": st.booleans(),
}
FAMILIES = {
    "quadratic": {"theta0": POSITIVE | EIGS, "objective.eigenvalues": EIGS,
                  "objective.offset": POSITIVE},
    "fnn": {"objective.input_dim": st.integers(1, 20),
            "objective.width": st.integers(1, 8),
            "objective.n_samples": st.integers(1, 40),
            "objective.target": st.sampled_from(["sine-mix",
                                                 "linear-plus-diag-quadratic"]),
            "objective.noise_std": st.sampled_from([0.0, 0.1]),
            "objective.init_scale": st.sampled_from([0.5, 1.0, 3.0]),
            "objective.seed": st.integers(0, 5)},
    "five-stage": {"theta0": st.sampled_from([0.05, 1.0, 10.0, -3.0])},
    "lr-decay": {"theta0": st.sampled_from([0.05, 1.0, 10.0, -3.0])},
}
FIXED = {"quadratic": {"objective.kind": "quadratic"}, "fnn": {"objective.kind": "fnn"},
         "five-stage": {"mode": "five-stage"}, "lr-decay": {"mode": "lr-decay"}}
POOLS = dict(COMMON, **{k: v for fam in FAMILIES.values() for k, v in fam.items()},
             **{"n_steps": st.integers(1, 200), "mode": st.just("run"),
                "objective.kind": st.sampled_from(["quadratic", "fnn", "cubic"]),
                "optimizer.etaa": POSITIVE, "sweep.param": st.just("optimizer.eta")})


@st.composite
def flat_configs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    flat = dict(FIXED[family], n_steps=draw(st.integers(1, 200)))
    flat.update(draw(st.fixed_dictionaries({}, optional=dict(COMMON, **FAMILIES[family]))))
    for key in draw(st.lists(st.sampled_from(sorted(POOLS)), max_size=2, unique=True)):
        flat[key] = draw(POOLS[key] | JUNK)
    return flat


@FUZZ
@given(flat=flat_configs())
@example(flat={"mode": "run", "n_steps": 1e308})
@example(flat={"mode": "five-stage", "n_steps": 1, "seed": 1e308})
@example(flat={"objective.kind": "fnn", "n_steps": 1, "objective.n_samples": 1e308})
@example(flat={"objective.kind": "fnn", "n_steps": 1, "objective.noise_std": 1e308})
@example(flat={"objective.kind": "fnn", "n_steps": 1, "objective.init_scale": -1})
@example(flat={"objective.kind": "fnn", "n_steps": 1, "objective.init_scale": -0.0})
# the gradient vanishes after step 0 under GD, and on every fourth step under
# heavy-ball at beta1 = 0.5, so lambda_grad rows drop around the sustained ones
@example(flat={"objective.kind": "quadratic", "objective.eigenvalues": "1.0", "n_steps": 20,
               "optimizer.kind": "gd", "optimizer.eta": 1.0, "probes.every": 1})
@example(flat={"objective.kind": "quadratic", "objective.eigenvalues": "1.0", "n_steps": 20,
               "optimizer.kind": "heavy-ball", "optimizer.beta1": 0.5, "optimizer.eta": 1.0,
               "probes.every": 1})
def test_flat_config_fuzz(flat, tmp_path):
    try:
        result = run_scenario(build_scenario(flat))
    except SpikelabError:
        return
    d = write_run_dir(result, out=tmp_path)
    names = {p.name for p in d.iterdir()}
    assert {"config.json", "trace.csv", "analysis.json"} <= names
    for name in names - {"trace.csv"}:
        _strict_json(d / name)
    _check_sustained_cells(d / "trace.csv")


def _check_sustained_cells(path):
    """trace.csv's sustained cells sit on lambda_grad's present rows but the first
    and last, each the repr of the min over its own and both present neighbours'."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    present = [i for i, row in enumerate(rows) if row["lambda_grad_Hhat"]]
    filled = [i for i, row in enumerate(rows) if row["lambda_grad_sustained"]]
    assert filled == present[1:-1]
    lg = [float(rows[i]["lambda_grad_Hhat"]) for i in present]
    for k, i in enumerate(filled, 1):
        expected = repr(float(np.minimum.reduce(lg[k - 1:k + 2])))
        assert rows[i]["lambda_grad_sustained"] == expected, (i, lg[k - 1:k + 2])
