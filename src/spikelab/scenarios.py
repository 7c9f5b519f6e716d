"""Scenario registry: named presets, flat-key configs, and the builder.

Configs are flat dotted-key maps (optimizer.beta2=0.99). Presets return
fully explicit maps; build_scenario turns a map into runnable pieces. A run
is a pure function of its config, including the seed.
"""

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .objectives import FnnObjective, FnnTaskSpec, QuadraticSpec, make_quadratic
from .optimizers import OPTIMIZER_KINDS, ProbePlan
from .params import AdamHyper, LrSchedule, MitigationPlan
from .probes import PI_MAX_ITERS, PI_TOL

MAX_STEPS = 10 ** 7  # 100x the longest preset; run preallocates its columns
MAX_SEED = 2 ** 64 - 1  # the seed is part of the run directory's name

# === flat-key parsing =======================================================


def parse_scalar(text: str):
    """Parse one config value: bool, int, float, or string (in that order)."""
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def load_config_file(path) -> dict:
    """Flat dotted-key config: 'key = value' lines of UTF-8, '#' comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    flat, line_of = {}, {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, value = _pair(body, f"{path}:{lineno}: expected key = value")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: {key} is set again (first on line "
                              f"{line_of[key]})")
        flat[key], line_of[key] = value, lineno
    return flat


def apply_overrides(flat: dict, pairs) -> dict:
    """flat with each 'key=value' override applied in turn; the last one wins."""
    out = dict(flat)
    out.update(_pair(p, f"override {p!r} must look like key=value") for p in pairs)
    return out


def _pair(text: str, problem: str):
    """(key, parsed value) of one 'key = value' text; ConfigError(problem)
    when it has no '='."""
    if "=" not in text:
        raise ConfigError(problem)
    key, _, value = text.partition("=")
    return key.strip(), parse_scalar(value)


def _int(flat, key, default):
    """Integer value of key; integral floats such as sweep values pass."""
    value = flat.get(key, default)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _float(flat, key, default):
    """Finite float value of key; booleans, inf and nan are refused."""
    value = flat.get(key, default)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        value = float(value)
        if math.isfinite(value):
            return value
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _seed(flat):
    seed = _int(flat, "seed", 0)
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must be >= 0 and <= {MAX_SEED}")
    return seed


def _bool(flat, key, default):
    value = flat.get(key, default)
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def read_floats(flat, key, default):
    """Finite floats of key, from one number, a sequence or "a,b,c" text."""
    value = flat.get(key, default)
    if isinstance(value, str):
        value = [parse_scalar(p) for p in value.split(",") if p.strip()]
    elif not isinstance(value, (list, tuple, np.ndarray)):
        value = [value]
    return tuple(_float({key: v}, key, None) for v in value)


# === analysis plan ==========================================================


@dataclass(frozen=True)
class AnalysisPlan:
    rho: float = 3.0
    window: int = 50
    segment: bool = False

    def __post_init__(self):
        if self.rho <= 1 or self.window < 1:
            raise ConfigError("analysis needs rho > 1 and window >= 1")


# === built scenario =========================================================


class _Reads(dict):
    """A config map that records each key looked up through get or in."""

    def __init__(self, flat):
        super().__init__(flat)
        self.read = {"sweep.param", "sweep.values"}  # read by sweep, not here

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@dataclass
class Scenario:
    """Runnable pieces of one configuration, plus the flat echo.

    Theorem modes have no objective, kind, sched, plan or probes, and their
    hyper is the scalar recursion's (beta1 = 0, epsilon = 0, no bias
    correction). alpha is lr-decay's power-decay exponent, None in the other
    modes. A theorem mode leaves eta, beta2 and alpha unchecked, so that the
    oracle's refusal is a SKIPPED (hypothesis) verdict, as in `verify`.
    """

    scenario_id: str
    mode: str  # run | five-stage | lr-decay
    seed: int
    n_steps: int
    objective: object
    theta0: object  # ParamVector in run mode, the scalar theta0 in theorem modes
    kind: str
    hyper: AdamHyper
    sched: LrSchedule
    plan: MitigationPlan
    probes: ProbePlan
    analysis: AnalysisPlan
    flat: dict
    alpha: float = None


def build_scenario(flat: dict) -> Scenario:
    """Validate a flat config and construct the runnable scenario.

    A key that no reader looked at for the config's mode and objective is
    refused, so a misspelt or inapplicable key never runs at its default;
    so is a sweep.param naming such a key.
    """
    flat = _Reads(flat)
    scenario_id = str(flat.get("scenario", "custom"))
    if scenario_id in ("", ".", "..") or "/" in scenario_id or "\\" in scenario_id:
        raise ConfigError(f"scenario {scenario_id!r} must name one directory: not "
                          "empty, '.' or '..', and without '/' or '\\'")
    mode = str(flat.get("mode", "run"))
    if mode not in ("run", "five-stage", "lr-decay"):
        raise ConfigError(f"unknown mode {mode!r}")
    seed = _seed(flat)
    n_steps = _int(flat, "n_steps", 1)
    least = 0 if mode == "five-stage" else 1  # 0 lets the five-stage certificate choose
    if not least <= n_steps <= MAX_STEPS:
        raise ConfigError(f"n_steps must be in [{least}, {MAX_STEPS}]")

    eta = _float(flat, "optimizer.eta", 0.01)
    beta2 = _float(flat, "optimizer.beta2", 0.999)
    kind = plan = probes = alpha = None
    if mode == "run":
        kind = str(flat.get("optimizer.kind", "adam"))
        if kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer kind {kind!r}")
        hyper = AdamHyper(
            eta=eta,
            beta1=_float(flat, "optimizer.beta1", 0.9),
            beta2=beta2,
            epsilon=_float(flat, "optimizer.epsilon", 1e-8),
            bias_correction=_bool(flat, "optimizer.bias_correction", True),
        )
        sched = LrSchedule(kind=str(flat.get("schedule.kind", "constant")),
                           alpha=_float(flat, "schedule.alpha", 0.0))
        bump = None
        if "plan.epsilon_bump_step" in flat:
            bump = (_int(flat, "plan.epsilon_bump_step", None),
                    _float(flat, "plan.epsilon_bump_value", 0.1))
        plan = MitigationPlan(
            epsilon_bump=bump,
            v_floor=_float(flat, "plan.v_floor", None) if "plan.v_floor" in flat else None,
        )
        probes = ProbePlan(
            every=_int(flat, "probes.every", 0),
            max_iters=_int(flat, "probes.max_iters", PI_MAX_ITERS),
            tol=_float(flat, "probes.tol", PI_TOL),
        )
    else:  # the theorems' scalar recursion, as AdamHyper's fields but unchecked
        hyper = SimpleNamespace(eta=eta, beta1=0.0, beta2=beta2, epsilon=0.0,
                                bias_correction=False)
        sched = None
        if mode == "lr-decay":
            alpha = _float(flat, "schedule.alpha", 0.0)
    analysis = AnalysisPlan(
        rho=_float(flat, "analysis.rho", 3.0),
        window=_int(flat, "analysis.window", 50),
        segment=_bool(flat, "analysis.segment", False),
    )

    objective = None
    theta0 = None
    if mode == "run":
        obj_kind = str(flat.get("objective.kind", "quadratic"))
        if obj_kind == "quadratic":
            eig = read_floats(flat, "objective.eigenvalues", "1.0")
            offset = read_floats(flat, "objective.offset", None) if "objective.offset" in flat else None
            objective = make_quadratic(QuadraticSpec(eigenvalues=eig, offset=offset))
            theta0 = objective.initial_point(read_floats(flat, "theta0", "1.0"))
        elif obj_kind == "fnn":
            spec = FnnTaskSpec(
                input_dim=_int(flat, "objective.input_dim", 1),
                width=_int(flat, "objective.width", 20),
                n_samples=_int(flat, "objective.n_samples", 200),
                target=str(flat.get("objective.target", "sine-mix")),
                noise_std=_float(flat, "objective.noise_std", 0.0),
                init_variance_scale=_float(flat, "objective.init_scale", 1.0),
                seed=_int(flat, "objective.seed", seed),
            )
            objective = FnnObjective(spec)
            theta0 = objective.initial_point()
        else:
            raise ConfigError(f"unknown objective kind {obj_kind!r}")
    else:
        theta0 = _float(flat, "theta0", 1.0)

    unread = sorted(set(flat) - flat.read)
    if unread:
        raise ConfigError("config keys unused by this mode and objective: "
                          + ", ".join(unread))
    param = flat.get("sweep.param")
    if param == "scenario":
        raise ConfigError("sweep parameter 'scenario' cannot be swept: each child's "
                          "scenario is its directory name")
    if param is not None and param not in flat.read - {"sweep.param", "sweep.values"}:
        raise ConfigError(f"sweep parameter {param!r} is not a config key "
                          "of this mode and objective")
    return Scenario(
        scenario_id=scenario_id, mode=mode, seed=seed, n_steps=n_steps,
        objective=objective, theta0=theta0, kind=kind, hyper=hyper,
        sched=sched, plan=plan, probes=probes, analysis=analysis, flat=dict(flat),
        alpha=alpha,
    )


# === presets ================================================================

ETA_SWEEP_7 = ",".join(repr(float(v)) for v in np.logspace(-3, -1, 7))

_D12_EIGS = ",".join(
    [repr(float(v)) for v in np.linspace(1.0, 99.0, 90)]
    + [repr(float(v)) for v in np.linspace(101.0, 110.0, 10)])

# Run presets are a family base plus their own keys: run -> scalar quadratic
# -> Adam or single-moment (figD12 swaps in its spectrum), and run -> FNN ->
# sine-mix or 50-d. config.json echoes every key, so a base holds only keys
# all its presets write.
_RUN = {"mode": "run", "seed": 0, "analysis.rho": 3.0, "analysis.window": 50}
_QUADRATIC = {**_RUN, "theta0": 1.0, "objective.kind": "quadratic",
              "objective.eigenvalues": "1.0", "probes.every": 1}
_ADAM_1D = {**_QUADRATIC, "n_steps": 4000, "optimizer.kind": "adam",
            "optimizer.eta": 0.01, "optimizer.beta1": 0.9, "optimizer.beta2": 0.99,
            "optimizer.epsilon": 1e-8, "optimizer.bias_correction": True,
            "analysis.segment": False}
_SINGLE_MOMENT = {**_QUADRATIC, "optimizer.beta1": 0.0, "optimizer.beta2": 0.999,
                  "optimizer.epsilon": 1e-8}
_FNN = {**_RUN, "objective.kind": "fnn", "objective.n_samples": 200,
        "objective.seed": 0, "optimizer.beta1": 0.9, "optimizer.beta2": 0.999,
        "optimizer.epsilon": 1e-8}
_SINE = {**_FNN, "objective.target": "sine-mix", "objective.input_dim": 1,
         "objective.width": 20, "objective.noise_std": 0.0, "probes.every": 5}
_FNN_50D = {**_FNN, "n_steps": 2800, "objective.target": "linear-plus-diag-quadratic",
            "objective.input_dim": 50, "objective.width": 1000,
            "objective.noise_std": 0.1, "optimizer.kind": "adam", "optimizer.eta": 0.02}


def _presets() -> dict:
    p = {
        "fig2a": _ADAM_1D,
        "fig2bc-sweep": {**_ADAM_1D, "sweep.param": "optimizer.eta",
                         "sweep.values": ETA_SWEEP_7},
        "fig3-spike": {**_ADAM_1D, "n_steps": 2000, "theta0": 10.0,
                       "optimizer.eta": 0.15, "analysis.segment": True},
        "fig3-oscillation": {**_ADAM_1D, "n_steps": 5000, "theta0": 10.0,
                             "optimizer.eta": 0.15, "optimizer.beta1": 0.6,
                             "optimizer.beta2": 0.5, "analysis.segment": True},
        "fig5-gd": {**_SINE, "n_steps": 3000, "optimizer.kind": "gd",
                    "optimizer.eta": 0.08},
        "fig5-adam": {**_SINE, "n_steps": 6000, "optimizer.kind": "adam",
                      "optimizer.eta": 0.01},
        "fig6-fnn50d": {**_FNN_50D, "probes.every": 5},
        "figD8-mitigations": {**_FNN_50D, "probes.every": 0, "plan.v_floor": 0.01},
        "figD9-adagrad": {**_SINGLE_MOMENT, "n_steps": 100000, "probes.every": 0,
                          "optimizer.kind": "adagrad", "optimizer.eta": 0.1},
        "figD10-rmsprop": {**_SINGLE_MOMENT, "n_steps": 3000, "optimizer.kind": "rmsprop",
                           "optimizer.eta": 0.1, "optimizer.beta2": 0.99},
        "figD11-adafactor": {**_SINGLE_MOMENT, "n_steps": 5000,
                             "optimizer.kind": "adafactor", "optimizer.eta": 0.01},
        "figD12-gd-delay": {**_QUADRATIC, "n_steps": 300, "objective.eigenvalues": _D12_EIGS,
                            "optimizer.kind": "gd", "optimizer.eta": 0.02},
        "thmD4": {
            "mode": "five-stage", "seed": 0,
            "theta0": 10.0, "optimizer.eta": 0.15, "optimizer.beta2": 0.99,
            "n_steps": 0,  # 0 lets the certificate choose 10 * t1
            "analysis.segment": True,
        },
        "thmD6": {
            "mode": "lr-decay", "seed": 0,
            "theta0": 1.0, "optimizer.eta": 0.1, "optimizer.beta2": 0.9999,
            "schedule.alpha": 0.5,
            "n_steps": 1000000,
        },
    }
    return {name: {"scenario": name, **cfg} for name, cfg in p.items()}


PRESETS = _presets()


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(sorted(PRESETS))}")
    return dict(PRESETS[name])
