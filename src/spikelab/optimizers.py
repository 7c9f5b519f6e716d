"""Optimizer steppers, one RULES entry per kind (GD, heavy-ball, Adam,
RMSProp, Adagrad, Adafactor), and the run loop that produces RunTraces.

Update-rule conventions: epsilon is added after the square root; the v floor
clips raw v before bias correction; the epsilon bump replaces epsilon from
its activation step onward; bias exponents are 1-based (the step taken at
time t uses beta^(t+1)).
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, DivergedEvaluation, DivergedRun
from .params import NO_MITIGATION, AdamHyper, LrSchedule, MitigationPlan, OptimizerState, ParamVector
from .probes import Preconditioner, ProbeWarmStart, compute_probe
from .trace import RunTrace, StepRecord

DIVERGE_LIMIT = 1e150

ADAFACTOR_EPS1 = 1e-30
ADAFACTOR_EPS2 = 1e-3
ADAFACTOR_CLIP = 1.0


@dataclass(frozen=True)
class Rule:
    """What one optimizer kind does with its moments."""

    momentum: bool  # keeps the EMA first moment m and steps along it, not g
    v: str  # how the second moment accumulates: "none", "ema" or "sum"
    bias_correction: bool = False  # divides m and v by 1-beta^t if hyper asks
    factored: bool = False  # Adafactor: EPS1 in the root, RMS clip, rho_t scale


RULES = {
    "gd": Rule(momentum=False, v="none"),
    "heavy-ball": Rule(momentum=True, v="none"),
    "adam": Rule(momentum=True, v="ema", bias_correction=True),
    "rmsprop": Rule(momentum=False, v="ema"),
    "adagrad": Rule(momentum=False, v="sum"),
    "adafactor": Rule(momentum=False, v="ema", factored=True),
}

OPTIMIZER_KINDS = tuple(RULES)


@dataclass(slots=True)
class StepAux:
    """Loop-internal byproducts of one step, enough to probe and record."""

    eta_t: float
    vhat: np.ndarray  # the adaptive denominator's square, None without v
    eps: float  # the epsilon added to sqrt(vhat), 0 without v
    rho_t: float  # Adafactor's relative step size, 1 for the other kinds


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


# === single-step updates ====================================================


def _advance(theta, state, hyper, sched, plan, g):
    """Apply one update of state.kind at time state.t. Returns (theta', aux).

    Mutates state in place (moments and step counter).
    """
    rule = RULES[state.kind]
    t = state.t
    eta_t = hyper.eta if sched is None else sched.eta_at(t)
    d = g
    if rule.momentum:
        state.m = hyper.beta1 * state.m + (1.0 - hyper.beta1) * g
        d = state.m
    vhat, eps, rho_t = None, 0.0, 1.0
    if rule.v == "none":
        upd = eta_t * d
    else:
        if rule.v == "sum":
            state.v = state.v + g * g
        else:
            state.v = hyper.beta2 * state.v + (1.0 - hyper.beta2) * g * g
        floor = plan.floor_value()
        if floor is not None:
            state.v = np.maximum(state.v, floor)
        vhat = state.v
        if rule.bias_correction and hyper.bias_correction:
            d = d / (1.0 - hyper.beta1 ** (t + 1))
            vhat = vhat / (1.0 - hyper.beta2 ** (t + 1))
        if rule.factored:
            eps = ADAFACTOR_EPS1
            u = d / (np.sqrt(vhat) + eps)
            u = u / max(1.0, _rms(u) / ADAFACTOR_CLIP)
            rho_t = max(ADAFACTOR_EPS2, _rms(theta))
            upd = (eta_t * rho_t) * u
        else:
            eps = plan.epsilon_at(t, hyper.epsilon)
            upd = eta_t * d / (np.sqrt(vhat) + eps)
    state.t = t + 1
    return theta - upd, StepAux(eta_t=eta_t, vhat=vhat, eps=eps, rho_t=rho_t)


def _probe_preconditioner(hyper, state, aux, theta) -> Preconditioner:
    """D_t of the step just taken, from its rule and its StepAux.

    The diagonal is built from the vhat the step divided by and the epsilon
    it added, so sqrt(pre.v_hat) + pre.epsilon is the applied denominator.
    Adafactor's scale is rho_t alone: its RMS clip, a scalar that can only
    shrink the step, is left out, so on clipped steps D_t overstates the
    step applied.
    """
    rule = RULES[state.kind]
    t_exp = state.t  # already incremented: equals the 1-based step count
    if rule.factored:
        return Preconditioner(0.0, hyper.beta2, t_exp, aux.vhat, aux.eps, aux.rho_t)
    vhat = np.ones_like(theta) if aux.vhat is None else aux.vhat
    beta1 = hyper.beta1 if rule.momentum else 0.0
    return Preconditioner.for_adam(beta1, hyper.beta2, t_exp, vhat, aux.eps,
                                   rule.bias_correction and hyper.bias_correction)


def _record(step, loss, g, aux, blocks) -> StepRecord:
    total, per = None, ()
    if aux.vhat is not None:
        root = np.sqrt(aux.vhat)
        total = float(np.linalg.norm(root))
        per = tuple(float(np.linalg.norm(root[off:off + length]))
                    for _, off, length in blocks)
    return StepRecord(step=step, loss=loss, grad_norm=float(np.linalg.norm(g)),
                      vhat_norm_total=total, vhat_norm_blocks=per, eta_t=aux.eta_t)


@np.errstate(all="ignore")  # a non-finite step raises DivergedRun below, unwarned
def _step_public(kind, obj, theta: ParamVector, state, hyper, sched=None,
                 plan=NO_MITIGATION):
    """One step of `kind`; returns (theta', state', StepRecord)."""
    if state.kind != kind:
        raise ConfigError(f"state.kind {state.kind!r} does not match {kind!r}")
    if state.m.size != theta.dim or state.v.size != theta.dim:
        raise ConfigError("state buffers do not match theta dimension")
    _, g = obj.loss_and_gradient(theta.values)
    step_index = state.t
    theta_new, aux = _advance(theta.values, state, hyper, sched, plan, g)
    if not np.all(np.isfinite(theta_new)):
        raise DivergedRun(f"non-finite parameter after step {step_index}")
    record = _record(step_index, obj.loss(theta_new), g, aux, theta.blocks)
    return theta.with_values(theta_new), state, record


step_gd = partial(_step_public, "gd")
step_heavy_ball = partial(_step_public, "heavy-ball")
step_adam = partial(_step_public, "adam")
step_rmsprop = partial(_step_public, "rmsprop")
step_adagrad = partial(_step_public, "adagrad")
step_adafactor = partial(_step_public, "adafactor")


# === run loop ===============================================================


@dataclass(frozen=True)
class ProbePlan:
    """Which spectral probes to take and how often (every=0 disables)."""

    every: int = 0
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if self.every < 0 or self.max_iters < 1 or not self.tol > 0:
            raise ConfigError("bad probe plan")


@np.errstate(all="ignore")  # non-finite steps are recorded as divergence, not warned
def run(obj, theta0: ParamVector, kind: str, hyper: AdamHyper,
        sched: LrSchedule = None, plan: MitigationPlan = NO_MITIGATION,
        n_steps: int = 1, probes: ProbePlan = ProbePlan(), seed: int = 0,
        config_echo: dict = None) -> RunTrace:
    """Run n_steps of the chosen optimizer, probing on the configured cadence.

    Divergence (non-finite or enormous parameters, or an evaluation overflow)
    is recorded as status=diverged with the last record flagged; it is never
    raised past the trace.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if kind not in RULES:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    if not theta0.is_finite():
        raise ConfigError("theta0 must be finite")
    state = OptimizerState.fresh(kind, theta0.dim)
    theta = theta0.values.copy()
    warm = ProbeWarmStart()

    config = dict(config_echo or {})
    config.setdefault("optimizer.kind", kind)
    config.setdefault("objective.kind", obj.kind)
    trace = RunTrace(config=config, seed=seed, status="completed",
                     block_names=tuple(name for name, _, _ in theta0.blocks),
                     initial_loss=obj.loss(theta), records=[])
    pending = None
    for i in range(n_steps):
        try:
            loss_here, g = obj.loss_and_gradient(theta)
        except DivergedEvaluation:
            return _diverged(trace, pending)
        if pending is not None:
            pending.loss = loss_here

        theta_new, aux = _advance(theta, state, hyper, sched, plan, g)
        rec = _record(i, math.nan, g, aux, theta0.blocks)  # loss backfilled next step
        trace.records.append(rec)
        pending = rec
        if not np.all(np.isfinite(theta_new)):
            return _diverged(trace, rec)  # the step's D_t may be non-finite too
        if probes.every and i % probes.every == 0:
            pre = _probe_preconditioner(hyper, state, aux, theta)
            rec.probe = compute_probe(
                obj, theta, pre, g, aux.eta_t, i, seed, warm,
                max_iters=probes.max_iters, tol=probes.tol,
            )
        if np.max(np.abs(theta_new)) > DIVERGE_LIMIT:
            return _diverged(trace, rec)
        theta = theta_new

    try:
        pending.loss = obj.loss(theta)
    except DivergedEvaluation:
        return _diverged(trace, pending)
    return trace.validate()


def _diverged(trace, last):
    """Flag the last record (if any) as diverged and close the trace."""
    if last is not None:
        last.loss = math.inf
        last.diverged = True
    trace.status = "diverged"
    return trace.validate()
