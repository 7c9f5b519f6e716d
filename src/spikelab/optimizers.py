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
from .params import (CONSTANT_LR, NO_MITIGATION, AdamHyper, LrSchedule, MitigationPlan,
                     OptimizerState, ParamVector, norm)
from .probes import PI_MAX_ITERS, PI_TOL, Preconditioner, ProbeWarmStart, compute_probe
from .trace import PROBE_DTYPE, RunTrace, StepRecord

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


def _rms(x: np.ndarray) -> float:
    return norm(x) / math.sqrt(x.size)


# === single-step updates ====================================================


def _advance(theta, state, hyper, sched, plan, g):
    """Apply one update of state.kind at time state.t.

    Returns (theta', eta_t, D_t): D_t is the Preconditioner the step divided
    by, root + eps its denominator (root None without v) and scale its
    scalar. Adafactor's RMS clip, a scalar that can only shrink the step, is
    left out, so on clipped steps D_t overstates the step applied. Mutates
    state: the step counter, and m and v in place, each grouped as
    beta * m + (1 - beta) * g (the bits of the allocating form).
    """
    rule = RULES[state.kind]
    t = state.t
    eta_t = sched.eta_at(hyper.eta, t)
    d, scale = g, 1.0
    if rule.momentum:
        state.m *= hyper.beta1
        state.m += (1.0 - hyper.beta1) * g
        d, scale = state.m, (1.0 - hyper.beta1) / (1.0 + hyper.beta1)
    root, eps = None, 0.0
    if rule.v == "none":
        upd = eta_t * d
    else:
        if rule.v == "sum":
            state.v += g * g
        else:
            state.v *= hyper.beta2
            state.v += (1.0 - hyper.beta2) * g * g
        floor = plan.v_floor
        if floor is not None:
            np.maximum(state.v, floor, out=state.v)
        vhat = state.v
        if rule.bias_correction and hyper.bias_correction:
            bias1 = 1.0 - hyper.beta1 ** (t + 1)
            d, scale = d / bias1, scale / bias1
            vhat = vhat / (1.0 - hyper.beta2 ** (t + 1))
        root = np.sqrt(vhat)
        if rule.factored:
            eps = ADAFACTOR_EPS1
            u = d / (root + eps)
            u = u / max(1.0, _rms(u) / ADAFACTOR_CLIP)
            scale = max(ADAFACTOR_EPS2, _rms(theta))
            upd = (eta_t * scale) * u
        else:
            eps = plan.epsilon_at(t, hyper.epsilon)
            upd = eta_t * d / (root + eps)
    state.t = t + 1
    return theta - upd, eta_t, Preconditioner(root, eps, scale)


def _vhat_norms(root, blocks) -> list:
    """Norm of sqrt(vhat), then its norm over each block."""
    total = norm(root)
    if len(blocks) == 1:  # blocks tile the vector, so the one block is all of it
        return [total, total]
    return [total] + [norm(root[off:off + length]) for _, off, length in blocks]


def _diverged(theta, norms) -> bool:
    """Whether a step diverged: its total v_hat norm norms[0] is not finite
    (theta froze under an inf v_hat; norms is empty without v), or a
    parameter is NaN or beyond DIVERGE_LIMIT. min and max allocate nothing;
    np.abs(theta) raised a figD8 step's minor page faults from 16 to 156.
    """
    return (bool(norms) and not math.isfinite(norms[0])
            or not -DIVERGE_LIMIT <= theta.min() <= theta.max() <= DIVERGE_LIMIT)


@np.errstate(all="ignore")  # a diverged step raises DivergedRun below, unwarned
def _step_public(kind, obj, theta: ParamVector, state, hyper, sched=CONSTANT_LR,
                 plan=NO_MITIGATION):
    """One step of `kind`; returns (theta', state', StepRecord), or raises
    DivergedRun where run would record a divergence."""
    if state.kind != kind:
        raise ConfigError(f"state.kind {state.kind!r} does not match {kind!r}")
    if state.m.size != theta.dim or state.v.size != theta.dim:
        raise ConfigError("state buffers do not match theta dimension")
    _, g = obj.loss_and_gradient(theta.values)
    step_index = state.t
    theta_new, eta_t, pre = _advance(theta.values, state, hyper, sched, plan, g)
    norms = () if pre.root is None else tuple(_vhat_norms(pre.root, theta.blocks))
    if _diverged(theta_new, norms):
        raise DivergedRun(f"non-finite v_hat or theta, or |theta| > {DIVERGE_LIMIT:g}, "
                          f"after step {step_index}")
    return theta.with_values(theta_new), state, StepRecord(
        step_index, obj.loss(theta_new), norm(g),
        norms[0] if norms else None, norms[1:], eta_t)


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
    max_iters: int = PI_MAX_ITERS
    tol: float = PI_TOL

    def __post_init__(self):
        if self.every < 0:
            raise ConfigError("probes.every must be >= 0")
        if self.max_iters < 1:
            raise ConfigError("probes.max_iters must be >= 1")
        if not self.tol > 0:
            raise ConfigError("probes.tol must be > 0")


@np.errstate(all="ignore")  # non-finite steps are recorded as divergence, not warned
def run(obj, theta0: ParamVector, kind: str, hyper: AdamHyper,
        sched: LrSchedule = CONSTANT_LR, plan: MitigationPlan = NO_MITIGATION,
        n_steps: int = 1, probes: ProbePlan = ProbePlan(), seed: int = 0,
        config_echo: dict = None) -> RunTrace:
    """Run n_steps of the chosen optimizer, probing on the configured cadence.

    Divergence (a step _diverged reports, or an evaluation overflow, the
    start's included) is recorded as status=diverged, the trace ending
    unprobed at the diverged step with loss inf; it is never raised.
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
    # columns written by index; a loss left at inf marks the step that diverged
    trace = RunTrace(
        config, "completed", tuple(name for name, _, _ in theta0.blocks),
        math.inf, loss=np.full(n_steps, np.inf), grad_norm=np.empty(n_steps),
        eta_t=np.empty(n_steps),
        vhat=np.empty((n_steps, 1 + len(theta0.blocks))) if RULES[kind].v != "none" else None,
        probes=np.empty(len(range(0, n_steps, probes.every)) if probes.every else 0, PROBE_DTYPE))
    n_probes = 0
    try:
        trace.initial_loss = obj.loss(theta)
        _, g = obj.loss_and_gradient(theta)
    except DivergedEvaluation:
        return trace.end(0, 0, "diverged")
    for i in range(n_steps):
        theta_new, eta_t, pre = _advance(theta, state, hyper, sched, plan, g)
        trace.grad_norm[i], trace.eta_t[i] = norm(g), eta_t
        norms = ()
        if pre.root is not None:
            trace.vhat[i] = norms = _vhat_norms(pre.root, theta0.blocks)
        if _diverged(theta_new, norms):
            return trace.end(i + 1, n_probes, "diverged")
        if probes.every and i % probes.every == 0:
            trace.put_probe(n_probes, compute_probe(
                obj, theta, pre, g, eta_t, i, seed, warm,
                max_iters=probes.max_iters, tol=probes.tol,
            ))
            n_probes += 1
        theta = theta_new
        try:
            if i + 1 < n_steps:
                trace.loss[i], g = obj.loss_and_gradient(theta)
            else:
                trace.loss[i] = obj.loss(theta)
        except DivergedEvaluation:
            return trace.end(i + 1, n_probes, "diverged")
    return trace.end(n_steps, n_probes, "completed")
