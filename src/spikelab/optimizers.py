"""Optimizer steppers, one RULES entry per kind (GD, heavy-ball, Adam,
RMSProp, Adagrad, Adafactor), and the run loop that produces RunTraces.
Every run holds OpenBLAS at one thread, and a wide probed run takes each
probe on a second thread, beside the steps that follow it, with the same
bytes as inline probes. Each run binds its kind's rule once (_bind) into a
closure that holds m and v; a one-parameter run steps Python floats with
the bytes of one-element arrays, since the closure is written in operations
floats and arrays share (*= and += update an array in place and rebind a
float) and the binder picks math's or numpy's square root once per run.

Update-rule conventions: epsilon is added after the square root; the v floor
clips raw v before bias correction; the epsilon bump replaces epsilon from
its activation step onward; bias exponents are 1-based (the step taken at
time t uses beta^(t+1)).
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import blas
from .errors import ConfigError, DivergedEvaluation, DivergedRun
from .params import (CONSTANT_LR, NO_MITIGATION, AdamHyper, LrSchedule, MitigationPlan,
                     ParamVector, norm)
from .probes import PI_MAX_ITERS, PI_TOL, Preconditioner, ProbeWarmStart, compute_probe
from .trace import PROBE_DTYPE, RunTrace, StepRecord

DIVERGE_LIMIT = 1e150

ADAFACTOR_EPS1 = 1e-30
ADAFACTOR_EPS2 = 1e-3
ADAFACTOR_CLIP = 1.0

# A probed run of at least this many parameters takes each probe on a second
# thread, beside the steps after it (see run); below it the two threads mostly
# wait on each other for the interpreter lock, so both paths stay. fig6's
# 50-input net probed every 5, overlapped against inline on 2 cores (5-run
# medians at 300 steps): 0.59 against 0.38 s at 2,601 parameters, a wash at
# 5,201 (0.56-0.63 against 0.47-0.69 s), 0.89-0.94 against 0.98-1.14 s at
# 10,401; fig5-adam (61 parameters) 1.33 against 0.80 s. At fig6's own 52,001,
# 560 steps, 4 alternations in one process: 3.11-3.47 against 4.49-5.00 s.
OVERLAP_MIN_PARAMS = 10_000


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


def _floored(v, floor):
    """np.maximum(v, floor), in place for an array. On a one-element array
    numpy keeps the floor on a tie (so -0.0 against 0.0) and keeps a NaN."""
    if not isinstance(v, float):
        return np.maximum(v, floor, out=v)
    return v if v > floor or v != v else floor


# === single-step updates ====================================================


def _bind(kind, hyper, sched, plan, m, v):
    """Resolve kind's RULES flags, hyper's constants, a constant schedule's
    eta, the epsilon bump and the v floor once. Returns advance(theta, g, t)
    -> (theta', eta_t, root, eps, scale), the step taken at time t, which
    updates m and v in place (a float is rebound), each grouped as
    beta * m + (1 - beta) * g (the bits of the allocating form). The last
    three are the fields of the D_t it divided by (root None without v).
    Adafactor's RMS clip, a scalar that can only shrink the step, is left out
    of D_t, which on clipped steps overstates the step applied.

    Float m and v bind math.sqrt and an RMS divisor of 1.0, arrays np.sqrt
    and sqrt(size). A float v-hat is never negative (from 0.0 it gains
    beta*v + (1-beta)*g*g or g*g, is floored at >= -0.0 or NaN and divided by
    1 - beta2^(t+1) > 0), so math.sqrt never raises; float division raises
    only on a zero denominator (epsilon 0, v-hat 0), where numpy's inf or
    NaN is taken."""
    rule = RULES[kind]
    momentum, v_rule, factored = rule.momentum, rule.v, rule.factored
    bias = rule.bias_correction and hyper.bias_correction
    eta, beta1, beta2 = hyper.eta, hyper.beta1, hyper.beta2
    keep1, keep2, m_scale = 1.0 - beta1, 1.0 - beta2, (1.0 - beta1) / (1.0 + beta1)
    epsilon, floor = hyper.epsilon, plan.v_floor
    decays, bumps = sched.kind != "constant", plan.epsilon_bump is not None
    scalar = isinstance(m, float)
    sqrt = math.sqrt if scalar else np.sqrt
    rms_divisor = 1.0 if scalar else math.sqrt(m.size)  # x / 1.0 is x, bit for bit

    def advance(theta, g, t):
        nonlocal m, v
        eta_t = sched.eta_at(eta, t) if decays else eta
        d, scale = g, 1.0
        if momentum:
            m *= beta1
            m += keep1 * g
            d, scale = m, m_scale
        if v_rule == "none":
            return theta - eta_t * d, eta_t, None, 0.0, scale
        if v_rule == "sum":
            v += g * g
        else:
            v *= beta2
            v += keep2 * g * g
        if floor is not None:
            v = _floored(v, floor)
        vhat = v
        if bias:
            bias1 = 1.0 - beta1 ** (t + 1)
            d, scale = d / bias1, scale / bias1
            vhat = vhat / (1.0 - beta2 ** (t + 1))
        root = sqrt(vhat)
        if factored:
            u = d / (root + ADAFACTOR_EPS1)
            u = u / max(1.0, norm(u) / rms_divisor / ADAFACTOR_CLIP)
            scale = max(ADAFACTOR_EPS2, norm(theta) / rms_divisor)
            return theta - (eta_t * scale) * u, eta_t, root, ADAFACTOR_EPS1, scale
        eps = plan.epsilon_at(t, epsilon) if bumps else epsilon
        # an array is divided in place, into the step's temporary: a fresh
        # quotient cost a figD8 step about 230 minor page faults
        upd = eta_t * d
        try:
            upd /= root + eps
        except ZeroDivisionError:
            upd = float(np.divide(upd, root + eps))
        return theta - upd, eta_t, root, eps, scale  # freed at return: lower FNN RSS

    return advance


def _vhat_norms(root, blocks) -> tuple:
    """Norm of sqrt(vhat), then its norm over each block (a tuple fills a
    trace row faster than a list)."""
    return (norm(root), *(norm(root[off:off + length]) for _, off, length in blocks))


def _diverged(lo, hi, total) -> bool:
    """Whether a step diverged: the total v_hat norm is not finite (theta
    froze under an inf v_hat; 0.0 without v), or theta's least entry lo or
    greatest hi is NaN or beyond DIVERGE_LIMIT. A float theta is its own lo
    and hi; an array's are ufunc reductions, which allocate nothing
    (np.abs(theta) raised a figD8 step's minor page faults from 16 to 156)
    and skip the Python wrappers of theta.min() and theta.max().
    """
    return not (-DIVERGE_LIMIT <= lo <= hi <= DIVERGE_LIMIT and math.isfinite(total))


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
    theta_new, eta_t, root, _, _ = _bind(kind, hyper, sched, plan, state.m, state.v)(
        theta.values, g, step_index)  # m and v are updated in place
    state.t = step_index + 1
    norms = () if root is None else _vhat_norms(root, theta.blocks)
    if _diverged(np.minimum.reduce(theta_new), np.maximum.reduce(theta_new),
                 norms[0] if norms else 0.0):
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


class _ProbeRows:
    """A run's probe rows, taken in step order: inline when pool is None,
    else each on the one-thread pool while the steps after it go on. A
    probe is joined before the next one is submitted, so warm starts and
    rows keep their order."""

    def __init__(self, trace, pool):
        self.trace, self.pool, self.taken, self._pending = trace, pool, 0, None

    def take(self, job):
        if self.pool is None:
            self.trace.put_probe(self.taken, job())
        else:
            self.settle()
            # the copied context carries run's errstate into the worker
            self._pending = self.taken, self.pool.submit(contextvars.copy_context().run, job)
        self.taken += 1

    def settle(self):
        """Join the probe in flight and store its row; raises what it raised."""
        if self._pending is not None:
            j, future = self._pending
            self._pending = None
            self.trace.put_probe(j, future.result())


@np.errstate(all="ignore")  # non-finite steps are recorded as divergence, not warned
def run(obj, theta0: ParamVector, kind: str, hyper: AdamHyper,
        sched: LrSchedule = CONSTANT_LR, plan: MitigationPlan = NO_MITIGATION,
        n_steps: int = 1, probes: ProbePlan = ProbePlan(), seed: int = 0,
        config_echo: dict = None) -> RunTrace:
    """Run n_steps of the chosen optimizer, probing on the configured cadence.

    Divergence (a step _diverged reports, or an evaluation overflow, the
    start's included) is recorded as status=diverged, the trace ending
    unprobed at the diverged step with loss inf; it is never raised.

    Every run holds the loaded OpenBLAS at one thread and restores the old
    count when it returns or raises, so its bytes are those of a one-thread
    run whatever OPENBLAS_NUM_THREADS says; an unknown BLAS keeps its own
    count. A probed run of at least OVERLAP_MIN_PARAMS parameters takes each
    probe on a second thread while the steps after it run. A probe reads
    only its own step's theta, gradient and D_t and the previous probe's
    warm vectors, and no step reads a probe, so the rows are those of inline
    probes. A probe's exception is raised from run ahead of anything a later
    step raised or returned. With an unknown BLAS the probes run inline.

    The update rule is bound once per run (_bind); each step stores its
    values straight into the preallocated columns, and only a probed step
    builds its Preconditioner. A constant schedule's eta_t is one cell and a
    one-block run's two v-hat columns are one, each a read-only view
    (RunTrace): such a run stores one column each of loss, gradient norm and
    v-hat norm. With param_dim 1, theta, g, m and v are
    Python floats, because a float operation costs a small fraction of a
    ufunc call on a one-element array. The objective evaluates a float point,
    and each step does the IEEE operations numpy would do on the one element,
    in the same order, so the bytes are those of one-element arrays. Where
    numpy returns inf or NaN under this errstate, a float step returns
    numpy's value instead of raising. A probe step hands compute_probe its
    floats, which it probes in closed form with the bits its solvers give on
    a one-element array.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if kind not in RULES:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    if not theta0.is_finite():
        raise ConfigError("theta0 must be finite")

    config = dict(config_echo or {})
    config.setdefault("optimizer.kind", kind)
    config.setdefault("objective.kind", obj.kind)
    # a constant eta is one cell, and a one-block v-hat row (total, total) is
    # one column seen twice: both read-only views that _steps never writes
    eta_t = (np.empty(n_steps) if sched.kind != "constant"
             else np.broadcast_to(float(hyper.eta), (n_steps,)))
    vhat = vhat_total = None
    if RULES[kind].v != "none":
        if len(theta0.blocks) == 1:
            vhat_total = np.empty(n_steps)
            vhat = np.broadcast_to(vhat_total[:, None], (n_steps, 2))
        else:
            vhat = np.empty((n_steps, 1 + len(theta0.blocks)))
    # columns written by index; a loss left at inf marks the step that diverged
    trace = RunTrace(
        config, "completed", tuple(name for name, _, _ in theta0.blocks),
        math.inf, loss=np.full(n_steps, np.inf), grad_norm=np.empty(n_steps),
        eta_t=eta_t, vhat=vhat,
        probes=np.empty(len(range(0, n_steps, probes.every)) if probes.every else 0, PROBE_DTYPE))

    with contextlib.ExitStack() as stack:
        threads = blas.set_threads(1)
        if threads is not None:
            stack.callback(blas.set_threads, threads)  # after the pool's shutdown
        pool = None
        if threads is not None and probes.every and obj.param_dim >= OVERLAP_MIN_PARAMS:
            from concurrent.futures import ThreadPoolExecutor  # only wide probed runs load it

            pool = stack.enter_context(ThreadPoolExecutor(1))
        rows = _ProbeRows(trace, pool)
        try:
            kept, status = _steps(obj, theta0, kind, hyper, sched, plan, n_steps, probes,
                                  seed, trace, rows, vhat_total)
        finally:
            rows.settle()
    return trace.end(kept, rows.taken, status)


def _steps(obj, theta0, kind, hyper, sched, plan, n_steps, probes, seed, trace, rows,
           vhat_total):
    """run's steps, storing each step's values straight into trace's step
    columns and handing each probe to rows; returns (steps kept, status). A
    one-parameter run holds theta, g, m and v as Python floats (see run). A
    one-block run writes its v-hat norm to vhat_total, the one column behind
    both of trace.vhat's; a constant schedule's eta_t column is never written."""
    scalar = obj.param_dim == 1
    theta = float(theta0.values[0]) if scalar else theta0.values.copy()
    advance = _bind(kind, hyper, sched, plan,
                    *((0.0, 0.0) if scalar else (np.zeros(theta.size), np.zeros(theta.size))))
    blocks, every, warm = theta0.blocks, probes.every, ProbeWarmStart()
    loss, grad_norm, vhat = trace.loss, trace.grad_norm, trace.vhat
    eta_col = trace.eta_t if sched.kind != "constant" else None
    try:
        trace.initial_loss = obj.loss(theta)
        _, g = obj.loss_and_gradient(theta)
    except DivergedEvaluation:
        return 0, "diverged"
    for i in range(n_steps):
        theta_new, eta_t, root, eps, scale = advance(theta, g, i)
        grad_norm[i] = norm(g)
        if eta_col is not None:
            eta_col[i] = eta_t
        lo = hi = theta_new  # a float is its own min and max
        if not scalar:
            lo, hi = np.minimum.reduce(theta_new), np.maximum.reduce(theta_new)
        if root is None:
            total = 0.0
        elif vhat_total is not None:
            vhat_total[i] = total = norm(root)
        else:
            vhat[i] = norms = _vhat_norms(root, blocks)
            total = norms[0]
        if _diverged(lo, hi, total):
            return i + 1, "diverged"
        if every and i % every == 0:
            # theta, g and root are never written after this step
            rows.take(partial(compute_probe, obj, theta, Preconditioner(root, eps, scale), g,
                              eta_t, i, seed, warm, max_iters=probes.max_iters, tol=probes.tol))
        theta = theta_new
        try:
            if i + 1 < n_steps:
                loss[i], g = obj.loss_and_gradient(theta)
            else:
                loss[i] = obj.loss(theta)
        except DivergedEvaluation:
            return i + 1, "diverged"
    return n_steps, "completed"
