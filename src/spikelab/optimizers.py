"""Optimizer steppers, one RULES entry per kind (GD, heavy-ball, Adam,
RMSProp, Adagrad, Adafactor), and the run loop that produces RunTraces.
Every run holds OpenBLAS at one thread, and a wide probed run takes each
probe on a second thread, beside the steps that follow it, with the same
bytes as inline probes. A one-parameter run steps Python floats, with the
bytes of one-element arrays: _advance and _steps are written in operations
floats and arrays share (*= and += update an array in place and rebind a
float), and the few calls numpy makes only for arrays have helpers that take
both.

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
                     OptimizerState, ParamVector, norm)
from .probes import PI_MAX_ITERS, PI_TOL, Preconditioner, ProbeWarmStart, compute_probe
from .trace import PROBE_DTYPE, RunTrace, StepRecord

DIVERGE_LIMIT = 1e150

ADAFACTOR_EPS1 = 1e-30
ADAFACTOR_EPS2 = 1e-3
ADAFACTOR_CLIP = 1.0

# A probed run of at least this many parameters takes each probe on a second
# thread, beside the steps after it (see run). Below it the two threads mostly
# wait on each other for the interpreter lock. fig6's 50-input net at 300
# steps, probed every 5 (5-run medians on 2 cores, overlapped against
# inline): 0.59 against 0.38 s at 2,601 parameters, a wash at 5,201 (0.56-0.63
# against 0.47-0.69 s), 0.89-0.94 against 0.98-1.14 s at 10,401; fig5-adam
# (61 parameters) 1.33 against 0.80 s.
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


def _rms(x) -> float:
    """Root mean square of an array, or |x| (as norm takes it) of a float."""
    return norm(x) if isinstance(x, float) else norm(x) / math.sqrt(x.size)


# _advance's calls that numpy makes only for arrays, each taking a Python
# float too (run's one-parameter state) with the bits of a one-element array.
# A float never raises where numpy returns inf or NaN under run's errstate.


def _sqrt(x):
    if not isinstance(x, float):
        return np.sqrt(x)
    # math.sqrt refuses what is negative; numpy's NaN is returned for it
    return math.sqrt(x) if x >= 0.0 else float(np.sqrt(x))


def _floored(v, floor):
    """np.maximum(v, floor), in place for an array. On a one-element array
    numpy keeps the floor on a tie (so -0.0 against 0.0) and keeps a NaN."""
    if not isinstance(v, float):
        return np.maximum(v, floor, out=v)
    return v if v > floor or v != v else floor


def _quotient(a, b):
    """a / b, written into a when a is an array, so a must be a temporary of
    the caller's: numpy reuses such a temporary in `x * y / z`, and a fresh
    quotient cost a figD8 step about 230 minor page faults. A float division
    by zero gives numpy's inf or NaN, not a raise."""
    try:
        a /= b
    except ZeroDivisionError:
        return float(np.divide(a, b))
    return a


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
        if plan.v_floor is not None:
            state.v = _floored(state.v, plan.v_floor)
        vhat = state.v
        if rule.bias_correction and hyper.bias_correction:
            bias1 = 1.0 - hyper.beta1 ** (t + 1)
            d, scale = d / bias1, scale / bias1
            vhat = vhat / (1.0 - hyper.beta2 ** (t + 1))
        root = _sqrt(vhat)
        if rule.factored:
            eps = ADAFACTOR_EPS1
            u = d / (root + eps)
            u = u / max(1.0, _rms(u) / ADAFACTOR_CLIP)
            scale = max(ADAFACTOR_EPS2, _rms(theta))
            upd = (eta_t * scale) * u
        else:
            eps = plan.epsilon_at(t, hyper.epsilon)
            upd = _quotient(eta_t * d, root + eps)
    state.t = t + 1
    return theta - upd, eta_t, Preconditioner(root, eps, scale)


def _vhat_norms(root, blocks) -> tuple:
    """Norm of sqrt(vhat), then its norm over each block (a tuple fills a
    trace row faster than a list)."""
    total = norm(root)
    if len(blocks) == 1:  # blocks tile the vector, so the one block is all of it
        return total, total
    return (total, *(norm(root[off:off + length]) for _, off, length in blocks))


def _diverged(theta, norms) -> bool:
    """Whether a step diverged: its total v_hat norm norms[0] is not finite
    (theta froze under an inf v_hat; norms is empty without v), or a
    parameter is NaN or beyond DIVERGE_LIMIT. min and max allocate nothing;
    np.abs(theta) raised a figD8 step's minor page faults from 16 to 156.
    The ufunc reductions skip the Python wrappers of theta.min() and
    theta.max(), which cost more than the reduction at small d. A float
    theta is its own min and max.
    """
    lo = hi = theta
    if not isinstance(theta, float):
        lo, hi = np.minimum.reduce(theta), np.maximum.reduce(theta)
    return (bool(norms) and not math.isfinite(norms[0])
            or not -DIVERGE_LIMIT <= lo <= hi <= DIVERGE_LIMIT)


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
    norms = () if pre.root is None else _vhat_norms(pre.root, theta.blocks)
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

    A run of an objective with param_dim 1 holds theta, g, m and v as Python
    floats, decided once before its first step, because a float operation
    costs a small fraction of a ufunc call on a one-element array. The
    objective evaluates a float point, and each step does the IEEE operations
    numpy would do on the one element, in the same order, so the bytes are
    those of one-element arrays. Where numpy returns inf or NaN under this
    errstate, a float step returns numpy's value instead of raising. A probe
    step hands compute_probe its floats, which it probes in closed form with
    the bits its solvers give on a one-element array.
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
    # columns written by index; a loss left at inf marks the step that diverged
    trace = RunTrace(
        config, "completed", tuple(name for name, _, _ in theta0.blocks),
        math.inf, loss=np.full(n_steps, np.inf), grad_norm=np.empty(n_steps),
        eta_t=np.empty(n_steps),
        vhat=np.empty((n_steps, 1 + len(theta0.blocks))) if RULES[kind].v != "none" else None,
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
                                  seed, trace, rows)
        finally:
            rows.settle()
    return trace.end(kept, rows.taken, status)


def _steps(obj, theta0, kind, hyper, sched, plan, n_steps, probes, seed, trace, rows):
    """run's steps, filling trace's step columns and handing each probe to
    rows; returns (steps kept, status). A one-parameter run holds theta, g,
    m and v as Python floats (see run)."""
    if obj.param_dim == 1:
        theta, state = float(theta0.values[0]), OptimizerState(kind, 0, 0.0, 0.0)
    else:
        theta, state = theta0.values.copy(), OptimizerState.fresh(kind, theta0.dim)
    warm = ProbeWarmStart()
    try:
        trace.initial_loss = obj.loss(theta)
        _, g = obj.loss_and_gradient(theta)
    except DivergedEvaluation:
        return 0, "diverged"
    for i in range(n_steps):
        theta_new, eta_t, pre = _advance(theta, state, hyper, sched, plan, g)
        trace.grad_norm[i], trace.eta_t[i] = norm(g), eta_t
        norms = ()
        if pre.root is not None:
            trace.vhat[i] = norms = _vhat_norms(pre.root, theta0.blocks)
        if _diverged(theta_new, norms):
            return i + 1, "diverged"
        if probes.every and i % probes.every == 0:
            # theta, g and pre.root are never written after this step
            rows.take(partial(compute_probe, obj, theta, pre, g, eta_t, i, seed, warm,
                              max_iters=probes.max_iters, tol=probes.tol))
        theta = theta_new
        try:
            if i + 1 < n_steps:
                trace.loss[i], g = obj.loss_and_gradient(theta)
            else:
                trace.loss[i] = obj.loss(theta)
        except DivergedEvaluation:
            return i + 1, "diverged"
    return n_steps, "completed"
