"""Numerical verifiers for the closed-form results: descent estimate,
momentum stability interval, real spectrum, five-stage certificate, exact
iff spike condition via the averaged Hessian, and decaying-LR instability;
plus the derivative oracles the tests hold the objectives to: a central
finite-difference HVP and a dense Hessian capped at small sizes.

Theorem-mode recursions here use beta1=0, epsilon=0, no bias correction, and
the delayed second moment (the step at time t uses v_t, then v updates).
The production Adam in the optimizers module differs; the two are never
conflated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DivergedEvaluation, Indeterminate, InvalidDirection, OracleMisuse,
                     OracleSizeExceeded, PreconditionViolation, ZeroGradient)

DESCENT_TOL = 1e-10
STAGE_TOL = 1e-12
CLASSIFY_HORIZON = 4000
QUADRATURE_NODES = 16
DENSE_ORACLE_CAP = 200

# === derivative oracles =====================================================


def default_fd_step(theta: np.ndarray) -> float:
    """sqrt(machine eps) scaled by the point's magnitude."""
    return math.sqrt(np.finfo(float).eps) * (1.0 + float(np.linalg.norm(theta)))


def central_fd_hvp(obj, theta, v, fd_step=None) -> np.ndarray:
    """Hessian(theta) @ v by central differences of two gradients."""
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise InvalidDirection("hvp direction must have a nonzero entry")
    if fd_step is not None and not fd_step > 0:
        raise InvalidDirection("fd_step must be > 0")
    h = (fd_step or default_fd_step(theta)) / float(np.linalg.norm(v))
    out = (obj.gradient(theta + h * v) - obj.gradient(theta - h * v)) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise DivergedEvaluation("hvp produced a non-finite value")
    return out


def dense_hessian(obj, point) -> np.ndarray:
    """Full Hessian from unit-vector HVPs, symmetrized; n <= DENSE_ORACLE_CAP."""
    n = point.dim
    if n > DENSE_ORACLE_CAP:
        raise OracleSizeExceeded(f"dense hessian capped at n <= {DENSE_ORACLE_CAP}")
    cols = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols[:, j] = obj.hvp(point.values, e)
        e[j] = 0.0
    return 0.5 * (cols + cols.T)


# === descent estimate (GD on quadratics) ====================================


@dataclass(frozen=True)
class DescentReport:
    holds: bool
    worst_slack: float
    checked_steps: int
    skipped_steps: int
    violations: int


def check_descent_lemma(trace, obj) -> DescentReport:
    """Per-step descent inequality for GD on a quadratic with known lambda_max."""
    if obj.kind != "quadratic":
        raise OracleMisuse("descent check requires a quadratic objective")
    if trace.config.get("optimizer.kind") != "gd":
        raise OracleMisuse("descent check requires a GD trace")
    lam = obj.lambda_max()
    worst = math.inf
    checked = skipped = violations = 0
    prev_loss = trace.initial_loss
    for rec in trace.records:
        if rec.eta_t < 2.0 / lam:
            bound = prev_loss - rec.eta_t * (1.0 - rec.eta_t * lam / 2.0) * rec.grad_norm ** 2
            slack = bound + DESCENT_TOL * abs(prev_loss) - rec.loss
            worst = min(worst, slack)
            checked += 1
            if slack < 0:
                violations += 1
        else:
            skipped += 1
        prev_loss = rec.loss
    if checked == 0:
        worst = 0.0
    return DescentReport(holds=violations == 0, worst_slack=worst,
                         checked_steps=checked, skipped_steps=skipped,
                         violations=violations)


# === momentum stability (heavy-ball three-term recursion) ===================


def momentum_boundary(eta: float, beta1: float) -> float:
    """Closed-form stability threshold (2/eta)(1+beta1)/(1-beta1)."""
    return (2.0 / eta) * (1.0 + beta1) / (1.0 - beta1)


def momentum_stability_classify(lam: float, eta: float, beta1: float,
                                horizon: int = CLASSIFY_HORIZON) -> str:
    """Simulate the perturbation recursion; classify stable or unstable.

    delta_{t+1} = ((1+beta1) - eta(1-beta1)lam) delta_t - beta1 delta_{t-1}.
    Stable when the envelope falls below 1e-3 of its start, unstable above
    1e3; raises Indeterminate if neither bound is hit within the horizon.
    """
    if lam <= 0 or eta <= 0 or not 0.0 <= beta1 < 1.0:
        raise PreconditionViolation("need lam > 0, eta > 0, beta1 in [0,1)")
    a = (1.0 + beta1) - eta * (1.0 - beta1) * lam
    prev, cur = 1.0, 1.0
    for _ in range(horizon):
        prev, cur = cur, a * cur - beta1 * prev
        env = max(abs(prev), abs(cur))
        if env < 1e-3:
            return "stable"
        if env > 1e3:
            return "unstable"
    raise Indeterminate(
        f"no verdict within horizon {horizon} (lambda near the boundary)")


# === real spectrum of D H ===================================================


@dataclass(frozen=True)
class RealSpectrumReport:
    holds: bool
    max_imag_ratio: float
    max_rel_mismatch: float
    spectral_radius: float


def real_spectrum_check(H: np.ndarray, d: np.ndarray) -> RealSpectrumReport:
    """eig(diag(d) H) must be real and match eig(diag(sqrt(d)) H diag(sqrt(d)))."""
    H = np.asarray(H, dtype=float)
    d = np.asarray(d, dtype=float)
    n = H.shape[0]
    if n > DENSE_ORACLE_CAP:
        raise OracleSizeExceeded(f"real-spectrum oracle capped at n <= {DENSE_ORACLE_CAP}")
    if H.shape != (n, n) or d.shape != (n,) or np.any(d <= 0):
        raise PreconditionViolation("need square H and positive d")
    ev = np.linalg.eigvals(d[:, None] * H)
    radius = float(np.abs(ev).max()) if n else 0.0
    max_imag = float(np.abs(ev.imag).max())
    sq = np.sqrt(d)
    sym = sq[:, None] * H * sq[None, :]
    ev_sym = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    a = np.sort(ev.real)
    b = np.sort(ev_sym)
    scale = max(radius, 1e-300)
    mismatch = float(np.abs(a - b).max()) / scale
    imag_ratio = max_imag / scale
    return RealSpectrumReport(
        holds=imag_ratio <= 1e-8 and mismatch <= 1e-8,
        max_imag_ratio=imag_ratio,
        max_rel_mismatch=mismatch,
        spectral_radius=radius,
    )


# === five-stage certificate =================================================


@dataclass(frozen=True)
class FiveStageCertificate:
    theta0: float
    eta: float
    beta2: float
    hypothesis_ok: bool
    t1_formula: float
    s: float
    delta: float
    simulated_boundaries: dict
    per_stage_inequalities: list
    q: float = None
    t5_kind: str = None  # reviolation | trace-end
    max_steps: int = 0
    hypothesis_lhs: float = 0.0
    hypothesis_rhs: float = 0.0

    def all_hold(self) -> bool:
        return self.hypothesis_ok and all(e["holds"] for e in self.per_stage_inequalities)

    def worst_slack(self) -> float:
        slacks = [e["worst_slack"] for e in self.per_stage_inequalities]
        return min(slacks) if slacks else 0.0


def theorem_recursion(theta0, eta, beta2, n_steps):
    """theta_{t+1} = (1 - eta/sqrt(v_t)) theta_t; v_{t+1} = b2 v_t + (1-b2) theta_t^2."""
    th = np.empty(n_steps + 1)
    v = np.empty(n_steps + 1)
    th[0] = theta0
    v[0] = theta0 * theta0
    for t in range(n_steps):
        th[t + 1] = (1.0 - eta / math.sqrt(v[t])) * th[t]
        v[t + 1] = beta2 * v[t] + (1.0 - beta2) * th[t] * th[t]
    return th, v


def five_stage_certificate(theta0: float, eta: float, beta2: float,
                           max_steps: int = None) -> FiveStageCertificate:
    """Simulate the beta1=0 scalar recursion and certify the stage structure."""
    if not (eta > 0 and 0.0 < beta2 < 1.0):
        raise PreconditionViolation("need eta > 0 and beta2 in (0, 1)")
    if not math.isfinite(theta0):
        raise PreconditionViolation("need a finite theta0")
    a0 = abs(theta0)
    if a0 <= eta / 2.0:
        raise PreconditionViolation("need |theta0| > eta/2 (equality refused)")

    lhs = 1.0 / math.log(1.0 / beta2)
    rhs = 1.0 / math.log(2.0 * a0 / eta) + 1.0 / math.log(2.0)
    hypothesis_ok = lhs > rhs
    t1_formula = 2.0 * math.log(a0 / eta + 0.5) / math.log(1.0 / beta2)
    s = max(eta / (2.0 * a0), abs(1.0 - eta / a0))
    t1 = int(math.floor(t1_formula))
    delta = s ** t1 * a0
    if max_steps is None:
        max_steps = max(1000, int(math.ceil(10.0 * max(t1_formula, 1.0))))

    if not hypothesis_ok:
        return FiveStageCertificate(
            theta0=theta0, eta=eta, beta2=beta2, hypothesis_ok=False,
            t1_formula=t1_formula, s=s, delta=delta,
            simulated_boundaries={}, per_stage_inequalities=[],
            max_steps=max_steps, hypothesis_lhs=lhs, hypothesis_rhs=rhs)

    th, v = theorem_recursion(theta0, eta, beta2, max_steps)
    rv = np.sqrt(v)
    half = eta / 2.0

    def first_index(mask, start):
        idx = np.nonzero(mask[start:])[0]
        return int(idx[0]) + start if idx.size else None

    t2 = first_index(rv < half, 0)
    t3 = t4 = t5 = None
    t5_kind = None
    if t2 is not None:
        growth = v[1:] > v[:-1]  # growth[t] <=> v_{t+1} > v_t
        t3 = first_index(growth, t2 + 1)
    if t3 is not None:
        t4 = first_index(rv > half, t3 + 1)
    if t4 is not None:
        t5 = first_index(rv < half, t4 + 1)
        if t5 is None:
            t5 = max_steps
            t5_kind = "trace-end"
        else:
            t5_kind = "reviolation"
    boundaries = {"t0": 0, "t1": t1, "t2": t2, "t3": t3, "t4": t4, "t5": t5}

    checks = []

    def add(name, slacks):
        arr = np.asarray(slacks, dtype=float)
        worst = float(arr.min()) if arr.size else 0.0
        checks.append({"name": name, "holds": bool(worst >= -STAGE_TOL),
                       "worst_slack": worst})

    hi1 = min(t1, max_steps + 1)
    ts = np.arange(hi1)
    add("stage1-contraction", s ** ts * a0 - np.abs(th[:hi1]))

    if t2 is not None and t2 >= t1 + 1:
        ts = np.arange(t1 + 1, t2 + 1)
        env = (v[t1 + 1] - delta ** 2) * beta2 ** (ts - t1 - 1) + delta ** 2 + 1e-12
        add("stage2-envelope", env - v[t1 + 1:t2 + 1])
    else:
        add("stage2-envelope", [])

    q = None
    if t2 is not None and t3 is not None:
        q = eta / rv[t2] - 1.0
        checks.append({"name": "stage3-q-above-one", "holds": bool(q > 1.0),
                       "worst_slack": float(q - 1.0)})
        ts = np.arange(t2, t3)
        add("stage3-growth",
            np.abs(th[t2:t3]) - q ** (ts - t2) * abs(th[t2]) * (1.0 - 1e-12))

    ordered = [boundaries[k] for k in ("t0", "t1", "t2", "t3", "t4", "t5")]
    finite = all(b is not None for b in ordered)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])] if finite else [-1]
    checks.append({"name": "boundary-ordering",
                   "holds": bool(finite and min(gaps) > 0),
                   "worst_slack": float(min(gaps))})

    return FiveStageCertificate(
        theta0=theta0, eta=eta, beta2=beta2, hypothesis_ok=True,
        t1_formula=t1_formula, s=s, delta=delta,
        simulated_boundaries=boundaries, per_stage_inequalities=checks,
        q=q, t5_kind=t5_kind, max_steps=max_steps,
        hypothesis_lhs=lhs, hypothesis_rhs=rhs)


# === exact iff condition via the averaged Hessian ===========================


@dataclass(frozen=True)
class AveragedHessianProbe:
    quadrature_nodes: int
    estimate: float
    residual: float


@dataclass(frozen=True)
class IffCheckResult:
    lhs: bool
    rhs: bool
    estimate: float
    threshold: float
    determinate: bool
    probe: AveragedHessianProbe

    def consistent(self) -> bool:
        return self.lhs == self.rhs


def _averaged_quotient(obj, theta, g, gn2, eta, nodes):
    """lambda_grad of 2*int_0^1 (1-s) Hessian(theta - s eta g) ds along g."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    svals = 0.5 * (x + 1.0)
    weights = w * (1.0 - svals)  # sums to 1
    total = 0.0
    for si, wi in zip(svals, weights):
        hv = obj.hvp(theta - si * eta * g, g)
        total += wi * float(g @ hv)
    return total / gn2


def spike_iff_check(obj, theta_t, eta: float,
                    quadrature_nodes: int = QUADRATURE_NODES) -> IffCheckResult:
    """Loss-increase after a GD step vs the averaged-Hessian curvature test."""
    theta = np.asarray(theta_t, dtype=float)
    g = obj.gradient(theta)
    gn2 = float(g @ g)
    if gn2 == 0.0:
        raise ZeroGradient("iff check needs a nonzero gradient")
    lhs = obj.loss(theta - eta * g) > obj.loss(theta)
    est_lo = _averaged_quotient(obj, theta, g, gn2, eta, quadrature_nodes)
    est_hi = _averaged_quotient(obj, theta, g, gn2, eta, 2 * quadrature_nodes)
    residual = abs(est_hi - est_lo)
    threshold = 2.0 / eta
    band = 4.0 * residual
    return IffCheckResult(
        lhs=lhs,
        rhs=est_hi > threshold,
        estimate=est_hi,
        threshold=threshold,
        determinate=abs(est_hi - threshold) > band,
        probe=AveragedHessianProbe(quadrature_nodes=2 * quadrature_nodes,
                                   estimate=est_hi, residual=residual),
    )


# === decaying learning rate =================================================


@dataclass(frozen=True)
class LrDecayReport:
    found: bool
    step: int  # None when no witness within max_steps
    checked_steps: int
    params: dict = field(default_factory=dict)


def lr_decay_witness(theta0: float, eta0: float, alpha: float, beta2: float,
                     max_steps: int = 10 ** 6) -> LrDecayReport:
    """First step where |1 - eta_t/sqrt(v_t)| >= 1 under eta_t = eta0 (t+1)^-alpha.

    Reports a witness or its absence within max_steps; existence is only
    claimed by the theory for beta2 close to 1, so absence is never asserted
    as a theorem violation.
    """
    if not 0.0 < alpha < 1.0:
        raise PreconditionViolation("need alpha in (0, 1)")
    if not 0.0 < beta2 < 1.0:
        raise PreconditionViolation("need beta2 in (0, 1)")
    if not math.isfinite(theta0):
        raise PreconditionViolation("need a finite theta0")
    if not (eta0 > 0 and math.isfinite(eta0)):
        raise PreconditionViolation("need a positive finite eta0")
    a0 = abs(theta0)
    if a0 <= 2.0 * eta0:
        raise PreconditionViolation("need |theta0| > 2 eta0 (equality refused)")
    params = {"theta0": theta0, "eta0": eta0, "alpha": alpha,
              "beta2": beta2, "max_steps": max_steps}
    th = float(theta0)
    v = th * th
    for t in range(max_steps):
        eta_t = eta0 * float(t + 1) ** (-alpha)
        ratio = eta_t / math.sqrt(v)
        if abs(1.0 - ratio) >= 1.0:
            return LrDecayReport(found=True, step=t, checked_steps=t + 1,
                                 params=params)
        th_new = (1.0 - ratio) * th
        v = beta2 * v + (1.0 - beta2) * th * th
        th = th_new
    return LrDecayReport(found=False, step=None, checked_steps=max_steps,
                         params=params)
