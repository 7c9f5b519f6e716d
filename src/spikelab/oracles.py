"""Numerical verifiers for the closed-form results: descent estimate,
momentum stability interval, real spectrum, five-stage certificate, exact
iff spike condition via the averaged Hessian, and decaying-LR instability;
plus the derivative oracles the tests hold the objectives to: a central
finite-difference HVP and a dense Hessian capped at small sizes.

The descent, momentum-boundary, real-spectrum, spike-iff and lr-decay
oracles return the body of their certificate.json: the theorem, its verdict
and the numbers behind it. The five-stage oracle returns that body beside the
recursion it judged, so a theorem run simulates once. A caller adds only
what the oracle cannot know, such as the command-line text it was given.
Five-stage and lr-decay answer an input outside their hypothesis with a
SKIPPED (hypothesis) body giving the reason, never a raise.

Theorem-mode recursions here use beta1=0, epsilon=0, no bias correction, and
the delayed second moment (the step at time t uses v_t, then v updates).
The production Adam in the optimizers module differs; the two are never
conflated.
"""

import math

import numpy as np

from .analysis import BOUNDARIES
from .errors import (DivergedEvaluation, Indeterminate, InvalidDirection, OracleMisuse,
                     OracleSizeExceeded, PreconditionViolation, ZeroGradient)

DESCENT_TOL = 1e-10
STAGE_TOL = 1e-12
CLASSIFY_HORIZON = 4000
QUADRATURE_NODES = 16
DENSE_ORACLE_CAP = 200
FIVE_STAGE_HORIZON_CAP = 10 ** 6  # steps; theorem_recursion holds two arrays this long

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
    hvp = obj.hvp_at(point.values)
    cols = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols[:, j] = hvp(e)
        e[j] = 0.0
    return 0.5 * (cols + cols.T)


# === descent estimate (GD on quadratics) ====================================


def evidence_verdict(evidence: int, holds: bool) -> str:
    """PASS or FAIL over `evidence` checked steps; with none, no verdict."""
    return ("PASS" if holds else "FAIL") if evidence else "SKIPPED (no evidence)"


def check_descent_lemma(trace, obj) -> dict:
    """Per-step descent inequality for GD on a quadratic with known lambda_max."""
    if obj.kind != "quadratic":
        raise OracleMisuse("descent check requires a quadratic objective")
    if trace.config.get("optimizer.kind") != "gd":
        raise OracleMisuse("descent check requires a GD trace")
    lam = obj.lambda_max()
    if not lam > 0:
        raise PreconditionViolation("descent check needs lambda_max > 0")
    eta, loss = trace.eta_t, trace.losses()
    prev = np.concatenate(([trace.initial_loss], loss[:-1]))
    checked = eta < 2.0 / lam
    eta, prev, loss = eta[checked], prev[checked], loss[checked]
    bound = prev - eta * (1.0 - eta * lam / 2.0) * trace.grad_norm[checked] ** 2
    slack = bound + DESCENT_TOL * np.abs(prev) - loss
    violations = int((slack < 0).sum())
    return {"theorem": "descent", "verdict": evidence_verdict(slack.size, violations == 0),
            "worst_slack": float(slack.min()) if slack.size else 0.0,
            "checked_steps": slack.size, "skipped_steps": len(trace) - slack.size,
            "violations": violations}


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


def momentum_boundary_check(eta: float, beta1: float, margin: float, lam=None) -> dict:
    """PASS when the recursion classifies the boundary less margin stable and
    the boundary plus margin unstable; a given lam is classified as the query."""
    boundary = momentum_boundary(eta, beta1)
    lo, hi = boundary * (1.0 - margin), boundary * (1.0 + margin)
    below, above = (momentum_stability_classify(x, eta, beta1) for x in (lo, hi))
    body = {
        "theorem": "momentum-boundary",
        "verdict": "PASS" if below == "stable" and above == "unstable" else "FAIL",
        "boundary": boundary,
        "margin": margin,
        "bracket": {"lambda_below": lo, "classified_below": below,
                    "lambda_above": hi, "classified_above": above},
    }
    if lam is not None:
        try:
            verdict = momentum_stability_classify(lam, eta, beta1)
        except Indeterminate:
            verdict = "indeterminate"
        body["query"] = {"lambda": lam, "classified": verdict}
    return body


# === real spectrum of D H ===================================================


def real_spectrum_check(H: np.ndarray, d: np.ndarray) -> dict:
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
    return {"theorem": "real-spectrum",
            "verdict": "PASS" if imag_ratio <= 1e-8 and mismatch <= 1e-8 else "FAIL",
            "max_imag_ratio": imag_ratio, "max_rel_mismatch": mismatch,
            "spectral_radius": radius}


# === five-stage certificate =================================================


def _refused(theorem: str, reason: str) -> dict:
    """The certificate.json body of an input outside the theorem's hypothesis."""
    return {"theorem": theorem, "verdict": "SKIPPED (hypothesis)", "reason": reason}


def theorem_recursion(theta0, eta, beta2, n_steps):
    """theta_{t+1} = (1 - eta/sqrt(v_t)) theta_t; v_{t+1} = b2 v_t + (1-b2) theta_t^2,
    stepped in Python floats, which round as float64 array elements do."""
    th = np.empty(n_steps + 1)
    v = np.empty(n_steps + 1)
    x = th[0] = float(theta0)
    w = v[0] = x * x
    for t in range(1, n_steps + 1):
        x, w = (1.0 - eta / math.sqrt(w)) * x, beta2 * w + (1.0 - beta2) * x * x
        th[t], v[t] = x, w
    return th, v


def five_stage_certificate(theta0: float, eta: float, beta2: float, max_steps: int = None):
    """Simulate the beta1=0 scalar recursion and certify the stage structure:
    (certificate body, (theta, sqrt(v))), theta as theorem_recursion returns
    it and sqrt(v) as the checks read it, the second None when nothing was
    simulated.

    The verdict is PASS when every check holds and FAIL when one does not.
    Outside the hypothesis lhs > rhs it is SKIPPED (hypothesis), with no
    simulation, no boundaries, no checks and a reason naming lhs and rhs; off
    the recursion's domain or above FIVE_STAGE_HORIZON_CAP steps, it is that
    verdict with only a reason.
    """
    if not (eta > 0 and 0.0 < beta2 < 1.0):
        return _refused("five-stage", "need eta > 0 and beta2 in (0, 1)"), None
    if not math.isfinite(theta0 * theta0):
        return _refused("five-stage", "need a finite theta0 with a finite square"), None
    a0 = abs(theta0)
    if a0 <= eta / 2.0:
        return _refused("five-stage", "need |theta0| > eta/2 (equality refused)"), None

    lhs = 1.0 / math.log(1.0 / beta2)
    rhs = 1.0 / math.log(2.0 * a0 / eta) + 1.0 / math.log(2.0)
    hypothesis_ok = lhs > rhs
    t1_formula = 2.0 * math.log(a0 / eta + 0.5) / math.log(1.0 / beta2)
    horizon = 10.0 * max(t1_formula, 1.0) if max_steps is None else max_steps
    if not (horizon <= FIVE_STAGE_HORIZON_CAP and t1_formula < math.inf):
        return _refused("five-stage", f"need a finite t1 and a horizon of at most "
                        f"{FIVE_STAGE_HORIZON_CAP} steps, got t1={t1_formula:.4g} and "
                        f"{horizon:.4g} steps"), None
    s = max(eta / (2.0 * a0), abs(1.0 - eta / a0))
    t1 = int(math.floor(t1_formula))
    delta = s ** t1 * a0
    if max_steps is None:
        max_steps = max(1000, int(math.ceil(horizon)))

    body = {"theorem": "five-stage", "verdict": "SKIPPED (hypothesis)",
            "params": {"theta0": theta0, "eta": eta, "beta2": beta2, "max_steps": max_steps},
            "hypothesis": {"ok": hypothesis_ok, "lhs": lhs, "rhs": rhs},
            "t1_formula": t1_formula, "s": s, "delta": delta, "q": None,
            "t5_kind": None,  # reviolation | trace-end
            "boundaries": {}, "checks": [], "worst_slack": None}
    if not hypothesis_ok:
        body["reason"] = f"need lhs > rhs, got lhs={lhs:.6g} and rhs={rhs:.6g}"
        return body, None

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

    ordered = [boundaries[k] for k in BOUNDARIES]
    finite = all(b is not None for b in ordered)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])] if finite else [-1]
    checks.append({"name": "boundary-ordering",
                   "holds": bool(finite and min(gaps) > 0),
                   "worst_slack": float(min(gaps))})

    body.update(verdict="PASS" if all(c["holds"] for c in checks) else "FAIL",
                q=q, t5_kind=t5_kind, boundaries=boundaries, checks=checks,
                worst_slack=min(c["worst_slack"] for c in checks))
    return body, (th, rv)


# === exact iff condition via the averaged Hessian ===========================


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


def spike_iff_check(obj, theta_t, eta: float, quadrature_nodes: int = QUADRATURE_NODES) -> dict:
    """Loss-increase after a GD step (lhs) vs the averaged-Hessian curvature
    test (rhs), determinate outside 4 quadrature residuals of 2/eta."""
    theta = np.asarray(theta_t, dtype=float)
    g = obj.gradient(theta)
    gn2 = float(g @ g)
    if gn2 == 0.0:
        raise ZeroGradient("iff check needs a nonzero gradient")
    lhs = obj.loss(theta - eta * g) > obj.loss(theta)
    est_lo = _averaged_quotient(obj, theta, g, gn2, eta, quadrature_nodes)
    est_hi = _averaged_quotient(obj, theta, g, gn2, eta, 2 * quadrature_nodes)
    residual = abs(est_hi - est_lo)  # estimate at 2x the nodes minus at 1x
    threshold = 2.0 / eta
    return {"lhs": lhs, "rhs": est_hi > threshold, "estimate": est_hi,
            "threshold": threshold, "residual": residual,
            "determinate": abs(est_hi - threshold) > 4.0 * residual}


@np.errstate(all="ignore")  # a diverging iterate raises DivergedEvaluation, unwarned
def spike_iff_certificate(obj, theta0, eta: float, steps: int,
                          quadrature_nodes: int = QUADRATURE_NODES,
                          min_consistency: float = 1.0) -> dict:
    """spike_iff_check at each of `steps` GD iterates from theta0.

    The walk ends early, checked_steps < steps, at a stationary point, where
    GD stays, or at an iterate whose loss overflows: no later step gives
    evidence. The verdict is PASS when at least min_consistency of the
    determinate steps have lhs == rhs; SKIPPED (no evidence) when none is.
    """
    theta = np.asarray(theta0, dtype=float)
    checked = consistent = 0
    margins = []  # |estimate - 2/eta| at each determinate step
    while checked < steps:
        try:
            res = spike_iff_check(obj, theta, eta, quadrature_nodes)
        except (ZeroGradient, DivergedEvaluation):
            break
        checked += 1
        if res["determinate"]:
            consistent += res["lhs"] == res["rhs"]
            margins.append(abs(res["estimate"] - res["threshold"]))
        theta = theta - eta * obj.gradient(theta)
    frac = consistent / len(margins) if margins else None
    return {"theorem": "spike-iff",
            "verdict": evidence_verdict(len(margins), bool(margins) and frac >= min_consistency),
            "consistent_fraction": frac, "determinate_steps": len(margins),
            "checked_steps": checked, "total_steps": steps,
            "worst_margin": min(margins, default=None)}


# === decaying learning rate =================================================


def lr_decay_witness(theta0: float, eta0: float, alpha: float, beta2: float,
                     max_steps: int = 10 ** 6) -> dict:
    """First step where |1 - eta_t/sqrt(v_t)| >= 1 under eta_t = eta0 (t+1)^-alpha.

    The verdict is WITNESS-FOUND or NO-WITNESS within max_steps; existence is
    only claimed by the theory for beta2 close to 1, so absence is never
    asserted as a theorem violation. Outside the hypothesis it is SKIPPED
    (hypothesis), with the reason and no search.
    """
    if not 0.0 < alpha < 1.0:
        return _refused("lr-decay", "need alpha in (0, 1)")
    if not 0.0 < beta2 < 1.0:
        return _refused("lr-decay", "need beta2 in (0, 1)")
    if not math.isfinite(theta0):
        return _refused("lr-decay", "need a finite theta0")
    if not (eta0 > 0 and math.isfinite(eta0)):
        return _refused("lr-decay", "need a positive finite eta0")
    if abs(theta0) <= 2.0 * eta0:
        return _refused("lr-decay", "need |theta0| > 2 eta0 (equality refused)")
    body = {"theorem": "lr-decay", "params": {"theta0": theta0, "eta0": eta0, "alpha": alpha,
                                              "beta2": beta2, "max_steps": max_steps}}
    th = float(theta0)
    v = th * th
    for t in range(max_steps):
        eta_t = eta0 * float(t + 1) ** (-alpha)
        ratio = eta_t / math.sqrt(v)
        if abs(1.0 - ratio) >= 1.0:
            return dict(body, verdict="WITNESS-FOUND", witness_step=t, checked_steps=t + 1)
        th_new = (1.0 - ratio) * th
        v = beta2 * v + (1.0 - beta2) * th * th
        th = th_new
    return dict(body, verdict="NO-WITNESS", witness_step=None, checked_steps=max_steps)
