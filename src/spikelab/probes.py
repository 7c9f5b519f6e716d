"""Spectral probes: preconditioned-Hessian eigenvalues and directional curvature.

The preconditioned Hessian is D_t H_t with D_t = c_t diag(1/(sqrt(v_hat)+eps)).
Its largest eigenvalue is the top Ritz value of a restarted Lanczos solve on
the symmetric similar operator D^(1/2) H D^(1/2), which shares the spectrum.
When D is a scalar c (no second moment), it is c times the raw Hessian's
largest eigenvalue, which power iteration computes (Lanczos, when the
eigenvalue largest in magnitude is negative). The directional
curvature is the Euclidean Rayleigh quotient of D H along the gradient.
A one-parameter run's probe takes its Python floats and is closed form,
with the bits the solvers give on a one-element array.

A probe reads only its step's theta, gradient and D and the previous
probe's warm vectors, and writes only its ProbeWarmStart, so the run loop
may take it on another thread than the steps that follow it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ZeroGradient
from .params import norm
from .rngs import stream

PI_MAX_ITERS = 100
PI_TOL = 1e-6
LANCZOS_BASIS = 6  # Krylov vectors a Lanczos solve keeps between restarts
_ONE = np.ones(1)  # the Ritz vector of a one-vector basis

# === preconditioner =========================================================


class Preconditioner(NamedTuple):
    """Diagonal scaling D = scale * diag(1/(root+epsilon)), root = sqrt(v_hat).

    root + epsilon is the denominator the step divided by (root is None, and
    D the scalar scale, without a second moment; root is a Python float on a
    one-parameter run's float path), and scale the scalar it
    multiplied by. The optimizer step returns the D it applied. Only diag()
    checks, so building D never raises where run records a divergence.
    """

    root: np.ndarray
    epsilon: float
    scale: float

    @staticmethod
    def for_adam(beta1, beta2, t, v_hat, epsilon, bias_correction=True):
        """Adam's D_t after t steps: scale (1-beta1)/(1+beta1)/(1-beta1^t)."""
        if t < 1:
            raise ConfigError("preconditioner requires t >= 1")
        if np.any(v_hat < 0):
            raise ConfigError("preconditioner v_hat must be non-negative")
        c = (1.0 - beta1) / (1.0 + beta1)
        if bias_correction:
            c /= 1.0 - beta1 ** t
        return Preconditioner(np.sqrt(v_hat), epsilon, c)

    def diag(self):
        """D's diagonal (the scalar scale when root is None), positive finite;
        a float when root is a float (a one-parameter run's).

        One min and one max check the diagonal: a NaN entry makes the min
        NaN. They are ufunc reductions, as in optimizers._diverged.
        """
        scale = self.scale
        if not 0.0 < scale < math.inf:
            raise ConfigError("preconditioner scale must be positive finite")
        if self.root is None:
            return scale
        try:
            d = scale / (self.root + self.epsilon)
        except ZeroDivisionError:  # a float root, where numpy's quotient is inf
            d = math.inf
        lo, hi = (d, d) if isinstance(d, float) else (np.minimum.reduce(d), np.maximum.reduce(d))
        if not (lo > 0.0 and hi < math.inf):
            raise ConfigError("preconditioner diagonal must be positive finite")
        return d


# === eigensolvers ===========================================================


@dataclass
class PowerResult:
    value: float
    vector: np.ndarray
    converged: bool
    iters_used: int


class _NoStart(ConfigError):
    """An eigensolver's start is not a nonzero 1-D array."""


def _unit(v0, solver) -> np.ndarray:
    """v0 scaled to unit norm; refuses a start that is not a nonzero 1-D array."""
    n0 = norm(v0) if isinstance(v0, np.ndarray) and v0.ndim == 1 else 0.0
    if not n0 > 0:
        raise _NoStart(f"{solver} needs a nonzero start vector")
    return v0 / n0


def power_iteration(apply, v0, max_iters=PI_MAX_ITERS, tol=PI_TOL) -> PowerResult:
    """Dominant eigenvalue of a linear operator via normalized iteration from v0.

    Convergence is declared when successive Rayleigh estimates agree to a
    relative tolerance. A zero operator reports lambda=0, converged.
    """
    v = _unit(v0, "power iteration")
    lam = 0.0
    for k in range(max_iters):
        w = apply(v)
        nw = norm(w)
        if nw == 0.0:
            return PowerResult(0.0, v, True, k + 1)
        lam_new = float(v.dot(w))
        v = w / nw
        if k > 0 and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return PowerResult(lam_new, v, True, k + 1)
        lam = lam_new
    return PowerResult(lam, v, False, max_iters)


def lanczos(apply, v0, max_iters=PI_MAX_ITERS, tol=PI_TOL) -> PowerResult:
    """Largest eigenvalue of a symmetric operator by restarted Lanczos from v0.

    Each new Krylov vector is orthogonalized twice against the whole basis of
    at most LANCZOS_BASIS vectors. A full basis restarts from its top Ritz
    vector y, whose product A y = theta y + r is already known, so a restart
    costs no product. The solve stops once min(|r|, |r|^2/delta) <= tol
    |theta|, delta the gap to the second Ritz value (|r| alone while the
    basis holds one vector), or after max_iters products. At d=1 the first
    product leaves r = 0. A non-finite product ends it unconverged with
    value NaN.
    """
    q = _unit(v0, "lanczos")
    basis = np.empty((min(LANCZOS_BASIS, q.size), q.size))
    basis[0] = q
    # the operator in the basis; a cell of tri[:m, :m] is set before it is
    # read, so a restart needs no reset
    tri = np.zeros((len(basis), len(basis)))
    m = 0  # basis vectors whose product is known
    for used in range(1, max_iters + 1):
        w = apply(basis[m])
        m += 1
        known = basis[:m]
        # .dot, not @: the same bits, and matmul costs more per call
        c = known.dot(w)
        w = w - c.dot(known)
        w -= known.dot(w).dot(known)
        a, b = float(c[-1]), norm(w)
        if not math.isfinite(a + b):  # eigh can raise on a non-finite matrix
            return PowerResult(math.nan, q, False, used)
        tri[m - 1, m - 1] = a
        if m == 1:  # one Krylov vector: its Rayleigh quotient, no gap
            theta, s, gap = a, _ONE, 0.0
        else:
            ritz, vecs = np.linalg.eigh(tri[:m, :m])
            theta, s, gap = float(ritz[-1]), vecs[:, -1], float(ritz[-1] - ritz[-2])
        last = float(s[-1])
        res = b * abs(last)
        bound = tol * abs(theta)
        converged = res <= bound or res * res <= bound * gap
        if converged or used == max_iters:
            y = s.dot(known)
            return PowerResult(theta, y / norm(y), converged, used)
        off = b
        if m == len(basis):  # restart: A y = theta y + res * sign(s[-1]) * w / b
            y = s.dot(basis)
            basis[0] = y / norm(y)
            tri[0, 0], m, off, b = theta, 1, res, math.copysign(b, last)
        tri[m - 1, m] = tri[m, m - 1] = off
        np.divide(w, b, out=basis[m])


# === directional curvature ==================================================


def lambda_grad(d, hvp, g) -> float:
    """Rayleigh quotient of diag(d) H along the gradient; hvp(v) = H v."""
    gn2 = float(g.dot(g))
    if gn2 == 0.0:
        raise ZeroGradient("lambda_grad needs a nonzero gradient")
    return float(g.dot(d * hvp(g))) / gn2


# === probe records ==========================================================


class ProbeRecord(NamedTuple):
    """Spectral measurements at one step."""

    step: int
    lambda_max_H: float
    lambda_max_Hhat: float
    lambda_grad_Hhat: float  # None when the gradient vanished
    threshold: float  # 2 / eta_t
    power_iters_used: int  # products of the solve that gave lambda_max_Hhat; 0 in closed form
    converged: bool


@dataclass
class ProbeWarmStart:
    """Previous top eigenvectors, reused to seed the next probe."""

    raw: np.ndarray = None
    pre: np.ndarray = None


def _solve(solver, apply, v0, cold, max_iters, tol) -> PowerResult:
    """solver from the warm vector v0, or from the cold draw cold() where v0
    is None or has no positive norm. The solver's _unit takes v0's one norm."""
    try:
        return solver(apply, v0, max_iters, tol)
    except _NoStart:
        return solver(apply, cold(), max_iters, tol)


def _raw_top(hvp, v0, cold, max_iters, tol) -> PowerResult:
    """Largest eigenvalue of H by power iteration from v0 (see _solve). When
    the dominant one is negative, the top of H is Lanczos's top Ritz value
    from the cold vector."""
    res = _solve(power_iteration, hvp, v0, cold, max_iters, tol)
    return lanczos(hvp, cold(), max_iters, tol) if res.value < 0 else res


def _closed_form(lam, pre, g, eta_t, step) -> ProbeRecord:
    """compute_probe on a one-parameter run's floats, whose Hessian is the
    number lam: the bits the solvers give on the 1x1 operator, no product
    taken. Power iteration reads a zero operator as +0.0 (-0.0 + 0.0), and
    Lanczos's one product on D^(1/2) H D^(1/2) is sqrt(d) (lam sqrt(d)), NaN
    and unconverged where it is not finite."""
    d, raw = pre.diag(), lam + 0.0
    hat = d * raw if pre.root is None else math.sqrt(d) * (lam * math.sqrt(d))
    ok = pre.root is None or math.isfinite(hat)
    gn2 = g * g  # lambda_grad's g.g; None where it is 0
    lg = g * (d * (lam * g)) / gn2 if gn2 != 0.0 else None
    return ProbeRecord(step, raw, hat if ok else math.nan, lg, 2.0 / eta_t, 0, ok)


def compute_probe(obj, theta, pre, g, eta_t, step, seed, warm,
                  max_iters=PI_MAX_ITERS, tol=PI_TOL) -> ProbeRecord:
    """Full probe at one step; mutates `warm` with the new eigenvectors.

    Every HVP of the probe goes through one obj.hvp_at(theta) closure. A
    solve without a usable warm vector starts from the step's seeded cold
    draw. A scalar D = c gives lambda_max(D H) = c lambda_max(H) without a
    second solve; power_iters_used counts the products of the solve that
    gave lambda_max_Hhat. A float theta (with a float g and root) is a
    one-parameter quadratic's, probed in closed form from obj.lambda_max()
    with no HVP, solve or warm vector, and power_iters_used 0.
    """
    if isinstance(theta, float):
        return _closed_form(obj.lambda_max(), pre, g, eta_t, step)
    hvp = obj.hvp_at(theta)

    def cold():
        return stream(stream(seed, "probe", step).integers(0, 2 ** 62),
                      "power-iteration").standard_normal(theta.size)

    raw = _raw_top(hvp, warm.raw, cold, max_iters, tol)
    warm.raw = raw.vector
    d = pre.diag()
    if pre.root is None:
        prec = PowerResult(d * raw.value, None, raw.converged, raw.iters_used)
    else:
        sq = np.sqrt(d)
        prec = _solve(lanczos, lambda w: sq * hvp(sq * w), warm.pre, cold, max_iters, tol)
        warm.pre = prec.vector
    try:  # lambda_grad takes g.g once and refuses a zero gradient
        lg = lambda_grad(d, hvp, g)
    except ZeroGradient:
        lg = None
    return ProbeRecord(
        step=step,
        lambda_max_H=raw.value,
        lambda_max_Hhat=prec.value,
        lambda_grad_Hhat=lg,
        threshold=2.0 / eta_t,
        power_iters_used=prec.iters_used,
        converged=raw.converged and prec.converged,
    )
