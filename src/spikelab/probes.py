"""Spectral probes: preconditioned-Hessian eigenvalues and directional curvature.

The preconditioned Hessian is D_t H_t with D_t = c_t diag(1/(sqrt(v_hat)+eps)).
Its dominant eigenvalue is computed by power iteration on the symmetric
similar operator D^(1/2) H D^(1/2), which shares the spectrum and keeps the
Rayleigh estimates monotone-friendly. The directional curvature is the
Euclidean Rayleigh quotient of D H along the gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryUndefined, ConfigError, ZeroGradient
from .rngs import stream

PI_MAX_ITERS = 100
PI_TOL = 1e-6

# === preconditioner =========================================================


@dataclass(frozen=True)
class Preconditioner:
    """Diagonal scaling D = scale * diag(1/(sqrt(v_hat)+epsilon)).

    For Adam, scale = (1/(1-beta1^t)) * ((1-beta1)/(1+beta1)) with the first
    factor dropped when bias correction is off. Other optimizers install
    their own scale (1 for RMSProp/Adagrad, rho_t for Adafactor).
    """

    beta1: float
    beta2: float
    t: int
    v_hat: np.ndarray
    epsilon: float
    scale: float

    def __post_init__(self):
        if self.t < 1:
            raise ConfigError("preconditioner requires t >= 1")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("preconditioner scale must be positive and finite")

    @staticmethod
    def for_adam(beta1, beta2, t, v_hat, epsilon, bias_correction=True):
        c = (1.0 - beta1) / (1.0 + beta1)
        if bias_correction:
            c /= 1.0 - beta1 ** t
        return Preconditioner(beta1, beta2, t, v_hat, epsilon, c)

    def diag(self) -> np.ndarray:
        if np.any(self.v_hat < 0):
            raise ConfigError("preconditioner v_hat must be non-negative")
        d = self.scale / (np.sqrt(self.v_hat) + self.epsilon)
        if not np.all(np.isfinite(d)) or not np.all(d > 0):
            raise ConfigError("preconditioner diagonal must be positive finite")
        return d


# === power iteration ========================================================


@dataclass
class PowerResult:
    value: float
    vector: np.ndarray
    converged: bool
    iters_used: int


def power_iteration(apply, dim, max_iters=PI_MAX_ITERS, tol=PI_TOL, seed=0,
                    v0=None) -> PowerResult:
    """Dominant eigenvalue of a linear operator via normalized iteration.

    Convergence is declared when successive Rayleigh estimates agree to a
    relative tolerance. A zero operator reports lambda=0, converged.
    """
    if dim < 1:
        raise ConfigError("power iteration needs dim >= 1")
    if v0 is not None and np.linalg.norm(v0) > 0:
        v = np.asarray(v0, dtype=float) / np.linalg.norm(v0)
    else:
        v = stream(seed, "power-iteration").standard_normal(dim)
        v = v / np.linalg.norm(v)
    lam = 0.0
    for k in range(max_iters):
        w = apply(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return PowerResult(0.0, v, True, k + 1)
        lam_new = float(v @ w)
        v = w / nw
        if k > 0 and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return PowerResult(lam_new, v, True, k + 1)
        lam = lam_new
    return PowerResult(lam, v, False, max_iters)


# === directional curvature ==================================================


def lambda_grad(pre, obj, theta, g) -> float:
    """Rayleigh quotient of the preconditioned Hessian along the gradient."""
    g = np.asarray(g, dtype=float)
    gn2 = float(g @ g)
    if gn2 == 0.0:
        raise ZeroGradient("lambda_grad needs a nonzero gradient")
    return float(g @ (pre.diag() * obj.hvp(theta, g))) / gn2


def lambda_grad_weighted(pre, obj, theta, g) -> float:
    """Quotient in the D^(-1) inner product; bounded by lambda_max exactly.

    Used by the oracle suites to validate the symmetrized geometry; the
    trace column carries the Euclidean form above.
    """
    g = np.asarray(g, dtype=float)
    d = pre.diag()
    denom = float(np.sum(g * g / d))
    if denom == 0.0:
        raise ZeroGradient("lambda_grad needs a nonzero gradient")
    return float(g @ obj.hvp(theta, g)) / denom


def sustained_predictor(series, index: int) -> float:
    """Minimum of three consecutive values, centered at index."""
    n = len(series)
    if not 1 <= index <= n - 2:
        raise BoundaryUndefined(f"index {index} has no 3-step neighborhood")
    return float(min(series[index - 1], series[index], series[index + 1]))


# === probe records ==========================================================


@dataclass
class ProbeRecord:
    """Spectral measurements at one step."""

    step: int
    lambda_max_H: float
    lambda_max_Hhat: float
    lambda_grad_Hhat: float  # None when the gradient vanished
    threshold: float  # 2 / eta_t
    power_iters_used: int
    converged: bool


@dataclass
class ProbeWarmStart:
    """Previous dominant eigenvectors, reused to seed the next probe."""

    raw: np.ndarray = None
    pre: np.ndarray = None


def compute_probe(obj, theta, pre, g, eta_t, step, seed, warm,
                  max_iters=PI_MAX_ITERS, tol=PI_TOL) -> ProbeRecord:
    """Full probe at one step; mutates `warm` with the new eigenvectors."""
    probe_seed = stream(seed, "probe", step).integers(0, 2 ** 62)
    raw = power_iteration(lambda w: obj.hvp(theta, w), dim=theta.size,
                          max_iters=max_iters, tol=tol, seed=probe_seed, v0=warm.raw)
    warm.raw = raw.vector
    sq = np.sqrt(pre.diag())
    prec = power_iteration(lambda w: sq * obj.hvp(theta, sq * w), dim=sq.size,
                           max_iters=max_iters, tol=tol, seed=probe_seed, v0=warm.pre)
    warm.pre = prec.vector
    lg = None
    if float(np.dot(g, g)) > 0.0:
        lg = lambda_grad(pre, obj, theta, g)
    return ProbeRecord(
        step=step,
        lambda_max_H=raw.value,
        lambda_max_Hhat=prec.value,
        lambda_grad_Hhat=lg,
        threshold=2.0 / eta_t,
        power_iters_used=prec.iters_used,
        converged=raw.converged and prec.converged,
    )
