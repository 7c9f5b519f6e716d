"""Spectral probes: preconditioned-Hessian eigenvalues and directional curvature.

The preconditioned Hessian is D_t H_t with D_t = c_t diag(1/(sqrt(v_hat)+eps)).
Its dominant eigenvalue is computed by power iteration on the symmetric
similar operator D^(1/2) H D^(1/2), which shares the spectrum and keeps the
Rayleigh estimates monotone-friendly. The directional curvature is the
Euclidean Rayleigh quotient of D H along the gradient.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundaryUndefined, ConfigError, ZeroGradient
from .params import norm
from .rngs import stream

PI_MAX_ITERS = 100
PI_TOL = 1e-6

# === preconditioner =========================================================


@dataclass(frozen=True)
class Preconditioner:
    """Diagonal scaling D = scale * diag(1/(root+epsilon)), root = sqrt(v_hat).

    root + epsilon is the denominator the step divided by (root is None, and
    D the scalar scale, without a second moment), and scale the scalar it
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

    def diag(self) -> np.ndarray:
        """D's diagonal (a scalar when root is None), positive and finite."""
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("preconditioner scale must be positive and finite")
        d = self.scale / (1.0 if self.root is None else self.root + self.epsilon)
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


def _usable(v0) -> bool:
    """Whether a warm vector can start power iteration."""
    return v0 is not None and norm(v0) > 0


def power_iteration(apply, v0, max_iters=PI_MAX_ITERS, tol=PI_TOL) -> PowerResult:
    """Dominant eigenvalue of a linear operator via normalized iteration from v0.

    Convergence is declared when successive Rayleigh estimates agree to a
    relative tolerance. A zero operator reports lambda=0, converged.
    """
    v = np.asarray(v0, dtype=float)
    n0 = norm(v) if v.ndim == 1 else 0.0
    if not n0 > 0:
        raise ConfigError("power iteration needs a nonzero start vector")
    v = v / n0
    lam = 0.0
    for k in range(max_iters):
        w = apply(v)
        nw = norm(w)
        if nw == 0.0:
            return PowerResult(0.0, v, True, k + 1)
        lam_new = float(v @ w)
        v = w / nw
        if k > 0 and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return PowerResult(lam_new, v, True, k + 1)
        lam = lam_new
    return PowerResult(lam, v, False, max_iters)


# === directional curvature ==================================================


def lambda_grad(d, hvp, g) -> float:
    """Rayleigh quotient of diag(d) H along the gradient; hvp(v) = H v."""
    g = np.asarray(g, dtype=float)
    gn2 = float(g @ g)
    if gn2 == 0.0:
        raise ZeroGradient("lambda_grad needs a nonzero gradient")
    return float(g @ (d * hvp(g))) / gn2


def sustained_predictor(series, index: int) -> float:
    """Minimum of three consecutive values, centered at index."""
    n = len(series)
    if not 1 <= index <= n - 2:
        raise BoundaryUndefined(f"index {index} has no 3-step neighborhood")
    return float(min(series[index - 1], series[index], series[index + 1]))


# === probe records ==========================================================


class ProbeRecord(NamedTuple):
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
    """Full probe at one step; mutates `warm` with the new eigenvectors.

    Every HVP of the probe goes through one obj.hvp_at(theta) closure, and
    one cold start is drawn only when a warm vector is missing, for either
    iteration that lacks one.
    """
    hvp = obj.hvp_at(theta)
    cold = None
    if not (_usable(warm.raw) and _usable(warm.pre)):
        cold = stream(stream(seed, "probe", step).integers(0, 2 ** 62),
                      "power-iteration").standard_normal(theta.size)
    raw = power_iteration(hvp, warm.raw if _usable(warm.raw) else cold, max_iters, tol)
    warm.raw = raw.vector
    d = pre.diag()
    sq = np.sqrt(d)
    prec = power_iteration(lambda w: sq * hvp(sq * w),
                           warm.pre if _usable(warm.pre) else cold, max_iters, tol)
    warm.pre = prec.vector
    lg = None
    if float(np.dot(g, g)) > 0.0:
        lg = lambda_grad(d, hvp, g)
    return ProbeRecord(
        step=step,
        lambda_max_H=raw.value,
        lambda_max_Hhat=prec.value,
        lambda_grad_Hhat=lg,
        threshold=2.0 / eta_t,
        power_iters_used=prec.iters_used,
        converged=raw.converged and prec.converged,
    )
