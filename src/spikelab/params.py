"""Core value types: labeled parameter vectors and optimizer configuration."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# === parameter vectors =====================================================

Blocks = tuple  # of (name, offset, length)


def norm(x) -> float:
    """Euclidean norm of a 1-D float array as sqrt(x.dot(x)): for a contiguous
    one, the bits np.linalg.norm computes, without its wrapper's cost. A
    Python float x, the run loop's one-parameter state, gives sqrt(x * x),
    the bits of a one-element array's dot. Every norm outside oracles.py goes
    through it."""
    if isinstance(x, float):
        return math.sqrt(x * x)
    return math.sqrt(x.dot(x))


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat real vector with named block ranges for per-block norms.

    The same shape carries theta, gradients, and moment buffers. Blocks must
    partition [0, n) without overlap.
    """

    values: np.ndarray
    blocks: Blocks = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", vals)
        if not self.blocks:
            object.__setattr__(self, "blocks", (("theta", 0, vals.size),))
        cover = 0
        for name, off, length in self.blocks:
            if off != cover or length < 0:
                raise ConfigError(f"blocks must tile [0, n): bad block {name!r}")
            cover += length
        if cover != vals.size:
            raise ConfigError("blocks do not cover the full vector")

    @property
    def dim(self) -> int:
        return self.values.size

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values=values, blocks=self.blocks)


# === optimizer configuration ===============================================


@dataclass(frozen=True)
class AdamHyper:
    """Adam-family hyperparameters. epsilon sits outside the square root."""

    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    bias_correction: bool = True

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError("eta must be > 0")
        if not 0.0 <= self.beta1 < 1.0:
            raise ConfigError("beta1 must lie in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("beta2 must lie in [0, 1)")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")


@dataclass(frozen=True)
class LrSchedule:
    """Decay law of the learning rate: eta_t = eta (constant) or
    eta * (t+1)^(-alpha) (power-decay). eta itself is AdamHyper's."""

    kind: str = "constant"
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "power-decay"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "power-decay" and not 0.0 < self.alpha < 1.0:
            raise ConfigError("power-decay needs alpha in (0, 1)")

    def eta_at(self, eta: float, t: int) -> float:
        if self.kind == "constant":
            return eta
        return eta * float(t + 1) ** (-self.alpha)


CONSTANT_LR = LrSchedule()


@dataclass(frozen=True)
class MitigationPlan:
    """Optional interventions: a one-time epsilon bump and a v floor."""

    epsilon_bump: tuple = None  # (at_step, new_epsilon)
    v_floor: float = None

    def __post_init__(self):
        if self.epsilon_bump is not None:
            at_step, new_eps = self.epsilon_bump
            if at_step < 0 or new_eps < 0:
                raise ConfigError("epsilon_bump needs at_step >= 0 and new_epsilon >= 0")
            object.__setattr__(self, "epsilon_bump", (int(at_step), float(new_eps)))
        if self.v_floor is not None and self.v_floor < 0:
            raise ConfigError("v_floor must be >= 0")

    def epsilon_at(self, t: int, default_epsilon: float) -> float:
        """Effective epsilon for the step taken at time t."""
        if self.epsilon_bump is not None and t >= self.epsilon_bump[0]:
            return self.epsilon_bump[1]
        return default_epsilon


NO_MITIGATION = MitigationPlan()


@dataclass
class OptimizerState:
    """Moment buffers and step counter for one optimizer instance."""

    kind: str
    t: int
    m: np.ndarray
    v: np.ndarray

    @staticmethod
    def fresh(kind: str, dim: int) -> "OptimizerState":
        return OptimizerState(kind=kind, t=0, m=np.zeros(dim), v=np.zeros(dim))
