"""Value-type contracts: vectors, their norm, hyperparameters, schedules, mitigation."""

import numpy as np
import pytest

from spikelab import AdamHyper, LrSchedule, MitigationPlan, OptimizerState, ParamVector
from spikelab.errors import ConfigError
from spikelab.params import norm

# === norm ===================================================================


@pytest.mark.parametrize("size", [1, 3, 61, 52001])
def test_norm_equals_numpy_norm_bit_for_bit(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    assert norm(x) == np.linalg.norm(x) and type(norm(x)) is float
    block = x[size // 3:size // 3 + size // 2 + 1]  # a parameter block's slice
    assert norm(block) == np.linalg.norm(block)


# === ParamVector ============================================================


def test_default_block_covers_vector():
    p = ParamVector(np.array([1.0, -2.0, 2.0]))
    assert p.blocks == (("theta", 0, 3),)
    assert p.dim == 3


def test_blocks_must_tile_the_vector():
    with pytest.raises(ConfigError):
        ParamVector(np.zeros(3), blocks=(("a", 0, 1), ("b", 2, 1)))
    with pytest.raises(ConfigError):
        ParamVector(np.zeros(3), blocks=(("a", 0, 2),))


def test_with_values_keeps_blocks():
    p = ParamVector(np.zeros(3), blocks=(("a", 0, 2), ("b", 2, 1)))
    q = p.with_values(np.ones(3))
    assert q.blocks == p.blocks
    assert q.values.tolist() == [1.0, 1.0, 1.0]


def test_is_finite_flags_nan():
    assert ParamVector(np.ones(2)).is_finite()
    assert not ParamVector(np.array([1.0, np.nan])).is_finite()


# === AdamHyper ==============================================================


def test_hyper_defaults():
    h = AdamHyper(eta=0.1)
    assert h.beta1 == 0.9 and h.beta2 == 0.999
    assert h.epsilon == 1e-8 and h.bias_correction


def test_beta2_zero_is_legal():
    # memoryless second moment, used by the RMSProp oscillation regime
    assert AdamHyper(eta=0.1, beta2=0.0).beta2 == 0.0


@pytest.mark.parametrize("kwargs", [
    {"eta": 0.0}, {"eta": -1.0},
    {"eta": 0.1, "beta1": 1.0}, {"eta": 0.1, "beta1": -0.1},
    {"eta": 0.1, "beta2": 1.0}, {"eta": 0.1, "beta2": 1.5},
    {"eta": 0.1, "epsilon": -1e-9},
])
def test_hyper_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        AdamHyper(**kwargs)


# === LrSchedule =============================================================


def test_constant_schedule():
    s = LrSchedule()
    assert s.eta_at(0.3, 0) == 0.3
    assert s.eta_at(0.3, 10 ** 6) == 0.3


def test_power_decay_schedule():
    s = LrSchedule(kind="power-decay", alpha=0.5)
    assert s.eta_at(0.2, 0) == pytest.approx(0.2)
    assert s.eta_at(0.2, 3) == pytest.approx(0.1)
    assert s.eta_at(0.2, 3) == 0.2 * float(3 + 1) ** -0.5


@pytest.mark.parametrize("kwargs", [
    {"kind": "exotic"}, {"kind": "power-decay", "alpha": float("nan")},
    {"kind": "power-decay", "alpha": 0.0},
    {"kind": "power-decay", "alpha": 1.0},
])
def test_schedule_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        LrSchedule(**kwargs)


# === MitigationPlan =========================================================


def test_epsilon_bump_switches_at_step():
    plan = MitigationPlan(epsilon_bump=(5, 0.1))
    assert plan.epsilon_at(4, 1e-8) == 1e-8
    assert plan.epsilon_at(5, 1e-8) == 0.1
    assert plan.epsilon_at(6, 1e-8) == 0.1


def test_plan_rejects_bad_values():
    with pytest.raises(ConfigError):
        MitigationPlan(epsilon_bump=(-1, 0.1))
    with pytest.raises(ConfigError):
        MitigationPlan(epsilon_bump=(0, -0.1))
    with pytest.raises(ConfigError):
        MitigationPlan(v_floor=-0.01)


def test_bump_coerces_types():
    plan = MitigationPlan(epsilon_bump=(3.0, 1))
    assert plan.epsilon_bump == (3, 1.0)
    assert isinstance(plan.epsilon_bump[0], int)


# === OptimizerState =========================================================


def test_fresh_state_zeroed():
    st = OptimizerState.fresh("adam", 4)
    assert st.kind == "adam" and st.t == 0
    assert st.m.shape == (4,) and not st.m.any()
    assert st.v.shape == (4,) and not st.v.any()
