"""Update rules against hand-computed values, plus run-loop semantics."""

import math
import tracemalloc

import numpy as np
import pytest

from spikelab import (AdamHyper, FnnObjective, FnnTaskSpec, LrSchedule,
                      MitigationPlan, OptimizerState, ParamVector, Preconditioner,
                      ProbePlan, QuadraticObjective, QuadraticSpec, build_scenario,
                      make_quadratic, optimizers, preset_config, run, step_adafactor,
                      step_adagrad, step_adam, step_gd, step_heavy_ball, step_rmsprop)
from spikelab.errors import ConfigError, DivergedRun
from spikelab.optimizers import OPTIMIZER_KINDS, RULES, _bind, _floored
from spikelab.params import CONSTANT_LR


STEPS = {"gd": step_gd, "heavy-ball": step_heavy_ball, "adam": step_adam,
         "rmsprop": step_rmsprop, "adagrad": step_adagrad, "adafactor": step_adafactor}


def quad1():
    return make_quadratic(QuadraticSpec(eigenvalues=(1.0,)))


def start(kind, theta0=1.0):
    p = ParamVector(np.array([theta0]))
    return p, OptimizerState.fresh(kind, p.dim)


# === hand-frozen single steps ===============================================


def test_adam_two_steps_frozen():
    obj = quad1()
    th, st = start("adam")
    h = AdamHyper(eta=0.1, beta1=0.9, beta2=0.999)
    th, st, r0 = step_adam(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.9000000009999999, rel=1e-15)
    assert r0.step == 0 and st.t == 1
    assert r0.grad_norm == pytest.approx(1.0)
    assert r0.vhat_norm_total == pytest.approx(1.0, rel=1e-12)
    assert r0.eta_t == 0.1
    assert r0.loss == pytest.approx(obj.loss(th.values))
    th, st, r1 = step_adam(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.8004122297123379, rel=1e-14)
    assert r1.vhat_norm_total == pytest.approx(math.sqrt(0.9049524771385814), rel=1e-12)


def test_gd_step_exact():
    obj = quad1()
    th, st = start("gd")
    th, st, rec = step_gd(obj, th, st, AdamHyper(eta=0.1))
    assert th.values[0] == pytest.approx(0.9, rel=1e-15)
    assert rec.vhat_norm_total is None


def test_heavy_ball_two_steps_frozen():
    obj = quad1()
    th, st = start("heavy-ball")
    h = AdamHyper(eta=0.1, beta1=0.5)
    th, st, _ = step_heavy_ball(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.95, rel=1e-15)
    th, st, _ = step_heavy_ball(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.8775, rel=1e-15)


def test_rmsprop_two_steps_frozen():
    obj = quad1()
    th, st = start("rmsprop")
    h = AdamHyper(eta=0.1, beta2=0.5, epsilon=0.0)
    th, st, _ = step_rmsprop(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.8585786437626906, rel=1e-14)
    th, st, _ = step_rmsprop(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.749413844466706, rel=1e-14)


def test_adagrad_accumulates_squares():
    obj = quad1()
    th, st = start("adagrad")
    h = AdamHyper(eta=0.5, epsilon=0.0)
    th, st, _ = step_adagrad(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.5, rel=1e-15)
    th, st, _ = step_adagrad(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.27639320225002106, rel=1e-14)
    assert st.v[0] == pytest.approx(1.25)


def test_adafactor_two_steps_frozen():
    obj = quad1()
    th, st = start("adafactor")
    h = AdamHyper(eta=0.1, beta2=0.5)
    th, st, _ = step_adafactor(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.9, rel=1e-14)
    th, st, _ = step_adafactor(obj, th, st, h)
    assert th.values[0] == pytest.approx(0.81, rel=1e-14)


# === mitigation hooks =======================================================


def test_v_floor_clips_raw_second_moment():
    obj = quad1()
    th, st = start("adam")
    h = AdamHyper(eta=0.1, beta1=0.9, beta2=0.999, bias_correction=False)
    plan = MitigationPlan(v_floor=1.0)
    th, st, _ = step_adam(obj, th, st, h, plan=plan)
    assert st.v[0] == 1.0
    assert th.values[0] == pytest.approx(0.9900000001, rel=1e-14)


def test_epsilon_bump_kicks_in_mid_run():
    obj = quad1()
    th, st = start("rmsprop")
    h = AdamHyper(eta=0.1, beta2=0.5, epsilon=0.0)
    plan = MitigationPlan(epsilon_bump=(1, 0.5))
    th, st, _ = step_rmsprop(obj, th, st, h, plan=plan)
    assert th.values[0] == pytest.approx(0.8585786437626906, rel=1e-14)
    th, st, _ = step_rmsprop(obj, th, st, h, plan=plan)
    assert th.values[0] == pytest.approx(0.7918409699357735, rel=1e-14)


def test_schedule_decays_eta():
    obj = quad1()
    th, st = start("gd")
    h = AdamHyper(eta=0.2)
    sched = LrSchedule(kind="power-decay", alpha=0.5)
    etas, thetas = [], []
    for _ in range(3):
        th, st, rec = step_gd(obj, th, st, h, sched=sched)
        etas.append(rec.eta_t)
        thetas.append(th.values[0])
    assert etas == pytest.approx([0.2, 0.14142135623730953, 0.11547005383792515])
    assert thetas == pytest.approx([0.8, 0.6868629150101524, 0.6075508172346559])


def test_run_reads_eta_from_hyper_and_decay_from_schedule():
    # eta has one source, AdamHyper; the schedule holds only the decay law
    obj = quad1()
    theta0 = obj.initial_point((1.0,))
    trace = run(obj, theta0, "adam", AdamHyper(eta=0.2),
                sched=LrSchedule("power-decay", alpha=0.5), n_steps=5)
    assert trace.eta_t.tolist() == [0.2 * float(t + 1) ** -0.5 for t in range(5)]
    constant = run(obj, theta0, "adam", AdamHyper(eta=0.2), n_steps=5)
    assert constant.eta_t.tolist() == [0.2] * 5


# === probed preconditioner ==================================================


def _rms(x):
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _hand_scale(kind, h, t, theta):
    c = (1.0 - h.beta1) / (1.0 + h.beta1)
    return {"gd": 1.0, "heavy-ball": c,
            "adam": c / (1.0 - h.beta1 ** t) if h.bias_correction else c,
            "rmsprop": 1.0, "adagrad": 1.0,
            "adafactor": max(1e-3, _rms(theta))}[kind]


def _hand_step(kind, h, t, theta, g, m, denom):
    """theta_{t+1} from theta_t, the step direction and the probed denominator."""
    if kind == "adafactor":
        u = g / denom
        u = u / max(1.0, _rms(u))  # the RMS clip, which D_t leaves out
        return theta - (h.eta * max(1e-3, _rms(theta))) * u
    d = m if kind in ("heavy-ball", "adam") else g
    if kind == "adam" and h.bias_correction:
        d = d / (1.0 - h.beta1 ** t)
    return theta - h.eta * d / denom


NO_PLAN = MitigationPlan()
PLANS = {"none": NO_PLAN, "v_floor": MitigationPlan(v_floor=0.5),
         "epsilon_bump": MitigationPlan(epsilon_bump=(1, 0.5))}
CASES = [(kind, plan, True) for kind in OPTIMIZER_KINDS for plan in PLANS]
CASES += [("adam", plan, False) for plan in PLANS]


@pytest.mark.parametrize("kind,plan,bias_correction", CASES)
def test_probed_preconditioner_is_the_applied_one(kind, plan, bias_correction):
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 4.0, 10.0)))
    theta = np.array([1.0, -0.5, 0.25])
    state = OptimizerState.fresh(kind, 3)
    h = AdamHyper(eta=0.05, beta1=0.9, beta2=0.99, bias_correction=bias_correction)
    advance = _bind(kind, h, LrSchedule(), PLANS[plan], state.m, state.v)  # in place
    for t in range(1, 4):
        g = obj.gradient(theta)
        theta_new, _, *fields = advance(theta, g, t - 1)
        pre = Preconditioner(*fields)
        denom = 1.0 if pre.root is None else pre.root + pre.epsilon  # as pre.diag() divides
        rebuilt = _hand_step(kind, h, t, theta, g, state.m, denom)
        assert np.array_equal(rebuilt, theta_new)
        assert pre.scale == pytest.approx(_hand_scale(kind, h, t, theta), rel=1e-15)
        theta = theta_new


class _LastLoss:
    """An objective that keeps the point of its last loss call: run's last
    call is the loss at its final theta."""

    def loss(self, theta):
        self.point = theta
        return super().loss(theta)


class _LastLossQuadratic(_LastLoss, QuadraticObjective):
    pass


class _LastLossFnn(_LastLoss, FnnObjective):
    pass


# one setting per plan under the default hyper and schedule, and two that
# change one of them
SETTINGS = {plan: (True, CONSTANT_LR, PLANS[plan]) for plan in PLANS}
SETTINGS["no-bias-correction"] = (False, CONSTANT_LR, PLANS["none"])
SETTINGS["power-decay"] = (True, LrSchedule("power-decay", alpha=0.5), PLANS["none"])

# (objective factory, initial_point args) by test-id suffix: d=3 and d=1
# quadratics (one block), and a width-3 FNN on 8 samples whose v_hat rows
# carry four blocks (W1, b1, W2, b2)
SHAPES = {
    "": (lambda: _LastLossQuadratic(QuadraticSpec(eigenvalues=(1.0, 4.0, 10.0))),
         ((1.0, -0.5, 0.25),)),
    "-d1": (lambda: _LastLossQuadratic(QuadraticSpec(eigenvalues=(3.0,))), ((0.7,),)),
    "-4blocks": (lambda: _LastLossFnn(FnnTaskSpec(input_dim=1, width=3, n_samples=8,
                                                  target="sine-mix", seed=0)), ()),
}


@pytest.mark.parametrize("kind,setting,shape", [
    pytest.param(kind, setting, shape, id=f"{kind}-{setting}{shape}")
    for kind in OPTIMIZER_KINDS for setting in SETTINGS for shape in SHAPES])
def test_steps_match_run_columns_bit_for_bit(kind, setting, shape):
    # step_<kind> and the run loop share the binder, _vhat_norms and the
    # divergence rule, so k steps give run(n_steps=k)'s columns exactly. At
    # d=1 run steps Python floats and step_<kind> one-element arrays.
    bias_correction, sched, plan = SETTINGS[setting]
    make, point = SHAPES[shape]
    obj = make()
    theta0 = obj.initial_point(*point)
    h = AdamHyper(eta=0.05, beta1=0.9, beta2=0.99, bias_correction=bias_correction)
    k = 6
    trace = run(obj, theta0, kind, h, sched=sched, plan=plan, n_steps=k)
    assert trace.status == "completed"
    final = obj.point
    assert isinstance(final, float) == (theta0.dim == 1)  # the float path is run's at d=1
    assert trace.vhat is None or trace.vhat.shape == (k, 1 + len(theta0.blocks))
    th, st = theta0, OptimizerState.fresh(kind, theta0.dim)
    for i in range(k):
        th, st, rec = STEPS[kind](obj, th, st, h, sched=sched, plan=plan)
        assert rec.grad_norm == trace.grad_norm[i] and rec.eta_t == trace.eta_t[i]
        if trace.vhat is None:
            assert rec.vhat_norm_total is None and rec.vhat_norm_blocks == ()
        else:
            assert (rec.vhat_norm_total, *rec.vhat_norm_blocks) == tuple(trace.vhat[i])
    # both take the last loss in loss's order; the others run takes from
    # loss_and_gradient, whose order may round apart
    assert rec.loss == trace.loss[-1]
    assert np.array_equal(th.values, np.atleast_1d(final))


@pytest.mark.parametrize("dim", (1, 3))
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_run_builds_a_preconditioner_per_probe_only(kind, dim, monkeypatch):
    # a step returns its D_t's fields; run builds the Preconditioner only on
    # the steps it probes
    built = []

    def counted(*fields):
        built.append(fields)
        return Preconditioner(*fields)

    monkeypatch.setattr(optimizers, "Preconditioner", counted)
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 4.0, 10.0)[:dim]))
    for every, taken in ((3, 4), (4, 3), (1, 10), (0, 0)):  # 10 steps
        built.clear()
        trace = run(obj, obj.initial_point(0.7), kind, AdamHyper(eta=0.05), n_steps=10,
                    probes=ProbePlan(every=every))
        assert trace.status == "completed" and trace.probes.size == taken
        assert len(built) == taken


@pytest.mark.parametrize("preset,n_steps", [("figD9-adagrad", 20_000), ("fig2a", 4_000)])
def test_run_allocates_its_columns_and_little_more(preset, n_steps):
    # per-step Python lists or kept row tuples would add tens of bytes a step
    sc = build_scenario({**preset_config(preset), "n_steps": n_steps})

    def once():
        return run(sc.objective, sc.theta0, sc.kind, sc.hyper, sched=sc.sched, plan=sc.plan,
                   n_steps=sc.n_steps, probes=sc.probes, seed=sc.seed, config_echo=sc.flat)

    once()  # first calls load what they load once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = once()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert trace.status == "completed" and len(trace) == n_steps
    columns = sum(_stored_bytes(c) for c in (trace.loss, trace.grad_norm, trace.eta_t,
                                             trace.vhat, trace.probes) if c is not None)
    assert peak <= columns + 64 * 1024


def _stored_bytes(column):
    """Bytes a column stores: a zero-stride axis of a broadcast view stores
    one entry, not one per index."""
    return column[tuple(slice(0, 1) if s == 0 else slice(None) for s in column.strides)].nbytes


def _quad_run(dim, sched=CONSTANT_LR, n_steps=50, kind="adam"):
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 4.0, 10.0)[:dim]))
    return run(obj, obj.initial_point(0.7), kind, AdamHyper(eta=0.05), sched=sched,
               n_steps=n_steps)


@pytest.mark.parametrize("dim", (1, 3))
def test_constant_eta_is_one_read_only_cell(dim):
    trace = _quad_run(dim)
    assert trace.eta_t.strides == (0,) and not trace.eta_t.flags.writeable
    assert trace.eta_t.shape == (50,) and np.all(trace.eta_t == 0.05)
    with pytest.raises(ValueError):
        trace.eta_t[0] = 1.0


@pytest.mark.parametrize("dim", (1, 3))
def test_power_decay_keeps_a_per_step_eta_column(dim):
    sched = LrSchedule("power-decay", 0.5)
    trace = _quad_run(dim, sched)
    assert trace.eta_t.strides == (8,) and trace.eta_t.flags.writeable
    assert trace.eta_t.tolist() == [sched.eta_at(0.05, t) for t in range(50)]


@pytest.mark.parametrize("dim", (1, 3))
def test_one_block_vhat_columns_share_one_column(dim):
    # one block: the total and the block norm are one stored column
    trace = _quad_run(dim)
    total, block = trace.vhat.T
    assert np.shares_memory(total, block) and trace.vhat.strides == (8, 0)
    assert _stored_bytes(trace.vhat) == 50 * 8 and _stored_bytes(trace.eta_t) == 8
    assert not trace.vhat.flags.writeable


def test_block_vhat_columns_and_diverged_views_keep_their_rows():
    fnn = build_scenario(preset_config("fig5-adam"))
    trace = run(fnn.objective, fnn.theta0, "adam", fnn.hyper, n_steps=5)
    assert trace.vhat.shape == (5, 1 + len(fnn.theta0.blocks)) and trace.vhat.flags.writeable
    # a run that diverges ends its views at the diverged step
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1e100,)))
    trace = run(obj, obj.initial_point(1e60), "rmsprop", AdamHyper(eta=0.1), n_steps=5)
    assert trace.status == "diverged" and trace.eta_t.shape == (1,) and trace.vhat.shape == (1, 2)
    assert trace.eta_t.strides == (0,) and np.shares_memory(trace.vhat[:, 0], trace.vhat[:, 1])


# === guards =================================================================


def test_state_kind_must_match():
    obj = quad1()
    th, st = start("gd")
    with pytest.raises(ConfigError):
        step_adam(obj, th, st, AdamHyper(eta=0.1))


def test_state_buffers_must_match_dim():
    obj = quad1()
    th = ParamVector(np.array([1.0]))
    st = OptimizerState.fresh("adam", 2)
    with pytest.raises(ConfigError):
        step_adam(obj, th, st, AdamHyper(eta=0.1))


def test_step_raises_on_nonfinite_update():
    obj = quad1()
    th = ParamVector(np.array([1e150]))
    st = OptimizerState.fresh("gd", 1)
    with pytest.raises(DivergedRun):
        step_gd(obj, th, st, AdamHyper(eta=1e200))


def test_step_raises_beyond_the_divergence_limit():
    # finite but beyond DIVERGE_LIMIT: run ends here too (see
    # test_run_beyond_the_divergence_limit_ends_unprobed)
    obj = quad1()
    th, st = start("gd", 1e149)
    with pytest.raises(DivergedRun):
        step_gd(obj, th, st, AdamHyper(eta=20.0))


def test_step_raises_on_nonfinite_second_moment():
    # the single step applies the run loop's rule (see
    # test_run_nonfinite_second_moment_diverges): theta frozen under an inf
    # v_hat is a divergence, not a step that left theta where it was
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1e10,)))
    th, st = start("adam", 1e145)
    with pytest.raises(DivergedRun, match="v_hat"):
        step_adam(obj, th, st, AdamHyper(eta=0.01, beta1=0.9, beta2=0.99))


# === run loop ===============================================================


def test_run_records_and_backfill():
    obj = quad1()
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.1), n_steps=4)
    assert trace.status == "completed"
    assert trace.initial_loss == pytest.approx(0.5)
    assert len(trace.records) == 4
    # record i carries the loss after its own step
    for i, rec in enumerate(trace.records):
        theta_after = 0.9 ** (i + 1)
        assert rec.loss == pytest.approx(0.5 * theta_after ** 2, rel=1e-12)
        assert rec.step == i


def test_run_probe_cadence():
    obj = quad1()
    trace = run(obj, obj.initial_point(1.0), "adam", AdamHyper(eta=0.1),
                n_steps=7, probes=ProbePlan(every=3))
    probed = [r.step for r in trace.records if r.probe is not None]
    assert probed == [0, 3, 6]
    assert trace.records[0].probe.threshold == pytest.approx(20.0)


def test_run_config_echo_defaults():
    obj = quad1()
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.1), n_steps=1)
    assert trace.config["optimizer.kind"] == "gd"
    assert trace.config["objective.kind"] == "quadratic"
    echoed = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.1),
                 n_steps=1, config_echo={"optimizer.kind": "custom"})
    assert echoed.config["optimizer.kind"] == "custom"


def test_run_flags_divergence():
    obj = quad1()
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=2.5), n_steps=900)
    assert trace.status == "diverged"
    # the trace ends at the diverged step, whose loss is inf
    assert trace.records[-1].loss == math.inf
    assert len(trace.records) < 900
    assert np.all(np.isfinite(trace.losses()[:-1]))


def test_run_nonfinite_step_diverges_without_probing():
    # fig2a's adam with epsilon=0; the second coordinate starts at its
    # minimum, so v_hat is 0 there, the first step is 0/0 and D_t is infinite
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 2.0), offset=(0.0, 1.0)))
    h = AdamHyper(eta=0.01, beta1=0.9, beta2=0.99, epsilon=0.0)
    for every in (1, 0):
        trace = run(obj, obj.initial_point((1.0, 1.0)), "adam", h, n_steps=50,
                    probes=ProbePlan(every=every))
        assert trace.status == "diverged"
        assert len(trace.records) == 1
        last = trace.records[0]
        assert last.loss == math.inf and last.probe is None


def test_run_nonfinite_second_moment_diverges():
    # g = 1e155 squares to inf: v_hat is inf, the step divides by it and
    # theta freezes, and D_t is 0; the run must end, not probe or carry on
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1e10,)))
    h = AdamHyper(eta=0.01, beta1=0.9, beta2=0.99)
    for every in (1, 0):
        trace = run(obj, obj.initial_point(1e145), "adam", h, n_steps=5,
                    probes=ProbePlan(every=every))
        assert trace.status == "diverged"
        assert len(trace.records) == 1
        last = trace.records[0]
        assert last.loss == math.inf and last.probe is None
        assert last.vhat_norm_total == math.inf


def test_run_beyond_the_divergence_limit_ends_unprobed():
    # theta' = -19 * 1e149 is finite but beyond DIVERGE_LIMIT: the step
    # diverges before its probe, as every diverged step does
    obj = quad1()
    trace = run(obj, obj.initial_point(1e149), "gd", AdamHyper(eta=20.0),
                n_steps=5, probes=ProbePlan(every=1))
    assert trace.status == "diverged"
    assert len(trace.records) == 1 and trace.probes.size == 0
    assert trace.records[0].loss == math.inf


# One-parameter runs whose first step meets what Python float arithmetic
# refuses and numpy returns as inf or NaN under run's errstate: 0/0 and x/0
# (ZeroDivisionError) and g*g past the largest float (g ** 2 would raise
# OverflowError), and a NaN v floor. Each diverges after one step, as the
# array steps do: (kind, lam, theta0, hyper, plan, |g|, vhat norm).
FLOAT_EDGES = {
    "0/0-rmsprop": ("rmsprop", 1.0, 0.0, {"epsilon": 0.0}, NO_PLAN, 0.0, 0.0),
    "0/0-adagrad": ("adagrad", 1.0, 0.0, {"epsilon": 0.0}, NO_PLAN, 0.0, 0.0),
    "0/0-adam": ("adam", 1.0, 0.0, {"epsilon": 0.0}, NO_PLAN, 0.0, 0.0),
    "x/0-rmsprop": ("rmsprop", 1.0, 1e-170, {"epsilon": 0.0}, NO_PLAN, 0.0, 0.0),
    "square-overflow-rmsprop": ("rmsprop", 1e100, 1e60, {}, NO_PLAN, math.inf, math.inf),
    "square-overflow-adafactor": ("adafactor", 1e100, 1e60, {}, NO_PLAN, math.inf, math.inf),
    "nan-floor": ("adam", 1.0, 1.0, {}, MitigationPlan(v_floor=math.nan), 1.0, math.nan),
}


@pytest.mark.parametrize("case", FLOAT_EDGES)
def test_one_parameter_runs_diverge_where_numpy_gives_inf_or_nan(case):
    kind, lam, theta0, hyper, plan, gnorm, vnorm = FLOAT_EDGES[case]
    obj = make_quadratic(QuadraticSpec(eigenvalues=(lam,)))
    h = AdamHyper(eta=0.1, **hyper)
    for every in (1, 0):
        trace = run(obj, obj.initial_point(theta0), kind, h, plan=plan, n_steps=5,
                    probes=ProbePlan(every=every))
        assert trace.status == "diverged" and len(trace) == 1 and trace.probes.size == 0
        assert trace.loss[0] == math.inf and trace.grad_norm[0] == gnorm
        np.testing.assert_array_equal(trace.vhat[0], [vnorm, vnorm])
    th, st = start(kind, theta0)
    with pytest.raises(DivergedRun):
        STEPS[kind](obj, th, st, h, plan=plan)


@pytest.mark.parametrize("x", [-1.0, -math.inf, -0.0, 0.0, 5e-324, 2.0, math.inf, math.nan])
@pytest.mark.parametrize("floor", [0.0, -0.0, 1.0, math.nan])
def test_float_calls_give_one_element_array_bits(x, floor):
    # the v floor on a float, against numpy on [x]: numpy keeps the floor on
    # a tie and keeps a NaN
    arr = np.array([x])
    with np.errstate(all="ignore"):
        got = _floored(x, floor)
        assert isinstance(got, float)
        assert np.array([got]).tobytes() == np.maximum(arr, floor).tobytes()
    assert _floored(arr, floor) is arr  # an array is floored in place


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


EDGE_GRADIENTS = (0.0, -0.0, 5e-324, -5e-324, 2.0, -2.0, 1e200, math.inf, -math.inf,
                  math.nan)


@pytest.mark.parametrize("floor", [None, 0.0, -0.0, 1.0, math.nan])
@pytest.mark.parametrize("kind", [k for k in OPTIMIZER_KINDS if RULES[k].v != "none"])
def test_binder_steps_floats_with_one_element_array_bits(kind, floor):
    # a float state binds math.sqrt, float division and an RMS divisor of
    # 1.0; on edge gradients (zero denominators, overflowing squares, inf and
    # NaN) none of them may raise or move a bit against one-element arrays,
    # and v never goes below -0.0, so math.sqrt has nothing to refuse
    plan = MitigationPlan(v_floor=floor)
    for epsilon in (1e-8, 0.0):
        h = AdamHyper(eta=0.1, epsilon=epsilon)
        for g in EDGE_GRADIENTS:
            on_float = _bind(kind, h, CONSTANT_LR, plan, 0.0, 0.0)
            on_array = _bind(kind, h, CONSTANT_LR, plan, np.zeros(1), np.zeros(1))
            theta, theta_arr = 1.0, np.array([1.0])
            with np.errstate(all="ignore"):
                for t in range(3):
                    got = on_float(theta, g, t)
                    want = on_array(theta_arr, np.array([g]), t)
                    assert all(type(x) is float for x in got)  # not numpy scalars
                    assert [_bits(x) for x in got] == [_bits(x) for x in want]
                    v = dict(zip(on_float.__code__.co_freevars, on_float.__closure__))["v"]
                    assert not v.cell_contents < 0.0  # so neither is v / (1 - beta2^(t+1))
                    theta, theta_arr = got[0], want[0]


def test_run_overflowing_start_diverges_at_step_zero():
    obj = quad1()
    trace = run(obj, obj.initial_point(1e200), "adam", AdamHyper(eta=0.1), n_steps=5)
    assert trace.status == "diverged"
    assert len(trace.records) == 0 and trace.initial_loss == math.inf


def test_run_adafactor_overflowing_rms_diverges():
    # tanh saturates, so loss and gradient stay finite, but rms(theta)
    # overflows: the step's scale is inf and theta' is not finite
    obj = FnnObjective(FnnTaskSpec(input_dim=1, width=4, n_samples=10,
                                   target="sine-mix", seed=0))
    theta0 = obj.initial_point()
    theta0.values[:3] = 1e200  # W1 comes first
    assert math.isfinite(obj.loss(theta0.values))
    assert np.all(np.isfinite(obj.gradient(theta0.values)))
    for every in (1, 0):
        trace = run(obj, theta0, "adafactor", AdamHyper(eta=0.01), n_steps=5,
                    probes=ProbePlan(every=every))
        assert trace.status == "diverged"
        assert len(trace.records) == 1 and trace.probes.size == 0


def test_run_validates_inputs():
    obj = quad1()
    with pytest.raises(ConfigError):
        run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.1), n_steps=0)
    with pytest.raises(ConfigError):
        run(obj, obj.initial_point(1.0), "sgd", AdamHyper(eta=0.1), n_steps=1)
    with pytest.raises(ConfigError):
        run(obj, ParamVector(np.array([np.nan])), "gd", AdamHyper(eta=0.1),
            n_steps=1)


def test_every_kind_runs():
    obj = quad1()
    for kind in OPTIMIZER_KINDS:
        trace = run(obj, obj.initial_point(1.0), kind, AdamHyper(eta=0.05),
                    n_steps=3)
        assert trace.status == "completed"
        assert len(trace.records) == 3
