"""Config parsing, presets, and scenario construction."""

import hashlib
import json

import numpy as np
import pytest

from spikelab import PRESETS, build_scenario, load_config_file, preset_config
from spikelab.cli import VERIFIERS
from spikelab.errors import ConfigError
from spikelab.harness import _child_id
from spikelab.scenarios import (MAX_STEPS, AnalysisPlan, apply_overrides, parse_scalar,
                                read_floats)

# === scalar and file parsing ================================================


@pytest.mark.parametrize("text,expected", [
    ("true", True), ("False", False), ("42", 42), ("-3", -3),
    ("0.15", 0.15), ("1e-8", 1e-8), ("adam", "adam"),
    ("  0.5 ", 0.5), ("1.0,2.0", "1.0,2.0"),
])
def test_parse_scalar(text, expected):
    value = parse_scalar(text)
    assert value == expected
    assert type(value) is type(expected)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "optimizer.kind = adam   # trailing comment\n"
        "\n"
        "optimizer.eta = 0.15\n"
        "n_steps = 2000\n")
    flat = load_config_file(path)
    assert flat == {"optimizer.kind": "adam", "optimizer.eta": 0.15,
                    "n_steps": 2000}


def test_load_config_file_reports_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_steps = 5\njust words\n")
    with pytest.raises(ConfigError, match="2"):
        load_config_file(path)


def test_load_config_file_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("optimizer.eta = 0.1\nn_steps = 5\noptimizer.eta=0.2  # again\n")
    with pytest.raises(ConfigError, match=r"twice.cfg:3: optimizer.eta is set again "
                                          r"\(first on line 1\)"):
        load_config_file(path)


def test_apply_overrides():
    out = apply_overrides({"a": 1}, ["a=2", "optimizer.eta=0.5"])
    assert out == {"a": 2, "optimizer.eta": 0.5}
    # an override may repeat a key: the last one wins
    assert apply_overrides({}, ["a = 1", "a=true"]) == {"a": True}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])


@pytest.mark.parametrize("key,value", [
    ("n_steps", 2.5), ("probes.every", 2.7), ("analysis.window", True),
    ("optimizer.bias_correction", "no"), ("analysis.segment", 1),
    ("seed", "3"), ("n_steps", float("inf")),
    ("optimizer.eta", True), ("optimizer.eta", float("inf")),
    ("analysis.rho", float("inf")), ("probes.tol", True),
    ("plan.v_floor", float("nan")),
    ("theta0", True), ("objective.eigenvalues", True),
    ("objective.offset", float("nan")), ("theta0", "1.0,abc"),
])
def test_build_rejects_lossy_int_and_bool_values(key, value):
    cfg = preset_config("fig2a")
    cfg[key] = value
    with pytest.raises(ConfigError, match=key):
        build_scenario(cfg)


def test_build_accepts_integral_floats():
    cfg = preset_config("fig2a")
    cfg.update({"n_steps": 100.0, "probes.every": 2.0, "seed": np.int64(3)})
    sc = build_scenario(cfg)
    assert (sc.n_steps, sc.probes.every, sc.seed) == (100, 2, 3)
    assert type(sc.n_steps) is int and type(sc.seed) is int


def test_analysis_plan_validation():
    with pytest.raises(ConfigError):
        AnalysisPlan(rho=1.0)
    with pytest.raises(ConfigError):
        AnalysisPlan(window=0)


# === presets ================================================================


def test_all_presets_build():
    for name in sorted(PRESETS):
        sc = build_scenario(preset_config(name))
        assert sc.scenario_id == name


def test_preset_configs_are_pinned():
    # config.json echoes every key of a preset, so any change to a preset's
    # keys, values or value types moves this digest
    digest = hashlib.sha256(json.dumps(PRESETS, sort_keys=True).encode()).hexdigest()
    assert digest == "fa2deae3570f69f3917b647adae757242233019de953d24fae1e564a00122d81"


def test_preset_config_returns_a_copy():
    cfg = preset_config("fig2a")
    cfg["optimizer.eta"] = 99.0
    assert preset_config("fig2a")["optimizer.eta"] == 0.01


def test_unknown_preset_lists_known_names():
    with pytest.raises(ConfigError, match="fig2a"):
        preset_config("fig999")


def test_fig2a_fields():
    sc = build_scenario(preset_config("fig2a"))
    assert sc.mode == "run"
    assert sc.kind == "adam"
    assert sc.hyper.eta == 0.01
    assert sc.hyper.beta1 == 0.9
    assert sc.hyper.beta2 == 0.99
    assert sc.n_steps == 4000
    assert sc.probes.every == 1
    assert sc.analysis.rho == 3.0 and sc.analysis.window == 50
    assert not sc.analysis.segment
    assert sc.objective.kind == "quadratic"
    assert sc.theta0.values.tolist() == [1.0]


def test_sweep_preset_has_seven_log_spaced_etas():
    cfg = preset_config("fig2bc-sweep")
    assert cfg["sweep.param"] == "optimizer.eta"
    values = [float(v) for v in cfg["sweep.values"].split(",")]
    assert len(values) == 7
    assert values[0] == pytest.approx(1e-3)
    assert values[-1] == pytest.approx(1e-1)
    ratios = np.diff(np.log(values))
    assert np.allclose(ratios, ratios[0])


def test_mitigation_preset_builds_plan():
    sc = build_scenario(preset_config("figD8-mitigations"))
    assert sc.plan.v_floor == 0.01
    assert sc.probes.every == 0


def test_epsilon_bump_defaults_to_point_one():
    cfg = preset_config("fig6-fnn50d")
    cfg["plan.epsilon_bump_step"] = 500
    sc = build_scenario(cfg)
    assert sc.plan.epsilon_bump == (500, 0.1)
    assert sc.plan.epsilon_at(499, 1e-8) == 1e-8
    assert sc.plan.epsilon_at(500, 1e-8) == 0.1


def test_theorem_presets_have_no_objective():
    d4 = build_scenario(preset_config("thmD4"))
    assert d4.mode == "five-stage"
    assert d4.objective is None and d4.theta0 == 10.0
    assert d4.hyper.beta2 == 0.99
    assert (d4.kind, d4.plan, d4.probes, d4.sched) == (None, None, None, None)
    assert (d4.hyper.beta1, d4.hyper.epsilon, d4.hyper.bias_correction) == (0.0, 0.0, False)
    d6 = build_scenario(preset_config("thmD6"))
    assert d6.mode == "lr-decay"
    assert (d6.sched, d4.alpha, d6.alpha) == (None, None, 0.5)
    assert d6.hyper.beta2 == 0.9999
    assert d6.theta0 == 1.0


@pytest.mark.parametrize("name", ["fig2a", "thmD4", "thmD6"])
def test_n_steps_is_capped(name):
    cfg = preset_config(name)
    cfg["n_steps"] = MAX_STEPS
    assert build_scenario(cfg).n_steps == MAX_STEPS
    for value in (MAX_STEPS + 1, 1e308):
        cfg["n_steps"] = value
        with pytest.raises(ConfigError, match="n_steps"):
            build_scenario(cfg)


@pytest.mark.parametrize("name", ["thmD4", "thmD6"])
def test_theorem_modes_refuse_negative_n_steps(name):
    cfg = preset_config(name)
    cfg["n_steps"] = -5
    with pytest.raises(ConfigError, match="n_steps"):
        build_scenario(cfg)
    cfg["n_steps"] = 0
    if name == "thmD4":  # five-stage: the certificate chooses its own length
        assert build_scenario(cfg).n_steps == 0
    else:  # lr-decay: a witness search of zero steps checks nothing
        with pytest.raises(ConfigError, match=r"n_steps must be in \[1, "):
            build_scenario(cfg)


def test_gd_delay_spectrum_shape():
    sc = build_scenario(preset_config("figD12-gd-delay"))
    assert sc.objective.initial_point(1.0).dim == 100
    assert sc.objective.lambda_max() == pytest.approx(110.0)
    assert sc.kind == "gd"


# === build_scenario validation ==============================================


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b"])
def test_scenario_name_must_be_one_directory(name):
    with pytest.raises(ConfigError, match="must name one directory"):
        build_scenario({**preset_config("fig2a"), "scenario": name})


def test_preset_sweep_child_and_verify_names_are_directories():
    names = list(PRESETS) + [f"verify-{theorem}" for theorem in VERIFIERS]
    names += [_child_id(param, value) for param in ("optimizer.eta", "probes.tol")
              for value in (*read_floats(PRESETS["fig2bc-sweep"], "sweep.values", ""),
                            -5, 1e-300, 1e300)]
    for name in names:
        assert build_scenario({**preset_config("fig2a"), "scenario": name}).scenario_id == name


def test_theta0_broadcasts_over_quadratic():
    sc = build_scenario({"objective.eigenvalues": "1.0,2.0", "theta0": 3.0,
                         "n_steps": 5})
    assert sc.theta0.values.tolist() == [3.0, 3.0]


def test_build_rejects_bad_fields():
    with pytest.raises(ConfigError):
        build_scenario({"mode": "dance"})
    with pytest.raises(ConfigError):
        build_scenario({"optimizer.kind": "sgd"})
    with pytest.raises(ConfigError):
        build_scenario({"optimizer.beta2": 1.5})
    with pytest.raises(ConfigError):
        build_scenario({"objective.kind": "cubic"})
    with pytest.raises(ConfigError):
        build_scenario({"n_steps": 0})


def test_flat_echo_round_trip():
    cfg = preset_config("fig3-spike")
    sc = build_scenario(cfg)
    assert sc.flat["optimizer.eta"] == 0.15
    assert sc.flat is not cfg  # defensive copy


def test_build_refuses_every_unread_key():
    cfg = preset_config("fig2a")
    cfg.update({"optimizer.etaa": 0.5, "objective.width": 4})
    with pytest.raises(ConfigError, match="objective.width, optimizer.etaa"):
        build_scenario(cfg)
    fnn = preset_config("fig5-gd")
    fnn["theta0"] = 3.0
    with pytest.raises(ConfigError, match="unused by this mode and objective: theta0"):
        build_scenario(fnn)
    d4 = preset_config("thmD4")
    d4.update({"objective.eigenvalues": "1.0", "schedule.alpha": 0.5})
    with pytest.raises(ConfigError, match="objective.eigenvalues, schedule.alpha"):
        build_scenario(d4)


RUN_ONLY = {"optimizer.kind": "gd", "optimizer.beta1": 0.9, "optimizer.epsilon": 1e-8,
            "optimizer.bias_correction": True, "probes.every": 3,
            "probes.max_iters": 10, "probes.tol": 1e-3, "plan.v_floor": 5.0,
            "plan.epsilon_bump_step": 2, "schedule.kind": "power-decay"}


@pytest.mark.parametrize("name", ["thmD4", "thmD6"])
@pytest.mark.parametrize("key", sorted(RUN_ONLY))
def test_theorem_modes_refuse_run_only_keys(name, key):
    cfg = dict(preset_config(name), **{key: RUN_ONLY[key]})
    with pytest.raises(ConfigError, match=f"unused by this mode and objective: {key}"):
        build_scenario(cfg)
    cfg = dict(preset_config(name), **{"sweep.param": key})
    with pytest.raises(ConfigError, match=f"sweep parameter '{key}'"):
        build_scenario(cfg)


def test_build_allows_sweep_keys_and_reads_theorem_theta0():
    cfg = preset_config("fig2a")
    cfg.update({"sweep.param": "optimizer.eta", "sweep.values": "0.1,0.2"})
    assert build_scenario(cfg).flat["sweep.values"] == "0.1,0.2"
    for name in ("thmD4", "thmD6"):
        cfg = preset_config(name)
        cfg["theta0"] = "abc"
        with pytest.raises(ConfigError, match="theta0 must be a finite number"):
            build_scenario(cfg)


def test_load_config_file_refuses_non_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"objective.target = caf\xe9\n")
    with pytest.raises(ConfigError, match="latin1.cfg: not UTF-8 text"):
        load_config_file(path)
