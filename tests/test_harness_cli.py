"""Harness run directories, sweeps, and the command-line front end."""

import concurrent.futures
import csv
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from spikelab import (SCHEMA_VERSION, AdamHyper, QuadraticSpec, build_scenario,
                      check_descent_lemma, five_stage_certificate, lr_decay_witness,
                      make_quadratic, momentum_boundary_check, preset_config,
                      real_spectrum_check, run, run_scenario, spike_iff_certificate, stream,
                      write_run_dir, write_trace_csv)
from spikelab.analysis import detect_spikes_series, pre_spike_index, segment_stages
from spikelab import harness, oracles
from spikelab.cli import main
from spikelab.errors import ConfigError
from spikelab.harness import (SWEEP_COLUMNS, fresh_dir, output_root,
                              run_sweep, summary_line)

# === run directories ========================================================


def _short_fig2a(n_steps=60):
    cfg = preset_config("fig2a")
    cfg["n_steps"] = n_steps
    return build_scenario(cfg)


def test_write_run_dir_layout():
    result = run_scenario(_short_fig2a())
    d = write_run_dir(result)
    assert d.parent.name == "fig2a"
    assert d.name.endswith("-0")
    assert sorted(p.name for p in d.iterdir()) == [
        "analysis.json", "config.json", "trace.csv"]
    ana = json.loads((d / "analysis.json").read_text())
    assert ana["status"] == "completed"
    assert ana["n_steps"] == 60
    assert ana["schema_version"] == 1
    cfg = json.loads((d / "config.json").read_text())
    assert cfg["optimizer.eta"] == 0.01


def test_output_root_precedence(monkeypatch):
    assert output_root("explicit") == Path("explicit")
    assert output_root() == Path(os.environ["SPIKELAB_OUT"])
    monkeypatch.delenv("SPIKELAB_OUT")
    assert output_root() == Path("runs")


def test_fresh_dir_suffixes_on_collision(tmp_path, monkeypatch):
    monkeypatch.setattr("spikelab.harness.time.strftime", lambda *a: "FIXED")
    dirs = [fresh_dir(tmp_path, "x", 7) for _ in range(3)]
    assert [d.name for d in dirs] == ["FIXED-7", "FIXED-7-1", "FIXED-7-2"]
    assert all(d.is_dir() for d in dirs)


def test_summary_line_contents():
    result = run_scenario(_short_fig2a())
    line = summary_line(result, run_dir="/tmp/x")
    assert line.startswith("fig2a seed=0 status=completed")
    assert "steps=60" in line and "dir=/tmp/x" in line


def test_theorem_run_dir_gets_certificate():
    result = run_scenario(build_scenario(preset_config("thmD4")))
    d = write_run_dir(result)
    cert = json.loads((d / "certificate.json").read_text())
    assert cert["verdict"] == "PASS"
    assert cert["boundaries"] == {
        "t0": 0, "t1": 837, "t2": 1010, "t3": 1374, "t4": 1377, "t5": 1959}
    ana = json.loads((d / "analysis.json").read_text())
    assert ana["theorem_consistency"]["all_consistent"]
    assert ana["segmentation"]["ordered"]


def test_lr_decay_mode_reports_witness():
    result = run_scenario(build_scenario(preset_config("thmD6")))
    assert result.certificate["verdict"] == "WITNESS-FOUND"
    assert result.certificate["witness_step"] == 180984
    assert result.analysis["witness"]["checked_steps"] == 180985
    assert len(result.trace) == 0 and len(result.trace.records) == 0


def test_zero_over_zero_step_diverges_without_warning():
    # v_hat is 0 on the second coordinate, which starts at its minimum, and
    # epsilon is 0, so the first step divides 0 by 0
    cfg = preset_config("fig2a")
    cfg.update({"objective.eigenvalues": "1.0,2.0", "objective.offset": "0.0,1.0",
                "theta0": "1.0,1.0", "optimizer.epsilon": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(build_scenario(cfg))
    assert result.status == "diverged"


def test_diverged_analysis_is_strict_json():
    cfg = preset_config("fig2a")
    cfg.update({"optimizer.kind": "gd", "optimizer.eta": 3.0, "n_steps": 800})
    result = run_scenario(build_scenario(cfg))
    assert result.status == "diverged"
    d = write_run_dir(result)
    text = (d / "analysis.json").read_text()

    def no_constants(_):
        raise AssertionError("bare Infinity/NaN token in JSON")

    ana = json.loads(text, parse_constant=no_constants)
    assert ana["final_loss"] == "inf"


SPIKE_KEYS = {"onset_step", "peak_step", "recovery_step", "peak_ratio", "recovery_at_end"}


@pytest.mark.parametrize("name", ["fig2a", "fig3-spike", "thmD4"])
def test_analysis_blocks_are_the_function_bodies(name, tmp_path):
    """analysis.json's spikes, segmentation and decay_fit are what the
    analysis functions return on the run's trace, and nothing built beside."""
    result = run_scenario(build_scenario(preset_config(name)))
    sc, trace = result.scenario, result.trace
    ana = json.loads((write_run_dir(result, out=tmp_path) / "analysis.json").read_text())
    spikes = detect_spikes_series(trace.losses(), rho=sc.analysis.rho,
                                  window=sc.analysis.window)
    assert spikes and ana["spikes"] == harness._clean(spikes)
    assert all(set(spike) == SPIKE_KEYS for spike in ana["spikes"])
    if not sc.analysis.segment:
        assert ana["segmentation"] is None and ana["decay_fit"] is None
        return
    seg = segment_stages(trace, sc.hyper)
    assert ana["segmentation"] == harness._clean(seg)
    assert set(ana["segmentation"]) == {"boundaries", "verdicts", "ordered"}
    fit = seg["verdicts"][0]
    assert fit["name"] == "stage2-decay-fit"
    assert ana["decay_fit"] == harness._clean(fit["detail"])
    assert set(ana["decay_fit"]) == {"alpha_hat", "r_squared", "window", "target"}


def test_trace_bytes_reproducible(tmp_path):
    paths = []
    for i in range(2):
        result = run_scenario(_short_fig2a(n_steps=120))
        p = tmp_path / f"t{i}.csv"
        write_trace_csv(result.trace, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# === sweeps =================================================================


def test_run_sweep_layout_and_recompute():
    flat = preset_config("fig2a")
    res = run_sweep(flat, "optimizer.eta", [0.1, -1.0])
    # the failing child errors before its directory is created
    names = sorted(p.name for p in res.sweep_dir.iterdir())
    assert names == ["config.json", "optimizer.eta=0.1", "sweep_summary.csv"]
    good, bad = res.rows
    assert list(good) == list(SWEEP_COLUMNS)
    assert good["status"] == "completed"
    assert bad["status"].startswith("error:")
    assert bad["onset_step"] is None
    assert not res.all_completed()

    # every summary cell is recomputable from the child's own files
    child = res.sweep_dir / "optimizer.eta=0.1"
    with open(child / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    def col(name):
        return [float(row[name]) if row[name] else None for row in rows]

    cfg = json.loads((child / "config.json").read_text())
    losses = np.array(col("loss"))
    events = detect_spikes_series(losses, rho=cfg["analysis.rho"],
                                  window=cfg["analysis.window"])
    onset = events[0]["onset_step"]
    pre = pre_spike_index(losses, onset)
    assert good["onset_step"] == onset
    assert good["vhat_at_spike"] == col("vhat_norm_total")[pre]
    assert good["eta_over_vhat_at_spike"] == pytest.approx(
        col("eta_t")[pre] / col("vhat_norm_total")[pre], rel=1e-12)
    assert good["max_lambda_grad"] == max(
        v for v in col("lambda_grad_Hhat") if v is not None)

    # summary csv round trips the same row
    lines = (res.sweep_dir / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "optimizer.eta"
    assert int(cells[2]) == onset


def test_run_sweep_parallel_rows_match(tmp_path):
    flat = preset_config("fig2a")
    flat["n_steps"] = 1200
    values = [0.1, 0.05]
    res = run_sweep(flat, "optimizer.eta", values, out=tmp_path / "pool")
    assert [row["value"] for row in res.rows] == values
    for value in values:
        child_id = f"optimizer.eta={value:.6g}"
        child_flat = dict(flat, **{"optimizer.eta": value, "scenario": child_id})
        alone = write_run_dir(run_scenario(build_scenario(child_flat)),
                              out=tmp_path / "alone")
        for name in ("trace.csv", "analysis.json"):
            assert ((res.sweep_dir / child_id / name).read_bytes()
                    == (alone / name).read_bytes())


@pytest.fixture
def recording_pool(monkeypatch):
    """Run sweep children in process, recording each pool's size.

    A monkeypatch does not reach spawned pool workers, so a test that patches
    harness internals runs its children here instead.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_sweep imports the pool class when it is called, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_run_sweep_pool_is_bounded_by_values(recording_pool, monkeypatch):
    flat = preset_config("fig2a")
    flat["n_steps"] = 60
    for cpus, n_values, size in ((3, 2, 2), (3, 4, 3), (None, 4, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        values = [0.1 * (k + 1) for k in range(n_values)]
        assert run_sweep(flat, "optimizer.eta", values).all_completed()
        assert recording_pool[-1] == size
    assert len(recording_pool) == 3


def test_run_sweep_refuses_values_sharing_a_child_dir(tmp_path):
    flat = preset_config("fig2a")
    for values in ([0.01000001, 0.01000002], [0.01, 0.2, 0.01]):
        with pytest.raises(ConfigError, match="share a child directory") as err:
            run_sweep(flat, "optimizer.eta", values, out=tmp_path)
        assert f"{values[0]!r} -> optimizer.eta=0.01" in str(err.value)
        assert f"{values[-1]!r} -> optimizer.eta=0.01" in str(err.value)
        assert "0.2" not in str(err.value)
    assert not any(tmp_path.iterdir())


def test_run_sweep_takes_every_key_the_scenario_reads(tmp_path):
    flat = preset_config("fig2a")
    flat["n_steps"] = 60
    assert "probes.tol" not in flat
    res = run_sweep(flat, "probes.tol", [1e-6, 1e-8], out=tmp_path)
    assert res.all_completed()
    fnn = preset_config("fig6-fnn50d")
    fnn.update({"n_steps": 2, "probes.every": 0})
    res = run_sweep(fnn, "plan.v_floor", [0.01], out=tmp_path)
    assert res.all_completed()
    for param in ("optimizer.etaa", "sweep.values", "objective.width", "scenario"):
        with pytest.raises(ConfigError, match=f"sweep parameter '{param}'"):
            run_sweep(flat, param, [0.1], out=tmp_path / "refused")
    assert not (tmp_path / "refused").exists()


def test_cli_sweep_exits_one_when_a_child_fails(capsys):
    rc = main(["sweep", "--scenario", "fig2a", "--set", "n_steps=60",
               "--param", "optimizer.beta2", "--values", "0.99,1.5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "status=completed" in captured.out
    assert "status=error: " in captured.out
    assert "error: 1 of 2 sweep children failed" in captured.err
    summary = next(l for l in captured.out.splitlines()
                   if l.startswith("sweep_summary:"))
    rows = Path(summary.split(": ", 1)[1]).read_text().splitlines()
    assert len(rows) == 3


def test_sweep_child_bug_is_raised(recording_pool, monkeypatch):
    def broken(sc):
        raise RuntimeError("bug in a child")

    monkeypatch.setattr(harness, "run_scenario", broken)
    flat = preset_config("fig2a")
    with pytest.raises(RuntimeError, match="bug in a child"):
        run_sweep(flat, "optimizer.eta", [0.1])


def test_run_sweep_validation():
    with pytest.raises(ConfigError):
        run_sweep(preset_config("fig2a"), "optimizer.eta", [])
    with pytest.raises(ConfigError):
        run_sweep(preset_config("fig2a"), "optimizer.gamma", [0.1])


# === cli: run ===============================================================


def _runs_root() -> Path:
    return Path(os.environ["SPIKELAB_OUT"])


def test_cli_run_ok(capsys):
    rc = main(["run", "--scenario", "fig2a", "--set", "n_steps=60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("fig2a seed=0 status=completed")
    assert (_runs_root() / "fig2a").is_dir()


def test_cli_run_diverged(capsys):
    rc = main(["run", "--scenario", "fig2a", "--set", "optimizer.kind=gd",
               "--set", "optimizer.eta=3.0", "--set", "n_steps=800"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "status=diverged" in out


def test_cli_run_overflowing_start_diverges(tmp_path, capsys):
    # the start's loss overflows: a divergence at step 0, not an error
    path = tmp_path / "overflow.cfg"
    path.write_text("objective.kind = quadratic\noptimizer.kind = adam\n"
                    "theta0 = 1e200\nn_steps = 5\n")
    rc = main(["run", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "status=diverged" in out
    run_dir = Path(out.split("dir=", 1)[1].strip())

    def no_constants(_):
        raise AssertionError("bare Infinity/NaN token in JSON")

    ana = json.loads((run_dir / "analysis.json").read_text(), parse_constant=no_constants)
    assert ana["status"] == "diverged" and ana["n_steps"] == 0
    assert ana["initial_loss"] == ana["final_loss"] == "inf"


def test_cli_run_config_errors(capsys):
    assert main(["run", "--scenario", "nope"]) == 1
    assert main(["run", "--scenario", "fig2a",
                 "--set", "optimizer.beta2=1.5"]) == 1
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "beta2" in err
    assert main(["run", "--scenario", "fig2a", "--set", "n_steps=2.5"]) == 1
    assert "n_steps must be an integer" in capsys.readouterr().err
    assert not (_runs_root() / "fig2a").exists()


def test_cli_run_refuses_n_steps_above_cap(capsys):
    assert main(["run", "--scenario", "fig2a", "--set", "n_steps=1e20"]) == 1
    err = capsys.readouterr().err
    assert any(l.startswith("error: n_steps must be in") for l in err.splitlines())
    assert not (_runs_root() / "fig2a").exists()


@pytest.mark.parametrize("value", ["true", "inf"])
def test_cli_theorem_run_bad_theta0_exits_one(value, capsys):
    assert main(["run", "--scenario", "thmD4", "--set", f"theta0={value}"]) == 1
    assert "theta0 must be a finite number" in capsys.readouterr().err


def test_cli_run_config_file(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text("objective.eigenvalues = 1.0\n"
                    "optimizer.kind = gd\n"
                    "optimizer.eta = 0.5\n"
                    "n_steps = 20\n")
    rc = main(["run", "--config", str(path), "--seed", "4"])
    assert rc == 0
    assert "seed=4" in capsys.readouterr().out


def test_cli_run_config_file_with_a_repeated_key_exits_one(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("optimizer.kind = gd\noptimizer.eta = 0.1\noptimizer.eta = 0.2\n")
    assert main(["run", "--config", str(path)]) == 1
    assert "optimizer.eta is set again (first on line 2)" in capsys.readouterr().err


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-theorem"])
    assert exc.value.code == 1


# === cli: verify ============================================================


def _cert_from(out: str) -> dict:
    line = next(l for l in out.splitlines() if l.startswith("certificate:"))
    return json.loads(Path(line.split(": ", 1)[1]).read_text())


def test_cli_verify_five_stage_pass(capsys):
    rc = main(["verify", "five-stage"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("five-stage: PASS")
    assert "t5=1959" in out
    cert = _cert_from(out)
    assert cert["verdict"] == "PASS"
    assert cert["hypothesis"]["ok"] is True


def test_cli_verify_five_stage_skip(capsys):
    rc = main(["verify", "five-stage", "--beta2", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    reason = "need lhs > rhs, got lhs=1.4427 and rhs=1.64707"
    assert out.startswith(f"five-stage: SKIPPED (hypothesis): {reason}\n")
    cert = _cert_from(out)
    assert cert["verdict"] == "SKIPPED (hypothesis)" and cert["reason"] == reason
    assert cert["worst_slack"] is None
    assert main(["run", "--scenario", "thmD4", "--set", "optimizer.beta2=0.5"]) == 0
    out = capsys.readouterr().out
    assert f"verdict=SKIPPED (hypothesis): {reason} dir=" in out
    assert "worst_slack" not in out


def test_thmD4_run_simulates_the_recursion_once(monkeypatch):
    """The trace is built from the arrays the certificate was read from."""
    calls = []
    recursion = oracles.theorem_recursion
    monkeypatch.setattr(oracles, "theorem_recursion",
                        lambda *args: calls.append(args) or recursion(*args))
    result = run_scenario(build_scenario(preset_config("thmD4")))
    assert calls == [(10.0, 0.15, 0.99, 8373)]
    assert result.certificate["verdict"] == "PASS" and len(result.trace) == 8373


@pytest.mark.parametrize("run_args,verify_args", [
    (["--scenario", "thmD4", "--set", "theta0=0.05"],
     ["five-stage", "--theta0", "0.05"]),
    (["--scenario", "thmD6", "--set", "theta0=0.1"],
     ["lr-decay", "--theta0", "0.1", "--beta2", "0.9999"]),
    (["--scenario", "thmD6", "--set", "schedule.alpha=1.5"],
     ["lr-decay", "--alpha", "1.5", "--beta2", "0.9999"]),
    (["--scenario", "thmD6", "--set", "schedule.alpha=0"],
     ["lr-decay", "--alpha", "0", "--beta2", "0.9999"]),
    (["--scenario", "thmD6", "--set", "optimizer.eta=-0.1"],
     ["lr-decay", "--eta0", "-0.1", "--beta2", "0.9999"]),
    (["--scenario", "thmD4", "--set", "optimizer.beta2=1.0"],
     ["five-stage", "--beta2", "1.0"]),
], ids=["thmD4", "thmD6", "thmD6-alpha-above", "thmD6-alpha-zero",
        "thmD6-eta-negative", "thmD4-beta2-one"])
def test_theorem_run_outside_hypothesis_skips_like_verify(run_args, verify_args,
                                                          capsys):
    rc = main(["run"] + run_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=SKIPPED (hypothesis)" in out
    run_dir = Path(out.split("dir=", 1)[1].strip())
    cert = json.loads((run_dir / "certificate.json").read_text())
    assert cert["verdict"] == "SKIPPED (hypothesis)"
    assert main(["verify"] + verify_args) == 0
    assert _cert_from(capsys.readouterr().out) == cert


def test_cli_verify_momentum_boundary(capsys):
    rc = main(["verify", "momentum-boundary", "--eta", "0.1", "--lam", "5.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lambda=5: stable" in out
    assert "momentum-boundary: PASS boundary=380" in out


def test_cli_verify_descent(capsys):
    rc = main(["verify", "descent"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("descent: PASS")
    assert "checked=100" in out


def test_cli_verify_spike_iff(capsys):
    rc = main(["verify", "spike-iff"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "spike-iff: PASS consistent=100/100" in out


def test_cli_verify_lr_decay(capsys):
    rc = main(["verify", "lr-decay", "--beta2", "0.9999"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "WITNESS-FOUND step=180984" in out


@pytest.mark.parametrize("eta0", ["-0.1", "0", "nan"])
def test_cli_verify_lr_decay_refuses_bad_eta0(eta0, capsys):
    rc = main(["verify", "lr-decay", "--eta0", eta0])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("lr-decay: SKIPPED (hypothesis): need a positive finite eta0")
    assert _cert_from(out)["verdict"] == "SKIPPED (hypothesis)"


@pytest.mark.parametrize("theorem", ["lr-decay", "five-stage"])
@pytest.mark.parametrize("max_steps", ["-5", "0"])
def test_cli_verify_refuses_max_steps_below_one(theorem, max_steps, capsys):
    assert main(["verify", theorem, "--max-steps", max_steps]) == 1
    captured = capsys.readouterr()
    assert "--max-steps must be >= 1" in captured.err
    assert "certificate:" not in captured.out


def test_cli_thmD6_refuses_a_zero_step_search_like_verify(tmp_path, capsys):
    """A zero-step witness search checks nothing: run exits 1, as verify does."""
    out = tmp_path / "out"
    assert main(["run", "--scenario", "thmD6", "--set", "n_steps=0", "--out", str(out)]) == 1
    assert "n_steps must be in [1, " in capsys.readouterr().err
    assert main(["verify", "lr-decay", "--max-steps", "0", "--out", str(out)]) == 1
    assert "--max-steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theorem", ["descent", "spike-iff"])
@pytest.mark.parametrize("steps", ["-5", "0"])
def test_cli_verify_refuses_steps_below_one(theorem, steps, capsys):
    assert main(["verify", theorem, "--steps", steps]) == 1
    captured = capsys.readouterr()
    assert "--steps must be >= 1" in captured.err
    assert "certificate:" not in captured.out


@pytest.mark.parametrize("argv,message", [
    (["momentum-boundary", "--margin", "-0.5"], "--margin must be in (0, 1)"),
    (["momentum-boundary", "--margin", "0"], "--margin must be in (0, 1)"),
    (["momentum-boundary", "--margin", "1"], "--margin must be in (0, 1)"),
    (["momentum-boundary", "--margin", "nan"], "--margin must be in (0, 1)"),
    (["real-spectrum", "--dim", "0"], "--dim must be >= 1"),
    (["real-spectrum", "--dim", "-3"], "--dim must be >= 1"),
    (["spike-iff", "--eta", "0"], "--eta must be a positive finite number"),
    (["spike-iff", "--eta", "-1", "--steps", "2"], "--eta must be a positive finite number"),
    (["momentum-boundary", "--eta", "0"], "--eta must be a positive finite number"),
    (["momentum-boundary", "--beta1", "1"], "--beta1 must be in [0, 1)"),
    (["momentum-boundary", "--lam", "nan"], "--lam must be a positive finite number"),
    (["spike-iff", "--min-consistency", "2"], "--min-consistency must be in [0, 1]"),
    (["spike-iff", "--nodes", "0"], "--nodes must be >= 1"),
    (["spike-iff", "--eigenvalues", "abc"], "--eigenvalues must be a finite number, got 'abc'"),
    (["descent", "--eigenvalues", "1.0,abc"], "--eigenvalues must be a finite number"),
    (["real-spectrum", "--dim", "201"], "--dim must be >= 1 and <= 200"),
    (["real-spectrum", "--seed", "-1"], "--seed must be >= 0"),
    (["descent", "--eigenvalues", "-0"], "descent check needs lambda_max > 0"),
])
def test_cli_verify_refuses_flags_outside_their_domain(argv, message, capsys):
    assert main(["verify"] + argv) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "certificate:" not in captured.out


@pytest.mark.parametrize("argv,detail", [
    (["descent", "--eta", "2.5", "--eigenvalues", "1.0", "--steps", "5"],
     " worst_slack=0 checked=0 skipped=5"),
    # lambda = 2/eta: theta flips sign on the threshold, never determinate
    (["spike-iff", "--eta", "1.0", "--eigenvalues", "2.0", "--steps", "3",
      "--nodes", "2"],
     " consistent=0/0 determinate steps"),
], ids=["descent", "spike-iff"])
def test_cli_verify_without_evidence_is_skipped(argv, detail, capsys):
    assert main(["verify"] + argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{argv[0]}: SKIPPED (no evidence){detail}\n")
    assert _cert_from(out)["verdict"] == "SKIPPED (no evidence)"


def test_cli_verify_real_spectrum(capsys):
    rc = main(["verify", "real-spectrum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("real-spectrum: PASS")


def _descent_body():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
    trace = run(obj, obj.initial_point(1.0), "gd", AdamHyper(eta=0.15), n_steps=100)
    return dict(check_descent_lemma(trace, obj),
                params={"eta": 0.15, "eigenvalues": "1.0,5.0,10.0", "steps": 100})


def _real_spectrum_body():
    rng = stream(0, "verify")
    a = rng.normal(size=(40, 40))
    body = real_spectrum_check(0.5 * (a + a.T), np.exp(rng.normal(size=40)))
    return dict(body, params={"dim": 40, "seed": 0})


def _thmD4_body(sets=None):
    sc = build_scenario(dict(preset_config("thmD4"), **(sets or {})))
    return five_stage_certificate(sc.theta0, sc.hyper.eta, sc.hyper.beta2, sc.n_steps or None)[0]


def _spike_iff_body(eigenvalues, eta, steps):
    obj = make_quadratic(QuadraticSpec(eigenvalues=tuple(map(float, eigenvalues.split(",")))))
    body = spike_iff_certificate(obj, obj.initial_point((1.0,)).values, eta, steps)
    return dict(body, params={"eta": eta, "eigenvalues": eigenvalues, "quadrature_nodes": 16})


def _thmD6_body(sets=None):
    sc = build_scenario(dict(preset_config("thmD6"), **(sets or {})))
    return lr_decay_witness(sc.theta0, sc.hyper.eta, sc.alpha, sc.hyper.beta2, sc.n_steps)


FIVE_STAGE_KEYS = {"theorem", "verdict", "params", "hypothesis", "t1_formula", "s", "delta",
                   "q", "t5_kind", "boundaries", "checks", "worst_slack"}
LR_DECAY_KEYS = {"theorem", "verdict", "params", "witness_step", "checked_steps"}
MOMENTUM_KEYS = {"theorem", "verdict", "boundary", "margin", "bracket"}
REFUSED_KEYS = {"theorem", "verdict", "reason"}
SPIKE_IFF_KEYS = {"theorem", "verdict", "consistent_fraction", "determinate_steps",
                  "checked_steps", "total_steps", "worst_margin", "params"}


@pytest.mark.parametrize("argv,body,keys", [
    (["verify", "descent"], _descent_body,
     {"theorem", "verdict", "worst_slack", "checked_steps", "skipped_steps", "violations",
      "params"}),
    (["verify", "real-spectrum"], _real_spectrum_body,
     {"theorem", "verdict", "max_imag_ratio", "max_rel_mismatch", "spectral_radius",
      "params"}),
    (["verify", "five-stage"], lambda: five_stage_certificate(10.0, 0.15, 0.99)[0],
     FIVE_STAGE_KEYS),
    (["verify", "lr-decay"], lambda: lr_decay_witness(1.0, 0.1, 0.5, 0.99, 10 ** 6),
     LR_DECAY_KEYS),
    (["run", "--scenario", "thmD4"], _thmD4_body, FIVE_STAGE_KEYS),
    (["run", "--scenario", "thmD6"], _thmD6_body, LR_DECAY_KEYS),
    (["verify", "momentum-boundary"], lambda: momentum_boundary_check(0.15, 0.9, 0.02),
     MOMENTUM_KEYS),
    (["verify", "momentum-boundary", "--lam", "5.0"],
     lambda: momentum_boundary_check(0.15, 0.9, 0.02, 5.0), MOMENTUM_KEYS | {"query"}),
    (["verify", "five-stage", "--eta", "-0.1"],
     lambda: five_stage_certificate(10.0, -0.1, 0.99)[0], REFUSED_KEYS),
    (["verify", "lr-decay", "--alpha", "1.5"],
     lambda: lr_decay_witness(1.0, 0.1, 1.5, 0.99, 10 ** 6), REFUSED_KEYS),
    (["run", "--scenario", "thmD4", "--set", "optimizer.beta2=1.0"],
     lambda: _thmD4_body({"optimizer.beta2": 1.0}), REFUSED_KEYS),
    (["run", "--scenario", "thmD6", "--set", "optimizer.eta=-0.1"],
     lambda: _thmD6_body({"optimizer.eta": -0.1}), REFUSED_KEYS),
    (["verify", "five-stage", "--beta2", "0.5"],
     lambda: five_stage_certificate(10.0, 0.15, 0.5)[0], FIVE_STAGE_KEYS | {"reason"}),
    (["run", "--scenario", "thmD4", "--set", "optimizer.beta2=0.5"],
     lambda: _thmD4_body({"optimizer.beta2": 0.5}), FIVE_STAGE_KEYS | {"reason"}),
    (["verify", "spike-iff"], lambda: _spike_iff_body("1.0,5.0,10.0", 0.15, 100),
     SPIKE_IFF_KEYS),
    (["verify", "spike-iff", "--eta", "1.0", "--eigenvalues", "2.0", "--steps", "3"],
     lambda: _spike_iff_body("2.0", 1.0, 3), SPIKE_IFF_KEYS),
], ids=["descent", "real-spectrum", "five-stage", "lr-decay", "thmD4", "thmD6",
        "momentum-boundary", "momentum-boundary-query", "five-stage-refused",
        "lr-decay-refused", "thmD4-refused", "thmD6-refused", "five-stage-skipped",
        "thmD4-skipped", "spike-iff", "spike-iff-threshold"])
def test_certificate_file_is_the_oracle_body(argv, body, keys, capsys):
    """Each certificate.json is its oracle's return value, plus the params
    only the command line knows, and nothing built beside it."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "verify":
        cert = _cert_from(out)
    else:
        cert = json.loads((Path(out.split("dir=", 1)[1].strip()) / "certificate.json")
                          .read_text())
    assert cert == dict(harness._clean(body()), schema_version=SCHEMA_VERSION)
    assert set(cert) == keys | {"schema_version"}


# === cli: sweep =============================================================


def test_cli_sweep(capsys):
    rc = main(["sweep", "--scenario", "fig2a", "--param", "optimizer.eta",
               "--values", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimizer.eta=0.1 status=completed onset=893" in out
    summary = next(l for l in out.splitlines() if l.startswith("sweep_summary:"))
    assert Path(summary.split(": ", 1)[1]).exists()


def test_cli_sweep_usage(capsys):
    assert main(["sweep", "--scenario", "fig2a", "--param", "optimizer.eta",
                 "--values", ""]) == 1
    assert main(["sweep", "--scenario", "fig2a", "--values", "0.1"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", "fig2a", "--param", "optimizer.eta",
              "--values", "0.1", "--jobs", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# === cli: export-dataset ====================================================


def test_cli_export_stdout(capsys):
    rc = main(["export-dataset", "--scenario", "fig5-gd", "--file", "-"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0] == "x_0,y"
    assert len(lines) == 201


def test_cli_export_to_file(tmp_path, capsys):
    target = tmp_path / "data.csv"
    rc = main(["export-dataset", "--scenario", "fig5-gd",
               "--file", str(target)])
    assert rc == 0
    assert target.read_text().splitlines()[0] == "x_0,y"


def test_cli_export_needs_dataset(capsys):
    assert main(["export-dataset", "--scenario", "fig2a", "--file", "-"]) == 1
    assert "no dataset" in capsys.readouterr().err


# === strict input path ======================================================


@pytest.mark.parametrize("argv", [
    ["descent", "--seed", "3"],
    ["descent", "--nodes", "4"],
    ["momentum-boundary", "--steps", "5"],
    ["five-stage", "--alpha", "0.5"],
    ["spike-iff", "--beta2", "0.9"],
    ["lr-decay", "--eta", "5"],
    ["real-spectrum", "--eta", "5"],
], ids=lambda argv: argv[0])
def test_cli_verify_refuses_another_theorems_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_cli_verify_descent_huge_eta_is_skipped(capsys):
    # the run diverges at once and no step lies below 2/lambda_max
    assert main(["verify", "descent", "--eta", "1e308", "--steps", "3"]) == 0
    assert capsys.readouterr().out.startswith("descent: SKIPPED (no evidence)")


@pytest.mark.parametrize("argv,verdict,evidence", [
    # GD's iterate overflows at step 76, and the verdict reads the steps before it
    (["--eigenvalues", "100", "--eta", "1"], "PASS", "76/76"),
    (["--eta", "10"], "PASS", "76/76"),
    # the first loss already overflows: no step gives evidence
    (["--eigenvalues", "1e300", "--eta", "1"], "SKIPPED (no evidence)", "0/0"),
], ids=["eig100-eta1", "eta10", "eig1e300-eta1"])
def test_cli_verify_spike_iff_stops_at_an_overflowing_iterate(argv, verdict, evidence, capsys):
    assert main(["verify", "spike-iff", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"spike-iff: {verdict} consistent={evidence} determinate steps")
    assert captured.err == ""
    cert = _cert_from(captured.out)
    assert cert["verdict"] == verdict and cert["total_steps"] == 100
    # every step walked before the stop is determinate
    assert cert["checked_steps"] == cert["determinate_steps"] == int(evidence.split("/")[1])


@pytest.mark.parametrize("argv,verdict,evidence", [
    # eta = 1/lambda lands on the minimum after one step, and GD stays there
    (["--eigenvalues", "10", "--eta", "0.1"], "PASS", "1/1"),
    (["--eigenvalues", "0"], "SKIPPED (no evidence)", "0/0"),
    # the walk starts at the minimum
    (["--theta0", "0"], "SKIPPED (no evidence)", "0/0"),
])
def test_cli_verify_spike_iff_stops_at_a_stationary_point(argv, verdict, evidence, capsys):
    assert main(["verify", "spike-iff", *argv]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"spike-iff: {verdict} consistent={evidence} determinate steps")
    cert = _cert_from(out)
    assert cert["verdict"] == verdict and cert["total_steps"] == 100
    # every step walked before the stop is determinate
    assert cert["checked_steps"] == cert["determinate_steps"] == int(evidence.split("/")[1])


def test_cli_verify_five_stage_refuses_long_horizon(capsys):
    assert main(["verify", "five-stage", "--beta2", "0.99999"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("five-stage: SKIPPED (hypothesis): need a finite t1 "
                          "and a horizon of at most 1000000 steps")
    assert _cert_from(out)["verdict"] == "SKIPPED (hypothesis)"


def test_theorem_preset_refuses_long_horizon(capsys):
    assert main(["run", "--scenario", "thmD4", "--set", "n_steps=1000001"]) == 0
    assert "verdict=SKIPPED (hypothesis)" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["optimizer.etaa", "theta0"])
def test_cli_run_refuses_unread_key(key, capsys):
    scenario = "fig2a" if key == "optimizer.etaa" else "fig5-gd"
    assert main(["run", "--scenario", scenario, "--set", f"{key}=0.5"]) == 1
    assert f"error: config keys unused by this mode and objective: {key}" in (
        capsys.readouterr().err)
    assert not (_runs_root() / scenario).exists()


@pytest.mark.parametrize("setting,message", [
    ("probes.every=-1", "probes.every must be >= 0"),
    ("probes.max_iters=0", "probes.max_iters must be >= 1"),
    ("probes.tol=0", "probes.tol must be > 0"),
])
def test_cli_run_names_the_bad_probe_key(setting, message, capsys):
    assert main(["run", "--scenario", "fig2a", "--set", setting]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["run", "--set", "objective.seed=-1"],
])
def test_cli_run_refuses_negative_seed(argv, capsys):
    assert main(argv[:1] + ["--scenario", "fig5-gd"] + argv[1:]) == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "fig5-gd", "--seed", str(2 ** 64)],
    ["run", "--scenario", "fig5-gd", "--set", "seed=1e308"],
    ["sweep", "--scenario", "fig5-gd", "--param", "optimizer.eta", "--values", "0.1",
     "--set", "seed=1e308"],
])
def test_cli_refuses_seed_too_long_for_a_directory_name(argv, capsys):
    assert main(argv) == 1
    assert "error: seed must be >= 0 and <= 18446744073709551615" in capsys.readouterr().err
    assert not (_runs_root() / "fig5-gd").exists()


@pytest.mark.parametrize("command", [
    ["run", "--scenario", "fig3-spike"],
    ["sweep", "--scenario", "fig2a", "--param", "optimizer.eta", "--values", "0.1"],
])
@pytest.mark.parametrize("name", ["../escaped", ""])
def test_cli_keeps_the_scenario_inside_the_output_root(command, name, tmp_path, capsys):
    argv = command + ["--set", f"scenario={name}", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: scenario {name!r} must name one directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_sweep_names_a_bad_value(capsys):
    assert main(["sweep", "--scenario", "fig2a", "--param", "optimizer.eta",
                 "--values", "0.1,abc"]) == 1
    assert "error: --values must be a finite number, got 'abc'" in capsys.readouterr().err


def test_cli_bad_paths_exit_one(tmp_path, capsys):
    a_file = tmp_path / "a-file"
    a_file.write_text("n_steps = 5\n")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"objective.target = caf\xe9\n")
    for argv in (["run", "--config", str(tmp_path / "missing.cfg")],
                 ["run", "--config", str(tmp_path)],
                 ["run", "--config", str(latin1)],
                 ["run", "--scenario", "fig2a", "--set", "n_steps=5",
                  "--out", str(a_file)],
                 ["export-dataset", "--scenario", "fig5-gd",
                  "--file", str(tmp_path / "no-dir" / "x.csv")]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
    assert main(["run", "--config", str(latin1)]) == 1
    assert f"error: {latin1}: not UTF-8 text" in capsys.readouterr().err
