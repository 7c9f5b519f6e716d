"""Harness run directories, sweeps, and the command-line front end."""

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from spikelab import (build_scenario, preset_config, read_trace_csv,
                      run_scenario, write_run_dir, write_trace_csv)
from spikelab.analysis import detect_spikes_series, pre_spike_index
from spikelab import harness
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
    assert result.trace.records == []


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
    cols = read_trace_csv(child / "trace.csv")
    cfg = json.loads((child / "config.json").read_text())
    losses = np.array(cols["loss"])
    events = detect_spikes_series(losses, rho=cfg["analysis.rho"],
                                  window=cfg["analysis.window"])
    onset = events[0].onset_step
    pre = pre_spike_index(losses, onset)
    assert good["onset_step"] == onset
    assert good["vhat_at_spike"] == cols["vhat_norm_total"][pre]
    assert good["eta_over_vhat_at_spike"] == pytest.approx(
        cols["eta_t"][pre] / cols["vhat_norm_total"][pre], rel=1e-12)
    assert good["max_lambda_grad"] == max(
        v for v in cols["lambda_grad_Hhat"] if v is not None)

    # summary csv round trips the same row
    lines = (res.sweep_dir / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "optimizer.eta"
    assert int(cells[2]) == onset


def test_run_sweep_parallel_rows_match():
    flat = preset_config("fig2a")
    flat["n_steps"] = 1200
    seq = run_sweep(flat, "optimizer.eta", [0.1])
    par = run_sweep(flat, "optimizer.eta", [0.1], jobs=2)
    assert par.rows == seq.rows


def test_run_sweep_pool_is_bounded_by_values(monkeypatch, capsys):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    flat = preset_config("fig2a")
    flat["n_steps"] = 60
    res = run_sweep(flat, "optimizer.eta", [0.1, 0.2], jobs=64)
    assert sizes == [2]
    assert res.all_completed()
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match="jobs"):
            run_sweep(flat, "optimizer.eta", [0.1], jobs=jobs)
    assert main(["sweep", "--scenario", "fig2a", "--param", "optimizer.eta",
                 "--values", "0.1", "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err
    assert sizes == [2]


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


def test_cli_run_config_errors(capsys):
    assert main(["run", "--scenario", "nope"]) == 1
    assert main(["run", "--scenario", "fig2a",
                 "--set", "optimizer.beta2=1.5"]) == 1
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "beta2" in err
    assert main(["run", "--scenario", "fig2a", "--set", "n_steps=2.5"]) == 1
    assert "n_steps must be an integer" in capsys.readouterr().err
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
    assert "SKIPPED (hypothesis)" in out
    assert _cert_from(out)["verdict"] == "SKIPPED (hypothesis)"


@pytest.mark.parametrize("run_args,verify_args", [
    (["--scenario", "thmD4", "--set", "theta0=0.05"],
     ["five-stage", "--theta0", "0.05"]),
    (["--scenario", "thmD6", "--set", "theta0=0.1"],
     ["lr-decay", "--theta0", "0.1", "--beta2", "0.9999"]),
], ids=["thmD4", "thmD6"])
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


def test_cli_verify_real_spectrum(capsys):
    rc = main(["verify", "real-spectrum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("real-spectrum: PASS")


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
