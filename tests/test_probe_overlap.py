"""Every run holds OpenBLAS at one thread, and a wide probed run takes its
probes on a second thread beside its steps. Neither may show: not in the
bytes, whatever OPENBLAS_NUM_THREADS says, not in the exceptions, and not in
the BLAS thread count the caller finds afterwards."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spikelab import (AdamHyper, ParamVector, ProbePlan, QuadraticSpec, blas, build_scenario,
                      make_quadratic, optimizers, preset_config, run, run_scenario,
                      write_run_dir)
from spikelab.errors import ZeroGradient
from spikelab.harness import run_sweep

SRC = Path(__file__).resolve().parent.parent / "src"

needs_known_blas = pytest.mark.skipif(
    blas.get_threads() is None, reason="the loaded BLAS is not OpenBLAS: probes run inline")


class ProbeFailed(Exception):
    pass


def _files(result, out):
    d = write_run_dir(result, out=out)
    return {f: (d / f).read_bytes() for f in ("trace.csv", "analysis.json")}


# both on the 52,001-parameter net at 60 steps: fig6 takes 12 probes, 3 of
# them warm-started through a Lanczos restart; figD8 takes none
@pytest.mark.parametrize("preset", ["fig6-fnn50d", "figD8-mitigations"])
def test_blas_thread_count_cannot_change_a_wide_runs_bytes(preset, tmp_path):
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "spikelab.cli", "run",
                        "--scenario", preset, "--set", "n_steps=60",
                        "--out", str(out)], env=env, check=True, capture_output=True)
        (d,) = (out / preset).iterdir()
        files[threads] = {f: (d / f).read_bytes() for f in ("trace.csv", "analysis.json")}
    assert files["1"] == files["2"]


@needs_known_blas
def test_a_wide_sweeps_children_write_the_bytes_of_run(monkeypatch, tmp_path):
    # the spawned children load OpenBLAS at one thread, the reference runs
    # here at two
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    flat = preset_config("figD8-mitigations")
    flat["n_steps"] = 60
    values = [0.02, 0.01]
    res = run_sweep(flat, "optimizer.eta", values, out=tmp_path / "sweep")
    assert res.all_completed()
    threads = blas.set_threads(2)
    try:
        for value in values:
            child_id = f"optimizer.eta={value:.6g}"
            child_flat = dict(flat, **{"optimizer.eta": value, "scenario": child_id})
            alone = write_run_dir(run_scenario(build_scenario(child_flat)),
                                  out=tmp_path / "alone")
            child = res.sweep_dir / child_id
            assert sorted(p.name for p in child.iterdir()) == sorted(
                p.name for p in alone.iterdir())
            for f in alone.iterdir():
                assert (child / f.name).read_bytes() == f.read_bytes(), f.name
    finally:
        blas.set_threads(threads)


@needs_known_blas
@pytest.mark.parametrize("preset,n_steps", [("fig6-fnn50d", 40), ("fig5-adam", 400)])
def test_overlapped_probes_write_the_inline_bytes(preset, n_steps, monkeypatch, tmp_path):
    flat = preset_config(preset)
    flat["n_steps"] = n_steps
    sc = build_scenario(flat)
    monkeypatch.setattr(optimizers, "OVERLAP_MIN_PARAMS", 10 ** 12)
    inline = _files(run_scenario(sc), tmp_path / "inline")
    monkeypatch.setattr(optimizers, "OVERLAP_MIN_PARAMS", 0)
    assert _files(run_scenario(sc), tmp_path / "overlapped") == inline


def _quad_run(**kw):
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
    kw = {"n_steps": 30, "probes": ProbePlan(every=5), **kw}
    return run(obj, ParamVector(np.ones(3)), "adam", AdamHyper(eta=0.05), **kw)


def _failing_probe(step, monkeypatch, seen=None):
    """Make the probe of `step` raise ProbeFailed; `seen` collects the BLAS
    thread count each probe finds."""
    real = optimizers.compute_probe

    def probe(obj, theta, pre, g, eta_t, i, *args, **kwargs):
        if seen is not None:
            seen.append(blas.get_threads())
        if i == step:
            raise ProbeFailed(f"probe at step {i}")
        return real(obj, theta, pre, g, eta_t, i, *args, **kwargs)

    monkeypatch.setattr(optimizers, "compute_probe", probe)


@pytest.mark.parametrize("overlap", [False, True], ids=["inline", "overlapped"])
@pytest.mark.parametrize("step", [0, 10, 25])
def test_a_probes_exception_leaves_run_as_inline(step, overlap, monkeypatch):
    monkeypatch.setattr(optimizers, "OVERLAP_MIN_PARAMS", 0 if overlap else 10 ** 12)
    _failing_probe(step, monkeypatch)
    with pytest.raises(ProbeFailed, match=f"step {step}$"):
        _quad_run()


@pytest.mark.parametrize("overlap", [False, True], ids=["inline", "overlapped"])
def test_a_probes_exception_wins_over_later_steps(overlap, monkeypatch):
    # the probe of step 0 raises; then the gradient after step 1 raises, or,
    # in the second run, step 2 diverges, which run would return as a trace
    monkeypatch.setattr(optimizers, "OVERLAP_MIN_PARAMS", 0 if overlap else 10 ** 12)
    _failing_probe(0, monkeypatch)
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
    real, calls = obj.loss_and_gradient, []

    def gradient(theta):
        calls.append(1)
        if len(calls) == 3:
            raise ZeroGradient("a later step")
        return real(theta)

    monkeypatch.setattr(obj, "loss_and_gradient", gradient)
    with pytest.raises(ProbeFailed):
        run(obj, ParamVector(np.ones(3)), "adam", AdamHyper(eta=0.05), n_steps=30,
            probes=ProbePlan(every=5))
    monkeypatch.setattr(obj, "loss_and_gradient", real)
    with pytest.raises(ProbeFailed):
        run(obj, ParamVector(np.ones(3)), "gd", AdamHyper(eta=1e60), n_steps=30,
            probes=ProbePlan(every=5))


@needs_known_blas
def test_blas_threads_are_pinned_for_the_run_and_restored(monkeypatch):
    threads = blas.set_threads(2)
    seen = []
    _failing_probe(10, monkeypatch, seen)
    try:
        # overlapped probes, then narrow inline ones
        for min_params in (0, optimizers.OVERLAP_MIN_PARAMS):
            monkeypatch.setattr(optimizers, "OVERLAP_MIN_PARAMS", min_params)
            seen.clear()
            with pytest.raises(ProbeFailed):
                _quad_run()
            assert blas.get_threads() == 2
            assert _quad_run(n_steps=10).status == "completed"
            assert blas.get_threads() == 2
            trace = run(make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0))),
                        ParamVector(np.ones(3)), "gd", AdamHyper(eta=1e60), n_steps=30,
                        probes=ProbePlan(every=5))
            assert trace.status == "diverged" and len(trace.probes) >= 1
            assert blas.get_threads() == 2
            assert len(seen) == 3 + 2 + len(trace.probes) and set(seen) == {1}

        # an unprobed run: every gradient finds one thread, completed or raising
        obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))
        real, seen = obj.loss_and_gradient, []

        def gradient(theta):
            seen.append(blas.get_threads())
            if len(seen) == 13:
                raise ZeroGradient("a later step")
            return real(theta)

        monkeypatch.setattr(obj, "loss_and_gradient", gradient)
        assert run(obj, ParamVector(np.ones(3)), "adam", AdamHyper(eta=0.05),
                   n_steps=10).status == "completed"
        assert blas.get_threads() == 2 and seen == [1] * 10
        with pytest.raises(ZeroGradient):
            run(obj, ParamVector(np.ones(3)), "adam", AdamHyper(eta=0.05), n_steps=10)
        assert blas.get_threads() == 2 and seen == [1] * 13
    finally:
        blas.set_threads(threads)


def test_an_unknown_blas_keeps_probes_inline(monkeypatch):
    monkeypatch.setattr(optimizers, "OVERLAP_MIN_PARAMS", 0)
    monkeypatch.setattr(blas, "_api", lambda: None)
    assert blas.get_threads() is None and blas.set_threads(1) is None
    real, seen = optimizers.compute_probe, []

    def probe(*args, **kwargs):
        seen.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizers, "compute_probe", probe)
    assert _quad_run().status == "completed"
    assert seen and set(seen) == {threading.get_ident()}
