"""Self-checks of the traced run and of the report the benchmark prints.

    python3 -m pytest benchmarks/test_benchmarks.py

The traced runs are real workload runs in fresh processes (about a minute in
all on two cores).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import LAYERS, percentile, tail_percentile  # noqa: E402

COUNTS = ("objectives.grad_calls", "objectives.loss_calls",
          "objectives.hvp_calls", "probes.calls", "probes.unconverged",
          "probes.probe_ms.n", "optimizers.steps", "analysis.detect_calls",
          "trace.csv_rows", "trace.csv_bytes")


def traced(workload):
    runner = run.Runner(workload, 0, time.monotonic())
    try:
        return runner.spawn("traced")
    finally:
        runner.close()


@pytest.fixture(scope="module", params=["fnn-train", "long-trace"])
def traced_twice(request):
    return request.param, traced(request.param), traced(request.param)


def test_two_traced_runs_give_identical_counts(traced_twice):
    _, a, b = traced_twice
    assert {k: a["layers"][k] for k in COUNTS} == {k: b["layers"][k] for k in COUNTS}
    assert a["digests"] == b["digests"]


def test_no_hvp_without_probes(traced_twice):
    _, a, _ = traced_twice
    assert a["layers"]["objectives.hvp_calls"] == 0
    assert a["layers"]["probes.calls"] == 0


def test_layer_self_times_cover_traced_wall(traced_twice):
    _, a, _ = traced_twice
    selfs = [a["layers"][f"{layer}.self_s"] for layer in LAYERS]
    assert all(s >= 0 for s in selfs)
    unattributed = a["wall_s"] - sum(selfs)
    assert 0 <= unattributed < a["wall_s"]
    assert sum(selfs) + unattributed == pytest.approx(a["wall_s"], abs=1e-9)


def test_traced_run_passes_its_checks(traced_twice):
    workload, a, _ = traced_twice
    attempted, failed, bad = run.verdicts([a])
    assert (attempted, failed, bad) == (1, 0, [])
    steps = {"fnn-train": 560, "long-trace": 100000}[workload]
    assert a["layers"]["optimizers.steps"] == steps
    assert a["layers"]["trace.csv_rows"] == steps


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(0) == 50.0
    assert tail_percentile(106) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(57473) == 99.9
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert percentile([1.0, 2.0], 90.0) == pytest.approx(1.9)


def test_fails_without_sources(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fnn-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
