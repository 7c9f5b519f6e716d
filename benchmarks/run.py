"""spikelab benchmark: end-to-end run cost, traced per-layer costs, digests.

    python3 benchmarks/run.py --workload fnn-probe --seed 1 --seconds 25 --trace 0

Every measurement is a fresh Python process (benchmarks/child.py) that
imports spikelab from ./src, builds the workload's scenarios, runs them
through the public pipeline and writes every output file. With --trace 0
the workload is repeated until --seconds have passed, set-up is also timed
in a few set-up-only processes, and the end-to-end metrics are medians over
those processes. With --trace 1 the workload runs once untraced, once with
spans around every layer (spans.py), and the layer microbenchmarks
(micro.py) run in a third process.

The lines before the last one are a human-readable report: machine facts,
every metric with its unit, correctness verdicts and output digests. The
last line is one JSON object: correct, attempted, failed, metrics. Metric
names and units come from BENCHMARK.json.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_digests.json"
SETUP_ONLY = 5  # extra set-up-only processes per measured run
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s


class BenchError(Exception):
    pass


# === machine facts ==========================================================


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through its C API."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_facts():
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": _blas_threads()}


# === child processes ========================================================


class Runner:
    """Starts child processes in a work directory inside the checkout."""

    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.workdir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
        self.n = 0

    def spawn(self, mode):
        """Run one child; returns its payload with wall_s and setup_s added."""
        self.n += 1
        out = self.workdir / f"out-{self.n}"
        result = self.workdir / f"result-{self.n}.json"
        self.workdir.mkdir(parents=True, exist_ok=True)
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before starting a child process")
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               str(self.seed), str(out), str(result)]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the time limit") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with {proc.returncode}")
        payload = json.loads(result.read_text())
        result.unlink()
        payload["setup_s"] = payload["t_built"] - t_spawn if "t_built" in payload else None
        payload["wall_s"] = payload["t_done"] - t_spawn if "t_done" in payload else None
        return payload

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


# === measurement ============================================================


def verdicts(payloads):
    """(attempted, failed, failed check lines) over every scenario run."""
    attempted = failed = 0
    bad = []
    for p in payloads:
        for checks in p["runs"]:
            attempted += 1
            misses = [c for c in checks if not c[2]]
            failed += bool(misses)
            bad += misses
    return attempted, failed, bad


def measure(runner, seconds):
    """End-to-end metrics over repeated fresh-process runs (--trace 0)."""
    reps = []
    while True:
        reps.append(runner.spawn("run"))
        elapsed = time.monotonic() - runner.started
        # Stop before a repetition that would end past --seconds (or near
        # the deadline); the first one always runs.
        next_end = elapsed + statistics.mean(p["wall_s"] for p in reps)
        if next_end > min(seconds, DEADLINE_S - 20):
            break
    setups = [p["setup_s"] for p in reps]
    setups += [runner.spawn("setup")["setup_s"] for _ in range(SETUP_ONLY)]
    attempted, failed, _ = verdicts(reps)
    probes = sum(p["probes"] for p in reps)
    unconverged = sum(p["unconverged"] for p in reps)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in reps),
        "probe_converged_frac": 1.0 - unconverged / probes if probes else 1.0,
        "success_frac": 1.0 - failed / attempted,
    }
    extra = {"reps": len(reps), "setups": len(setups),
             "error_frac": failed / attempted,
             "probe_unconverged_frac": unconverged / probes if probes else 0.0,
             "probes": probes}
    return reps, metrics, extra


def traced(runner):
    """Per-layer metrics from one traced run, one untraced, and micro (--trace 1)."""
    plain = runner.spawn("run")
    spans = runner.spawn("traced")
    micro = runner.spawn("micro")
    metrics = dict(spans["layers"])
    metrics.update(micro["micro"])
    wall = spans["wall_s"]
    metrics["tracing.wall_s"] = wall
    metrics["tracing.overhead_s"] = wall - plain["wall_s"]
    metrics["tracing.unattributed_s"] = wall - sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS)
    return [plain, spans], metrics, {"untraced_wall_s": plain["wall_s"]}


# === digests ================================================================


def moved_digests(workload, current):
    if not REFERENCE.exists():
        return sorted(current)
    ref = json.loads(REFERENCE.read_text()).get(workload, {})
    keys = sorted(set(ref) | set(current))
    return [k for k in keys if ref.get(k) != current.get(k)]


def update_reference(workload, current):
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[workload] = dict(sorted(current.items()))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# === report =================================================================


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="record this run's digests as the workload's reference")
    args = ap.parse_args(argv)
    started = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "spikelab" / "__init__.py").is_file():
        raise BenchError("no spikelab sources under ./src")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.workload, args.seed, started)
    try:
        if args.trace:
            payloads, values, extra = traced(runner)
        else:
            payloads, values, extra = measure(runner, args.seconds)
    finally:
        runner.close()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    attempted, failed, bad = verdicts(payloads)
    digests = payloads[-1]["digests"]
    deterministic = all(p["digests"] == digests for p in payloads)
    if args.update_reference:
        update_reference(args.workload, digests)
    moved = moved_digests(args.workload, digests)

    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in extra.items()))
    for m in wanted:
        print(f"  {m['name']:<40} {values[m['name']]:>16.6f} {m['unit']}")
    print(f"correctness: {attempted - failed}/{attempted} runs pass, "
          f"error_frac={failed / attempted:.6g}")
    for scenario, check, _, detail in bad:
        print(f"  FAIL {scenario}: {check} ({detail})")
    if not deterministic:
        print("  FAIL output digests differ between runs of the same inputs")
    print(f"digests: {len(digests)} files, {len(moved)} moved from the reference")
    for key in sorted(digests):
        print(f"  {digests[key]}  {key}{'  MOVED' if key in moved else ''}")
    for key in moved:
        if key not in digests:
            print(f"  {'-' * 64}  {key}  MOVED (missing)")
    result = {"correct": failed == 0 and deterministic, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
