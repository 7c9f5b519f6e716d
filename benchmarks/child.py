"""One measured process of the benchmark: set up, run, check, report.

    python3 benchmarks/child.py MODE WORKLOAD SEED OUT_DIR RESULT_FILE

MODE is `setup` (import and build only), `run` (untraced), `traced` (run
with every layer wrapped by spans.Tracer) or `micro` (layer
microbenchmarks). The result is one JSON object written to RESULT_FILE;
times are time.monotonic() readings, which the parent compares with the
moment it started this process.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, out, tracer=None):
    """Build, run and check one workload; the payload the parent reads."""
    if tracer is not None:
        tracer.install()
    import workloads as wl

    jobs = wl.build_jobs(workload, seed)
    t_built = time.monotonic()
    outcomes = [wl.execute(job, out) for job in jobs]
    t_done = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    payload = {"t_built": t_built, "t_done": t_done,
               "peak_rss_mb": _peak_rss_mb(), "runs": [], "digests": {},
               "probes": 0, "unconverged": 0}
    for o in outcomes:
        payload["runs"] += wl.check(o)
        payload["digests"].update(wl.digests(o))
        taken, unconverged = wl.probe_counts(o)
        payload["probes"] += taken
        payload["unconverged"] += unconverged
    return payload


def main(argv):
    mode, workload, seed, out, result_file = argv
    seed = int(seed)
    if mode == "setup":
        import workloads as wl
        wl.build_jobs(workload, seed)
        payload = {"t_built": time.monotonic()}
    elif mode == "run":
        payload = run_workload(workload, seed, out)
    elif mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        payload = run_workload(workload, seed, out, tracer)
        payload["layers"] = tracer.report()
    elif mode == "micro":
        import micro
        payload = {"micro": micro.run_all(Path(out))}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result_file).write_text(json.dumps(payload))


if __name__ == "__main__":
    main(sys.argv[1:])
