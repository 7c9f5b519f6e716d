"""Alternating parent/change pairs of the benchmark, written as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent <rev> --change <rev> --seed 601 \
        --claim long-trace:peak_rss_mb --out BENCH_<label>.json

Every workload of BENCHMARK.json runs PAIRS pairs, each run for its
run_seconds. Each run is `benchmarks/run.py --trace 0` in the committed tree
of its revision, exported with `git archive` into a fresh directory for every
run: <tmp>/parent/tree or <tmp>/change/tree, two paths of the same length
whose last part has the same name, since peak_rss_mb depends on the checkout
directory's name and on its state (a filled __pycache__). Pair i runs the
parent first when i is odd and the change first when it is even, with the
same seed on both sides; the workloads run one after the other.

The file holds each end-to-end metric's median and quartiles (numpy's linear
percentiles) per side, the pairs in which the change is better, every run's
last JSON line, and whether every output digest of every run, on both sides,
is the same.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _fresh_tree(rev, dest):
    """The committed files of rev, and nothing else, at dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _digests(report):
    """{file: sha256} from the report's digest lines, and the files marked MOVED."""
    lines = report.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("digests:"))
    digests, moved = {}, []
    for line in lines[start + 1:-1]:
        sha, key, *flag = line.split()
        digests[key] = sha
        if flag:
            moved.append(key)
    return digests, moved


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["digests"], result["moved"] = _digests(proc.stdout)
    result["machine"] = proc.stdout.splitlines()[0].removeprefix("machine: ")
    return result


def _stats(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, and the pairs the change wins."""
    out = {}
    for m in metrics:
        vals = {side: [p[side]["metrics"][m["name"]]["value"] for p in pairs] for side in SIDES}
        sign = 1 if m["better"] == "lower" else -1
        out[m["name"]] = {**{side: _stats(vals[side]) for side in SIDES},
                          "change_better_pairs": sum(
                              sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))}
    runs = [p[side] for p in pairs for side in SIDES]
    out["all_correct"] = all(r["correct"] for r in runs)
    out["digests_equal"] = all(r["digests"] == runs[0]["digests"] for r in runs)
    out["digests"] = runs[0]["digests"]
    for side in SIDES:
        out["moved" if side == "change" else "moved_at_parent"] = sorted(
            {k for p in pairs for k in p[side]["moved"]})
    return out


def claim_text(summary, workload, metric):
    s = summary[workload][metric]
    parent, change = s["parent"], s["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = abs(change["median"] - parent["median"])
    return (f"{workload} {metric}: parent median {parent['median']:.3f} "
            f"(q1 {parent['q1']:.3f}, q3 {parent['q3']:.3f}, IQR {iqr:.3f}), change median "
            f"{change['median']:.3f}; the change is better in {s['change_better_pairs']} of "
            f"{parent['n']} pairs, and the median gap of {gap:.3f} "
            f"{'exceeds' if gap > iqr else 'does not exceed'} the parent's IQR.")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side")
    ap.add_argument("--seed", type=int, required=True,
                    help="first seed; workload k, pair i uses seed + 20 k + i - 1")
    ap.add_argument("--claim", default=None, help="workload:metric the change claims")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: work / side / "tree" for side in SIDES}

    pairs = []
    try:
        for k, workload in enumerate(workloads):
            for i in range(1, PAIRS + 1):
                seed = args.seed + 20 * k + i - 1
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {"workload": workload, "pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    _fresh_tree(revs[side], trees[side])
                    pair[side] = run_once(trees[side], workload, seed, seconds)
                pairs.append(pair)
                print(f"{workload} pair {i}: " + " ".join(
                    f"{side} peak_rss_mb={pair[side]['metrics']['peak_rss_mb']['value']:.3f} "
                    f"wall_s={pair[side]['metrics']['wall_s']['value']:.3f}" for side in SIDES),
                    flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {w: summarize([p for p in pairs if p["workload"] == w], spec["end_to_end"])
               for w in workloads}
    machine = pairs[0]["parent"]["machine"]
    for p in pairs:
        for side in SIDES:
            del p[side]["machine"], p[side]["digests"]
    body = {
        "machine": machine,
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "script": (f"python3 tools/bench_pairs.py --parent {args.parent} --change {args.change} "
                   f"--seed {args.seed}" + (f" --claim {args.claim}" if args.claim else "")
                   + f" --out {Path(args.out).name}"),
        "parent": revs["parent"],
        "change": revs["change"],
        "note": (f"{PAIRS} alternating pairs per workload, the parent first in odd pairs "
                 "and the change first in even ones, the same seed on both sides. Every run "
                 "starts from a fresh `git archive` of its revision in a directory named "
                 "tree at the same depth. change_better_pairs counts the pairs where the "
                 "change is better by the metric's direction in BENCHMARK.json; ties count "
                 "for neither. digests_equal compares every output digest of every run on "
                 "both sides."),
        "claim": claim_text(summary, *args.claim.split(":")) if args.claim else None,
        "summary": summary,
        "pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(body, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
