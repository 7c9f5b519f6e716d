"""tools/bench_pairs.py's pairing rule, on hand-made pairs: a pair counts for
the change only when the change is strictly better in its metric's
direction, and a claim exceeds the noise only when the median gap is above
the parent's interquartile range."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "success_frac", "better": "higher"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall_s, success_frac, digest="a", moved=()):
    return {"metrics": {"wall_s": {"value": wall_s}, "success_frac": {"value": success_frac}},
            "correct": True, "digests": {"trace.csv": digest}, "moved": list(moved)}


# (parent, change) per pair, for wall_s (lower is better) and success_frac
# (higher is better): better, tie, worse, better by a little
WALL = [(1.0, 0.9), (1.0, 1.0), (1.0, 1.1), (2.0, 1.999)]
SUCCESS = [(0.5, 0.6), (1.0, 1.0), (0.6, 0.5), (0.9, 0.9001)]


def _pairs():
    return [{"parent": _run(wp, sp), "change": _run(wc, sc)}
            for (wp, wc), (sp, sc) in zip(WALL, SUCCESS)]


def test_a_pair_counts_only_when_the_change_is_strictly_better(bench_pairs):
    s = bench_pairs.summarize(_pairs(), METRICS)
    assert s["wall_s"]["change_better_pairs"] == 2
    assert s["success_frac"]["change_better_pairs"] == 2
    # ties count for neither side, and a higher metric flips the sign: the
    # rule read as "lower is better" would count success_frac's third pair
    flipped = bench_pairs.summarize(_pairs(), [{"name": "success_frac", "better": "lower"}])
    assert flipped["success_frac"]["change_better_pairs"] == 1
    everything_tied = [{"parent": _run(1.0, 1.0), "change": _run(1.0, 1.0)}] * 4
    assert bench_pairs.summarize(everything_tied, METRICS)["wall_s"]["change_better_pairs"] == 0


def test_summary_holds_each_sides_quartiles_and_the_digest_check(bench_pairs):
    s = bench_pairs.summarize(_pairs(), METRICS)
    for k, side in enumerate(bench_pairs.SIDES):
        q1, median, q3 = np.percentile([pair[k] for pair in WALL], [25, 50, 75])
        assert s["wall_s"][side] == {"median": median, "q1": q1, "q3": q3, "n": 4}
    assert s["all_correct"] and s["digests_equal"] and s["moved"] == []
    pairs = _pairs()
    pairs[1]["change"] = _run(1.0, 1.0, digest="b", moved=["trace.csv"])
    s = bench_pairs.summarize(pairs, METRICS)
    assert not s["digests_equal"]
    assert s["moved"] == ["trace.csv"] and s["moved_at_parent"] == []


def _summary(change_median):
    parent = {"median": 1.25, "q1": 1.0, "q3": 1.5, "n": 10}  # IQR 0.5
    change = {"median": change_median, "q1": 0.0, "q3": 3.0, "n": 10}
    return {"w": {"m": {"parent": parent, "change": change, "change_better_pairs": 9}}}


@pytest.mark.parametrize("change_median,exceeds", [
    (0.5, True),     # gap 0.75
    (0.75, False),   # gap 0.5, equal to the IQR
    (1.0, False),    # gap 0.25
    (2.0, True),     # gap 0.75 on the other side
    (1.75, False),   # gap 0.5 on the other side
])
def test_claim_exceeds_only_above_the_parents_iqr(bench_pairs, change_median, exceeds):
    text = bench_pairs.claim_text(_summary(change_median), "w", "m")
    assert ("exceeds the parent's IQR" in text) == exceeds
    assert ("does not exceed the parent's IQR" in text) == (not exceeds)
    assert "better in 9 of 10 pairs" in text
