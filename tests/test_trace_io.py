"""Trace CSV/JSON serialization and the RunTrace column helpers."""

import csv
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikelab import (AdamHyper, ProbePlan, ProbeRecord, QuadraticSpec,
                      RunTrace, build_scenario, fill_sustained, make_quadratic,
                      preset_config, run, run_scenario, trace_columns, write_trace_csv)
from spikelab.analysis import BOUNDARIES
from spikelab.trace import CSV_CHUNK_ROWS, PROBE_DTYPE, _stage_cells, write_csv, write_json

# === columns ================================================================


def test_trace_columns_layout():
    assert trace_columns(("all",)) == [
        "step", "loss", "grad_norm", "vhat_norm_total", "vhat_norm_block_all",
        "eta_t", "lambda_max_H", "lambda_max_Hhat", "lambda_grad_Hhat",
        "lambda_grad_sustained", "stage"]


def test_trace_columns_one_per_block():
    cols = trace_columns(("W1", "b1", "W2", "b2"))
    assert cols[4:8] == ["vhat_norm_block_W1", "vhat_norm_block_b1",
                         "vhat_norm_block_W2", "vhat_norm_block_b2"]
    assert len(cols) == 14


# === csv round trip =========================================================


def _small_trace():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 4.0)))
    return run(obj, obj.initial_point(1.0), "adam", AdamHyper(eta=0.05),
               n_steps=9, probes=ProbePlan(every=3))


def _rows(path):
    """trace.csv's rows as dicts of their cells."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_round_trip(tmp_path):
    trace = _small_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rows = _rows(path)
    assert [int(row["step"]) for row in rows] == list(range(9))
    assert [float(row["loss"]) for row in rows] == [pytest.approx(r.loss) for r in trace.records]
    # probes ran on steps 0, 3, 6; other cells are empty
    assert [i for i, row in enumerate(rows) if row["lambda_max_Hhat"]] == [0, 3, 6]
    assert all(row["stage"] == "" for row in rows)
    assert float(rows[2]["vhat_norm_block_theta"]) == pytest.approx(
        trace.records[2].vhat_norm_blocks[0])


def test_csv_preserves_float_precision(tmp_path):
    trace = _small_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    # repr round trip is exact, not approximate
    assert [float(row["grad_norm"]) for row in _rows(path)] == [
        r.grad_norm for r in trace.records]


def test_csv_nonfinite_cells(tmp_path):
    trace = RunTrace(config={}, status="diverged", block_names=("all",),
                     initial_loss=1.0, loss=np.array([math.inf]),
                     grad_norm=np.array([2.0]), eta_t=np.array([0.1]))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    (row,) = _rows(path)
    assert float(row["loss"]) == math.inf
    assert row["vhat_norm_total"] == ""


def test_missing_cells_stay_distinct_from_nan(tmp_path):
    trace = RunTrace(config={}, status="completed", block_names=("all",),
                     initial_loss=1.0, loss=np.array([0.5, np.nan, 0.25]),
                     grad_norm=np.ones(3), eta_t=np.full(3, 0.1),
                     vhat=np.array([[np.nan, np.nan], [1.0, 1.0], [2.0, 2.0]]),
                     probes=np.empty(3, PROBE_DTYPE))
    trace.put_probe(0, ProbeRecord(0, 1.0, 2.0, None, 20.0, 3, True))
    trace.put_probe(1, ProbeRecord(2, 1.0, np.nan, np.nan, 20.0, 4, False))
    trace.end(3, 2, "completed")
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rows = path.read_text().splitlines()
    assert rows[1:] == ["0,0.5,1.0,nan,nan,0.1,1.0,2.0,,,",
                        "1,nan,1.0,1.0,1.0,0.1,,,,,",
                        "2,0.25,1.0,2.0,2.0,0.1,1.0,nan,nan,,"]
    steps, _ = trace.probe_series("lambda_grad_Hhat")
    assert steps.tolist() == [2]
    first, _, last = trace.records
    assert first.probe.lambda_grad_Hhat is None and first.probe.converged
    assert math.isnan(last.probe.lambda_grad_Hhat) and not last.probe.converged
    assert last.probe.power_iters_used == 4


def _rowwise_reference(trace, path):
    """trace.csv as a row-wise writer makes it: each StepRecord's cells by _cell."""
    def row(r):
        p = r.probe
        vhat = ([r.vhat_norm_total, *r.vhat_norm_blocks] if r.vhat_norm_total is not None
                else [None] * (1 + len(trace.block_names)))
        lam = [None] * 3 if p is None else [p.lambda_max_H, p.lambda_max_Hhat, p.lambda_grad_Hhat]
        return [r.step, r.loss, r.grad_norm, *vhat, r.eta_t, *lam,
                r.lambda_grad_sustained, r.stage]
    write_csv(path, trace_columns(trace.block_names), map(row, trace.records))


def _shaped_trace(shape, n):
    """An n-row trace with one column shape; awkward floats in every dense column."""
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    col[:4] = [math.inf, -0.0, math.nan, 1e-320][:n]
    blocks = ("W1", "b1") if shape not in ("gd", "aliased") else ("theta",)
    trace = RunTrace(config={}, status="completed", block_names=blocks,
                     initial_loss=1.0, loss=col, grad_norm=np.abs(col[::-1]).copy(),
                     eta_t=np.full(n, 0.1),
                     vhat=None if shape == "gd" else rng.random((n, 1 + len(blocks))))
    if shape == "aliased":
        # cells the writer shares between columns and rows: a v-hat total
        # bit-equal to its one block, 0.0 beside -0.0 in every chunk, and
        # losses that repeat grad-norm cells (eta_t is constant throughout)
        v = trace.vhat[:, 0]
        v[::3], v[1::3] = 0.0, -0.0
        trace.vhat[:, 1] = v
        trace.loss[1::2] = trace.grad_norm[: n // 2]
    if shape.startswith(("probes", "missing_lambda_grad")):
        steps = sorted({0, n - 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, *range(3, n, 97)} & set(range(n)))
        trace.probes = np.empty(len(steps), PROBE_DTYPE)
        for j, s in enumerate(steps):
            lg = None if shape.startswith("missing_lambda_grad") and j % 2 else rng.standard_normal()
            trace.put_probe(j, ProbeRecord(s, rng.random(), -rng.random(), lg, 20.0, 5, True))
    if shape.endswith("+sustained"):
        # the writer places the values on lambda_grad's sustained_rows
        fill_sustained(trace)
    if shape == "stage":
        # boundaries on and beside chunk edges, and an open last stage; this
        # shape reaches the writer's stage plumbing, and the test below checks
        # the column against the per-step labels
        c = CSV_CHUNK_ROWS
        trace.stage = dict(zip(BOUNDARIES, (0, 3, c - 1, c, c + 1, None)))
    return trace


SHAPES = ["gd", "dense", "probes", "missing_lambda_grad", "stage", "aliased",
          "probes+sustained", "missing_lambda_grad+sustained"]


@pytest.mark.parametrize("n", [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("shape", SHAPES)
def test_chunked_writer_matches_rowwise_reference(tmp_path, shape, n):
    trace = _shaped_trace(shape, n)
    write_trace_csv(trace, tmp_path / "chunked.csv")
    _rowwise_reference(trace, tmp_path / "rowwise.csv")
    text = (tmp_path / "chunked.csv").read_bytes()
    assert text == (tmp_path / "rowwise.csv").read_bytes()
    assert text.count(b"\r\n") == n + 1
    if shape == "stage":  # the reference reads its stage through the same helper
        assert [row["stage"] for row in _rows(tmp_path / "chunked.csv")] == [
            x or "" for x in _stage_labels(trace.stage, n)]


def test_segmented_preset_cells_need_no_quoting(tmp_path):
    # trace.csv joins its cells unquoted: a stage label or any other cell
    # holding a delimiter, quote or line break would silently break the file
    result = run_scenario(build_scenario(preset_config("fig3-spike")))
    trace = result.trace
    assert None not in trace.stage.values()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_bytes().decode()
    lines = text.split("\r\n")
    assert lines.pop() == "" and len(lines) == len(trace) + 1
    assert not any(set(line) & set('"\r\n') for line in lines)
    # a cell holding "," would add a cell to its row
    cells = [line.split(",") for line in lines]
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == cells
    assert {len(row) for row in cells} == {len(trace_columns(trace.block_names))}
    assert {row[-1] for row in cells[1:]} == {"", "1", "2", "3", "4", "5"}


@pytest.mark.parametrize("preset", ["fig3-spike", "fig3-oscillation", "thmD4"])
def test_segmented_trace_stores_the_boundaries_once(preset):
    # the stage column is the analysis' own boundaries, not a per-step copy
    result = run_scenario(build_scenario(preset_config(preset)))
    assert result.trace.stage is result.analysis["segmentation"]["boundaries"]


# === stage cells ============================================================


def _stage_labels(boundaries, n):
    """Reference: per-step labels '1'..'5' from boundaries t0..t5, None
    outside the stages, as one n-long list."""
    labels = [None] * n
    b = [boundaries[k] for k in BOUNDARIES]
    for k in range(5):
        if b[k] is None:
            break
        stop = n if b[k + 1] is None else min(b[k + 1], n)
        labels[b[k]:stop] = [str(k + 1)] * (stop - b[k])
    return labels


@pytest.mark.parametrize("boundaries,n,labels", [
    ((0, 2, 4), 6, ["1", "1", "2", "2", "3", "3"]),
    ((0,), 4, ["1", "1", "1", "1"]),
    ((0, 1, 2, 3, 4, 5), 7, ["1", "2", "3", "4", "5", None, None]),
    ((0, 2, 9), 4, ["1", "1", "2", "2"]),
], ids=["last-open-stage-extends", "t1-missing", "after-t5", "beyond-n"])
def test_stage_cells_on_hand_built_boundaries(boundaries, n, labels):
    bounds = dict(zip(BOUNDARIES, boundaries + (None,) * (6 - len(boundaries))))
    assert _stage_labels(bounds, n) == labels
    assert _stage_cells(bounds, 0, n) == [x or "" for x in labels]


def _chunk_edges(stop):
    """Rows on CSV_CHUNK_ROWS edges and one either side of them, in 0..stop."""
    return sorted({k * CSV_CHUNK_ROWS + d for k in range(stop // CSV_CHUNK_ROWS + 2)
                   for d in (-1, 0, 1)} & set(range(stop + 1)))


_EDGE = st.sampled_from(_chunk_edges(4 * CSV_CHUNK_ROWS))


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(_EDGE, st.integers(0, 4 * CSV_CHUNK_ROWS)),
       present=st.lists(st.one_of(_EDGE, st.integers(0, 4 * CSV_CHUNK_ROWS)), max_size=6),
       ordered=st.booleans())
@example(3 * CSV_CHUNK_ROWS, [0, 5, CSV_CHUNK_ROWS + 1], True)  # stage ends before a window
@example(2 * CSV_CHUNK_ROWS, [0, 1, 2, 3, 9, CSV_CHUNK_ROWS + 7], True)  # t5 inside a chunk
@example(3 * CSV_CHUNK_ROWS, [0, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS - 1], True)  # open end
@example(CSV_CHUNK_ROWS + 1, [0], True)  # t1 missing
@example(CSV_CHUNK_ROWS + 1, [0, 5, 4 * CSV_CHUNK_ROWS], True)  # beyond n
def test_stage_cells_match_the_per_step_labels(n, present, ordered):
    # present boundaries are a prefix t0, t1, ...; windows start and end on
    # chunk edges and one row either side of them, as the writer's chunks
    # and the records' single rows do
    present = sorted(present) if ordered else present
    bounds = dict(zip(BOUNDARIES, present + [None] * (6 - len(present))))
    labels = [x or "" for x in _stage_labels(bounds, n)]
    edges = sorted(set(_chunk_edges(n)) | {n})
    for a in edges:
        for b in edges:
            if a <= b:
                assert _stage_cells(bounds, a, b) == labels[a:b], (a, b)
    for i in range(n):
        assert _stage_cells(bounds, i, i + 1) == labels[i:i + 1]


def test_writing_a_long_trace_holds_one_chunk_of_cells(tmp_path):
    # the row-wise writer held four n-long object columns, 3.4 MB at 1e5
    # rows; the chunked writer holds one chunk's cells at a time (0.27 MB)
    n = 100_000
    rng = np.random.default_rng(0)
    trace = RunTrace(config={}, status="completed", block_names=("theta",),
                     initial_loss=1.0, loss=rng.random(n), grad_norm=rng.random(n),
                     eta_t=np.full(n, 0.1))
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_writing_a_trace_probed_every_step_copies_only_probe_fields(tmp_path):
    # masking whole 50-byte probe rows for lambda_grad_Hhat peaked at 9.8 MB
    # at 1e5 rows; masking its step and value fields peaks at 5.3 MB. The
    # step field was then copied once per sparse series, four times in all:
    # 4.7 times one copy's peak. It is copied once: 1.7 times
    n = 100_000
    rng = np.random.default_rng(0)
    probes = np.zeros(n, PROBE_DTYPE)
    probes["step"] = np.arange(n)
    for name in ("lambda_max_H", "lambda_max_Hhat", "lambda_grad_Hhat"):
        probes[name] = rng.random(n)
    probes["has_lambda_grad"] = True
    trace = RunTrace(config={}, status="completed", block_names=("theta",),
                     initial_loss=1.0, loss=rng.random(n), grad_norm=rng.random(n),
                     eta_t=np.full(n, 0.1), probes=probes)
    fill_sustained(trace)
    peaks = []
    for write in (lambda: np.ascontiguousarray(probes["step"]),
                  lambda: write_trace_csv(trace, tmp_path / "trace.csv")):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_copy, peak = peaks
    assert peak < 7_000_000
    assert peak < 2.5 * one_copy, (peak, one_copy)


@pytest.mark.parametrize("preset,n_steps", [("figD9-adagrad", 3_000), ("thmD4", 0)])
def test_view_backed_columns_write_the_bytes_of_materialized_ones(tmp_path, preset, n_steps):
    # a constant eta_t and a one-block vhat are broadcast views in the run
    # loop's and thmD4's traces; copies of them must write the same file
    trace = run_scenario(build_scenario({**preset_config(preset), "n_steps": n_steps})).trace
    assert trace.eta_t.strides == (0,) and trace.vhat.strides == (8, 0)
    write_trace_csv(trace, tmp_path / "views.csv")
    trace.eta_t, trace.vhat = np.array(trace.eta_t), np.array(trace.vhat)
    assert trace.eta_t.flags.writeable and trace.vhat.strides == (16, 8)
    write_trace_csv(trace, tmp_path / "copies.csv")
    assert (tmp_path / "views.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()


def test_records_view_matches_columns():
    trace = _small_trace()
    trace.stage = dict(zip(BOUNDARIES, (0, 2, 4, 5, 6, 8)))
    fill_sustained(trace)
    # probes on steps 0, 3 and 6 leave one sustained value, on step 3
    lg_steps, lg = trace.probe_series("lambda_grad_Hhat")
    assert lg_steps[trace.sustained_rows()].tolist() == [3]
    assert trace.sustained.tolist() == [min(lg)]
    rows = trace.records
    assert len(rows) == 9 and rows[-1].step == 8
    assert [r.stage for r in rows] == ["1", "1", "2", "2", "3", "4", "5", "5", None]
    for i, rec in enumerate(rows):
        assert rec.step == i and type(rec.step) is int
        assert rec.loss == trace.loss[i] and rec.eta_t == trace.eta_t[i]
        assert (rec.vhat_norm_total,) + rec.vhat_norm_blocks == tuple(trace.vhat[i])
        assert (rec.probe is not None) == (i % 3 == 0)
        assert rec.lambda_grad_sustained == (min(lg) if i == 3 else None)
    steps, vals = trace.probe_series("lambda_max_Hhat")
    assert [rows[i].probe.lambda_max_Hhat for i in steps] == vals.tolist()
    with pytest.raises(IndexError):
        rows[9]
    with pytest.raises(AttributeError):
        rows.append(rows[0])


def _probed_trace(n, probe_steps):
    """A synthetic n-step trace probed at the given steps, lambda_grad missing on
    multiples of 4, with its sustained series filled as a run fills it."""
    trace = RunTrace(config={}, status="completed", block_names=("all",),
                     initial_loss=1.0, loss=np.arange(n, dtype=float),
                     grad_norm=np.ones(n), eta_t=np.full(n, 0.1),
                     probes=np.empty(len(probe_steps), PROBE_DTYPE))
    for j, s in enumerate(probe_steps):
        lg = None if s % 4 == 0 else 3.0 * s
        trace.put_probe(j, ProbeRecord(int(s), float(s), 2.0 * s, lg, 20.0, j + 1, True))
    fill_sustained(trace)
    return trace


def test_records_find_irregular_probe_steps():
    # lambda_grad is present at 1, 5 and 11 (3.0, 15.0, 33.0): one sustained
    # value, their min, on step 5
    n, probe_steps = 12, [0, 1, 4, 5, 11]
    sustained = {5: 3.0}
    trace = _probed_trace(n, probe_steps)
    rows = trace.records
    for i in range(-n, n):
        rec, step = rows[i], i % n
        assert rec.step == step and rec.loss == float(step)
        assert rec.lambda_grad_sustained == sustained.get(step)
        if step not in probe_steps:
            assert rec.probe is None
            continue
        assert rec.probe.step == step and rec.probe.lambda_max_Hhat == 2.0 * step
        assert rec.probe.lambda_grad_Hhat == (None if step % 4 == 0 else 3.0 * step)
        assert rec.probe.power_iters_used == probe_steps.index(step) + 1
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]


def test_record_access_does_not_scale_with_trace_length():
    # the same 2,000 rows read from a short and a 32x longer trace, probed on
    # every step and sustained on three in four: a scan of the probe steps, or
    # lambda_grad's present steps re-derived, on each read makes a read of the
    # long trace about 10x dearer
    def per_read(n):
        trace = _probed_trace(n, np.arange(n))
        rows, picks = trace.records, range(0, n, n // 2000)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for i in picks:
                rows[i]
            best = min(best, time.perf_counter() - t0)
        return best / len(picks)

    assert per_read(64000) < 4.0 * per_read(2000)


def test_series_helpers():
    trace = _small_trace()
    assert len(trace.losses()) == 9
    steps, vals = trace.probe_series("lambda_max_Hhat")
    assert steps.tolist() == [0, 3, 6]
    assert all(v > 0 for v in vals)
    assert trace.eta_t.tolist() == [0.05] * 9
    # with every lambda_grad present, the steps and float fields are views of
    # the probe table; other fields come back as floats
    assert np.shares_memory(vals, trace.probes)
    steps, lg, thr, converged = trace.probe_series("lambda_grad_Hhat", "threshold",
                                                   "converged")
    assert all(np.shares_memory(a, trace.probes) for a in (steps, lg, thr))
    assert converged.dtype == float and converged.tolist() == [1.0, 1.0, 1.0]
    assert trace.probe_series("converged")[1].dtype == float


# === json ===================================================================


def test_write_json_schema_and_format(tmp_path):
    path = tmp_path / "out.json"
    write_json({"b": 1, "a": {"x": None}}, path)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["schema_version"] == 1
    # sorted keys make the file diffable
    assert text.index('"a"') < text.index('"b"') < text.index('"schema_version"')


def test_write_json_keeps_explicit_version(tmp_path):
    path = tmp_path / "out.json"
    write_json({"schema_version": 7}, path)
    assert json.loads(path.read_text())["schema_version"] == 7
