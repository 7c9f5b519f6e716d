"""Run traces: the per-step column table, CSV serialization, JSON helpers.

trace.csv layout is fixed: step,loss,grad_norm,vhat_norm_total,
vhat_norm_block_<name>...,eta_t,lambda_max_H,lambda_max_Hhat,
lambda_grad_Hhat,lambda_grad_sustained,stage. Unsampled cells stay empty;
the header is always present. Identical configs reproduce identical bytes.

No trace.csv cell needs quoting (float reprs, ints, empty cells, stage
labels), so write_trace_csv joins each row's cells with "," and writes the
bytes csv.writer would; it reprs each distinct float bit pattern of a chunk
once. write_csv keeps csv.writer, since sweep_summary.csv rows carry error
text that may need quoting.
"""

import csv
import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analysis import BOUNDARIES
from .probes import ProbeRecord

SCHEMA_VERSION = 1
CSV_CHUNK_ROWS = 512  # trace.csv rows formatted per batch; bounds the cells held

# One row per probe: the ProbeRecord fields, then whether its lambda_grad_Hhat
# is present (it is missing where the gradient vanished).
PROBE_DTYPE = np.dtype(list(ProbeRecord.__annotations__.items())
                       + [("has_lambda_grad", bool)])


@dataclass(slots=True)
class StepRecord:
    """One optimizer step: record i covers the transition theta_i -> theta_{i+1}.

    loss is L(theta_{i+1}); grad_norm is |g(theta_i)|; the v-hat norms are
    taken after the step's moment update, matching what the update used.
    Returned by the step functions, and built from columns by RunTrace.records.
    """

    step: int
    loss: float
    grad_norm: float
    vhat_norm_total: float  # None for optimizers without a second moment
    vhat_norm_blocks: tuple
    eta_t: float
    probe: object = None
    lambda_grad_sustained: float = None
    stage: str = None


@dataclass
class RunTrace:
    """One run: config echo, status, and one column per trace.csv column.

    Row i is StepRecord i. vhat holds the total v-hat norm, then one per
    block, or is None without a second moment. probes holds PROBE_DTYPE rows
    at the sampled steps, sustained is (steps, values) on lambda_grad's interior
    present rows, both with increasing steps, and stage is the segmentation's
    boundaries or None. A missing cell is absent from an index or masked, never
    NaN. A diverged run ends at the step that diverged, whose loss is inf.

    eta_t and vhat may be read-only views that store a value once: a
    constant eta_t is one cell broadcast over the steps (stride 0), and a
    one-block vhat is one column broadcast to (total, block). The run
    loop's and thmD4's traces build them so; readers index them as arrays
    and never write them, nor the views probe_series returns.
    """

    config: dict
    status: str  # completed | diverged
    block_names: tuple
    initial_loss: float
    loss: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_norm: np.ndarray = field(default_factory=lambda: np.empty(0))
    eta_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    vhat: np.ndarray = None
    probes: np.ndarray = field(default_factory=lambda: np.empty(0, PROBE_DTYPE))
    sustained: tuple = field(default_factory=lambda: (np.empty(0, int), np.empty(0)))
    stage: dict = None

    def put_probe(self, j, rec: ProbeRecord) -> None:
        lg = rec.lambda_grad_Hhat  # a None is stored as 0.0 and masked out
        self.probes[j] = (*rec[:3], lg or 0.0, *rec[4:], lg is not None)

    def end(self, n_steps, n_probes, status):
        """Keep the first n_steps rows and n_probes probes; set the status."""
        self.loss, self.grad_norm, self.eta_t = (
            c[:n_steps] for c in (self.loss, self.grad_norm, self.eta_t))
        self.vhat = None if self.vhat is None else self.vhat[:n_steps]
        self.probes, self.status = self.probes[:n_probes], status
        return self

    def __len__(self) -> int:
        return len(self.loss)

    @property
    def records(self):
        """Read-only StepRecord rows, each built from the columns on access."""
        return _Rows(self)

    # --- column extraction -------------------------------------------------

    def losses(self) -> np.ndarray:
        return self.loss

    def vhat_norms(self) -> np.ndarray:
        """Total v-hat norm per step; NaN throughout without a second moment."""
        return np.full(len(self), np.nan) if self.vhat is None else self.vhat[:, 0]

    def probe_series(self, *names):
        """(steps, *fields as floats) at the sampled steps; naming lambda_grad_Hhat drops
        its missing rows from all. Views unless a row drops or a field is not float."""
        p = self.probes
        cols = [p["step"], *(p[name] for name in names)]
        if "lambda_grad_Hhat" in names and not p["has_lambda_grad"].all():
            cols = [c[p["has_lambda_grad"]] for c in cols]  # masks the fields, not whole rows
        return cols[0], *(c.astype(float, copy=False) for c in cols[1:])


def _position(steps, i):
    """Index of step i in the increasing array steps, or None if absent.

    bisect reads O(log n) cells in place; np.searchsorted would first copy
    a strided field view such as probes["step"] whole.
    """
    j = bisect_left(steps, i)
    return j if j < len(steps) and steps[j] == i else None


class _Rows(Sequence):
    def __init__(self, trace):
        self._trace = trace

    def __len__(self):
        return len(self._trace)

    def __getitem__(self, i):
        t, i = self._trace, range(len(self))[i]
        v = () if t.vhat is None else tuple(t.vhat[i].tolist())
        j, probe = _position(t.probes["step"], i), None
        if j is not None:
            *p, has_lg = t.probes[j].item()
            probe = ProbeRecord(*p[:3], p[3] if has_lg else None, *p[4:])
        k = _position(t.sustained[0], i)
        stage = None if t.stage is None else _stage_cells(t.stage, i, i + 1)[0] or None
        return StepRecord(i, float(t.loss[i]), float(t.grad_norm[i]),
                          v[0] if v else None, v[1:], float(t.eta_t[i]), probe,
                          None if k is None else float(t.sustained[1][k]), stage)


# === CSV ====================================================================


def _cell(x) -> str:
    """One CSV cell: empty for None, text as is, exact ints, float reprs."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def trace_columns(block_names) -> list:
    cols = ["step", "loss", "grad_norm", "vhat_norm_total"]
    cols += [f"vhat_norm_block_{name}" for name in block_names]
    cols += ["eta_t", "lambda_max_H", "lambda_max_Hhat", "lambda_grad_Hhat",
             "lambda_grad_sustained", "stage"]
    return cols


def write_csv(path, header, rows):
    """Header row, then one row per sequence of values, each cell by _cell.

    csv.writer quotes what needs it: sweep_summary.csv rows carry error text.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def _sparse_cells(steps, values, a, b):
    """Cells a..b-1 of a sparse series: the repr of its values at its steps
    (increasing), "" elsewhere."""
    lo, hi = steps.searchsorted((a, b))
    cells = [""] * (b - a)
    for i, x in zip(steps[lo:hi].tolist(), values[lo:hi].tolist()):
        cells[i - a] = repr(x)
    return cells


def _stage_cells(boundaries, a, b):
    """Stage cells of rows a..b-1: stage k+1 runs from t_k to t_{k+1}, or to the
    end if t_{k+1} is absent, until the first absent t_k; "" outside the stages."""
    cells = [""] * (b - a)
    t = [boundaries[k] for k in BOUNDARIES]
    for k, (lo, hi) in enumerate(zip(t, t[1:])):
        if lo is None:
            break
        lo, hi = max(lo, a), b if hi is None else min(hi, b)
        if lo < hi:  # a stage outside the rows writes nothing; a negative end would delete cells
            cells[lo - a:hi - a] = [str(k + 1)] * (hi - lo)
    return cells


def write_trace_csv(trace: RunTrace, path):
    """The trace's rows, CSV_CHUNK_ROWS at a time, as the bytes csv.writer
    makes of each row's _cell values.

    Each row is its cells joined by "," and ended by csv.writer's CRLF, and
    each chunk is written as one string. A chunk's dense float columns are
    copied into one block and each distinct bit pattern in it is repr'd once,
    so -0.0 and 0.0 stay apart, and a constant eta_t or a v-hat total equal
    to its one block costs one repr per value, not per cell.
    """
    n = len(trace)
    dense = [trace.loss, trace.grad_norm,
             *(() if trace.vhat is None else trace.vhat.T), trace.eta_t]
    no_vhat = 1 + len(trace.block_names) if trace.vhat is None else 0
    # One contiguous copy of the probe steps, as searchsorted copies a strided
    # field view per call. lambda_grad's steps are that copy unless a row drops,
    # when probe_series has already copied them. The sustained series reuses
    # their interior only where its stored steps equal it (fill_sustained's
    # layout); any other series keeps its own steps.
    steps, lam_h, lam_hhat = trace.probe_series("lambda_max_H", "lambda_max_Hhat")
    steps = np.ascontiguousarray(steps)
    lg_steps, lam_grad = trace.probe_series("lambda_grad_Hhat")
    lg_steps = steps if lg_steps.size == steps.size else lg_steps
    s_steps, s_values = trace.sustained
    s_steps = (lg_steps[1:-1] if np.array_equal(s_steps, lg_steps[1:-1])
               else np.ascontiguousarray(s_steps))
    sparse = [(steps, lam_h), (steps, lam_hhat), (lg_steps, lam_grad), (s_steps, s_values)]
    block = np.empty((CSV_CHUNK_ROWS, len(dense)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace_columns(trace.block_names)) + "\r\n")
        for a in range(0, n, CSV_CHUNK_ROWS):
            b = min(a + CSV_CHUNK_ROWS, n)
            rows = block[:b - a]
            for j, c in enumerate(dense):
                rows[:, j] = c[a:b]
            bits, inverse = np.unique(rows.view(np.uint64), return_inverse=True)
            reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            loss, grad_norm, *vhat, eta_t = reprs[inverse.reshape(rows.shape).T].tolist()
            missing = [""] * (b - a)
            cells = zip(
                map(str, range(a, b)), loss, grad_norm, *vhat, *[missing] * no_vhat, eta_t,
                *(_sparse_cells(steps, values, a, b) for steps, values in sparse),
                missing if trace.stage is None else _stage_cells(trace.stage, a, b))
            fh.write("\r\n".join(map(",".join, cells)) + "\r\n")


# === JSON ===================================================================


def write_json(payload: dict, path):
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
