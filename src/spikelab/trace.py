"""Run traces: per-step records, CSV serialization, and JSON helpers.

trace.csv layout is fixed: step,loss,grad_norm,vhat_norm_total,
vhat_norm_block_<name>...,eta_t,lambda_max_H,lambda_max_Hhat,
lambda_grad_Hhat,lambda_grad_sustained,stage. Unsampled cells stay empty;
the header is always present. Identical configs reproduce identical bytes.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1


@dataclass(slots=True)
class StepRecord:
    """One optimizer step: record i covers the transition theta_i -> theta_{i+1}.

    loss is L(theta_{i+1}); grad_norm is |g(theta_i)|; the v-hat norms are
    taken after the step's moment update, matching what the update used.
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
    diverged: bool = False


@dataclass
class RunTrace:
    """Full record of one run: config echo, status, and per-step records."""

    config: dict
    seed: int
    status: str  # completed | diverged
    block_names: tuple
    initial_loss: float
    records: list = field(default_factory=list)

    def validate(self):
        for i, rec in enumerate(self.records):
            if rec.step != i:
                raise ConfigError("trace steps must be contiguous from 0")
        if self.status == "diverged" and self.records and not self.records[-1].diverged:
            raise ConfigError("diverged trace must flag its last record")
        return self

    # --- column extraction -------------------------------------------------

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records], dtype=float)

    def vhat_norms(self) -> np.ndarray:
        return np.array(
            [np.nan if r.vhat_norm_total is None else r.vhat_norm_total
             for r in self.records], dtype=float)

    def eta_series(self) -> np.ndarray:
        return np.array([r.eta_t for r in self.records], dtype=float)

    def probe_series(self, name: str):
        """(steps, values) for one ProbeRecord field over sampled steps."""
        steps, vals = [], []
        for r in self.records:
            if r.probe is not None:
                v = getattr(r.probe, name)
                if v is not None:
                    steps.append(r.step)
                    vals.append(v)
        return np.array(steps, dtype=int), np.array(vals, dtype=float)

    def sustained_series(self):
        steps, vals = [], []
        for r in self.records:
            if r.lambda_grad_sustained is not None:
                steps.append(r.step)
                vals.append(r.lambda_grad_sustained)
        return np.array(steps, dtype=int), np.array(vals, dtype=float)


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
    """Header row, then one row per sequence of values, each cell by _cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def write_trace_csv(trace: RunTrace, path):
    no_blocks = (None,) * len(trace.block_names)
    no_probe = (None, None, None)
    write_csv(path, trace_columns(trace.block_names), (
        (r.step, r.loss, r.grad_norm, r.vhat_norm_total,
         *(r.vhat_norm_blocks or no_blocks), r.eta_t,
         *((r.probe.lambda_max_H, r.probe.lambda_max_Hhat,
            r.probe.lambda_grad_Hhat) if r.probe else no_probe),
         r.lambda_grad_sustained, r.stage)
        for r in trace.records))


def read_trace_csv(path) -> dict:
    """Columns as lists; numeric cells parsed to float, empty cells to None."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = {name: [] for name in header}
    for row in body:
        for name, cell in zip(header, row):
            if name == "stage":
                out[name].append(cell or None)
            elif cell == "":
                out[name].append(None)
            elif name == "step":
                out[name].append(int(cell))
            else:
                out[name].append(float(cell))
    return out


# === JSON ===================================================================


def write_json(payload: dict, path):
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
