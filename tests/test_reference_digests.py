"""Byte identity of run directories against the benchmark's reference digests.

These presets cover every trace column shape: probes at every step, the
stage and sustained columns, v-hat columns left empty under GD, a trace
synthesized from the theorem recursion, and an empty trace. fig5-gd also
pins the FNN probe path: its warm-started power iterations on HVP closures.
fig2a and figD10-rmsprop pin the probed D_t of Adam (momentum and bias
scale) and of RMSProp (scale 1), as figD11-adafactor does for rho_t.
fig5-adam, pinned here and not in the benchmark's file, covers the one probe
path the presets above leave out: the preconditioned Lanczos solve on an FNN
closure, cold and warm-started.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spikelab import build_scenario, preset_config, run_scenario, write_run_dir

REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference_digests.json"
FILES = ("trace.csv", "analysis.json", "certificate.json")


@pytest.mark.parametrize("name", ["fig2a", "fig3-spike", "fig5-gd", "figD10-rmsprop",
                                  "figD11-adafactor", "figD12-gd-delay", "thmD4",
                                  "thmD6"])
def test_run_dir_matches_reference_digests(name, tmp_path):
    reference = json.loads(REFERENCE.read_text())["preset-mix"]
    d = write_run_dir(run_scenario(build_scenario(preset_config(name))), out=tmp_path)
    got = {f"{name}/{f}": hashlib.sha256((d / f).read_bytes()).hexdigest()
           for f in FILES if (d / f).exists()}
    want = {key: reference[key] for key in (f"{name}/{f}" for f in FILES)
            if key in reference}
    assert want and got == want


# fig5-adam cut to 600 steps: 120 probes of the 61-parameter net, each solve
# within one 6-vector Lanczos basis
FIG5_ADAM_600 = {
    "trace.csv": "d7343de6dcf39bf93476309f3def6ec5fd15899fea1ccc4249f485f8cfaabcbe",
    "analysis.json": "3189f83902c72d915b0f84b9f878170cae8431f899d1296b5a9109fac980be54",
}


def test_fig5_adam_preconditioned_probes_keep_their_bytes(tmp_path):
    flat = preset_config("fig5-adam")
    flat["n_steps"] = 600
    d = write_run_dir(run_scenario(build_scenario(flat)), out=tmp_path)
    assert {f: hashlib.sha256((d / f).read_bytes()).hexdigest()
            for f in FIG5_ADAM_600} == FIG5_ADAM_600
