"""Byte identity of run directories against the benchmark's reference digests.

These presets cover every trace column shape: probes at every step, the
stage and sustained columns, v-hat columns left empty under GD, a trace
synthesized from the theorem recursion, and an empty trace. fig5-gd also
pins the FNN probe path: its warm-started power iterations on HVP closures.
fig2a and figD10-rmsprop pin the probed D_t of Adam (momentum and bias
scale) and of RMSProp (scale 1), as figD11-adafactor does for rho_t.
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
