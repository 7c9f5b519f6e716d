"""Per-layer spans recorded from outside the package.

Tracer.install() wraps every public module-level function of each layer
module, plus the objective classes' evaluation methods, and rebinds every
reference to them inside spikelab (modules import each other's names, so
patching one module attribute is not enough). A call made while a span of
the same layer is open runs unwrapped: a layer's span is its outermost
entry, and nested calls in another layer are its children. A span's self
time is its duration minus its children's, so the layers' self times sum
to the traced time covered by any span.

Spans are aggregated in memory as (calls, total, self) per function; only
compute_probe keeps one duration per call, for its percentiles.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("scenarios", "harness", "optimizers", "objectives", "probes",
          "analysis", "trace", "oracles")
OBJECTIVE_METHODS = ("loss", "gradient", "loss_and_gradient", "hvp")
GRAD = ("gradient", "loss_and_gradient")
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_vals, q):
    """Linear-interpolation percentile of an already sorted list."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest listed percentile with at least ten samples beyond it."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, child seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (layer, fn) -> calls, total, self
        self.probe_s = []
        self.probe_iters = 0
        self.unconverged = 0
        self.steps = 0
        self.csv_rows = 0
        self.csv_bytes = 0
        self._patched = []

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, layer, name, fn, on_result=None):
        stack = self.stack
        stat = self.stats[(layer, name)]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
            if on_result is not None:
                on_result(result, args, dur)
            return result

        return span

    def _on_probe(self, rec, args, dur):
        self.probe_s.append(dur)
        self.probe_iters += rec.power_iters_used
        self.unconverged += not rec.converged

    def _on_run(self, trace, args, dur):
        self.steps += len(trace.records)

    def _on_csv(self, _, args, dur):
        self.csv_rows += len(args[0].records)
        self.csv_bytes += os.path.getsize(args[1])

    def install(self):
        import spikelab  # noqa: F401  (loads every layer module)
        from spikelab.objectives import FnnObjective, QuadraticObjective

        hooks = {"compute_probe": self._on_probe, "run": self._on_run,
                 "write_trace_csv": self._on_csv}
        swaps = {}
        for layer in LAYERS:
            mod = sys.modules[f"spikelab.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    swaps[id(fn)] = (fn, self._wrap(layer, name, fn, hooks.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "spikelab" and not modname.startswith("spikelab."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, swaps[id(value)][1])
        for cls in (QuadraticObjective, FnnObjective):
            for name in OBJECTIVE_METHODS:
                fn = cls.__dict__[name]
                self._patched.append((cls, name, fn))
                setattr(cls, name, self._wrap("objectives", name, fn))

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # --- metrics ----------------------------------------------------------

    def _sum(self, layer, names=None, field=2):
        return sum(v[field] for (lay, fn), v in self.stats.items()
                   if lay == layer and (names is None or fn in names))

    def report(self):
        """Per-layer metrics, plus each layer's self time under layer_self."""
        calls = lambda layer, names: self._sum(layer, names, field=0)  # noqa: E731
        total = lambda layer, names: self._sum(layer, names, field=1)  # noqa: E731
        n_probe = len(self.probe_s)
        hvp_calls = calls("objectives", ("hvp",))
        probe_ms = sorted(1e3 * s for s in self.probe_s)
        tail = tail_percentile(n_probe)
        loop_self = self._sum("optimizers", ("run",))
        m = {
            "objectives.grad_calls": calls("objectives", GRAD),
            "objectives.grad_s": total("objectives", GRAD),
            "objectives.loss_calls": calls("objectives", ("loss",)),
            "objectives.loss_s": total("objectives", ("loss",)),
            "objectives.hvp_calls": hvp_calls,
            "objectives.hvp_s": total("objectives", ("hvp",)),
            "probes.calls": n_probe,
            "probes.self_s": self._sum("probes"),
            "probes.iters_per_probe": self.probe_iters / n_probe if n_probe else 0.0,
            "probes.hvp_per_probe": hvp_calls / n_probe if n_probe else 0.0,
            "probes.unconverged": self.unconverged,
            "probes.probe_ms.p50": percentile(probe_ms, 50.0) if n_probe else 0.0,
            "probes.probe_ms.tail": percentile(probe_ms, tail) if n_probe else 0.0,
            "probes.probe_ms.tail_pct": tail,
            "probes.probe_ms.n": n_probe,
            "optimizers.steps": self.steps,
            "optimizers.loop_self_s": loop_self,
            "optimizers.loop_self_us_per_step":
                1e6 * loop_self / self.steps if self.steps else 0.0,
            "analysis.detect_calls": calls("analysis", ("detect_spikes_series",
                                                        "detect_spikes")),
            "analysis.detect_s": total("analysis", ("detect_spikes_series",
                                                    "detect_spikes")),
            "analysis.segment_s": total("analysis", ("segment_stages",)),
            "analysis.crossings_s": total("analysis", ("crossing_summary",)),
            "analysis.sustained_s": total("analysis", ("fill_sustained",)),
            "trace.csv_rows": self.csv_rows,
            "trace.csv_bytes": self.csv_bytes,
            "trace.csv_s": total("trace", ("write_trace_csv",)),
            "trace.json_s": total("trace", ("write_json",)),
            "harness.run_scenario_s": total("harness", ("run_scenario",)),
            "harness.write_run_dir_s": total("harness", ("write_run_dir",)),
            "harness.sweep_s": total("harness", ("run_sweep",)),
            "oracles.five_stage_s": total("oracles", ("five_stage_certificate",)),
            "oracles.lr_decay_s": total("oracles", ("lr_decay_witness",)),
            "scenarios.build_s": total("scenarios", ("build_scenario",)),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self._sum(layer)
        return m
