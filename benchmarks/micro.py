"""Layer microbenchmarks, each timing one public call on a fixed input.

Each timing is the median of several repetitions, except the 1e5-row ones,
which are long enough to time once.
"""

import statistics
import time

import numpy as np

import spikelab as sl

STEPPERS = {"gd": sl.step_gd, "heavy-ball": sl.step_heavy_ball,
            "adam": sl.step_adam, "rmsprop": sl.step_rmsprop,
            "adagrad": sl.step_adagrad, "adafactor": sl.step_adafactor}


def _median_s(fn, reps, warmup=1):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fnn(m):
    """FNN gradient, HVP and a cold probe at the fig6 initial point."""
    sc = sl.build_scenario(sl.preset_config("fig6-fnn50d"))
    obj, theta = sc.objective, sc.theta0
    th = theta.values
    v = np.random.default_rng(0).standard_normal(th.size)
    m["objectives.fnn_grad_ms"] = 1e3 * _median_s(
        lambda: obj.loss_and_gradient(th), reps=15, warmup=2)
    m["objectives.fnn_hvp_ms"] = 1e3 * _median_s(
        lambda: obj.hvp(th, v), reps=15, warmup=2)

    # The preconditioner the run loop probes with after its first Adam step.
    h = sc.hyper
    state = sl.OptimizerState.fresh("adam", theta.dim)
    sl.step_adam(obj, theta, state, h)
    vhat = state.v / (1.0 - h.beta2)
    pre = sl.Preconditioner.for_adam(h.beta1, h.beta2, 1, vhat, h.epsilon,
                                     h.bias_correction)
    g = obj.gradient(th)
    probe = lambda: sl.compute_probe(  # noqa: E731
        obj, th, pre, g, h.eta, 0, sc.seed, sl.ProbeWarmStart(),
        max_iters=sc.probes.max_iters, tol=sc.probes.tol)
    m["probes.compute_probe_cold_ms"] = 1e3 * _median_s(probe, reps=3, warmup=0)


def _steps(m, n_steps=200, blocks=5):
    """One step of each optimizer kind at d=1 and d=100, in microseconds."""
    for dim in (1, 100):
        obj = sl.make_quadratic(sl.QuadraticSpec(
            eigenvalues=tuple(np.linspace(1.0, 10.0, dim))))
        hyper = sl.AdamHyper(eta=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8)
        for kind, step in STEPPERS.items():
            theta = obj.initial_point(1.0)
            state = sl.OptimizerState.fresh(kind, dim)
            times = []
            for _ in range(blocks + 1):  # the first block warms up
                t0 = time.perf_counter()
                for _ in range(n_steps):
                    theta, state, _ = step(obj, theta, state, hyper)
                times.append((time.perf_counter() - t0) / n_steps)
            m[f"optimizers.step_us.{kind}.d{dim}"] = 1e6 * statistics.median(times[1:])


def _long_trace(m, out):
    """Spike detection and CSV writing on the figD9 (1e5-step) trace."""
    sc = sl.build_scenario(sl.preset_config("figD9-adagrad"))
    trace = sl.run(sc.objective, sc.theta0, sc.kind, sc.hyper, sched=sc.sched,
                   plan=sc.plan, n_steps=sc.n_steps, probes=sc.probes,
                   seed=sc.seed, config_echo=sc.flat)
    losses = trace.losses()
    m["analysis.detect_1e5_s"] = _median_s(
        lambda: sl.detect_spikes_series(losses, rho=sc.analysis.rho,
                                        window=sc.analysis.window),
        reps=1, warmup=0)
    path = out / "micro-trace.csv"
    m["trace.write_csv_1e5_s"] = _median_s(
        lambda: sl.write_trace_csv(trace, path), reps=1, warmup=0)
    path.unlink()


def _segment(m):
    """Stage segmentation of the thmD4 certificate trace (8,373 steps)."""
    sc = sl.build_scenario(sl.preset_config("thmD4"))
    trace = sl.run_scenario(sc).trace
    m["analysis.segment_8k_s"] = _median_s(
        lambda: sl.segment_stages(trace, sc.hyper), reps=3)


def run_all(out):
    out.mkdir(parents=True, exist_ok=True)
    m = {}
    _fnn(m)
    _steps(m)
    _segment(m)
    _long_trace(m, out)
    return m
