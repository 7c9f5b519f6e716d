"""Instrumentation lab for loss spikes in adaptive gradient methods.

Simulate Adam-family optimizers on small analytic objectives, probe the
preconditioned curvature against the 2/eta stability boundary, detect and
segment loss spikes, and certify the supporting theory numerically.
"""

from .analysis import (crossing_summary, detect_spikes_series, fill_sustained,
                       fit_decay, pre_spike_index, segment_stages)
from .errors import (ConfigError, DivergedEvaluation, DivergedRun,
                     Indeterminate, InvalidDirection, InvalidSeries,
                     OracleMisuse, OracleSizeExceeded, PreconditionViolation,
                     SpikelabError, ZeroGradient)
from .harness import (RunResult, SweepResult, run_scenario, run_sweep,
                      summary_line, sweep_row, write_run_dir)
from .objectives import (FnnObjective, FnnTaskSpec, QuadraticObjective,
                         QuadraticSpec, export_dataset_rows, make_quadratic)
from .optimizers import (OPTIMIZER_KINDS, ProbePlan, run, step_adafactor,
                         step_adagrad, step_adam, step_gd, step_heavy_ball,
                         step_rmsprop)
from .oracles import (central_fd_hvp, check_descent_lemma, default_fd_step, dense_hessian,
                      five_stage_certificate, lr_decay_witness, momentum_boundary,
                      momentum_boundary_check, momentum_stability_classify,
                      real_spectrum_check, spike_iff_certificate, spike_iff_check)
from .params import (NO_MITIGATION, AdamHyper, LrSchedule, MitigationPlan,
                     OptimizerState, ParamVector)
from .probes import (PowerResult, Preconditioner, ProbeRecord, ProbeWarmStart,
                     compute_probe, lambda_grad, lanczos, power_iteration)
from .rngs import stream
from .scenarios import (PRESETS, Scenario, build_scenario, load_config_file,
                        preset_config)
from .trace import (SCHEMA_VERSION, RunTrace, StepRecord, trace_columns, write_json,
                    write_trace_csv)

__version__ = "0.1.0"
