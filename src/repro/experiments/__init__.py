"""Experiment harnesses regenerating every table and figure of Section V."""

from .ablations import (
    cache_memory_ablation,
    failure_rate_sweep,
    heartbeat_interval_ablation,
    partitioning_ablation,
    submission_order_ablation,
)
from . import plots
from .figures import (
    FIG14_INJECTIONS,
    adaptive_shuffle_envelope,
    fig3_idle_ratio,
    fig8_trace_characteristics,
    fig9a_tpch,
    fig9b_q9_phases,
    fig10_makespans,
    fig11_latency_cdf,
    fig12_shuffle_ablation,
    fig13_q13_details,
    fig14_fault_injection,
    fig15_trace_failures,
    fig16_scalability,
    scalability_workload,
    table1_terasort,
)
from .harness import ExperimentResult
from .parallel import Cell, default_jobs, run_cells, set_default_jobs

__all__ = [
    "Cell",
    "ExperimentResult",
    "default_jobs",
    "run_cells",
    "set_default_jobs",
    "cache_memory_ablation",
    "failure_rate_sweep",
    "heartbeat_interval_ablation",
    "partitioning_ablation",
    "submission_order_ablation",
    "FIG14_INJECTIONS",
    "adaptive_shuffle_envelope",
    "fig10_makespans",
    "fig11_latency_cdf",
    "fig12_shuffle_ablation",
    "fig13_q13_details",
    "fig14_fault_injection",
    "fig15_trace_failures",
    "fig16_scalability",
    "fig3_idle_ratio",
    "fig8_trace_characteristics",
    "fig9a_tpch",
    "fig9b_q9_phases",
    "plots",
    "scalability_workload",
    "table1_terasort",
]
