"""repro — a reproduction of *Swift: Reliable and Low-Latency Data
Processing at Cloud Scale* (ICDE 2021).

The stable entry point is the :mod:`repro.api` facade (re-exported here)::

    from repro import RuntimeConfig, Simulation
    from repro.workloads import tpch

    sim = Simulation(RuntimeConfig(n_machines=100, executors_per_machine=32))
    outcome = sim.run(tpch.query_job(9), trace=True)
    print(outcome.makespan, len(outcome.trace))

Lower-level classes (``SwiftRuntime``, ``Cluster``, ``Simulator``) stay
importable for advanced use.

Sub-packages:

* :mod:`repro.api` — the stable facade: ``Simulation``, ``Runtime``,
  ``RuntimeConfig``, ``TraceConfig``, typed results.
* :mod:`repro.obs` — structured tracing and metrics export (JSONL and
  Chrome ``trace_event`` / Perfetto).
* :mod:`repro.sim` — discrete-event cluster simulator (the substrate).
* :mod:`repro.core` — the paper's contribution: graphlet partitioning,
  fine-grained scheduling, adaptive in-network shuffle, failure recovery.
* :mod:`repro.sql` — the SQL-like front end (Fig. 1) plus a vectorized
  columnar answer engine (:func:`repro.api.run_sql`) and the row-level
  reference executor it is checked against.
* :mod:`repro.chaos` — deterministic chaos engine: seeded multi-failure
  campaigns, invariant checking, recovery watchdogs, and seed shrinking.
* :mod:`repro.service` — the multi-tenant job-submission gateway behind
  :class:`repro.api.Service`: Poisson/trace arrivals, per-tenant quotas,
  admission control, fair-share + earliest-deadline-first
  dispatch (PAPER.md §VI: Swift as a hosted service).
* :mod:`repro.workloads` — TPC-H, Terasort, and trace-calibrated workloads.
* :mod:`repro.baselines` — Spark, JetScope, and Bubble Execution models.
* :mod:`repro.experiments` — harnesses regenerating every table/figure.
"""

from .api import (
    AdmissionPolicy,
    ChaosEngine,
    ChaosReport,
    QueryOutcome,
    Runtime,
    RuntimeConfig,
    Service,
    ServiceConfig,
    ServiceResult,
    Simulation,
    SimulationResult,
    SubmitHandle,
    TenantReport,
    TenantSpec,
    TraceConfig,
    run_sql,
)
from .core import (
    Edge,
    EdgeMode,
    ExecutionPolicy,
    FailureRecovery,
    Job,
    JobDAG,
    JobMetrics,
    JobResult,
    LaunchModel,
    Operator,
    OperatorKind,
    ShuffleScheme,
    Stage,
    SubmissionOrder,
    SwiftPartitioner,
    SwiftRuntime,
    swift_policy,
)
from .obs import (
    MetricsRegistry,
    RecordingTracer,
    TraceRecord,
    Tracer,
)
from .sim import (
    Cluster,
    FailureKind,
    FailurePlan,
    FailureSpec,
    SimConfig,
    Simulator,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionPolicy",
    "ChaosEngine",
    "ChaosReport",
    "Cluster",
    "Edge",
    "EdgeMode",
    "ExecutionPolicy",
    "FailureKind",
    "FailurePlan",
    "FailureRecovery",
    "FailureSpec",
    "Job",
    "JobDAG",
    "JobMetrics",
    "JobResult",
    "LaunchModel",
    "MetricsRegistry",
    "Operator",
    "OperatorKind",
    "QueryOutcome",
    "RecordingTracer",
    "Runtime",
    "RuntimeConfig",
    "Service",
    "ServiceConfig",
    "ServiceResult",
    "ShuffleScheme",
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "Simulator",
    "Stage",
    "SubmissionOrder",
    "SubmitHandle",
    "TenantReport",
    "TenantSpec",
    "SwiftPartitioner",
    "SwiftRuntime",
    "TraceConfig",
    "TraceRecord",
    "Tracer",
    "run_sql",
    "swift_policy",
    "__version__",
]
