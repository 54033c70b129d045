"""repro.api — the stable public facade.

This package is the documented entry point to the reproduction: build a
:class:`RuntimeConfig`, hand jobs to :class:`Simulation` (one-shot runs) or
:class:`Runtime` (incremental submit/run), and read typed
:class:`SimulationResult` objects back — optionally with a structured trace
(:class:`TraceConfig`) exported for Perfetto or JSONL consumers.

Multi-tenant runs go through :class:`Service` instead: arrivals stream in
through a :class:`repro.service.JobGateway` (quotas, admission control,
earliest-deadline-first dispatch) and :class:`ServiceResult` carries
per-tenant time-in-queue / makespan / deadline-overrun percentile reports.

Deep imports (``repro.core``, ``repro.sim``, ...) keep working, but new
code and the docs use this facade::

    from repro.api import RuntimeConfig, Simulation, TraceConfig
    from repro.workloads import terasort

    sim = Simulation(RuntimeConfig(n_machines=20, executors_per_machine=16))
    outcome = sim.run(terasort.terasort_job(50, 50), trace=True)
    print(outcome.makespan, len(outcome.trace))
"""

from ..audit import AuditError, AuditViolation, ResourceLedger
from ..chaos import Campaign, CampaignResult, ChaosEngine, ChaosReport
from ..core.dag import Edge, EdgeMode, Job, JobDAG, Stage
from ..core.metrics import JobMetrics, PhaseBreakdown, TaskTiming
from ..core.policies import (
    ExecutionPolicy,
    FailureRecovery,
    LaunchModel,
    SubmissionOrder,
    swift_policy,
)
from ..core.runtime import JobResult, RuntimeDrainedError
from ..core.shuffle import ShuffleScheme
from ..service.policy import AdmissionPolicy, TenantSpec
from ..service.stats import TenantReport
from ..obs import (
    MetricsRegistry,
    RecordingTracer,
    TraceRecord,
    Tracer,
)
from ..sim.config import SimConfig
from ..sim.failures import FailureKind, FailurePlan, FailureSpec
from ..sql.dispatch import QueryOutcome, run_sql
from .config import RuntimeConfig
from .service import Service, ServiceConfig, ServiceResult, SubmitHandle
from .simulation import Simulation, SimulationResult, TraceConfig, Runtime

__all__ = [
    "AdmissionPolicy",
    "AuditError",
    "AuditViolation",
    "Campaign",
    "CampaignResult",
    "ChaosEngine",
    "ChaosReport",
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
    "PhaseBreakdown",
    "QueryOutcome",
    "RecordingTracer",
    "ResourceLedger",
    "Runtime",
    "RuntimeConfig",
    "RuntimeDrainedError",
    "Service",
    "ServiceConfig",
    "ServiceResult",
    "ShuffleScheme",
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "Stage",
    "SubmissionOrder",
    "SubmitHandle",
    "TaskTiming",
    "TenantReport",
    "TenantSpec",
    "TraceConfig",
    "TraceRecord",
    "Tracer",
    "run_sql",
    "swift_policy",
]
