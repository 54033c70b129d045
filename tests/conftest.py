"""Shared fixtures: small clusters and canonical DAG shapes, and strict
resource auditing for every runtime a test builds."""

from __future__ import annotations

import random

import pytest

from repro.api import RuntimeConfig
from repro.core.dag import Edge, Job, JobDAG, Stage
from repro.core.operators import OperatorKind as K, ops
from repro.core.runtime import SwiftRuntime
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.failures import FailureKind, sample_trace_failures
from repro.workloads import traces

MB = 1e6

#: Position of ``audit`` among the arguments after ``self`` of
#: ``SwiftRuntime.__init__`` and of ``RuntimeConfig.__init__``.
_AUDIT_POSITION = {SwiftRuntime: 6, RuntimeConfig: 6}


@pytest.fixture(autouse=True)
def strict_audit_by_default(monkeypatch):
    """Build every ``SwiftRuntime`` and every ``RuntimeConfig`` made
    without an explicit ``audit=`` with ``audit=True, audit_strict=True``,
    so each checkpoint of every test run (the experiment cells, the CLI and
    the facades included) reconciles the resource accounting and raises on
    the first divergence.  Callers that pass ``audit`` (chaos campaigns,
    tests of the unaudited path) keep their own setting."""
    for cls, position in _AUDIT_POSITION.items():
        monkeypatch.setattr(cls, "__init__", _audited(cls.__init__, position))


def _audited(build, position):
    def init(self, *args, **kwargs):
        if "audit" not in kwargs and len(args) <= position:
            kwargs["audit"] = True
            kwargs.setdefault("audit_strict", True)
        build(self, *args, **kwargs)

    return init


@pytest.fixture
def config() -> SimConfig:
    return SimConfig()


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster.build(n_machines=4, executors_per_machine=8)


@pytest.fixture
def medium_cluster() -> Cluster:
    return Cluster.build(n_machines=20, executors_per_machine=16)


def make_stage(
    name: str,
    tasks: int = 4,
    blocking: bool = False,
    scan_mb: float = 0.0,
    out_mb: float = 10.0,
    work: float | None = 1.0,
    idempotent: bool = True,
) -> Stage:
    """A stage with sensible defaults for structural tests."""
    kinds = [K.TABLE_SCAN if scan_mb else K.SHUFFLE_READ]
    if blocking:
        kinds.append(K.MERGE_SORT)
    kinds.append(K.SHUFFLE_WRITE)
    return Stage(
        name=name,
        task_count=tasks,
        operators=ops(*kinds),
        scan_bytes_per_task=scan_mb * MB,
        output_bytes_per_task=out_mb * MB,
        work_seconds_per_task=work,
        idempotent=idempotent,
    )


def chain_dag(
    job_id: str = "chain",
    blocking_stages: tuple[int, ...] = (),
    n_stages: int = 3,
    tasks: int = 4,
    idempotent: bool = True,
) -> JobDAG:
    """S1 -> S2 -> ... -> Sn; stages listed in ``blocking_stages`` (1-based)
    contain a global sort, making their outgoing edges barriers."""
    stages = [
        make_stage(
            f"S{i}",
            tasks=tasks,
            blocking=i in blocking_stages,
            scan_mb=20.0 if i == 1 else 0.0,
            idempotent=idempotent,
        )
        for i in range(1, n_stages + 1)
    ]
    edges = [Edge(f"S{i}", f"S{i + 1}") for i in range(1, n_stages)]
    return JobDAG(job_id, stages, edges)


def diamond_dag(job_id: str = "diamond", blocking_mid: bool = False) -> JobDAG:
    """A -> {B, C} -> D."""
    stages = [
        make_stage("A", scan_mb=20.0),
        make_stage("B", blocking=blocking_mid),
        make_stage("C", blocking=blocking_mid),
        make_stage("D"),
    ]
    edges = [Edge("A", "B"), Edge("A", "C"), Edge("B", "D"), Edge("C", "D")]
    return JobDAG(job_id, stages, edges)


@pytest.fixture
def pipeline_chain() -> JobDAG:
    return chain_dag("pipeline_chain")


@pytest.fixture
def barrier_chain() -> JobDAG:
    return chain_dag("barrier_chain", blocking_stages=(1, 2))


def as_job(dag: JobDAG, submit_time: float = 0.0) -> Job:
    return Job(dag=dag, submit_time=submit_time)


# ----------------------------------------------------------------------
# The pinned-fingerprint workload: 8 trace jobs on a 100 x 32 cluster
# ----------------------------------------------------------------------

#: Machine-level failures hit one of the first few machines, where the
#: least-loaded-first scheduler places most work.
_MACHINE_KINDS = (
    FailureKind.MACHINE_CRASH,
    FailureKind.MACHINE_QUARANTINE,
    FailureKind.CACHE_WORKER_LOSS,
)


def trace_jobs(seed: int) -> list[Job]:
    """The 8-job trace each fingerprint case runs."""
    return traces.generate_trace(
        traces.TraceConfig(n_jobs=8, mean_interarrival=0.2, seed=7 + seed)
    )


def run_jobs(policy, jobs, failure_plan, tracer=None, reference=100.0):
    """``harness.run_jobs`` on a 100 x 32 cluster."""
    runtime = SwiftRuntime(
        Cluster.build(100, 32), policy, failure_plan=failure_plan, tracer=tracer,
        reference_duration=reference,
    )
    runtime.submit_all(list(jobs))
    return runtime.run(), runtime


def kind_plan(jobs, kind, seed):
    """Half the jobs get one ``kind`` failure at a trace-sampled time."""
    rng = random.Random(f"{kind.value}:{seed}")
    plan = sample_trace_failures([j.job_id for j in jobs], 0.5, rng, kinds=(kind,))
    for spec in plan.specs:
        if kind in _MACHINE_KINDS:
            spec.machine_id = rng.randrange(8)
        if kind is FailureKind.MACHINE_QUARANTINE:
            spec.duration = rng.choice((None, 2.0, 20.0))
    return plan
