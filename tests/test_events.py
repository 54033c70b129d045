"""Tests for the runtime's controller events, as recorded by the tracer."""

from __future__ import annotations

from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.baselines import restart_policy
from repro.obs import Category, RecordingTracer
from repro.sim.cluster import Cluster
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

from conftest import as_job, chain_dag


def _named(tracer: RecordingTracer, name: str) -> list:
    """Records called ``name``, in emission order."""
    return [r for r in tracer.records if r.name == name]


def test_runtime_records_job_lifecycle():
    tracer = RecordingTracer()
    runtime = SwiftRuntime(Cluster.build(4, 8), swift_policy(), tracer=tracer)
    result = runtime.execute(as_job(chain_dag("lc", blocking_stages=(1,))))
    for name in ("job.submitted", "unit.requested", "unit.granted", "unit.completed"):
        assert _named(tracer, name), name
    assert tracer.of_category(Category.STAGE)
    job_spans = [r for r in tracer.of_category(Category.JOB) if r.name == "lc"]
    assert len(job_spans) == 1
    # Two graphlets: two grants, in order, before completion.
    grants = _named(tracer, "unit.granted")
    assert len(grants) == 2
    assert grants[0].ts <= grants[1].ts <= result.metrics.finish_time


def test_runtime_records_failure_and_recovery():
    dag = chain_dag("flog", blocking_stages=(1,), tasks=4)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    tracer = RecordingTracer()
    runtime = SwiftRuntime(
        Cluster.build(4, 8), swift_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=5.0, tracer=tracer,
    )
    runtime.execute(as_job(dag))
    assert _named(tracer, "failure.injected")
    assert _named(tracer, "recovery.rerun") or _named(tracer, "recovery.noop")


def test_runtime_records_restart():
    baseline = SwiftRuntime(Cluster.build(4, 8), restart_policy()).execute(
        as_job(chain_dag("rlog0", tasks=2))
    ).metrics.run_time
    dag = chain_dag("rlog", tasks=2)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    tracer = RecordingTracer()
    runtime = SwiftRuntime(
        Cluster.build(4, 8), restart_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=baseline,
        tracer=tracer,
    )
    runtime.execute(as_job(dag))
    assert _named(tracer, "job.restarted")
