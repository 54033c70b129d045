"""Service gateway tests: admission, quotas, EDF/fair-share dispatch,
determinism, and the Service facade."""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AdmissionPolicy,
    RuntimeConfig,
    Service,
    ServiceConfig,
    TenantSpec,
)
from repro.core.dag import Job, JobDAG
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.core.scheduler import ResourceScheduler
from repro.service import JobGateway, PolicyValidationError, RejectReason
from repro.sim.cluster import Cluster
from repro.workloads.traces import tenant_arrival_trace

from conftest import as_job, make_stage


def one_stage_job(job_id: str, tasks: int = 4, submit_time: float = 0.0,
                  work: float = 1.0):
    dag = JobDAG(job_id, [make_stage("s", tasks=tasks, scan_mb=1, work=work)], [])
    return as_job(dag, submit_time=submit_time)


def small_service(capacity_machines: int = 4, executors: int = 8,
                  **config_kwargs) -> Service:
    runtime = RuntimeConfig(
        n_machines=capacity_machines, executors_per_machine=executors
    )
    return Service(ServiceConfig(runtime=runtime, **config_kwargs))


# ----------------------------------------------------------------------
# Basic lifecycle
# ----------------------------------------------------------------------

def test_service_runs_arrivals_to_completion():
    service = small_service()
    handles = [
        service.submit(one_stage_job(f"j{i}", submit_time=0.5 * i), tenant="acme")
        for i in range(4)
    ]
    result = service.run()
    assert all(h.status == "completed" for h in handles)
    assert result.submitted == result.admitted == 4
    assert result.rejected == 0
    assert "acme" in result.tenants
    report = result.tenant("acme")
    assert report.completed == 4
    assert all(h.queue_time >= 0.0 for h in handles)
    assert all(h.makespan > 0.0 for h in handles)


def test_service_run_is_single_shot():
    service = small_service()
    service.submit(one_stage_job("once"))
    service.run()
    with pytest.raises(RuntimeError, match="fresh Service"):
        service.run()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------

def test_oversize_gang_rejected():
    service = small_service(capacity_machines=1, executors=4)
    too_big = service.submit(one_stage_job("big", tasks=9), tenant="t")
    fits = service.submit(one_stage_job("ok", tasks=3), tenant="t")
    service.run()
    assert too_big.rejected and too_big.reject_reason == RejectReason.OVERSIZE
    assert fits.status == "completed"


def test_queue_full_rejection():
    # One job runs, one may wait; the third arrival overflows the
    # per-tenant pending queue.
    service = small_service(
        default_tenant=TenantSpec(name="default", max_concurrent_jobs=1),
        admission=AdmissionPolicy(max_pending_per_tenant=1),
    )
    handles = [
        service.submit(one_stage_job(f"j{i}", submit_time=0.01 * i), tenant="t")
        for i in range(3)
    ]
    service.run()
    assert handles[0].status == "completed"
    assert handles[1].status == "completed"
    assert handles[2].rejected
    assert handles[2].reject_reason == RejectReason.QUEUE_FULL


def test_pool_pressure_rejects_with_not_enough_slots():
    # Capacity 4; each job demands 4 slots, so the backlog drives
    # pressure over 1.0 immediately.
    service = small_service(
        capacity_machines=1, executors=4,
        admission=AdmissionPolicy(max_pool_pressure=1.0),
    )
    handles = [
        service.submit(one_stage_job(f"j{i}", tasks=4, submit_time=0.01 * i),
                       tenant="t")
        for i in range(4)
    ]
    result = service.run()
    rejected = [h for h in handles if h.rejected]
    assert rejected, "backlog pressure should have shed arrivals"
    assert all(h.reject_reason == RejectReason.NOT_ENOUGH_SLOTS for h in rejected)
    assert result.rejected == len(rejected)


def test_pool_pressure_queue_mode_sheds_nothing():
    service = small_service(
        capacity_machines=1, executors=4,
        admission=AdmissionPolicy(max_pool_pressure=1.0, on_pressure="queue"),
    )
    handles = [
        service.submit(one_stage_job(f"j{i}", tasks=4, submit_time=0.01 * i),
                       tenant="t")
        for i in range(4)
    ]
    service.run()
    assert all(h.status == "completed" for h in handles)


# ----------------------------------------------------------------------
# Quotas and dispatch order
# ----------------------------------------------------------------------

def test_concurrency_quota_is_never_exceeded():
    service = small_service(
        default_tenant=TenantSpec(name="default", max_concurrent_jobs=2)
    )
    for i in range(6):
        service.submit(one_stage_job(f"j{i}", submit_time=0.01 * i), tenant="t")
    result = service.run()
    assert result.tenant("t").peak_concurrent_jobs <= 2
    assert service.gateway.quota_violations() == []


def test_edf_dispatches_earliest_deadline_first():
    service = small_service(
        default_tenant=TenantSpec(name="default", max_concurrent_jobs=1)
    )
    first = service.submit(one_stage_job("first"), tenant="t", deadline=100.0)
    late = service.submit(one_stage_job("late", submit_time=0.01),
                          tenant="t", deadline=50.0)
    urgent = service.submit(one_stage_job("urgent", submit_time=0.02),
                            tenant="t", deadline=10.0)
    service.run()
    # ``first`` dispatches on arrival (nothing running); the queued pair
    # then drains earliest-deadline-first.
    assert first._entry.dispatch < urgent._entry.dispatch < late._entry.dispatch


def test_equal_fair_share_alternates_backlogged_tenants():
    # One gang at a time.  ``a0`` runs at once; ``b`` registers with the
    # fair-share clock (no credit for having been idle), so from then on
    # the two backlogged tenants alternate, ties going to the tenant
    # registered first, until ``a`` runs dry.
    service = small_service(capacity_machines=1, executors=4)
    for i in range(4):
        service.submit(one_stage_job(f"a{i}", tasks=4, submit_time=0.01 * i),
                       tenant="a")
        service.submit(one_stage_job(f"b{i}", tasks=4, submit_time=0.01 * i),
                       tenant="b")
    result = service.run()
    order = sorted(
        (e for e in result.entries if not math.isnan(e.dispatch)),
        key=lambda e: (e.dispatch, e.seq),
    )
    assert [e.tenant for e in order] == list("aabababb")


def test_deadline_overruns_counted():
    service = small_service(capacity_machines=1, executors=8)
    hopeless = service.submit(one_stage_job("slow", tasks=4, work=10.0),
                              tenant="t", deadline=1.0)
    result = service.run()
    assert hopeless.deadline_overrun > 0.0
    assert result.deadline_overruns == 1
    assert result.tenant("t").deadline_overruns == 1


# ----------------------------------------------------------------------
# Direct gateway use, determinism, audit
# ----------------------------------------------------------------------

def test_gateway_requires_free_completion_hook():
    cluster = Cluster.build(2, 4)
    runtime = SwiftRuntime(cluster, swift_policy())
    JobGateway(runtime)
    with pytest.raises(ValueError, match="on_job_done"):
        JobGateway(runtime)


def test_queue_csv_is_deterministic_across_replays():
    def replay() -> str:
        service = small_service(
            capacity_machines=10, executors=8,
            admission=AdmissionPolicy(max_pool_pressure=4.0,
                                      max_pending_per_tenant=8),
            default_tenant=TenantSpec(name="default", max_concurrent_jobs=4),
        )
        service.submit_trace(tenant_arrival_trace(
            n_tenants=20, n_jobs=40, max_stage_tasks=40, seed=11
        ))
        return service.run().csv

    first, second = replay(), replay()
    assert first == second
    header, *rows = first.splitlines()
    assert header.startswith("seq,tenant,job_id,status")
    assert len(rows) == 40


def test_gateway_campaign_with_audit_conserves_slots():
    service = Service(ServiceConfig(
        runtime=RuntimeConfig(n_machines=8, executors_per_machine=4,
                              audit=True),
        admission=AdmissionPolicy(max_pool_pressure=6.0),
    ))
    service.submit_trace(tenant_arrival_trace(
        n_tenants=10, n_jobs=30, max_stage_tasks=24, seed=3
    ))
    result = service.run()
    assert result.audit is not None
    assert result.audit["violations"] == []
    assert service.gateway.quota_violations() == []
    assert service.gateway.claimed_slots == 0


def test_summary_and_csv_files_round_trip(tmp_path):
    import json

    service = small_service()
    service.submit(one_stage_job("j0"), tenant="t", deadline=60.0)
    result = service.run()
    csv_path = result.write_queue_csv(str(tmp_path / "q.csv"))
    summary_path = result.write_summary(str(tmp_path / "s.json"))
    assert open(csv_path).read() == result.csv
    payload = json.loads(open(summary_path).read())
    assert payload["totals"]["submitted"] == 1
    assert "t" in payload["tenants"]


# ----------------------------------------------------------------------
# Config round-trips and validation
# ----------------------------------------------------------------------

def test_service_config_dict_round_trip():
    config = ServiceConfig(
        runtime=RuntimeConfig(n_machines=12, executors_per_machine=4),
        admission=AdmissionPolicy(max_pending_per_tenant=16,
                                  max_pool_pressure=4.0,
                                  on_pressure="queue"),
        default_tenant=TenantSpec(name="bi", max_concurrent_jobs=8),
    )
    rebuilt = ServiceConfig.from_dict(config.to_dict())
    assert rebuilt.to_dict() == config.to_dict()


def test_policy_validation_rejects_bad_values():
    with pytest.raises(PolicyValidationError):
        TenantSpec(name="").validate()
    with pytest.raises(PolicyValidationError):
        AdmissionPolicy(on_pressure="explode").validate()
    with pytest.raises(PolicyValidationError):
        ServiceConfig(default_tenant=TenantSpec(name="t", max_concurrent_jobs=-1))\
            .validate()
    # NaN would turn admission control off (``pressure > nan`` is always
    # false); counts must be real ints, not floats, bools or strings.
    for pressure in (math.nan, math.inf, -1.0, True, "3"):
        with pytest.raises(PolicyValidationError):
            AdmissionPolicy(max_pool_pressure=pressure).validate()
    for count in (-1, 2.5, True, "3"):
        with pytest.raises(PolicyValidationError):
            AdmissionPolicy(max_pending_per_tenant=count).validate()
        with pytest.raises(PolicyValidationError):
            TenantSpec(name="t", max_concurrent_jobs=count).validate()


def test_one_dispatch_order_has_no_priority_weight_or_queue_knobs():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(ServiceConfig) == ["runtime", "admission", "default_tenant"]
    assert names(TenantSpec) == ["name", "max_concurrent_jobs"]
    assert "priority" not in names(Job)
    assert "priority" not in inspect.signature(ResourceScheduler.request).parameters


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(PolicyValidationError):
        TenantSpec.from_dict({"name": "t", "color": "blue"})


# ----------------------------------------------------------------------
# Property: admission never exceeds quotas
# ----------------------------------------------------------------------

@st.composite
def gateway_workloads(draw):
    max_concurrent = draw(st.integers(min_value=1, max_value=3))
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    jobs = []
    for i in range(n_jobs):
        tasks = draw(st.integers(min_value=1, max_value=6))
        gap = draw(st.sampled_from([0.0, 0.1, 0.7]))
        jobs.append((tasks, i * gap))
    return max_concurrent, jobs


@given(gateway_workloads())
@settings(max_examples=25, deadline=None)
def test_admission_never_exceeds_quotas(workload):
    max_concurrent, jobs = workload
    spec = TenantSpec(name="default", max_concurrent_jobs=max_concurrent)
    service = small_service(capacity_machines=2, executors=4, default_tenant=spec)
    for i, (tasks, at) in enumerate(jobs):
        service.submit(one_stage_job(f"j{i}", tasks=tasks, submit_time=at),
                       tenant="t")
    result = service.run()
    report = result.tenant("t")
    assert report.peak_concurrent_jobs <= max_concurrent
    assert report.peak_executor_slots <= 8
    assert service.gateway.quota_violations() == []
    assert service.gateway.claimed_slots == 0
    # Every arrival reached a terminal state.
    assert all(e.status in ("completed", "failed", "rejected")
               for e in result.entries)
