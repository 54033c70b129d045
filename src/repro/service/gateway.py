"""The job-submission gateway: arrivals, admission, deadline dispatch.

:class:`JobGateway` sits between workload generators and
:class:`~repro.core.runtime.SwiftRuntime`, entirely driven by simulator
events (PAPER.md §I/§VI — Swift as the engine behind a multi-tenant
interactive service).  It owns three things the runtime deliberately does
not:

* **arrival processes** — jobs enter at their trace arrival times via
  kernel events (``submit`` / ``submit_trace``), not pre-loaded batches;
* **per-tenant state** — quotas (max concurrent jobs / executor slots),
  weighted fair-share virtual time, strict-priority tiers, and pending
  queues ordered earliest-deadline-first;
* **admission control** — arrivals are rejected (the NOT_ENOUGH_SLOTS
  shape) or held when executor-pool pressure crosses the policy
  threshold, with obs counters for every verdict.

Dispatch feeds admitted jobs into the runtime through the ordinary
``submit_all`` path, so the gateway adds queueing semantics without
forking the execution model.  Executor-slot demand is accounted as a
job's *largest gang request* (the peak single-unit allocation the
scheduler must satisfy at once), which makes quota checks deterministic
and keeps dispatch deadlock-free: any job that passed the oversize check
eventually fits once enough claims drain.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ..core.dag import Job
from ..core.runtime import JobResult, SwiftRuntime
from ..obs.records import Category
from .policy import (
    ON_PRESSURE_REJECT,
    AdmissionPolicy,
    QueuePolicy,
    TenantSpec,
    default_tenant_template,
)
from .stats import TenantReport, build_reports, queue_csv


class RejectReason:
    """Admission-rejection reason strings (CSV / obs counter suffixes)."""

    #: Pool pressure above :attr:`AdmissionPolicy.max_pool_pressure`.
    NOT_ENOUGH_SLOTS = "not_enough_slots"
    #: Tenant queue above :attr:`AdmissionPolicy.max_pending_per_tenant`.
    QUEUE_FULL = "queue_full"
    #: Largest gang can never fit (cluster capacity or tenant slot quota).
    OVERSIZE = "oversize"
    #: Tenant not registered and auto-registration disabled.
    UNKNOWN_TENANT = "unknown_tenant"


@dataclass
class JobEntry:
    """One arrival's lifecycle through the gateway (the audit ledger row)."""

    seq: int
    job: Job
    tenant: str
    deadline: Optional[float]
    #: Executor-slot demand: the job's largest gang request.
    slots: int
    arrival: float
    #: ``pending`` (pre-arrival) -> ``queued`` -> ``running`` ->
    #: ``completed``/``failed``; or ``rejected`` straight from arrival.
    status: str = "pending"
    reject_reason: str = ""
    dispatch: float = math.nan
    finish: float = math.nan

    @property
    def job_id(self) -> str:
        """The underlying job's identifier."""
        return self.job.job_id

    @property
    def queue_time(self) -> float:
        """Seconds spent queued at the gateway (nan until dispatched)."""
        return self.dispatch - self.arrival

    @property
    def makespan(self) -> float:
        """Arrival-to-finish seconds (nan until finished)."""
        return self.finish - self.arrival

    @property
    def overrun(self) -> float:
        """Seconds finished past the deadline; 0 when met or no deadline."""
        if self.deadline is None or math.isnan(self.finish):
            return 0.0
        return max(0.0, self.finish - self.deadline)


class _TenantState:
    """Mutable gateway-side bookkeeping for one tenant."""

    __slots__ = (
        "spec",
        "index",
        "heap",
        "running_jobs",
        "running_slots",
        "vtime",
        "peak_concurrent_jobs",
        "peak_executor_slots",
    )

    def __init__(self, spec: TenantSpec, index: int) -> None:
        self.spec = spec
        #: Registration order; the deterministic tie-break for dispatch.
        self.index = index
        #: (order_key, seq, entry) min-heap of queued arrivals.
        self.heap: list[tuple[float, int, JobEntry]] = []
        self.running_jobs = 0
        self.running_slots = 0
        #: Weighted fair-share virtual time; dispatch charges slots/weight.
        self.vtime = 0.0
        self.peak_concurrent_jobs = 0
        self.peak_executor_slots = 0

    def peek(self) -> Optional[JobEntry]:
        return self.heap[0][2] if self.heap else None

    def pop(self) -> JobEntry:
        return heapq.heappop(self.heap)[2]


class JobGateway:
    """Multi-tenant admission + dispatch front end for one runtime.

    The gateway installs itself as the runtime's ``on_job_done`` hook; a
    runtime serves at most one gateway.  Typical use goes through the
    :class:`repro.api.Service` facade; direct construction is for tests
    and custom harnesses::

        gateway = JobGateway(runtime, admission=AdmissionPolicy(...))
        gateway.submit_trace(tenant_arrival_trace(...))
        runtime.run()
        reports = gateway.reports()
    """

    def __init__(
        self,
        runtime: SwiftRuntime,
        *,
        tenants: Iterable[TenantSpec] = (),
        admission: Optional[AdmissionPolicy] = None,
        queue_policy: Optional[QueuePolicy] = None,
        default_tenant: Optional[TenantSpec] = None,
        auto_register: bool = True,
    ) -> None:
        if runtime.on_job_done is not None:
            raise ValueError("runtime already has an on_job_done hook installed")
        self.runtime = runtime
        self.admission = (admission or AdmissionPolicy()).validate()
        self.queue_policy = (queue_policy or QueuePolicy()).validate()
        self.default_tenant = (default_tenant or default_tenant_template()).validate()
        self.auto_register = auto_register
        self.entries: list[JobEntry] = []
        self._by_job_id: dict[str, JobEntry] = {}
        self._tenants: dict[str, _TenantState] = {}
        self._tenant_order: list[_TenantState] = []
        #: Executor slots claimed by dispatched-but-unfinished jobs.
        self.claimed_slots = 0
        #: Executor slots demanded by jobs still queued at the gateway.
        self.backlog_slots = 0
        #: Fair-share virtual clock: vtime of the last dispatched tenant,
        #: used to re-anchor tenants that wake from idle (no credit hoard).
        self._vclock = 0.0
        #: Timestamp of the pending deduped dispatch event, if any.
        self._dispatch_at: Optional[float] = None
        self._seq = 0
        for spec in tenants:
            self.register(spec)
        runtime.on_job_done = self._on_job_done

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def register(self, spec: TenantSpec) -> None:
        """Register (or replace the spec of) a tenant."""
        spec.validate()
        state = self._tenants.get(spec.name)
        if state is not None:
            state.spec = spec
            return
        state = _TenantState(spec, len(self._tenant_order))
        self._tenants[spec.name] = state
        self._tenant_order.append(state)
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.instant(
                Category.TENANT,
                "tenant.registered",
                self.runtime.sim.now,
                scope=spec.name,
                weight=spec.weight,
                priority=spec.priority,
            )

    def tenant_names(self) -> list[str]:
        """Registered tenants in registration order."""
        return [state.spec.name for state in self._tenant_order]

    # ------------------------------------------------------------------
    # Submission (arrival scheduling)
    # ------------------------------------------------------------------
    def submit(
        self,
        job: Job,
        *,
        tenant: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> JobEntry:
        """Schedule one arrival at ``job.submit_time``; returns its entry.

        ``tenant``/``deadline`` override the job's own fields; the job is
        stamped with the resolved values so runtime metrics carry them.
        """
        entry = self._make_entry(job, tenant, deadline)
        self.runtime.sim.schedule_at(entry.arrival, self._on_arrival, entry)
        return entry

    def submit_trace(self, jobs: Sequence[Job]) -> list[JobEntry]:
        """Bulk-schedule an arrival trace (one ``schedule_batch`` call)."""
        entries = [self._make_entry(job, None, None) for job in jobs]
        now = self.runtime.sim.now
        self.runtime.sim.schedule_batch(
            [(entry.arrival - now, self._on_arrival, (entry,)) for entry in entries]
        )
        return entries

    def _make_entry(
        self, job: Job, tenant: Optional[str], deadline: Optional[float]
    ) -> JobEntry:
        resolved_tenant = tenant if tenant is not None else (job.tenant or "default")
        resolved_deadline = deadline if deadline is not None else job.deadline
        job.tenant = resolved_tenant
        job.deadline = resolved_deadline
        arrival = max(job.submit_time, self.runtime.sim.now)
        self._seq += 1
        entry = JobEntry(
            seq=self._seq,
            job=job,
            tenant=resolved_tenant,
            deadline=resolved_deadline,
            slots=self._gang_slots(job),
            arrival=arrival,
        )
        self.entries.append(entry)
        self._by_job_id[job.job_id] = entry
        return entry

    def _gang_slots(self, job: Job) -> int:
        """Peak single-gang executor demand under the runtime's partitioner."""
        graphlets = self.runtime.policy.partitioner.partition(job.dag)
        return max(g.task_count(job.dag) for g in graphlets.graphlets)

    # ------------------------------------------------------------------
    # Arrival + admission
    # ------------------------------------------------------------------
    def _on_arrival(self, entry: JobEntry) -> None:
        now = self.runtime.sim.now
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.count("gateway_arrivals")
            tracer.instant(
                Category.QUEUE,
                "gateway.arrived",
                now,
                entry.job_id,
                scope=entry.tenant,
                slots=entry.slots,
            )
        state = self._tenants.get(entry.tenant)
        if state is None:
            if not self.auto_register:
                self._reject(entry, RejectReason.UNKNOWN_TENANT, now)
                return
            self.register(replace(self.default_tenant, name=entry.tenant))
            state = self._tenants[entry.tenant]
        spec = state.spec
        total = self.runtime.cluster.total_executors()
        if entry.slots > total or (
            0 < spec.max_executor_slots < entry.slots
        ):
            self._reject(entry, RejectReason.OVERSIZE, now)
            return
        policy = self.admission
        if 0 < policy.max_pending_per_tenant <= len(state.heap):
            self._reject(entry, RejectReason.QUEUE_FULL, now)
            return
        if policy.max_pool_pressure > 0:
            pressure = self.runtime.scheduler.pool_pressure(
                extra_demand=self.backlog_slots + entry.slots
            )
            if pressure > policy.max_pool_pressure:
                if policy.on_pressure == ON_PRESSURE_REJECT:
                    self._reject(entry, RejectReason.NOT_ENOUGH_SLOTS, now)
                    return
                if tracer.enabled:
                    tracer.count("gateway_pressure_queued")
                    tracer.instant(
                        Category.QUEUE,
                        "gateway.pressure_queued",
                        now,
                        entry.job_id,
                        scope=entry.tenant,
                        pressure=pressure,
                    )
        self._enqueue(state, entry, now)
        self._dispatch()

    def _enqueue(self, state: _TenantState, entry: JobEntry, now: float) -> None:
        entry.status = "queued"
        if not state.heap:
            # Waking from idle: re-anchor fair-share credit to the virtual
            # clock so an idle tenant cannot hoard bandwidth.
            state.vtime = max(state.vtime, self._vclock)
        if self.queue_policy.deadline_first and entry.deadline is not None:
            order_key = entry.deadline
        else:
            order_key = math.inf
        heapq.heappush(state.heap, (order_key, entry.seq, entry))
        self.backlog_slots += entry.slots
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.count("gateway_admitted")
            tracer.instant(
                Category.QUEUE,
                "gateway.admitted",
                now,
                entry.job_id,
                scope=entry.tenant,
                backlog=len(state.heap),
            )

    def _reject(self, entry: JobEntry, reason: str, now: float) -> None:
        entry.status = "rejected"
        entry.reject_reason = reason
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.count("gateway_rejections")
            tracer.count(f"gateway_rejections_{reason}")
            tracer.instant(
                Category.QUEUE,
                "gateway.rejected",
                now,
                entry.job_id,
                scope=entry.tenant,
                reason=reason,
            )

    # ------------------------------------------------------------------
    # Dispatch (EDF within weighted fair share, strict priority on top)
    # ------------------------------------------------------------------
    def _eligible(self, state: _TenantState, entry: JobEntry, budget: int) -> bool:
        spec = state.spec
        if 0 < spec.max_concurrent_jobs <= state.running_jobs:
            return False
        if 0 < spec.max_executor_slots < state.running_slots + entry.slots:
            return False
        return entry.slots <= budget

    def _pick_tenant(self, budget: int) -> Optional[_TenantState]:
        qp = self.queue_policy
        best: Optional[_TenantState] = None
        best_key: tuple[float, float, int] = (0.0, 0.0, 0)
        for state in self._tenant_order:
            entry = state.peek()
            if entry is None or not self._eligible(state, entry, budget):
                continue
            key = (
                -float(state.spec.priority) if qp.strict_priority else 0.0,
                state.vtime if qp.fair_share else float(entry.seq),
                state.index,
            )
            if best is None or key < best_key:
                best, best_key = state, key
        return best

    def _dispatch(self) -> None:
        now = self.runtime.sim.now
        budget = self.runtime.cluster.total_executors() - self.claimed_slots
        batch: list[Job] = []
        tracer = self.runtime.tracer
        while True:
            state = self._pick_tenant(budget)
            if state is None:
                break
            entry = state.pop()
            entry.status = "running"
            entry.dispatch = now
            entry.job.submit_time = now
            state.running_jobs += 1
            state.running_slots += entry.slots
            state.peak_concurrent_jobs = max(state.peak_concurrent_jobs, state.running_jobs)
            state.peak_executor_slots = max(state.peak_executor_slots, state.running_slots)
            state.vtime += entry.slots / state.spec.weight
            self._vclock = state.vtime
            self.backlog_slots -= entry.slots
            self.claimed_slots += entry.slots
            budget -= entry.slots
            batch.append(entry.job)
            if tracer.enabled:
                tracer.count("gateway_dispatched")
                tracer.instant(
                    Category.QUEUE,
                    "gateway.dispatched",
                    now,
                    entry.job_id,
                    scope=entry.tenant,
                    queue_time=entry.queue_time,
                    slots=entry.slots,
                )
        if batch:
            self.runtime.submit_all(batch)

    def _schedule_dispatch(self) -> None:
        """Queue a deduped dispatch event at the current time."""
        at = self.runtime.sim.now
        if self._dispatch_at is not None and self._dispatch_at <= at:
            return
        self._dispatch_at = at
        self.runtime.sim.schedule_at(at, self._dispatch_event)

    def _dispatch_event(self) -> None:
        self._dispatch_at = None
        self._dispatch()

    # ------------------------------------------------------------------
    # Completion hook
    # ------------------------------------------------------------------
    def _on_job_done(self, result: JobResult) -> None:
        entry = self._by_job_id.get(result.job_id)
        if entry is None or entry.status not in ("running",):
            return
        entry.status = "completed" if result.completed else "failed"
        entry.finish = result.metrics.finish_time
        state = self._tenants[entry.tenant]
        state.running_jobs -= 1
        state.running_slots -= entry.slots
        self.claimed_slots -= entry.slots
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.count("gateway_completions")
            if entry.overrun > 0:
                tracer.count("gateway_deadline_overruns")
            tracer.instant(
                Category.QUEUE,
                "gateway.finished",
                entry.finish,
                entry.job_id,
                scope=entry.tenant,
                status=entry.status,
                makespan=entry.makespan,
                overrun=entry.overrun,
            )
        if self.backlog_slots > 0:
            self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def reports(self) -> dict[str, TenantReport]:
        """Per-tenant percentile reports over the entry ledger."""
        reports = build_reports(self.entries)
        for name, report in reports.items():
            state = self._tenants.get(name)
            if state is not None:
                report.peak_concurrent_jobs = state.peak_concurrent_jobs
                report.peak_executor_slots = state.peak_executor_slots
        return reports

    def queue_csv(self) -> str:
        """The per-job queue-time table as a deterministic CSV string."""
        return queue_csv(self.entries)

    def quota_violations(self) -> list[str]:
        """Quota invariants that were breached (always empty by design).

        ``repro serve --check`` asserts this stays empty: the dispatcher
        must never let a tenant's high-water marks exceed its quotas, and
        claimed slots must never exceed cluster capacity.
        """
        problems: list[str] = []
        total = self.runtime.cluster.total_executors()
        for state in self._tenant_order:
            spec = state.spec
            if 0 < spec.max_concurrent_jobs < state.peak_concurrent_jobs:
                problems.append(
                    f"{spec.name}: peak_concurrent_jobs {state.peak_concurrent_jobs}"
                    f" > quota {spec.max_concurrent_jobs}"
                )
            if 0 < spec.max_executor_slots < state.peak_executor_slots:
                problems.append(
                    f"{spec.name}: peak_executor_slots {state.peak_executor_slots}"
                    f" > quota {spec.max_executor_slots}"
                )
            if state.peak_executor_slots > total:
                problems.append(
                    f"{spec.name}: peak_executor_slots {state.peak_executor_slots}"
                    f" > cluster capacity {total}"
                )
        if self.claimed_slots != 0 and not any(
            e.status in ("queued", "running", "pending") for e in self.entries
        ):
            problems.append(f"claimed_slots {self.claimed_slots} != 0 after drain")
        return problems


__all__ = ["JobEntry", "JobGateway", "RejectReason"]
