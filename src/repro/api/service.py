"""The ``Service`` facade: multi-tenant submission over one runtime.

``Service`` is the stable front end of :mod:`repro.service` — the
simulated counterpart of submitting jobs to Swift as a hosted service
(PAPER.md §I/§VI) instead of handing the runtime a pre-built batch::

    from repro.api import AdmissionPolicy, Service, ServiceConfig, TenantSpec
    from repro.workloads.traces import tenant_arrival_trace

    config = ServiceConfig(
        admission=AdmissionPolicy(max_pool_pressure=4.0),
        default_tenant=TenantSpec(name="default", max_concurrent_jobs=8),
    )
    service = Service(config)
    service.submit_trace(tenant_arrival_trace(n_tenants=50, n_jobs=200))
    result = service.run()
    print(result.tenants["t0000"].queue_time["p95"], result.rejected)

Jobs flow: arrival event -> admission (capacity / queue / pool-pressure
checks) -> per-tenant EDF queue -> equal fair-share dispatch into the
runtime's unified ``submit`` path -> completion hook -> per-tenant
percentile reports.  Every tenant is registered from
:attr:`ServiceConfig.default_tenant` on its first arrival.  Everything is
driven by simulator events, so a given arrival trace + policy
configuration replays byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..codec import Codec
from ..core.dag import Job
from ..obs.metrics import collect_jobs
from ..service.gateway import JobEntry, JobGateway
from ..service.policy import AdmissionPolicy, TenantSpec, default_tenant_template
from ..service.stats import TenantReport, distribution
from .config import RuntimeConfig
from .simulation import (
    Runtime,
    SimulationResult,
    TraceOption,
    _finish_outcome,
    _resolve_tracer,
)


@dataclass
class ServiceConfig(Codec):
    """Everything needed to build a runnable multi-tenant service.

    Wraps a :class:`RuntimeConfig` (cluster + policy + calibration) with
    the gateway's admission policy and tenant quota template.  Takes
    ``to_dict``/``from_dict`` from :mod:`repro.codec` like every other
    config class.
    """

    #: Cluster/runtime configuration the service runs on.
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: When arrivals are rejected instead of queued.
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Quota template every tenant is registered from on its first arrival.
    default_tenant: TenantSpec = field(default_factory=default_tenant_template)

    def validate(self) -> "ServiceConfig":
        """Validate every field; returns self so calls can chain."""
        self.runtime.validate()
        self.admission.validate()
        self.default_tenant.validate()
        return self


class SubmitHandle:
    """A live view of one submitted arrival; resolves after ``run()``."""

    def __init__(self, entry: JobEntry) -> None:
        self._entry = entry

    @property
    def job_id(self) -> str:
        """The submitted job's identifier."""
        return self._entry.job_id

    @property
    def tenant(self) -> str:
        """The tenant the arrival was attributed to."""
        return self._entry.tenant

    @property
    def deadline(self) -> Optional[float]:
        """The resolved absolute deadline, if any."""
        return self._entry.deadline

    @property
    def status(self) -> str:
        """``pending``/``queued``/``running``/``completed``/``failed``/``rejected``."""
        return self._entry.status

    @property
    def rejected(self) -> bool:
        """True when admission control shed this arrival."""
        return self._entry.status == "rejected"

    @property
    def reject_reason(self) -> str:
        """Why admission rejected it (empty when admitted)."""
        return self._entry.reject_reason

    @property
    def queue_time(self) -> float:
        """Seconds spent queued at the gateway (nan until dispatched)."""
        return self._entry.queue_time

    @property
    def makespan(self) -> float:
        """Arrival-to-finish seconds (nan until finished)."""
        return self._entry.makespan

    @property
    def deadline_overrun(self) -> float:
        """Seconds finished past the deadline (0 when met or no SLO)."""
        return self._entry.overrun

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SubmitHandle {self.job_id} tenant={self.tenant} {self.status}>"


@dataclass
class ServiceResult(SimulationResult):
    """Typed outcome of one :meth:`Service.run` call: the run's results
    (rejected jobs absent), trace and metrics plus the gateway's reports."""

    #: Per-tenant percentile reports, keyed and sorted by tenant name.
    tenants: dict[str, TenantReport] = field(default_factory=dict)
    #: The gateway's full per-arrival ledger, in submission order.
    entries: list[JobEntry] = field(default_factory=list)
    #: Deterministic per-job queue-time table (CSV text).
    csv: str = ""

    @property
    def submitted(self) -> int:
        """Total arrivals the gateway saw."""
        return len(self.entries)

    @property
    def admitted(self) -> int:
        """Arrivals that passed admission control."""
        return sum(1 for e in self.entries if e.status != "rejected")

    @property
    def rejected(self) -> int:
        """Arrivals shed by admission control."""
        return sum(1 for e in self.entries if e.status == "rejected")

    @property
    def deadline_overruns(self) -> int:
        """Jobs that finished past their deadline."""
        return sum(report.deadline_overruns for report in self.tenants.values())

    def tenant(self, name: str) -> TenantReport:
        """One tenant's report by name."""
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(f"no report for tenant {name!r}") from None

    def to_dict(self) -> dict[str, Any]:
        """The summary.json payload: totals plus per-tenant reports."""
        queue_times = [
            e.queue_time
            for e in self.entries
            if e.status in ("completed", "failed") and not math.isnan(e.queue_time)
        ]
        makespans = [
            e.makespan
            for e in self.entries
            if e.status in ("completed", "failed") and not math.isnan(e.makespan)
        ]
        return {
            "totals": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": sum(1 for e in self.entries if e.status == "completed"),
                "failed": sum(1 for e in self.entries if e.status == "failed"),
                "deadline_overruns": self.deadline_overruns,
                "makespan": self.makespan,
                "queue_time": distribution(queue_times),
                "job_makespan": distribution(makespans),
            },
            "tenants": {
                name: report.to_dict() for name, report in self.tenants.items()
            },
        }

    def write_queue_csv(self, path: str) -> str:
        """Write the queue-time CSV to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv)
        return path

    def write_summary(self, path: str) -> str:
        """Write the summary JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


class Service:
    """Multi-tenant job-submission service over one simulated cluster.

    Construction builds the cluster, runtime, and gateway; ``submit`` /
    ``submit_trace`` schedule arrivals as simulator events; ``run``
    executes everything and returns a :class:`ServiceResult` with
    per-tenant time-in-queue / makespan / deadline-overrun percentile
    reports.  A ``Service`` is single-shot, like the runtime it wraps:
    build a fresh one per replay.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        trace: TraceOption = None,
    ) -> None:
        self.config = (config or ServiceConfig()).validate()
        tracer, self._trace_config = _resolve_tracer(trace)
        self._runtime = Runtime(self.config.runtime, tracer=tracer)
        self.gateway = JobGateway(
            self._runtime.inner,
            admission=self.config.admission,
            default_tenant=self.config.default_tenant,
        )
        self._ran = False

    @property
    def runtime(self) -> Runtime:
        """The underlying :class:`Runtime` facade (advanced introspection)."""
        return self._runtime

    def submit(
        self,
        job: Job,
        *,
        tenant: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> SubmitHandle:
        """Schedule one arrival at ``job.submit_time``.

        ``tenant`` and ``deadline`` override the job's own fields.  The
        handle resolves (status, queue time, overrun) once :meth:`run`
        has executed the arrival.
        """
        return SubmitHandle(self.gateway.submit(job, tenant=tenant, deadline=deadline))

    def submit_trace(self, jobs: Sequence[Job]) -> list[SubmitHandle]:
        """Bulk-schedule an arrival trace (jobs carry tenant/deadline)."""
        return [SubmitHandle(entry) for entry in self.gateway.submit_trace(jobs)]

    def run(self, until: Optional[float] = None) -> ServiceResult:
        """Drain every scheduled arrival and build the per-tenant report."""
        if self._ran:
            raise RuntimeError(
                "Service.run already executed; build a fresh Service per replay"
            )
        self._ran = True
        outcome = ServiceResult(
            results=list(self._runtime.run(until=until)),
            tenants=self.gateway.reports(),
            entries=list(self.gateway.entries),
            csv=self.gateway.queue_csv(),
        )
        # collect_jobs is passed by this module's name so bench/spans.py's
        # span on repro.api.service.collect_jobs still sees the call.
        _finish_outcome(outcome, self._runtime, self._trace_config, collect_jobs)
        return outcome
