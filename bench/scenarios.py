"""The benchmark's five workloads, driven through the public APIs only.

Each workload builds its inputs from ``--seed`` and hands the program only
those inputs: ``SwiftRuntime`` for the trace replays, ``repro.api.Service``
for the multi-tenant service, ``repro.api.run_sql`` for the SQL engine.

The simulator workloads replay a fixed job population — the calibrated
Fig. 8 trace drawn once with :data:`POPULATION_SEED`, in the way TPC-H fixes
its query set — and the seed draws everything that varies per run: the
order and Poisson gaps of the open-loop arrivals, the failure plan, and (for
SQL) the database contents.  Re-drawing the job shapes themselves per seed
would move host time by ±40% between seeds, because a handful of large
jobs dominate it, which would hide any change smaller than that.

A workload's ``iterate`` runs one timed iteration inside ``clock.op()``
blocks and reads everything it reports from the program's public results
afterwards, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Optional

from repro.api import (
    AdmissionPolicy,
    AuditError,
    FailureKind,
    RecordingTracer,
    RuntimeConfig,
    Service,
    ServiceConfig,
    TenantSpec,
    run_sql,
    swift_policy,
)
from repro.core import SwiftRuntime
from repro.sim.cluster import Cluster
from repro.sim.failures import sample_trace_failures
from repro.sql.datagen import generate_database
from repro.workloads.tpch_sql import TPCH_SQL
from repro.workloads.traces import paper_scale_trace, tenant_arrival_trace

from spans import SpanRecorder

#: Seed of the fixed job population every simulator workload replays.
POPULATION_SEED = 7

#: Failure kinds of the recovery workload (Fig. 15 style trace failures).
FAILURE_KINDS = (
    FailureKind.TASK_CRASH,
    FailureKind.PROCESS_RESTART,
    FailureKind.MACHINE_CRASH,
    FailureKind.CACHE_WORKER_LOSS,
)

#: Input sizes: ``full`` is what the benchmark measures, ``tiny`` is for
#: the benchmark's own tests.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "replay": dict(jobs=50, machines=2000, executors=4, max_stage_tasks=700, gap=0.05),
        "recovery": dict(jobs=50, machines=2000, executors=4, max_stage_tasks=700,
                         gap=0.05, failure_rate=0.3),
        "service": dict(tenants=200, jobs=200, machines=1000, executors=4,
                        max_stage_tasks=700, gap=0.2),
        "sql_interactive": dict(scale=1, passes=30),
        "sql_scan": dict(scale=20, passes=8),
    },
    "tiny": {
        "replay": dict(jobs=20, machines=400, executors=4, max_stage_tasks=200, gap=0.05),
        "recovery": dict(jobs=20, machines=400, executors=4, max_stage_tasks=200,
                         gap=0.05, failure_rate=0.5),
        "service": dict(tenants=10, jobs=30, machines=400, executors=4,
                        max_stage_tasks=200, gap=0.2),
        "sql_interactive": dict(scale=0.2, passes=2),
        "sql_scan": dict(scale=0.5, passes=2),
    },
}


def percentile(values: list[float], pct: float) -> float:
    """Type-7 percentile (numpy's default); 0.0 for no data."""
    if not values:
        return 0.0
    ordered = sorted(values)
    h = (len(ordered) - 1) * pct / 100.0
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def _digest(payload: object) -> str:
    """sha256 of a canonical JSON form (numpy scalars as Python numbers)."""
    text = json.dumps(payload, sort_keys=True, default=lambda v: v.item())
    return hashlib.sha256(text.encode()).hexdigest()


class Clock:
    """Times operations; when tracing, each one is also a root span."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder
        #: Host seconds of each timed operation, in order, and its kind.
        self.op_seconds: list[float] = []
        self.op_kinds: list[object] = []
        #: Tracer handed to ``run_sql`` so the columnar engine reports its
        #: per-operator self times (only when tracing).
        self.sql_tracer = RecordingTracer() if recorder is not None else None

    @contextmanager
    def op(self, kind: object = None) -> Iterator[None]:
        """Time one operation of ``kind`` (a replay, one query)."""
        with self.recorder.root() if self.recorder is not None else nullcontext():
            start = perf_counter()
            yield
            self.op_seconds.append(perf_counter() - start)
            self.op_kinds.append(kind)


@dataclass
class Outcome:
    """What one iteration produced, read from public results after timing."""

    attempted: int
    failed: int
    #: Units of work completed: simulated task attempts, or queries.
    work: int
    #: Result digest; identical across iterations of one run.
    digest: str
    errors: list[str] = field(default_factory=list)
    #: Per-layer counts and simulated-clock outcomes, by metric name.
    counts: dict[str, float] = field(default_factory=dict)
    #: SQL only: per query, how many passes returned rows with each digest.
    query_digests: dict[int, Counter] = field(default_factory=dict)


class Workload:
    """One seeded input set and the loop that runs it.

    Every iteration gets freshly set-up inputs, so set-up samples are
    spread over the whole run like the iterations themselves (a shared
    host's speed can drift by tens of percent within seconds).
    """

    name = ""

    def __init__(self, seed: int, size: dict[str, Any]) -> None:
        self.seed = seed
        self.size = size

    def prepare(self) -> None:
        """Untimed work done once before set-up (reference runs)."""

    def setup(self) -> Any:
        """Build the inputs one iteration consumes (timed as ``setup_s``).

        Simulator runtimes are single-shot, so this builds the trace, the
        cluster and the runtime; for SQL it generates the database.
        """
        raise NotImplementedError

    def iterate(self, state: Any, clock: Clock) -> Outcome:
        """Run one iteration; timed regions go inside ``clock.op()``."""
        raise NotImplementedError

    def finish(self, outcomes: list[Outcome]) -> tuple[int, list[str]]:
        """Checks made once after measuring: (failed operations, errors)."""
        return 0, []


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


def redraw_arrivals(jobs: list, seed: int, gap: float) -> list:
    """Give the population a seeded arrival order and Poisson gaps.

    Deadlines move with their job's arrival, keeping each job's slack.
    """
    rng = random.Random(f"arrivals:{seed}")
    order = list(jobs)
    rng.shuffle(order)
    at = 0.0
    for job in order:
        if job.deadline is not None:
            job.deadline += at - job.submit_time
        job.submit_time = at
        at += rng.expovariate(1.0 / gap)
    return order


def runtime_counts(runtime: SwiftRuntime) -> dict[str, float]:
    """Per-layer counts read from a drained runtime's public state."""
    log = runtime.shuffle_recovery_log
    failovers = sum(1 for entry in log if entry["action"] == "failover")
    reruns = sum(1 for entry in log if entry["action"] == "rerun")
    return {
        "sim.engine.events": runtime.sim.events_processed,
        "sim.engine.peak_pending": runtime.sim.peak_pending,
        "core.scheduler.grants": runtime.scheduler.grants_made,
        "core.shuffle.mode_switches": runtime.mode_controller.switches,
        "core.cache_worker.spill_writes": sum(
            m.cache_worker.spill_events for m in runtime.cluster.machines
            if m.cache_worker is not None
        ),
        "core.runtime.recovery.task_reruns": sum(r.metrics.task_reruns for r in runtime.results),
        "core.runtime.recovery.shuffle_failovers": failovers,
        "core.runtime.recovery.shuffle_reruns": reruns,
        "core.runtime.recovery.failover_ratio": failovers / len(log) if log else 0.0,
        "audit.ledger.violations": len(runtime.ledger.violations) if runtime.ledger else 0,
    }


def job_outcome(runtime: SwiftRuntime, jobs: list, latencies: dict[str, float]) -> Outcome:
    """Check a drained replay and summarize it.

    Every job of the trace must have exactly one result, completed; the
    digest covers each job's id, finish time and task attempts.
    """
    results = {r.job_id: r for r in runtime.results}
    expected = {job.job_id for job in jobs}
    missing = expected - results.keys()
    failed = len(missing) + sum(1 for r in results.values() if r.failed or not r.completed)
    errors = [f"{len(missing)} jobs never finished"] if missing else []
    if len(runtime.results) != len(results) or results.keys() - expected:
        errors.append("results do not match the submitted jobs one to one")
    if failed and not errors:
        errors.append(f"{failed} jobs failed")
    rows = sorted(
        (r.job_id, repr(r.metrics.finish_time), len(r.metrics.tasks)) for r in results.values()
    )
    lat = list(latencies.values())
    counts = runtime_counts(runtime)
    counts.update({
        "sim.job.latency_p50_s": percentile(lat, 50),
        "sim.job.latency_p95_s": percentile(lat, 95),
        "sim.job.makespan_s": max((r.metrics.finish_time for r in results.values()), default=0.0),
    })
    return Outcome(
        attempted=len(jobs),
        failed=failed,
        work=sum(len(r.metrics.tasks) for r in results.values()),
        digest=_digest(rows),
        errors=errors,
        counts=counts,
    )


class Replay(Workload):
    """The paper-scale trace replay on the default (finish-ledger) path."""

    name = "replay"

    def trace(self) -> list:
        s = self.size
        jobs = paper_scale_trace(
            n_jobs=s["jobs"], seed=POPULATION_SEED, max_stage_tasks=s["max_stage_tasks"]
        )
        return redraw_arrivals(jobs, self.seed, s["gap"])

    def runtime(self, **kwargs: Any) -> SwiftRuntime:
        cluster = Cluster.build(self.size["machines"], self.size["executors"])
        return SwiftRuntime(cluster, swift_policy(), **kwargs)

    def setup(self) -> Any:
        return self.trace(), self.runtime()

    def iterate(self, state: Any, clock: Clock) -> Outcome:
        jobs, runtime = state
        with clock.op():
            runtime.submit_all(jobs)
            results = runtime.run()
        return job_outcome(runtime, jobs, {r.job_id: r.latency for r in results})


class Recovery(Replay):
    """The same replay with trace failures, strict audit, per-task events."""

    name = "recovery"

    def prepare(self) -> None:
        # Fig. 15 method: failures strike at a fraction of each job's own
        # failure-free latency, measured once on the same arrivals.
        runtime = self.runtime()
        runtime.submit_all(self.trace())
        self.reference = {r.job_id: r.latency for r in runtime.run()}

    def setup(self) -> Any:
        jobs = self.trace()
        plan = sample_trace_failures(
            [job.job_id for job in jobs],
            self.size["failure_rate"],
            random.Random(f"failures:{self.seed}"),
            kinds=FAILURE_KINDS,
        )
        runtime = self.runtime(
            failure_plan=plan,
            reference_duration=self.reference,
            audit=True,
            audit_strict=True,
        )
        return jobs, runtime

    def iterate(self, state: Any, clock: Clock) -> Outcome:
        jobs, runtime = state
        audit_error = ""
        with clock.op():
            runtime.submit_all(jobs)
            try:
                runtime.run()
            except AuditError as exc:
                audit_error = f"strict audit: {exc}"
        latencies = {r.job_id: r.latency for r in runtime.results}
        outcome = job_outcome(runtime, jobs, latencies)
        if audit_error:
            outcome.errors.append(audit_error)
            outcome.failed = outcome.attempted
        recovered = (
            outcome.counts["core.runtime.recovery.task_reruns"]
            + outcome.counts["core.runtime.recovery.shuffle_failovers"]
        )
        if not recovered:
            outcome.errors.append("no task rerun or shuffle failover: no failure was injected")
        reference = sum(self.reference[job_id] for job_id in latencies)
        outcome.counts["core.failure.recovery_overhead_pct"] = (
            100.0 * (sum(latencies.values()) / reference - 1.0) if reference else 0.0
        )
        return outcome


class ServiceWorkload(Workload):
    """Multi-tenant arrivals through the gateway of ``repro.api.Service``."""

    name = "service"

    def trace(self) -> list:
        s = self.size
        jobs = tenant_arrival_trace(
            n_tenants=s["tenants"],
            n_jobs=s["jobs"],
            mean_interarrival=s["gap"],
            seed=POPULATION_SEED,
            max_stage_tasks=s["max_stage_tasks"],
        )
        return redraw_arrivals(jobs, self.seed, s["gap"])

    def setup(self) -> Any:
        # The `repro serve` paper preset's pool-pressure threshold and
        # per-tenant concurrency, with pressure queueing instead of
        # rejecting and no queue cap: an arrival is never refused, so every
        # operation can succeed and overload shows as queueing latency.
        config = ServiceConfig(
            runtime=RuntimeConfig(
                n_machines=self.size["machines"],
                executors_per_machine=self.size["executors"],
            ),
            admission=AdmissionPolicy(max_pool_pressure=6.0, on_pressure="queue"),
            default_tenant=TenantSpec(name="default", max_concurrent_jobs=8),
        )
        return self.trace(), Service(config)

    def iterate(self, state: Any, clock: Clock) -> Outcome:
        jobs, service = state
        with clock.op():
            service.submit_trace(jobs)
            result = service.run()
        entries = result.entries
        done = [e for e in entries if e.status in ("completed", "failed")]
        outcome = job_outcome(
            service.runtime.inner, [e.job for e in done],
            {e.job_id: e.makespan for e in done},
        )
        # Arrivals, not dispatched jobs, are the operations attempted; a
        # rejected or never-finished arrival is a failed one.
        outcome.attempted = len(entries)
        outcome.failed += len(entries) - len(done)
        failed = sum(1 for e in entries if e.status == "failed")
        misses = result.deadline_overruns + result.rejected + failed
        outcome.digest = _digest([outcome.digest, result.csv])
        outcome.errors.extend(service.gateway.quota_violations())
        if result.rejected:
            outcome.errors.append(f"{result.rejected} arrivals rejected")
        outcome.counts.update({
            "service.gateway.admitted": result.admitted,
            "service.gateway.rejected": result.rejected,
            "service.gateway.queue_p95_sim_s": percentile(
                [e.queue_time for e in done], 95
            ),
            "service.gateway.deadline_miss_rate": misses / len(entries) if entries else 0.0,
        })
        return outcome


# ----------------------------------------------------------------------
# SQL workloads
# ----------------------------------------------------------------------


class Sql(Workload):
    """Every TPC-H query, closed loop with one client and no think time.

    One iteration is ``passes`` passes over the query set on a freshly
    generated database; each query is one operation.
    """

    def setup(self) -> Any:
        return generate_database(scale=self.size["scale"], seed=self.seed, layout="columnar")

    def iterate(self, state: Any, clock: Clock) -> Outcome:
        digests: dict[int, Counter] = {}
        errors: list[str] = []
        fallbacks = 0
        for _ in range(self.size["passes"]):
            for number, sql in sorted(TPCH_SQL.items()):
                try:
                    with clock.op(number):
                        outcome = run_sql(sql, state, tracer=clock.sql_tracer)
                except Exception as exc:  # a query that raises is a failed operation
                    errors.append(f"Q{number}: {type(exc).__name__}: {exc}")
                    continue
                digests.setdefault(number, Counter())[_digest(outcome.rows)] += 1
                fallbacks += outcome.engine != "columnar"
        completed = sum(sum(counter.values()) for counter in digests.values())
        attempted = self.size["passes"] * len(TPCH_SQL)
        return Outcome(
            attempted=attempted,
            failed=attempted - completed,
            work=completed,
            digest=_digest(sorted((n, sorted(c)) for n, c in digests.items())),
            errors=errors,
            counts={"sql.dispatch.fallbacks": fallbacks},
            query_digests=digests,
        )

    def finish(self, outcomes: list[Outcome]) -> tuple[int, list[str]]:
        """Compare every query's rows with the row engine's on the same data."""
        database = generate_database(scale=self.size["scale"], seed=self.seed)
        oracle = {
            number: _digest(run_sql(sql, database, engine="row").rows)
            for number, sql in TPCH_SQL.items()
        }
        wrong: Counter = Counter()
        for outcome in outcomes:
            for number, counter in outcome.query_digests.items():
                wrong[number] += sum(n for digest, n in counter.items() if digest != oracle[number])
        errors = [
            f"Q{number}: {n} results differ from the row engine"
            for number, n in sorted(wrong.items()) if n
        ]
        return sum(wrong.values()), errors


class SqlInteractive(Sql):
    name = "sql_interactive"


class SqlScan(Sql):
    name = "sql_scan"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Replay, Recovery, ServiceWorkload, SqlInteractive, SqlScan)
}


def make(name: str, seed: int, size: str = "full") -> Workload:
    """Build workload ``name`` at input size ``size`` for ``seed``."""
    return WORKLOADS[name](seed, SIZES[size][name])
