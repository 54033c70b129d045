"""Invariants checked after every chaos run.

Each check returns zero or more :class:`Violation` records; an empty list
means the runtime survived the campaign.  The checks mirror the guarantees
of Section IV: recovery restores exactly the lost work (no lost or
duplicated shuffle data, no unbounded re-execution), every job reaches a
terminal state and completes when its last task finishes, and
useless-recovery failures are reported, not retried.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.runtime import JobResult, SwiftRuntime
from ..sim.failures import FailureKind
from .campaign import Campaign


@dataclass(frozen=True)
class Violation:
    """One failed invariant with enough context to debug it."""

    invariant: str
    message: str
    job_id: str = ""

    def __str__(self) -> str:
        suffix = f" job={self.job_id}" if self.job_id else ""
        return f"[{self.invariant}]{suffix} {self.message}"

    def to_dict(self) -> dict[str, str]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "job_id": self.job_id,
        }


#: Failure reasons the runtime is *allowed* to report for a failed job.
_APP_ERROR_PREFIX = "application_error"
_RETRY_PREFIX = "retry budget exhausted"
_UNSCHEDULABLE_PREFIX = "unschedulable:"

#: Event kinds that can legitimately burn retry budget.
_DESTRUCTIVE = {
    FailureKind.TASK_CRASH,
    FailureKind.PROCESS_RESTART,
    FailureKind.MACHINE_CRASH,
    FailureKind.CACHE_WORKER_LOSS,
}


def check_terminal_states(
    runtime: SwiftRuntime, expected_jobs: list[str]
) -> list[Violation]:
    """Every submitted job must reach a terminal state before the watchdog
    deadline: a missing result means livelock or stuck scheduling."""
    seen = {r.job_id for r in runtime.results}
    out = []
    for job_id in expected_jobs:
        if job_id not in seen:
            pending = runtime.sim.pending_events()
            state = "livelocked" if pending else "deadlocked (queue drained)"
            out.append(
                Violation(
                    "terminal-state",
                    f"job never reached a terminal state; simulator {state} "
                    f"at t={runtime.sim.now:.1f} with {pending} pending events",
                    job_id,
                )
            )
    return out


def check_result_equivalence(
    results: list[JobResult], baseline: list[JobResult]
) -> list[Violation]:
    """Completed jobs must produce exactly the baseline's outputs.

    In the simulator a job's "result" is its task coverage: every stage must
    finalize each task index exactly once (whatever the attempt count), and
    no (stage, index, attempt) may be double-counted — lost shuffle data
    shows up as a missing index, double-counted data as a duplicate attempt.
    """
    base_by_job = {r.job_id: r for r in baseline}
    out: list[Violation] = []
    for result in results:
        if not result.completed:
            continue
        base = base_by_job.get(result.job_id)
        if base is None:
            out.append(
                Violation(
                    "result-equivalence",
                    "job completed but has no failure-free baseline",
                    result.job_id,
                )
            )
            continue
        covered: dict[str, set[int]] = {}
        attempts: set[tuple[str, int, int]] = set()
        for timing in result.metrics.tasks:
            covered.setdefault(timing.stage, set()).add(timing.index)
            key = (timing.stage, timing.index, timing.attempt)
            if key in attempts:
                out.append(
                    Violation(
                        "result-equivalence",
                        f"double-counted output: stage {timing.stage} task "
                        f"{timing.index} attempt {timing.attempt} finalized twice",
                        result.job_id,
                    )
                )
            attempts.add(key)
        expected: dict[str, set[int]] = {}
        for timing in base.metrics.tasks:
            expected.setdefault(timing.stage, set()).add(timing.index)
        for stage, indices in expected.items():
            missing = indices - covered.get(stage, set())
            if missing:
                out.append(
                    Violation(
                        "result-equivalence",
                        f"lost output: stage {stage} is missing task indices "
                        f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}",
                        result.job_id,
                    )
                )
        for stage in covered.keys() - expected.keys():
            out.append(
                Violation(
                    "result-equivalence",
                    f"unexpected stage {stage} in output",
                    result.job_id,
                )
            )
    return out


def check_job_finish_times(results: list[JobResult]) -> list[Violation]:
    """A completed job finishes exactly when its last task does; a finish
    event that outlived its attempt (a re-run finishing earlier) breaks it."""
    out = []
    for result in results:
        last = max((t.finish for t in result.metrics.tasks), default=None)
        if result.completed and last is not None and result.metrics.finish_time != last:
            out.append(Violation(
                "job-finish-time", f"job finished at t={result.metrics.finish_time!r} "
                f"but its last task at t={last!r}", result.job_id,
            ))
    return out


def check_cache_accounting(runtime: SwiftRuntime) -> list[Violation]:
    """After all jobs are terminal, no Cache Worker may still hold shuffle
    data: leftovers are leaked (never released) shuffle bytes."""
    out = []
    for machine in runtime.cluster.machines:
        worker = machine.cache_worker
        if worker is None:
            continue
        if len(worker) > 0 or worker.bytes_in_memory != 0:
            out.append(
                Violation(
                    "cache-accounting",
                    f"cache worker on machine {machine.machine_id} leaked "
                    f"{len(worker)} entries / {worker.bytes_in_memory} "
                    "bytes after all jobs terminated",
                )
            )
    return out


def check_resource_conservation(runtime: SwiftRuntime) -> list[Violation]:
    """Resource accounting must balance: every register has its release.

    When the run was wired with a :class:`repro.audit.ResourceLedger`
    (non-strict, so the campaign completes and *all* divergences are
    collected), each recorded :class:`~repro.audit.AuditViolation` becomes a
    chaos violation.  A final drained-state reconcile catches leaks the
    per-checkpoint reconciles could not see (e.g. a registration with no
    release at all).
    """
    ledger = runtime.ledger
    if ledger is None:
        return []
    ledger.reconcile(runtime.cluster, "chaos:post-campaign", expect_drained=True)
    return [
        Violation(
            "resource-conservation",
            str(audit_violation),
        )
        for audit_violation in ledger.violations
    ]


def check_bounded_recovery(runtime: SwiftRuntime) -> list[Violation]:
    """Recovery work must stay within what the RecoveryDecisions planned:
    actual re-runs never exceed the planned re-run budget, and no task may
    exceed the retry budget."""
    out = []
    max_retries = runtime.config.retry.max_task_retries
    for job_run in runtime.job_runs.values():
        metrics = job_run.metrics
        if metrics.task_reruns > metrics.planned_rerun_tasks:
            out.append(
                Violation(
                    "bounded-recovery",
                    f"{metrics.task_reruns} task re-runs exceed the "
                    f"{metrics.planned_rerun_tasks} planned by RecoveryDecisions",
                    metrics.job_id,
                )
            )
        worst = max((t.attempt for t in metrics.tasks), default=0)
        if worst > max_retries:
            out.append(
                Violation(
                    "bounded-recovery",
                    f"a task reached attempt {worst} > "
                    f"max_task_retries={max_retries}",
                    metrics.job_id,
                )
            )
    return out


def check_bounded_shuffle_recovery(
    campaign: Campaign, runtime: SwiftRuntime
) -> list[Violation]:
    """Shuffle-loss recovery must be exactly as expensive as it has to be.

    The runtime keeps a structured log of every Cache Worker loss decision
    (``SwiftRuntime.shuffle_recovery_log``).  Three bounds hold: a producer
    rerun is only legitimate when the lost share had *zero* surviving
    replicas; a failover requires at least one survivor; and no shuffle
    recovery may be logged at all unless the campaign injected a
    CACHE_WORKER_LOSS event.
    """
    out = []
    log = runtime.shuffle_recovery_log
    if log and not campaign.has_kind(FailureKind.CACHE_WORKER_LOSS):
        out.append(
            Violation(
                "bounded-shuffle-recovery",
                f"{len(log)} shuffle recovery actions logged but the "
                "campaign injected no cache_worker_loss",
            )
        )
    for record in log:
        if record["action"] == "rerun" and record["survivors"] > 0:
            out.append(
                Violation(
                    "bounded-shuffle-recovery",
                    f"producer rerun for edge {record['edge_key']} despite "
                    f"{record['survivors']} surviving replica holder(s) — "
                    "failover should have served the share",
                    record["job_id"],
                )
            )
        elif record["action"] == "failover" and record["survivors"] <= 0:
            out.append(
                Violation(
                    "bounded-shuffle-recovery",
                    f"failover recorded for edge {record['edge_key']} with "
                    "no surviving replica holder",
                    record["job_id"],
                )
            )
    return out


def check_failure_reasons(
    campaign: Campaign, results: list[JobResult]
) -> list[Violation]:
    """Failed jobs must fail *for cause*.

    An application error fails the job by design (reported, not retried) —
    but only if the campaign actually injected one.  A retry-budget
    escalation needs at least one destructive event.  A request that no
    longer fits the live machines (``unschedulable:``) needs a machine
    crash.  Anything else is an unexplained failure.
    """
    out = []
    has_app_error = campaign.has_kind(FailureKind.APPLICATION_ERROR)
    has_machine_crash = campaign.has_kind(FailureKind.MACHINE_CRASH)
    has_destructive = any(e.kind in _DESTRUCTIVE for e in campaign.events)
    for result in results:
        if not result.failed:
            continue
        reason = result.reason
        if reason.startswith(_APP_ERROR_PREFIX):
            if not has_app_error:
                out.append(
                    Violation(
                        "useless-not-retried",
                        "job reported an application error but the campaign "
                        "injected none",
                        result.job_id,
                    )
                )
            # Reported-not-retried: after an application error the runtime
            # must not have re-run anything for this job beyond what other
            # events caused; an app error alone implies zero re-runs.
            if not has_destructive and result.metrics.task_reruns > 0:
                out.append(
                    Violation(
                        "useless-not-retried",
                        f"application error was retried "
                        f"({result.metrics.task_reruns} task re-runs)",
                        result.job_id,
                    )
                )
        elif reason.startswith(_RETRY_PREFIX):
            if not has_destructive:
                out.append(
                    Violation(
                        "unexpected-job-failure",
                        "retry budget exhausted without any destructive event",
                        result.job_id,
                    )
                )
        elif reason.startswith(_UNSCHEDULABLE_PREFIX):
            if not has_machine_crash:
                out.append(
                    Violation(
                        "unexpected-job-failure",
                        "job unschedulable although no machine crashed",
                        result.job_id,
                    )
                )
        else:
            out.append(
                Violation(
                    "unexpected-job-failure",
                    f"job failed without a recognized reason: {reason!r}",
                    result.job_id,
                )
            )
    return out


def check_all(
    campaign: Campaign,
    runtime: SwiftRuntime,
    results: list[JobResult],
    baseline: list[JobResult],
    expected_jobs: list[str],
) -> list[Violation]:
    """Run the full invariant library; empty list = survived."""
    violations = []
    violations.extend(check_terminal_states(runtime, expected_jobs))
    violations.extend(check_result_equivalence(results, baseline))
    violations.extend(check_job_finish_times(results))
    violations.extend(check_cache_accounting(runtime))
    violations.extend(check_resource_conservation(runtime))
    violations.extend(check_bounded_recovery(runtime))
    violations.extend(check_bounded_shuffle_recovery(campaign, runtime))
    violations.extend(check_failure_reasons(campaign, results))
    return violations
