"""Runtime tests: failure injection and recovery policies."""

from __future__ import annotations

import pytest

from repro.baselines import bubble_policy, jetscope_policy, restart_policy, spark_policy
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.obs import Category, RecordingTracer
from repro.sim.cluster import Cluster, MachineState
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

from repro.workloads import traces

from conftest import as_job, chain_dag, kind_plan, run_jobs, trace_jobs


def run_with_failures(dag, specs, policy=None, machines=4, executors=8,
                      reference=None, tracer=None):
    if reference is None:
        baseline_runtime = SwiftRuntime(
            Cluster.build(machines, executors), policy or swift_policy()
        )
        reference = baseline_runtime.execute(as_job(dag)).metrics.run_time
    runtime = SwiftRuntime(
        Cluster.build(machines, executors),
        policy or swift_policy(),
        failure_plan=FailurePlan(list(specs)),
        reference_duration=reference,
        tracer=tracer,
    )
    result = runtime.execute(as_job(dag))
    return result, reference, runtime


def baseline_time(dag, policy=None, machines=4, executors=8):
    runtime = SwiftRuntime(Cluster.build(machines, executors), policy or swift_policy())
    return runtime.execute(as_job(dag)).metrics.run_time


def test_task_crash_mid_stage_recovers_and_completes():
    dag = chain_dag("crash", blocking_stages=(1,), tasks=4)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.2)
    result, reference, _ = run_with_failures(dag, [spec])
    assert result.completed
    assert result.metrics.failures == 1
    assert result.metrics.run_time >= reference


def test_fine_grained_beats_job_restart():
    dag = chain_dag("cmp", blocking_stages=(1,), tasks=4, n_stages=4)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S2", at_fraction=0.6)
    fine, reference, _ = run_with_failures(dag, [spec])
    restart, _, _ = run_with_failures(dag, [spec], policy=restart_policy(),
                                      reference=reference)
    assert fine.metrics.run_time <= restart.metrics.run_time
    assert restart.metrics.restarts == 1
    assert fine.metrics.restarts == 0


def test_restart_slowdown_tracks_injection_time():
    """Restarting at fraction f of the job costs ~f extra (Fig. 14)."""
    dag = chain_dag("r", blocking_stages=(1,), tasks=4, n_stages=3)
    reference = baseline_time(dag, restart_policy())
    for fraction in (0.3, 0.7):
        spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=fraction)
        result, _, _ = run_with_failures(dag, [spec], policy=restart_policy(),
                                         reference=reference)
        slowdown = result.metrics.run_time / reference - 1.0
        assert slowdown == pytest.approx(fraction, abs=0.15)


def test_failure_after_output_consumed_is_noop():
    """Idempotent task whose consumers already read its data: no recovery
    action, no slowdown (the paper's M2-at-t20 case)."""
    dag = chain_dag("noop", blocking_stages=(1,), tasks=4)
    reference = baseline_time(dag)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.95)
    result, _, _ = run_with_failures(dag, [spec], reference=reference)
    assert result.metrics.run_time == pytest.approx(reference, rel=0.02)


def test_non_idempotent_failure_reruns_successors():
    ni = chain_dag("ni", tasks=2, n_stages=3, idempotent=False)
    idem = chain_dag("id", tasks=2, n_stages=3, idempotent=True)
    reference_ni = baseline_time(ni)
    reference_id = baseline_time(idem)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.5)
    r_ni, _, _ = run_with_failures(ni, [spec], reference=reference_ni)
    r_id, _, _ = run_with_failures(idem, [spec], reference=reference_id)
    ni_slow = r_ni.metrics.run_time - reference_ni
    id_slow = r_id.metrics.run_time - reference_id
    assert ni_slow >= id_slow


def test_application_error_fails_job_without_retry():
    dag = chain_dag("app", tasks=2)
    spec = FailureSpec(kind=FailureKind.APPLICATION_ERROR, stage="S1", at_fraction=0.3)
    result, _, runtime = run_with_failures(dag, [spec])
    assert result.failed
    assert not result.completed
    # Resources are reclaimed.
    assert runtime.cluster.free_executor_count() == runtime.cluster.total_executors()


def test_machine_crash_marks_machine_dead_and_recovers():
    dag = chain_dag("mc", tasks=4, n_stages=2)
    spec = FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=0, at_fraction=0.3)
    result, reference, runtime = run_with_failures(dag, [spec])
    assert runtime.cluster.machines[0].state == MachineState.DEAD
    assert result.completed
    assert result.metrics.run_time >= reference


def test_machine_crash_detection_uses_heartbeat_delay():
    dag = chain_dag("hb", tasks=2, n_stages=1)
    reference = baseline_time(dag)
    crash = FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=0, at_fraction=0.3)
    task = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    r_crash, _, _ = run_with_failures(dag, [crash], reference=reference)
    r_task, _, _ = run_with_failures(dag, [task], reference=reference)
    # Heartbeat detection (seconds) is slower than self-report (50ms).
    assert r_crash.metrics.run_time > r_task.metrics.run_time


def test_repeated_failures_quarantine_machine():
    dag = chain_dag("q", tasks=8, n_stages=1)
    specs = [
        FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", task_index=i,
                    at_fraction=0.1 + 0.02 * i)
        for i in range(8)
    ]
    tracer = RecordingTracer()
    result, _, runtime = run_with_failures(
        dag, specs, machines=1, executors=16, tracer=tracer
    )
    assert result.completed
    assert runtime.admin.stats.machines_marked_read_only >= 1
    # The health monitor's quarantine is traced like an explicit one.
    quarantines = [
        r for r in tracer.of_category(Category.FAILURE)
        if r.name == "machine.quarantined"
    ]
    assert len(quarantines) == runtime.admin.stats.machines_marked_read_only
    assert all(r.scope == "machine0" and r.job_id == "q" for r in quarantines)


def test_failure_on_finished_job_is_ignored():
    dag = chain_dag("late", tasks=2, n_stages=1)
    reference = baseline_time(dag)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1",
                       at_time=reference * 10)
    result, _, _ = run_with_failures(dag, [spec], reference=reference)
    assert result.completed
    assert result.metrics.run_time == pytest.approx(reference, rel=0.01)


def test_restart_preserves_submit_time_latency():
    dag = chain_dag("lat", tasks=2, n_stages=2)
    reference = baseline_time(dag, restart_policy())
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.5)
    result, _, _ = run_with_failures(dag, [spec], policy=restart_policy(),
                                     reference=reference)
    assert result.metrics.latency >= result.metrics.run_time
    assert result.metrics.failures == 1


def test_machine_quarantine_drains_and_recovers():
    dag = chain_dag("mq", tasks=8, n_stages=2)
    reference = baseline_time(dag)
    spec = FailureSpec(kind=FailureKind.MACHINE_QUARANTINE, machine_id=0,
                       at_fraction=0.2, duration=reference * 0.3)
    result, _, runtime = run_with_failures(dag, [spec], reference=reference)
    assert result.completed
    assert runtime.admin.stats.machines_marked_read_only == 1
    # The timed quarantine ended: machine healthy, read-only flag cleared.
    assert runtime.cluster.machines[0].state == MachineState.HEALTHY
    assert not runtime.admin.health.read_only


def test_cache_worker_loss_recovers_and_completes():
    dag = chain_dag("cw", blocking_stages=(1,), tasks=8)
    spec = FailureSpec(kind=FailureKind.CACHE_WORKER_LOSS, machine_id=0,
                       at_fraction=0.4)
    result, _, runtime = run_with_failures(dag, [spec])
    assert result.completed
    # Nothing leaked in the lost worker.
    assert runtime.cluster.machines[0].cache_worker.bytes_in_memory == 0.0


def test_retry_budget_escalates_to_job_failure():
    from repro.sim.config import RetryConfig, SimConfig

    dag = chain_dag("rb", tasks=2, n_stages=1)
    reference = baseline_time(dag)
    config = SimConfig(retry=RetryConfig(max_task_retries=1))
    specs = [
        FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", task_index=0,
                    at_fraction=fraction)
        for fraction in (0.3, 0.9)
    ]
    runtime = SwiftRuntime(
        Cluster.build(4, 8, config=config), swift_policy(),
        failure_plan=FailurePlan(list(specs)), reference_duration=reference,
    )
    result = runtime.execute(as_job(dag))
    assert result.failed
    assert "retry budget exhausted" in result.reason
    # Resources are reclaimed despite the mid-run abort.
    assert runtime.cluster.free_executor_count() == runtime.cluster.total_executors()


def test_retry_backoff_grows_and_caps():
    from repro.sim.config import RetryConfig

    retry = RetryConfig(backoff_base=0.2, backoff_factor=2.0, backoff_cap=1.0)
    assert retry.backoff(1) == pytest.approx(0.2)
    assert retry.backoff(2) == pytest.approx(0.4)
    assert retry.backoff(3) == pytest.approx(0.8)
    assert retry.backoff(6) == 1.0
    with pytest.raises(ValueError):
        retry.backoff(0)


def test_retry_config_validates():
    from repro.sim.config import RetryConfig

    with pytest.raises(ValueError):
        RetryConfig(max_task_retries=0).validate()
    with pytest.raises(ValueError):
        RetryConfig(backoff_base=0.5, backoff_cap=0.1).validate()
    with pytest.raises(ValueError):
        RetryConfig(jitter_frac=1.5).validate()


def test_recovery_counters_reconcile_with_decisions():
    dag = chain_dag("rc", blocking_stages=(1,), tasks=4)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    result, _, _ = run_with_failures(dag, [spec])
    m = result.metrics
    assert result.completed
    # One failure -> one RecoveryDecision, tallied under its case.
    assert sum(m.recoveries_by_case.values()) == 1
    assert m.noop_recoveries == 0
    assert m.task_reruns >= 1
    # Every planned re-run actually executed (and nothing extra did).
    assert m.task_reruns == m.planned_rerun_tasks


def test_noop_recovery_counters():
    dag = chain_dag("noc", blocking_stages=(1,), tasks=4)
    reference = baseline_time(dag)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.95)
    result, _, _ = run_with_failures(dag, [spec], reference=reference)
    m = result.metrics
    assert result.completed
    assert m.noop_recoveries == 1
    assert m.task_reruns == 0
    assert m.planned_rerun_tasks == 0
    assert m.resends == 0


@pytest.mark.parametrize("recovers", [False, True])
def test_quarantine_mid_flight_keeps_free_slot_counter_exact(recovers):
    """Tasks finishing on a quarantined machine return their slot to the
    machine, not to the cluster's free pool; strict audit reconciles the
    counter at every job checkpoint (it raises AuditError otherwise)."""
    dag = chain_dag("mqa", tasks=8, n_stages=2)
    reference = baseline_time(dag)
    spec = FailureSpec(kind=FailureKind.MACHINE_QUARANTINE, machine_id=0,
                       at_fraction=0.2, duration=reference * 0.8 if recovers else None)
    runtime = SwiftRuntime(
        Cluster.build(4, 8), swift_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=reference,
        audit=True, audit_strict=True,
    )
    busy_at_quarantine = []
    quarantine = runtime._quarantine_machine

    def probe(machine, *args):
        quarantine(machine, *args)
        busy_at_quarantine.append(machine.busy_count())

    runtime._quarantine_machine = probe
    result = runtime.execute(as_job(dag))
    assert result.completed
    assert busy_at_quarantine[0] > 0, "no task was in flight on the machine"
    healthy_machines = 4 if recovers else 3
    assert runtime.cluster.free_executor_count() == healthy_machines * 8


def test_rerun_finishing_earlier_completes_at_its_own_finish():
    """A cold-started task that crashes while still launching re-runs with
    a cold start of its own, whose draw here is shorter than the first
    attempt's, so the re-run finishes before the first attempt would have.
    The job must complete when that re-run finishes, not when the first
    attempt's (cancelled) finish event would have fired."""
    dag = chain_dag("early", tasks=1, n_stages=1)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", task_index=0,
                       at_fraction=0.01)
    result, _, _ = run_with_failures(dag, [spec], policy=spark_policy(),
                                     machines=1, executors=4, reference=10.0)
    assert result.completed
    assert result.metrics.task_reruns == 1
    (timing,) = result.metrics.tasks
    assert timing.attempt == 1
    assert result.metrics.finish_time == pytest.approx(timing.finish)


def test_rerun_pays_its_policy_launch():
    """A Spark task that crashes while it cold-starts keeps its executor
    (a task crash), and its re-run pays a cold start again, not the
    prelaunched overhead: the launch it reports is a cold start, and its
    finish lies at least its backoff, that launch and its processing after
    the crash."""
    dag = chain_dag("early", tasks=1, n_stages=1)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", task_index=0,
                       at_fraction=0.01)
    result, _, runtime = run_with_failures(dag, [spec], policy=spark_policy(),
                                           machines=1, executors=4, reference=10.0)
    executor, retry = runtime.config.executor, runtime.config.retry
    (timing,) = result.metrics.tasks
    assert timing.attempt == 1
    assert timing.launch_time >= executor.coldstart_mean - executor.coldstart_jitter
    crashed_at = 0.01 * 10.0
    assert timing.finish >= (
        crashed_at + retry.backoff(1) + timing.launch_time + timing.processing_time
    )


def test_every_finishing_attempt_holds_a_live_executor(monkeypatch):
    """Spark on 8 x 32 with a machine crash for half of 40 tightly packed
    trace jobs: re-runs that find no free executor wait for a grant
    instead of running on none, and a job whose requests no longer fit the
    live machines fails with a reason instead of never ending."""
    finishing = []
    flush = SwiftRuntime._flush_finishes

    def checked(self, inst):
        executor = inst.executor
        finishing.append(executor is not None and executor.machine.alive)
        flush(self, inst)

    monkeypatch.setattr(SwiftRuntime, "_flush_finishes", checked)
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=40, mean_interarrival=0.02, seed=7)
    )

    def run(plan, reference):
        runtime = SwiftRuntime(Cluster.build(8, 32), spark_policy(),
                               failure_plan=plan, reference_duration=reference)
        runtime.submit_all(list(jobs))
        return runtime.run()

    reference = {r.job_id: r.latency for r in run(None, 100.0)}
    results = run(kind_plan(jobs, FailureKind.MACHINE_CRASH, 0), reference)
    assert finishing and all(finishing)
    assert sorted(r.job_id for r in results) == sorted(j.job_id for j in jobs)
    for result in results:
        assert result.completed or result.reason.startswith("unschedulable:")


@pytest.mark.parametrize("machine_id", [0, 1], ids=["producer_lost", "consumer_lost"])
def test_eager_units_recover_on_live_executors(machine_id, monkeypatch):
    """Bubble on 2 x 1 grants the consumer S2 its executor while the sort
    S1 still runs.  Crashing S1's machine leaves S2 holding the only live
    executor while it waits for S1's output: S2 yields it, S1 re-runs on
    it, and S2 is dispatched again.  Crashing S2's machine before S2 ran
    sends S2 back to pending and its unit asks for a new executor."""
    finishing = []
    flush = SwiftRuntime._flush_finishes

    def checked(self, inst):
        executor = inst.executor
        finishing.append(executor is not None and executor.machine.alive)
        flush(self, inst)

    monkeypatch.setattr(SwiftRuntime, "_flush_finishes", checked)
    dag = chain_dag("eager", blocking_stages=(1,), n_stages=2, tasks=1)
    spec = FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=machine_id, at_fraction=0.5)
    result, _, runtime = run_with_failures(dag, [spec], policy=bubble_policy(),
                                           machines=2, executors=1)
    assert result.completed
    assert finishing and all(finishing)
    assert runtime.scheduler.pending() == []


def test_gang_that_no_longer_fits_the_live_pool_fails_its_job():
    """JetScope restarts a 57-task whole-job gang after machine 0 of 4 x 16
    crashes; 48 executors are left, so the gang can never be granted.  The
    job fails with an ``unschedulable:`` reason and nothing stays queued."""
    dag = chain_dag("big", n_stages=3, tasks=19)
    spec = FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=0, at_fraction=0.5)
    result, _, runtime = run_with_failures(dag, [spec], policy=jetscope_policy(),
                                           machines=4, executors=16)
    assert runtime.results == [result]
    assert result.failed
    assert result.reason.startswith("unschedulable:")
    assert runtime.scheduler.pending() == []


@pytest.mark.parametrize("kind", list(FailureKind), ids=lambda k: k.name)
def test_spark_tasks_finalize_exactly_at_their_finish(kind, monkeypatch):
    """Every task is finalized at its own ``finish_time``, never later:
    a re-run cancels its attempt's queued finish event, so no stale event
    finalizes it.  Runs the Spark cases of the pinned fingerprints."""
    late = []
    flush = SwiftRuntime._flush_finishes

    def checked(self, inst):
        if inst.finish_time != self.sim.now:
            late.append((inst.stage_run.name, inst.index, inst.attempt,
                         inst.finish_time, self.sim.now))
        flush(self, inst)

    monkeypatch.setattr(SwiftRuntime, "_flush_finishes", checked)
    for seed in (0, 1, 2):
        jobs = trace_jobs(seed)
        baseline, _ = run_jobs(spark_policy(), jobs, None)
        reference = {r.job_id: r.latency for r in baseline}
        results, _ = run_jobs(spark_policy(), jobs, kind_plan(jobs, kind, seed),
                              reference=reference)
        assert len(results) == len(jobs)
    assert late == []


def test_negative_failure_machine_id_is_rejected():
    with pytest.raises(ValueError, match="machine_id=-1 is negative"):
        FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=-1, at_fraction=0.5)


def test_failure_machine_id_past_the_cluster_is_rejected_before_the_run():
    """Ids drawn for a larger cluster fail at construction, not as an
    ``IndexError`` when the failure fires."""
    spec = FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=2, at_fraction=0.5)
    with pytest.raises(ValueError, match="machine_id=2 is past the cluster's 2"):
        SwiftRuntime(Cluster.build(2, 4), spark_policy(),
                     failure_plan=FailurePlan([spec]))


def test_process_restart_relaunches_executor_and_recovers():
    from repro.sim.cluster import ExecutorState

    dag = chain_dag("pr", tasks=2, n_stages=1)
    reference = baseline_time(dag)
    spec = FailureSpec(kind=FailureKind.PROCESS_RESTART, stage="S1",
                       at_fraction=0.4)
    result, _, runtime = run_with_failures(dag, [spec], reference=reference)
    assert result.completed
    assert result.metrics.run_time > reference
    # The relaunched executor got a fresh PID and returned to the pool.
    pids = [e.pid for e in runtime.cluster.iter_executors()]
    assert any(p > 1_000_000 for p in pids)
    assert all(
        e.state == ExecutorState.IDLE for e in runtime.cluster.iter_executors()
    )


def test_task_index_past_the_stage_is_rejected_at_submission():
    """An index the stage does not have fails when the job is submitted,
    not as an ``IndexError`` when the failure fires."""
    dag = chain_dag("q", tasks=4, n_stages=2)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", task_index=4,
                       at_fraction=0.5)
    with pytest.raises(ValueError, match="task_index=4 is past stage 'S1''s 4 tasks"):
        run_with_failures(dag, [spec], reference=10.0)
    # The last task, and any index into a stage this job lacks, still run.
    for stage, index in (("S1", 3), ("S9", 99)):
        spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage=stage, task_index=index,
                           at_fraction=0.5)
        assert run_with_failures(dag, [spec], reference=10.0)[0].completed
