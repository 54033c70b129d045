"""Runtime integration tests: shuffle schemes and Cache Worker interplay."""

from __future__ import annotations

import pytest

from repro.core.cache_worker import CacheWorker
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.core.shuffle import ShuffleScheme
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

from conftest import as_job, chain_dag, make_stage
from repro.core.dag import Edge, JobDAG


def wide_barrier_dag(m: int, n: int, mb_per_task: float = 10.0) -> JobDAG:
    stages = [
        make_stage("src", tasks=m, blocking=True, scan_mb=mb_per_task,
                   out_mb=mb_per_task),
        make_stage("dst", tasks=n, out_mb=0.0),
    ]
    return JobDAG(f"wide_{m}x{n}", stages, [Edge("src", "dst")])


def run(dag, policy=None, machines=8, executors=32, config=None):
    cluster = Cluster.build(machines, executors, config=config)
    runtime = SwiftRuntime(cluster, policy or swift_policy(), config=config)
    return runtime.execute(as_job(dag)), runtime


def test_adaptive_selects_by_edge_size():
    small, _ = run(wide_barrier_dag(20, 20))          # 400 edges
    assert small.metrics.shuffle_schemes["src->dst"] == "direct"
    medium, _ = run(wide_barrier_dag(150, 150))       # 22,500 edges
    assert medium.metrics.shuffle_schemes["src->dst"] == "remote"
    large, _ = run(wide_barrier_dag(320, 320), machines=16, executors=32)
    assert large.metrics.shuffle_schemes["src->dst"] == "local"


def test_fixed_scheme_policy_overrides_adaptive():
    result, _ = run(
        wide_barrier_dag(20, 20), policy=swift_policy(shuffle=ShuffleScheme.LOCAL)
    )
    assert result.metrics.shuffle_schemes["src->dst"] == "local"


def test_cache_worker_entries_released_after_consumption():
    _, runtime = run(
        wide_barrier_dag(150, 150),
        policy=swift_policy(shuffle=ShuffleScheme.REMOTE),
    )
    for machine in runtime.cluster.machines:
        worker: CacheWorker = machine.cache_worker
        assert len(worker) == 0
        assert worker.bytes_in_memory == 0


def test_cache_pressure_spills_and_still_completes():
    config = SimConfig()
    config.cache_worker.memory_capacity = 4 * 1024 ** 2  # 4 MiB per machine
    result, runtime = run(
        wide_barrier_dag(100, 100, mb_per_task=30.0),
        policy=swift_policy(shuffle=ShuffleScheme.LOCAL),
        config=config,
    )
    assert result.completed
    spilled = sum(m.cache_worker.bytes_spilled_total for m in runtime.cluster.machines)
    assert spilled > 0


def _per_edge_state(job_run) -> tuple:
    return (job_run.edge_mode_decisions, job_run.edge_cw_machines,
            job_run.edge_extra_delay, job_run.cw_machines)


def test_attempts_own_their_per_edge_state():
    """Per-edge Cache Worker state lives on the job attempt: a restarted
    attempt starts without its predecessor's spill delay or replica groups,
    and neither the aborted nor the finished attempt keeps any."""
    config = SimConfig()
    config.cache_worker.memory_capacity = 4 * 1024 ** 2  # 4 MiB: stores spill
    cluster = Cluster.build(8, 32, config=config)
    runtime = SwiftRuntime(
        cluster, swift_policy(shuffle=ShuffleScheme.LOCAL), config=config
    )
    attempts = []
    store = runtime._store_cross_unit_outputs

    def restart(old):
        runtime._restart_job(old)
        new = runtime.job_runs[old.job.job_id]
        attempts.append(new)
        assert new is not old and new.attempt == 1
        assert new.edge_extra_delay == {} and new.edge_cw_machines == {}
        assert _per_edge_state(old) == ({}, {}, {}, set())
        assert all(len(m.cache_worker) == 0 for m in runtime.cluster.machines)

    def store_then_restart(sr):
        store(sr)
        job_run = sr.job_run
        if job_run.attempt == 0:
            assert job_run.edge_extra_delay  # the first attempt's store spilled
            attempts.append(job_run)
            runtime.sim.schedule(0.0, restart, job_run)

    runtime._store_cross_unit_outputs = store_then_restart
    result = runtime.execute(as_job(wide_barrier_dag(100, 100, mb_per_task=30.0)))
    assert result.completed and result.metrics.restarts == 1
    assert len(attempts) == 2
    for job_run in attempts:
        assert _per_edge_state(job_run) == ({}, {}, {}, set())


def test_connections_fully_released_after_run():
    _, runtime = run(wide_barrier_dag(100, 100))
    assert runtime.cluster.network.open_connections == 0


def test_disk_scheme_is_slowest_for_wide_shuffles():
    times = {}
    for scheme in (ShuffleScheme.LOCAL, ShuffleScheme.DISK):
        result, _ = run(
            wide_barrier_dag(200, 200, mb_per_task=40.0),
            policy=swift_policy(shuffle=scheme),
            machines=16,
        )
        times[scheme] = result.metrics.run_time
    assert times[ShuffleScheme.DISK] > times[ShuffleScheme.LOCAL]


def test_pipeline_edges_have_no_barrier_wait():
    dag = chain_dag("noidle", n_stages=3)
    result, _ = run(dag)
    # Pipelined consumers begin within a launch-overhead of their plan.
    for t in result.metrics.tasks:
        assert t.data_arrive - t.plan_arrive < 2.0


# ----------------------------------------------------------------------
# Cache Worker replication and failover
# ----------------------------------------------------------------------

def run_with_cache_loss(replication_factor, machine_id=0, at_fraction=0.5):
    """A REMOTE-scheme wide shuffle with one Cache Worker killed mid-read."""
    config = SimConfig()
    config.shuffle.replication_factor = replication_factor

    def build():
        return wide_barrier_dag(120, 120, mb_per_task=10.0)  # 14,400 edges

    baseline_rt = SwiftRuntime(Cluster.build(8, 32), swift_policy(),
                               config=config)
    baseline = baseline_rt.execute(as_job(build()))
    assert baseline.completed
    plan = FailurePlan().add(FailureSpec(
        kind=FailureKind.CACHE_WORKER_LOSS,
        machine_id=machine_id, at_fraction=at_fraction,
    ))
    runtime = SwiftRuntime(
        Cluster.build(8, 32), swift_policy(), config=config,
        failure_plan=plan, reference_duration=baseline.metrics.finish_time,
    )
    result = runtime.execute(as_job(build()))
    return baseline, result, runtime


def test_cache_worker_loss_fails_over_to_replica():
    baseline, result, runtime = run_with_cache_loss(replication_factor=2)
    assert result.completed
    assert runtime.shuffle_recovery_log, "the loss never touched live entries"
    assert {r["action"] for r in runtime.shuffle_recovery_log} == {"failover"}
    assert all(r["survivors"] >= 1 for r in runtime.shuffle_recovery_log)
    # Failover serves the share from a replica: no producer re-runs, and no
    # recovery time added over the failure-free baseline.
    assert result.metrics.task_reruns == 0
    assert result.metrics.finish_time == pytest.approx(
        baseline.metrics.finish_time, rel=0.01
    )


def test_cache_worker_loss_without_replicas_reruns_producers():
    baseline, result, runtime = run_with_cache_loss(replication_factor=1)
    assert result.completed
    assert any(r["action"] == "rerun" for r in runtime.shuffle_recovery_log)
    assert result.metrics.task_reruns > 0
    # v1 pays the producer-rerun recovery penalty.
    assert result.metrics.finish_time > baseline.metrics.finish_time


def test_failover_emits_recovery_observability():
    from repro.obs import RecordingTracer

    config = SimConfig()
    config.shuffle.replication_factor = 2
    baseline_rt = SwiftRuntime(Cluster.build(8, 32), swift_policy(),
                               config=config)
    baseline = baseline_rt.execute(as_job(wide_barrier_dag(120, 120)))
    plan = FailurePlan().add(FailureSpec(
        kind=FailureKind.CACHE_WORKER_LOSS, machine_id=0, at_fraction=0.5,
    ))
    runtime = SwiftRuntime(
        Cluster.build(8, 32), swift_policy(), config=config,
        failure_plan=plan, reference_duration=baseline.metrics.finish_time,
        tracer=RecordingTracer(),
    )
    result = runtime.execute(as_job(wide_barrier_dag(120, 120)))
    assert result.completed
    names = {r.name for r in runtime.tracer.records}
    assert "shuffle.failover" in names
    assert "cache.drop_all" in names


# ----------------------------------------------------------------------
# Mode switching is result-preserving (differential test)
# ----------------------------------------------------------------------

def borderline_diamond() -> JobDAG:
    """a -> {b, c} -> d with every edge at 12,100 shuffle size: statically
    REMOTE, within the demotion margin of the 10k Direct threshold."""
    stages = [
        make_stage("a", tasks=110, blocking=True, scan_mb=10.0, out_mb=10.0),
        make_stage("b", tasks=110, blocking=True, out_mb=10.0),
        make_stage("c", tasks=110, blocking=True, out_mb=10.0),
        make_stage("d", tasks=110, out_mb=0.0),
    ]
    edges = [Edge("a", "b"), Edge("a", "c"), Edge("b", "d"), Edge("c", "d")]
    return JobDAG("diff", stages, edges)


def coverage(result):
    cov: dict[str, set[int]] = {}
    for t in result.metrics.tasks:
        cov.setdefault(t.stage, set()).add(t.index)
    return cov


def differential_run(mode_switching: bool):
    config = SimConfig()
    config.shuffle.mode_switching = mode_switching
    # Hair-trigger pressure threshold so demotions actually fire mid-job.
    config.shuffle.pressure_demote_utilization = 1e-6
    runtime = SwiftRuntime(Cluster.build(8, 32), swift_policy(), config=config)
    result = runtime.execute(as_job(borderline_diamond()))
    return result, runtime


def test_mode_switching_never_changes_results():
    switched, rt_on = differential_run(mode_switching=True)
    static, rt_off = differential_run(mode_switching=False)
    assert switched.completed and static.completed
    # Adaptivity actually engaged in the switching run ...
    assert rt_on.mode_controller.switches > 0
    assert rt_off.mode_controller.switches == 0
    assert "direct" in switched.metrics.shuffle_schemes.values()
    # ... yet both runs finalize exactly the same (stage, index) outputs.
    assert coverage(switched) == coverage(static)
