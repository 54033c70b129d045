"""Runtime tests: single jobs, pipelining, barriers, timing sanity."""

from __future__ import annotations


from repro.core.dag import JobDAG
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.obs import RecordingTracer
from repro.sim.cluster import Cluster, ExecutorState

from conftest import as_job, chain_dag, diamond_dag, make_stage


def run_job(dag, machines=4, executors=8, policy=None):
    cluster = Cluster.build(machines, executors)
    runtime = SwiftRuntime(cluster, policy or swift_policy())
    return runtime.execute(as_job(dag)), runtime


def test_single_stage_job_completes():
    dag = JobDAG("one", [make_stage("only", tasks=3, scan_mb=5, work=2.0)], [])
    result, runtime = run_job(dag)
    assert result.completed and not result.failed
    assert len(result.metrics.tasks) == 3
    assert result.metrics.run_time > 2.0
    assert runtime.cluster.free_executor_count() == runtime.cluster.total_executors()


def test_task_timings_are_recorded():
    result, _ = run_job(chain_dag())
    for t in result.metrics.tasks:
        assert t.finish > t.plan_arrive
        assert t.processing_time > 0
        assert t.plan_arrive <= t.data_arrive <= t.finish


def test_pipeline_chain_overlaps_stages():
    """Pipelined stages overlap: the chain's span is far less than the sum
    of stage spans."""
    pipelined, _ = run_job(chain_dag("p", n_stages=4))
    barriered, _ = run_job(chain_dag("b", blocking_stages=(1, 2, 3), n_stages=4))
    assert pipelined.metrics.run_time < barriered.metrics.run_time


def test_barrier_consumer_starts_after_producer():
    result, _ = run_job(chain_dag("b", blocking_stages=(1,)))
    s1_finish = max(t.finish for t in result.metrics.tasks if t.stage == "S1")
    s2_data = min(t.data_arrive for t in result.metrics.tasks if t.stage == "S2")
    assert s2_data >= s1_finish - 1e-6


def test_diamond_dag_completes():
    result, _ = run_job(diamond_dag(blocking_mid=True))
    assert result.completed
    stages = {t.stage for t in result.metrics.tasks}
    assert stages == {"A", "B", "C", "D"}


def test_determinism_same_seed():
    a, _ = run_job(chain_dag())
    b, _ = run_job(chain_dag())
    assert a.metrics.run_time == b.metrics.run_time
    assert [t.finish for t in a.metrics.tasks] == [t.finish for t in b.metrics.tasks]


def test_multiple_jobs_share_cluster():
    cluster = Cluster.build(4, 8)
    runtime = SwiftRuntime(cluster, swift_policy())
    jobs = [as_job(chain_dag(f"j{i}"), submit_time=float(i)) for i in range(3)]
    runtime.submit_all(jobs)
    results = runtime.run()
    assert len(results) == 3
    assert {r.job_id for r in results} == {"j0", "j1", "j2"}
    for r in results:
        assert r.completed


def test_latency_includes_queueing():
    """With only enough executors for one job at a time, the second job's
    latency includes its wait for resources."""
    dag1 = chain_dag("first", tasks=8, n_stages=1)
    dag2 = chain_dag("second", tasks=8, n_stages=1)
    cluster = Cluster.build(1, 8)
    runtime = SwiftRuntime(cluster, swift_policy())
    runtime.submit_all([as_job(dag1), as_job(dag2)])
    results = {r.job_id: r for r in runtime.run()}
    assert results["second"].metrics.latency > results["first"].metrics.latency


def test_executors_released_after_each_stage():
    _, runtime = run_job(chain_dag())
    for executor in runtime.cluster.iter_executors():
        assert executor.state == ExecutorState.IDLE


def test_shuffle_schemes_recorded_per_edge():
    result, _ = run_job(chain_dag("s", blocking_stages=(1,)))
    schemes = result.metrics.shuffle_schemes
    assert "S1->S2" in schemes and "S2->S3" in schemes
    assert all(v in {"direct", "local", "remote", "disk"} for v in schemes.values())


def test_execute_returns_matching_result():
    cluster = Cluster.build(2, 8)
    runtime = SwiftRuntime(cluster, swift_policy())
    job = as_job(chain_dag("mine"))
    result = runtime.execute(job)
    assert result.job_id == "mine"
    assert result.policy_name == "swift"


def test_sink_output_counts_as_write():
    dag = JobDAG(
        "sink",
        [make_stage("only", tasks=1, scan_mb=1, out_mb=100.0, work=0.1)],
        [],
    )
    result, _ = run_job(dag)
    assert result.metrics.tasks[0].shuffle_write_time > 0


def test_busy_intervals_cover_tasks():
    tracer = RecordingTracer()
    runtime = SwiftRuntime(Cluster.build(4, 8), swift_policy(), tracer=tracer)
    result = runtime.execute(as_job(chain_dag()))
    intervals = tracer.task_intervals()
    assert len(intervals) == len(result.metrics.tasks)
    assert intervals == [(t.plan_arrive, t.finish) for t in result.metrics.tasks]
    for start, end in intervals:
        assert end > start


def test_start_time_set_at_first_dispatch():
    result, _ = run_job(chain_dag())
    assert result.metrics.start_time > 0.0
    assert result.metrics.start_time <= min(t.plan_arrive for t in result.metrics.tasks)


def test_submit_after_drained_run_raises():
    # Regression: submitting into a runtime whose run() already drained
    # the event queue used to hang or silently drop the job.
    import pytest

    from repro.core.runtime import RuntimeDrainedError

    cluster = Cluster.build(2, 8)
    runtime = SwiftRuntime(cluster, swift_policy())
    runtime.submit_all([as_job(chain_dag("first"))])
    runtime.run()
    with pytest.raises(RuntimeDrainedError, match="drained"):
        runtime.submit(as_job(chain_dag("too-late")))
    with pytest.raises(RuntimeDrainedError):
        runtime.submit_all([as_job(chain_dag("also-too-late"))])
