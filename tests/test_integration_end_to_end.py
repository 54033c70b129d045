"""End-to-end integration tests crossing all subsystems."""

from __future__ import annotations


from repro import Cluster, Job, SwiftRuntime, swift_policy
from repro.baselines import bubble_policy, jetscope_policy, spark_policy
from repro.core import partition_job
from repro.obs import Category, RecordingTracer
from repro.sql import FIG1_QUERY, compile_sql
from repro.workloads import generate_trace, tpch, terasort, TraceConfig


def test_sql_to_simulation_pipeline():
    """Fig. 1 text -> DAG -> graphlets -> simulated execution, end to end."""
    dag = compile_sql(FIG1_QUERY, scale_factor=200, job_id="e2e_q9")
    graph = partition_job(dag)
    assert len(graph) >= 4
    tracer = RecordingTracer()
    runtime = SwiftRuntime(Cluster.build(50, 32), swift_policy(), tracer=tracer)
    result = runtime.execute(Job(dag=dag))
    assert result.completed
    # Every stage produced at least one finalized task.
    stages_seen = {t.stage for t in result.metrics.tasks}
    assert stages_seen == set(dag.stages)
    # The trace tells the same story.
    grants = [r for r in tracer.records if r.name == "unit.granted"]
    assert len(grants) == len(graph)
    assert {r.name for r in tracer.of_category(Category.STAGE)} == set(dag.stages)


def test_all_four_systems_run_the_same_q3():
    times = {}
    for policy in (swift_policy(), spark_policy(), jetscope_policy(), bubble_policy()):
        runtime = SwiftRuntime(Cluster.build(100, 32), policy)
        result = runtime.execute(tpch.query_job(3, scale=0.5))
        assert result.completed
        times[policy.name] = result.metrics.run_time
    assert times["swift"] == min(times.values())
    assert times["spark"] == max(times.values())


def test_mixed_workload_all_complete():
    jobs = generate_trace(TraceConfig(n_jobs=40, mean_interarrival=0.5))
    jobs.append(terasort.terasort_job(100, 100, submit_time=2.0))
    jobs.append(tpch.query_job(13, submit_time=5.0))
    runtime = SwiftRuntime(Cluster.build(100, 32), swift_policy())
    runtime.submit_all(jobs)
    results = runtime.run()
    assert len(results) == 42
    assert all(r.completed for r in results)
    assert runtime.cluster.network.open_connections == 0
    assert runtime.cluster.free_executor_count() == runtime.cluster.total_executors()


def test_determinism_across_full_replay():
    outcomes = []
    for _ in range(2):
        runtime = SwiftRuntime(Cluster.build(40, 32), swift_policy())
        runtime.submit_all(generate_trace(TraceConfig(n_jobs=30)))
        results = runtime.run()
        outcomes.append(tuple(round(r.metrics.finish_time, 9) for r in results))
    assert outcomes[0] == outcomes[1]


def test_terasort_graphlet_schedule_order():
    """The reduce graphlet is granted only after the map stage completes."""
    tracer = RecordingTracer()
    runtime = SwiftRuntime(Cluster.build(20, 16), swift_policy(), tracer=tracer)
    result = runtime.execute(terasort.terasort_job(64, 64))
    assert result.completed
    grants = [r for r in tracer.records if r.name == "unit.granted"]
    map_stage = tracer.of_category(Category.STAGE)[0].name
    map_done = max(t.finish for t in result.metrics.tasks if t.stage == map_stage)
    assert len(grants) == 2
    assert grants[1].ts >= map_done
