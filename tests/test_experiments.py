"""Tests for the experiment harnesses (small-scale versions).

Each test runs a reduced-size version of a paper experiment and asserts the
*shape* (orderings, directions) the paper reports.  The full-size runs and
their shape checks are the report sections in ``repro.experiments.reporting``.
"""

from __future__ import annotations

import pytest

from repro.api import Runtime, RuntimeConfig
from repro.baselines import spark_policy
from repro.core.metrics import makespan, mean_latency
from repro.core.policies import swift_policy
from repro.experiments import ExperimentResult, scalability_workload
from repro.workloads import terasort, tpch


def run_single(policy, job):
    """One job on a fresh paper-testbed runtime."""
    runtime = Runtime(RuntimeConfig(policy=policy))
    runtime.submit(job)
    [result] = runtime.run()
    return result


def test_runtime_config_defaults_to_paper_testbed():
    config = RuntimeConfig()
    assert (config.n_machines, config.executors_per_machine) == (100, 32)
    cluster = Runtime(config).inner.cluster
    assert cluster.n_machines == 100
    assert cluster.total_executors() == 3200


def test_makespan_and_mean_latency_helpers():
    runtime = Runtime(RuntimeConfig(n_machines=4, executors_per_machine=8))
    runtime.submit([terasort.terasort_job(10, 10), terasort.terasort_job(6, 6)])
    results = runtime.run()
    assert all(r.completed for r in results)
    assert makespan(results) == max(r.metrics.finish_time for r in results)
    assert mean_latency(results) == sum(r.metrics.latency for r in results) / 2
    with pytest.raises(ValueError):
        makespan([])
    with pytest.raises(ValueError):
        mean_latency([])


def test_swift_beats_spark_on_small_tpch():
    swift_t = run_single(
        swift_policy(), tpch.query_job(6, scale=0.2),
    ).metrics.run_time
    spark_t = run_single(
        spark_policy(), tpch.query_job(6, scale=0.2),
    ).metrics.run_time
    assert spark_t > swift_t


def test_terasort_speedup_grows_with_size():
    """Table I's shape: the Swift/Spark gap widens with job size."""
    speedups = []
    for m, n in ((100, 100), (400, 400)):
        swift_t = run_single(swift_policy(), terasort.terasort_job(m, n)).metrics.run_time
        spark_t = run_single(spark_policy(), terasort.terasort_job(m, n)).metrics.run_time
        speedups.append(spark_t / swift_t)
    assert speedups[1] > speedups[0] > 1.0


def test_shuffle_v2_failover_recovers_faster_than_v1_rerun():
    """FuxiShuffle direction: after the same Cache Worker loss, v1 must
    re-run producers while v2 serves every lost share from a replica, and
    v2's recovery time (simulated) is strictly below v1's."""
    from repro.experiments.ablations import bench_shuffle_recovery

    payload = bench_shuffle_recovery(m=128, n=128)
    assert payload["v1_reruns"] > 0
    assert payload["v2_failovers"] > 0
    assert payload["v2_reruns"] == 0
    assert payload["v2_recovery_s"] < payload["v1_recovery_s"]


def test_scalability_workload_shape():
    jobs = scalability_workload(n_jobs=20, tasks_per_stage=16)
    assert len(jobs) == 20
    assert all(j.submit_time == 0.0 for j in jobs)
    total_tasks = sum(j.dag.total_tasks() for j in jobs)
    assert total_tasks > 20 * 16 * 0.5


def test_result_to_json_roundtrip():
    import json

    result = ExperimentResult(name="j", notes="n")
    result.add(a=1, b=2.5, c="x")
    payload = json.loads(result.to_json())
    assert payload == {"name": "j", "notes": "n", "rows": [{"a": 1, "b": 2.5, "c": "x"}]}
