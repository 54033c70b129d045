"""Tests of the stable repro.api facade."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.api import (
    RecordingTracer,
    Runtime,
    RuntimeConfig,
    Simulation,
    SimulationResult,
    TraceConfig,
)
from repro.baselines import jetscope_policy
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.obs import Category
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.failures import FailureKind, FailureSpec
from repro.workloads import terasort


def _small_config(**overrides) -> RuntimeConfig:
    defaults = dict(n_machines=4, executors_per_machine=8)
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


# ----------------------------------------------------------------------
# RuntimeConfig
# ----------------------------------------------------------------------

def test_config_dict_round_trip_is_exact():
    config = _small_config(reference_duration=50.0, audit=True)
    config.sim.seed = 7
    config.failure_plan.add(FailureSpec(
        kind=FailureKind.TASK_CRASH, stage="M1", at_fraction=0.5,
    ))
    payload = config.to_dict()
    rebuilt = RuntimeConfig.from_dict(payload)
    assert rebuilt.to_dict() == payload


def test_config_survives_json_serialization():
    payload = json.loads(json.dumps(_small_config().to_dict()))
    rebuilt = RuntimeConfig.from_dict(payload)
    assert rebuilt.to_dict() == _small_config().to_dict()


def test_config_round_trips_non_default_policy():
    config = _small_config(policy=jetscope_policy())
    rebuilt = RuntimeConfig.from_dict(config.to_dict())
    assert rebuilt.policy.name == config.policy.name
    assert rebuilt.policy.partitioner.name == config.policy.partitioner.name
    assert rebuilt.policy.recovery == config.policy.recovery


@pytest.mark.parametrize("overrides", [
    {"n_machines": 0},
    {"executors_per_machine": 0},
    {"reference_duration": -1.0},
    {"reference_duration": {"j": 0.0}},
    {"reference_duration": float("nan")},
    {"reference_duration": float("inf")},
    {"reference_duration": {"j": float("nan")}},
    {"reference_duration": {"j": float("inf")}},
    {"n_machines": 2.5},
    {"n_machines": "4"},
    {"n_machines": True},
    {"executors_per_machine": 2.5},
    {"executors_per_machine": "4"},
    {"executors_per_machine": True},
])
def test_config_validation_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        RuntimeConfig(**overrides).validate()


def test_from_dict_rejects_unknown_partitioner():
    with pytest.raises(ValueError, match="partitioner"):
        RuntimeConfig.from_dict({"policy": {"partitioner": "nope"}})


# ----------------------------------------------------------------------
# TraceConfig
# ----------------------------------------------------------------------

def test_trace_config_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        TraceConfig(format="xml")


def test_trace_config_output_paths():
    both = TraceConfig(path="run.json", format="both")
    assert both.output_paths() == ["run.json", "run.jsonl"]
    assert TraceConfig(path=None).output_paths() == []
    assert TraceConfig(path="t", format="jsonl").output_paths() == ["t.jsonl"]


# ----------------------------------------------------------------------
# Simulation / Runtime
# ----------------------------------------------------------------------

def test_simulation_run_without_trace_still_aggregates_metrics():
    outcome = Simulation(_small_config()).run(terasort.terasort_job(10, 10))
    assert isinstance(outcome, SimulationResult)
    assert outcome.completed
    assert outcome.trace == []
    assert outcome.makespan > 0
    assert outcome.mean_latency > 0
    assert outcome.metrics.counter("jobs_completed").value == 1


def test_simulation_run_with_trace_records_and_exports(tmp_path):
    base = tmp_path / "run"
    outcome = Simulation(_small_config()).run(
        terasort.terasort_job(10, 10),
        trace=TraceConfig(path=str(base), format="both"),
    )
    assert outcome.completed
    task_spans = [r for r in outcome.trace if r.cat == Category.TASK]
    assert len(task_spans) == 20
    assert outcome.trace_files == [str(base) + ".json", str(base) + ".jsonl"]
    chrome = json.loads((tmp_path / "run.json").read_text())
    assert {e["ph"] for e in chrome["traceEvents"]} >= {"X", "M"}
    assert outcome.metrics.counter("tasks_finished").value == 20


def test_simulation_accepts_prebuilt_tracer():
    tracer = RecordingTracer()
    outcome = Simulation(_small_config()).run(
        terasort.terasort_job(6, 6), trace=tracer
    )
    assert outcome.trace and outcome.trace == tracer.records


@pytest.mark.parametrize("failed", [False, True])
def test_traced_and_untraced_runs_fold_the_same_job_metrics(failed):
    # Only completed jobs are folded, whether or not the run is recorded.
    def fold(trace):
        config = _small_config()
        if failed:
            config.failure_plan.add(FailureSpec(
                kind=FailureKind.APPLICATION_ERROR, stage="map", at_time=1.0,
            ))
        outcome = Simulation(config).run(terasort.terasort_job(8, 8), trace=trace)
        assert outcome.completed is not failed
        metrics = outcome.metrics.to_dict()
        return (
            metrics["counters"].get("jobs_completed", 0),
            metrics["counters"].get("tasks_finished", 0),
            metrics["histograms"].get("job_latency_s", {}).get("count", 0),
        )

    untraced = fold(trace=False)
    assert untraced == fold(trace=True)
    assert untraced == ((0, 0, 0) if failed else (1, 16, 1))


def test_simulation_result_job_lookup():
    outcome = Simulation(_small_config()).run(terasort.terasort_job(6, 6))
    job_id = outcome.results[0].job_id
    assert outcome.job(job_id) is outcome.results[0]
    with pytest.raises(KeyError):
        outcome.job("missing")


def test_runtime_facade_submit_run():
    runtime = Runtime(_small_config())
    runtime.submit(terasort.terasort_job(6, 6))
    results = runtime.run()
    assert len(results) == 1 and results[0].completed
    assert not runtime.tracer.enabled


def test_runtime_facade_validates_config():
    with pytest.raises(ValueError):
        Runtime(RuntimeConfig(n_machines=0))


def test_swift_runtime_takes_its_calibration_from_the_cluster():
    """One config per run: the runtime's calibration is the cluster's, so
    the network model and ``runtime.config`` cannot disagree."""
    sim = SimConfig()
    sim.network.nic_bandwidth /= 100
    cluster = Cluster.build(2, 4, config=sim)
    with pytest.raises(TypeError):
        SwiftRuntime(cluster, swift_policy(), config=SimConfig())
    runtime = SwiftRuntime(cluster, swift_policy())
    assert runtime.config is cluster.config
    assert runtime.shuffle_model.config is cluster.config
    assert cluster.network.config is sim.network
    facade = Runtime(RuntimeConfig(n_machines=2, executors_per_machine=4, sim=sim))
    assert facade.inner.config is sim


def test_only_the_runtime_facade_builds_a_run():
    # Every simulated run in src/ is built by api.Runtime from one
    # RuntimeConfig; the engine classes are constructed nowhere else.
    src = Path(repro.__file__).parent
    builders = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if re.search(r"SwiftRuntime\(|Cluster\.build\(", path.read_text())
    }
    assert builders == {"api/simulation.py"}


def test_facade_reexported_from_package_root():
    import repro

    assert repro.Simulation is Simulation
    assert repro.RuntimeConfig is RuntimeConfig
    assert repro.TraceConfig is TraceConfig


# ----------------------------------------------------------------------
# SQL facade
# ----------------------------------------------------------------------

def _sql_fixture():
    from repro.sql import Catalog, TableSchema
    from repro.sql.catalog import _cols

    catalog = Catalog()
    catalog.register(TableSchema("t", _cols("x:int"), base_rows=3,
                                 bytes_per_row=8))
    return {"t": [{"x": 1}, {"x": 2}, {"x": 3}]}, catalog


def test_run_sql_facade_reports_engine():
    from repro.api import run_sql

    database, catalog = _sql_fixture()
    outcome = run_sql("select sum(x) as total from t", database,
                      catalog=catalog)
    assert outcome.rows == [{"total": 6}]
    assert outcome.engine == "columnar"
    forced = run_sql("select sum(x) as total from t", database,
                     catalog=catalog, engine="row")
    assert forced.rows == outcome.rows
    assert forced.engine == "row"


def test_run_sql_threads_observability():
    from repro.api import run_sql

    database, catalog = _sql_fixture()
    tracer = RecordingTracer()
    run_sql("select count(*) as n from t", database, catalog=catalog,
            tracer=tracer)
    assert any(r.cat == "sql" for r in tracer.records)
    names = {r.name for r in tracer.records}
    assert {"columnar.scan", "columnar.aggregate"} <= names


def test_sql_facade_reexported_from_package_root():
    import repro
    import repro.sql
    from repro.api import QueryOutcome, run_sql

    assert repro.run_sql is run_sql is repro.sql.run_sql
    assert repro.QueryOutcome is QueryOutcome is repro.sql.QueryOutcome


# ----------------------------------------------------------------------
# Unified submission path
# ----------------------------------------------------------------------

def test_runtime_submit_accepts_single_job_and_batches():
    runtime = Runtime(_small_config())
    runtime.submit(terasort.terasort_job(4, 4))
    runtime.submit([terasort.terasort_job(5, 4), terasort.terasort_job(6, 4)])
    results = runtime.run()
    assert len(results) == 3
    assert len({r.job_id for r in results}) == 3


def test_simulation_run_rejects_ambiguous_or_missing_workload():
    sim = Simulation(_small_config())
    job = terasort.terasort_job(4, 4)
    with pytest.raises(TypeError, match="jobs"):
        sim.run(job, jobs=job)  # the removed jobs= spelling
    with pytest.raises(TypeError, match="needs a workload"):
        sim.run()


def test_service_facade_reexported_from_package_root():
    import repro
    from repro.api import (
        AdmissionPolicy,
        QueuePolicy,
        Service,
        ServiceConfig,
        ServiceResult,
        SubmitHandle,
        TenantReport,
        TenantSpec,
    )

    assert repro.Service is Service
    assert repro.ServiceConfig is ServiceConfig
    assert repro.ServiceResult is ServiceResult
    assert repro.SubmitHandle is SubmitHandle
    assert repro.TenantSpec is TenantSpec
    assert repro.TenantReport is TenantReport
    assert repro.AdmissionPolicy is AdmissionPolicy
    assert repro.QueuePolicy is QueuePolicy
