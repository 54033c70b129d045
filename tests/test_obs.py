"""Tests of the observability layer: records, metrics, tracer, exporters."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import JobMetrics, TaskTiming
from repro.obs import (
    Category,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RecordingTracer,
    RecordKind,
    SCHEMA_VERSION,
    TraceRecord,
    Tracer,
    collect_job,
    read_jsonl,
    records_to_jsonl,
    to_chrome_trace,
    write_jsonl,
)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

def test_record_round_trip():
    record = TraceRecord(
        RecordKind.SPAN, Category.TASK, "M1[3]", 1.5, 0.75,
        "job_a", "M1", {"attempt": 1},
    )
    rebuilt = TraceRecord.from_dict(record.to_dict())
    assert rebuilt == record
    assert rebuilt.end == pytest.approx(2.25)


def test_record_to_dict_omits_empty_fields():
    instant = TraceRecord(RecordKind.INSTANT, Category.CACHE, "cache.spill", 3.0)
    payload = instant.to_dict()
    assert set(payload) == {"kind", "cat", "name", "ts"}
    assert TraceRecord.from_dict(payload).dur is None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_counter_rejects_negative_increment():
    counter = Counter("c")
    counter.inc(2)
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 2


def test_gauge_set_and_running_max():
    gauge = Gauge("g")
    gauge.max(5.0)
    gauge.max(3.0)
    assert gauge.value == 5.0
    gauge.set(1.0)
    assert gauge.value == 1.0


def test_histogram_buckets_mean_and_fraction():
    hist = Histogram("h", bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        hist.observe(value)
    assert hist.counts == [1, 1, 1]
    assert hist.mean == pytest.approx(55.5 / 3)
    assert hist.fraction_le(1.0) == pytest.approx(1 / 3)
    assert hist.fraction_le(10.0) == pytest.approx(2 / 3)


def test_histogram_requires_sorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(2.0, 1.0))


def test_registry_create_on_first_use_and_to_dict():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc()
    registry.gauge("b").set(7)
    registry.histogram("c").observe(1.0)
    assert len(registry) == 3
    payload = json.loads(registry.to_json())
    assert payload["counters"]["a"] == 2
    assert payload["gauges"]["b"] == 7
    assert payload["histograms"]["c"]["count"] == 1


def _job_metrics() -> JobMetrics:
    metrics = JobMetrics(job_id="j", submit_time=0.0, start_time=1.0,
                         finish_time=11.0)
    metrics.failures = 1
    metrics.shuffle_schemes["M1->M2"] = "direct"
    metrics.tasks.append(TaskTiming(
        job_id="j", stage="M1", index=0, attempt=1,
        plan_arrive=1.0, data_arrive=2.0, finish=6.0,
        launch_time=0.5, shuffle_read_time=1.0,
        processing_time=2.0, shuffle_write_time=0.5,
    ))
    return metrics


def test_collect_job_folds_metrics_into_registry():
    registry = MetricsRegistry()
    collect_job(registry, _job_metrics())
    flat = registry.to_dict()
    assert flat["counters"]["jobs_completed"] == 1
    assert flat["counters"]["failures_observed"] == 1
    assert flat["counters"]["tasks_finished"] == 1
    assert flat["counters"]["task_reruns"] == 1
    assert flat["counters"]["shuffle_scheme_direct"] == 1
    assert flat["counters"]["phase_processing_s"] == pytest.approx(2.0)
    assert flat["histograms"]["job_latency_s"]["count"] == 1


from metrics_fold_oracle import observe_collect_job  # noqa: E402

_TIMES = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def _task_timings(draw, job_id: str) -> TaskTiming:
    # Independent draws cover every IdleRatio case: span <= 0 (finish at
    # or before plan arrival), data before plan arrival, data after finish.
    plan = draw(_TIMES)
    finish = draw(st.one_of(_TIMES, st.just(plan)))
    data = draw(st.one_of(_TIMES, st.just(plan), st.just(finish)))
    return TaskTiming(
        job_id, draw(st.sampled_from(["M1", "R2"])), draw(st.integers(0, 9)),
        draw(st.integers(0, 3)), plan, data, finish,
        draw(_TIMES), draw(_TIMES), draw(_TIMES), draw(_TIMES),
    )


@st.composite
def _fold_inputs(draw, job_id: str) -> JobMetrics:
    metrics = JobMetrics(
        job_id=job_id, submit_time=draw(_TIMES), start_time=draw(_TIMES),
        finish_time=draw(_TIMES), failures=draw(st.integers(0, 3)),
        restarts=draw(st.integers(0, 2)),
    )
    metrics.tasks = draw(st.lists(_task_timings(job_id), max_size=30))
    schemes = draw(st.lists(st.sampled_from(["direct", "local"]), max_size=3))
    metrics.shuffle_schemes = {f"e{i}": scheme for i, scheme in enumerate(schemes)}
    return metrics


def _fold_both(jobs: list[JobMetrics]) -> tuple[str, str]:
    fast, oracle = MetricsRegistry(), MetricsRegistry()
    for metrics in jobs:
        collect_job(fast, metrics)
        observe_collect_job(oracle, metrics)
    return fast.to_json(), oracle.to_json()


def test_collect_job_matches_observe_oracle_on_edge_cases():
    metrics = JobMetrics(job_id="j", submit_time=1.0, finish_time=9.0)
    metrics.tasks = [
        TaskTiming("j", "M1", 0, 0, 5.0, 6.0, 5.0),      # span == 0
        TaskTiming("j", "M1", 1, 0, 5.0, 6.0, 4.0),      # span < 0
        TaskTiming("j", "M1", 2, 0, 5.0, 1.0, 7.0),      # data before plan
        TaskTiming("j", "M1", 3, 2, 5.0, 9.0, 7.0),      # data after finish, rerun
        TaskTiming("j", "R2", 0, 1, 0.1, 0.2, 0.7, 0.1, 0.2, 0.3, 0.1),
    ]
    second = JobMetrics(job_id="k", submit_time=0.5, finish_time=3.0)
    second.tasks = [TaskTiming("k", "M1", 0, 0, 0.3, 0.6, 2.9)]
    fast, oracle = _fold_both([metrics, second])
    assert fast == oracle


@settings(max_examples=80, deadline=None)
@given(jobs=st.lists(_fold_inputs("j"), min_size=1, max_size=3))
def test_collect_job_matches_observe_oracle(jobs):
    """The one-loop fold leaves a registry byte-identical to per-task
    ``observe`` calls, also when several jobs fold into one registry."""
    fast, oracle = _fold_both(jobs)
    assert fast == oracle


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

def test_null_tracer_is_disabled_and_silent():
    tracer = Tracer()
    assert not tracer.enabled
    tracer.span(Category.TASK, "t", 0.0, 1.0)
    tracer.instant(Category.JOB, "i", 0.0)
    tracer.count("x")
    tracer.gauge_max("y", 1.0)


def test_recording_tracer_collects_and_queries():
    tracer = RecordingTracer()
    tracer.span(Category.TASK, "M1[0]", 1.0, 2.0, "j", "M1")
    tracer.span(Category.STAGE, "M1", 1.0, 2.5, "j")
    tracer.instant(Category.CACHE, "cache.spill", 3.0, "j")
    tracer.count("spills")
    tracer.gauge_max("mem", 10.0)
    assert len(tracer) == 3
    assert [r.name for r in tracer.of_category(Category.TASK)] == ["M1[0]"]
    assert tracer.task_intervals() == [(1.0, 3.0)]
    assert tracer.metrics.counter("spills").value == 1
    assert tracer.metrics.gauge("mem").value == 10.0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _sample_records() -> list[TraceRecord]:
    return [
        TraceRecord(RecordKind.SPAN, Category.TASK, "M1[0]", 0.5, 1.5,
                    "job_a", "M1", {"attempt": 0}),
        TraceRecord(RecordKind.INSTANT, Category.FAILURE, "failure.detected",
                    2.0, None, "job_a", "", {"kind": "task_crash"}),
    ]


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    records = _sample_records()
    write_jsonl(records, path)
    assert read_jsonl(path) == records
    header = json.loads(open(path).readline())
    assert header["kind"] == "meta"
    assert header["args"]["schema"] == SCHEMA_VERSION


def test_read_jsonl_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    text = records_to_jsonl([]).replace(
        f'"schema": {SCHEMA_VERSION}', '"schema": 999'
    )
    path.write_text(text)
    with pytest.raises(ValueError, match="schema"):
        read_jsonl(str(path))


def test_chrome_export_shape():
    doc = to_chrome_trace(_sample_records())
    events = doc["traceEvents"]
    span = next(e for e in events if e["ph"] == "X")
    assert span["ts"] == pytest.approx(0.5e6)
    assert span["dur"] == pytest.approx(1.5e6)
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["name"] == "failure.detected"
    names = [e["args"]["name"] for e in events if e["ph"] == "M"
             and e["name"] == "process_name"]
    assert names == ["job_a"]
    # Deterministic: same records, same document.
    assert to_chrome_trace(_sample_records()) == doc
