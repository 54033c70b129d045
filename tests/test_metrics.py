"""Tests for metrics: IdleRatio, quartiles, utilization, CDFs."""

from __future__ import annotations

import math

import pytest

from repro.core.metrics import (
    JobMetrics,
    TaskTiming,
    four_quartile_summary,
    normalized_cdf,
    quantile,
    utilization_series,
)


def timing(plan=0.0, data=0.0, finish=10.0, stage="s", **kw) -> TaskTiming:
    return TaskTiming(
        job_id="j", stage=stage, index=0,
        plan_arrive=plan, data_arrive=data, finish=finish, **kw,
    )


def test_idle_ratio_definition():
    # IdleRatio = (T_data_arrive - T_task_start) / (T_task_finish - T_task_start)
    t = timing(plan=10.0, data=14.0, finish=20.0)
    assert t.idle_ratio == pytest.approx(0.4)


def test_idle_ratio_clamps():
    assert timing(plan=10.0, data=5.0, finish=20.0).idle_ratio == 0.0
    assert timing(plan=10.0, data=50.0, finish=20.0).idle_ratio == 1.0
    assert timing(plan=10.0, data=10.0, finish=10.0).idle_ratio == 0.0


def test_job_idle_ratio_is_mean_over_tasks():
    metrics = JobMetrics(job_id="j")
    metrics.tasks = [timing(plan=0, data=0, finish=10), timing(plan=0, data=5, finish=10)]
    assert metrics.idle_ratio() == pytest.approx(0.25)
    assert JobMetrics(job_id="empty").idle_ratio() == 0.0


def test_latency_and_run_time():
    metrics = JobMetrics(job_id="j", submit_time=2.0, start_time=5.0, finish_time=12.0)
    assert metrics.latency == 10.0
    assert metrics.run_time == 7.0


def test_phase_breakdown_takes_critical_max():
    metrics = JobMetrics(job_id="j")
    metrics.tasks = [
        timing(stage="m", launch_time=1.0, shuffle_read_time=2.0,
               processing_time=3.0, shuffle_write_time=4.0),
        timing(stage="m", launch_time=0.5, shuffle_read_time=5.0,
               processing_time=1.0, shuffle_write_time=0.1),
    ]
    breakdown = metrics.phase_breakdown("m")
    assert breakdown.launch == 1.0
    assert breakdown.shuffle_read == 5.0
    assert breakdown.processing == 3.0
    assert breakdown.shuffle_write == 4.0
    assert breakdown.total == pytest.approx(13.0)
    with pytest.raises(KeyError):
        metrics.phase_breakdown("missing")


def test_quantile_type7_matches_numpy():
    import numpy as np
    data = [3.0, 1.0, 4.0, 1.5, 9.2, 2.6, 5.3]
    for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        assert quantile(data, q) == pytest.approx(float(np.quantile(data, q)))


def test_quantile_validation():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
    assert quantile([7.0], 0.5) == 7.0


def test_four_quartile_summary():
    data = list(map(float, range(1, 101)))
    summary = four_quartile_summary(data)
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert summary["median"] == pytest.approx(50.5)
    # The interquartile mean of a uniform sequence equals its median.
    assert summary["iq_mean"] == pytest.approx(50.5, abs=1.0)
    assert summary["mean"] == pytest.approx(50.5)


def test_four_quartile_summary_is_robust_to_stragglers():
    data = [1.0] * 99 + [10_000.0]
    summary = four_quartile_summary(data)
    assert summary["iq_mean"] == pytest.approx(1.0)
    assert summary["mean"] > 100


def test_utilization_series_counts_overlaps():
    intervals = [(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)]
    series = utilization_series(intervals, step=5.0, horizon=25.0)
    by_time = {s.time: s.running_executors for s in series}
    assert by_time[0.0] == 1
    assert by_time[5.0] == 2
    assert by_time[10.0] == 1
    assert by_time[15.0] == 0
    assert by_time[20.0] == 1
    assert by_time[25.0] == 0


def test_utilization_series_decimal_step_ends_at_zero():
    series = utilization_series([(0.0, 100.0)], step=0.1, horizon=100.0)
    assert series[-1].time == 100.0
    assert series[-1].running_executors == 0
    assert series[500].time == 50.0


def test_utilization_series_validation():
    with pytest.raises(ValueError):
        utilization_series([], step=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        utilization_series([(2.0, 1.0)], step=1.0, horizon=1.0)


def test_normalized_cdf():
    points = normalized_cdf([2.0, 4.0, 6.0], [2.0, 2.0, 2.0])
    assert [r for r, _ in points] == [1.0, 2.0, 3.0]
    assert [p for _, p in points] == pytest.approx([100 / 3, 200 / 3, 100.0])


def test_normalized_cdf_handles_zero_baseline():
    points = normalized_cdf([1.0], [0.0])
    assert math.isinf(points[0][0])
    with pytest.raises(ValueError):
        normalized_cdf([1.0], [1.0, 2.0])
