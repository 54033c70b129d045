"""Tests for the fault injector and trace-calibrated failure sampling."""

from __future__ import annotations

import random

import pytest

from repro.sim.failures import (
    TRACE_FAILURE_SCALE,
    TRACE_FAILURE_SHAPE,
    FailureKind,
    FailurePlan,
    FailureSpec,
    _weibull_from_quantiles,
    sample_failure_time,
    sample_trace_failures,
)


def test_spec_requires_exactly_one_time():
    with pytest.raises(ValueError):
        FailureSpec()
    with pytest.raises(ValueError):
        FailureSpec(at_time=1.0, at_fraction=0.5)
    FailureSpec(at_time=1.0)
    FailureSpec(at_fraction=0.5)


def test_spec_rejects_negative_times():
    with pytest.raises(ValueError):
        FailureSpec(at_time=-1.0)
    with pytest.raises(ValueError):
        FailureSpec(at_fraction=-0.5)


def test_spec_rejects_non_positive_duration():
    with pytest.raises(ValueError):
        FailureSpec(at_time=1.0, duration=0.0)
    with pytest.raises(ValueError):
        FailureSpec(at_time=1.0, duration=-3.0)
    FailureSpec(kind=FailureKind.MACHINE_QUARANTINE, at_time=1.0, duration=5.0)


@pytest.mark.parametrize("fields", [
    {"at_fraction": float("nan")},
    {"at_fraction": float("inf")},
    {"at_time": float("inf")},
    {"at_time": float("nan")},
    {"at_time": 1.0, "duration": float("nan")},
    {"at_time": 1.0, "duration": float("inf")},
    {"at_time": True},
    {"at_time": 1.0, "machine_id": True},
    {"at_time": 1.0, "machine_id": 1.5},
    {"at_time": 1.0, "task_index": -1},
    {"at_time": 1.0, "task_index": True},
    {"at_time": 1.0, "task_index": 2.0},
    {"at_time": 1.0, "kind": "task_crash"},
], ids=repr)
def test_spec_rejects_malformed_values(fields):
    with pytest.raises(ValueError):
        FailureSpec(**fields)


def test_plan_add_revalidates_mutated_spec():
    spec = FailureSpec(at_time=1.0)
    spec.at_fraction = 0.5  # specs are mutable; add() must re-check
    with pytest.raises(ValueError):
        FailurePlan().add(spec)


def test_resolve_time_absolute():
    assert FailureSpec(at_time=12.5).resolve_time(100.0) == 12.5


def test_resolve_time_fraction():
    assert FailureSpec(at_fraction=0.4).resolve_time(50.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        FailureSpec(at_fraction=0.4).resolve_time(0.0)


def test_plan_filters_by_job():
    plan = FailurePlan()
    plan.add(FailureSpec(at_time=1.0, job_id="a"))
    plan.add(FailureSpec(at_time=2.0))
    assert len(plan.for_job("a")) == 2
    assert len(plan.for_job("b")) == 1
    assert len(plan) == 2


def test_weibull_fit_reproduces_quantiles():
    k, lam = _weibull_from_quantiles(0.5, 30.0, 0.9, 200.0)
    import math
    assert 1 - math.exp(-((30.0 / lam) ** k)) == pytest.approx(0.5)
    assert 1 - math.exp(-((200.0 / lam) ** k)) == pytest.approx(0.9)
    assert (TRACE_FAILURE_SHAPE, TRACE_FAILURE_SCALE) == (k, lam)


def test_weibull_fit_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        _weibull_from_quantiles(0.9, 30.0, 0.5, 200.0)


def test_sampled_failure_times_match_paper_quantiles():
    rng = random.Random(1)
    samples = sorted(sample_failure_time(rng) for _ in range(4000))
    # Section V-F: ~50% of failures within 30s, ~90% within 200s.
    frac_30 = sum(1 for s in samples if s <= 30.0) / len(samples)
    frac_200 = sum(1 for s in samples if s <= 200.0) / len(samples)
    assert frac_30 == pytest.approx(0.5, abs=0.04)
    assert frac_200 == pytest.approx(0.9, abs=0.03)


def test_sample_trace_failures_rate():
    rng = random.Random(2)
    jobs = [f"job{i}" for i in range(1000)]
    plan = sample_trace_failures(jobs, failure_rate=0.3, rng=rng)
    assert 0.25 < len(plan) / 1000 < 0.35
    for spec in plan.specs:
        assert spec.at_fraction is not None
        assert 0 <= spec.at_fraction <= 0.95
        assert spec.kind == FailureKind.TASK_CRASH


def test_sample_trace_failures_rejects_bad_rate():
    with pytest.raises(ValueError):
        sample_trace_failures([], 1.5, random.Random(0))


def test_zero_rate_yields_empty_plan():
    plan = sample_trace_failures(["a", "b"], 0.0, random.Random(0))
    assert len(plan) == 0
