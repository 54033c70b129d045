"""Metrics: IdleRatio, 4-phase task breakdown, utilization, quartiles.

* **IdleRatio** (Section III-A): ``(T_data_arrive - T_task_start) /
  (T_task_finish - T_task_start)`` where ``T_task_start`` is when the task
  plan arrives at the executor.
* **4-phase breakdown** (Section V-C1): task launching, shuffle reading,
  record processing, shuffle writing.
* **quartile summary**: the "widely-used four quartile method" [26]
  (Hyndman & Fan) used by Figs. 3 and 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .runtime import JobResult


@dataclass(slots=True)
class TaskTiming:
    """Timestamps and phase durations recorded for one task attempt."""

    job_id: str
    stage: str
    index: int
    attempt: int = 0
    #: Plan arrival at the executor (T_task_start of the IdleRatio).
    plan_arrive: float = 0.0
    #: When the task's input data became available (T_data_arrive).
    data_arrive: float = 0.0
    finish: float = 0.0
    launch_time: float = 0.0
    shuffle_read_time: float = 0.0
    processing_time: float = 0.0
    shuffle_write_time: float = 0.0

    @property
    def duration(self) -> float:
        """Wall time from plan arrival to completion."""
        return self.finish - self.plan_arrive

    @property
    def idle_ratio(self) -> float:
        """IdleRatio of this task; 0 for degenerate durations."""
        span = self.finish - self.plan_arrive
        if span <= 0:
            return 0.0
        idle = max(0.0, self.data_arrive - self.plan_arrive)
        return min(1.0, idle / span)


@dataclass
class PhaseBreakdown:
    """Aggregate 4-phase times for one stage (Fig. 9(b) rows)."""

    stage: str
    launch: float = 0.0
    shuffle_read: float = 0.0
    processing: float = 0.0
    shuffle_write: float = 0.0

    @property
    def total(self) -> float:
        """Sum of the four phases."""
        return self.launch + self.shuffle_read + self.processing + self.shuffle_write


@dataclass
class JobMetrics:
    """Everything measured about one job execution."""

    job_id: str
    submit_time: float = 0.0
    start_time: float = 0.0
    finish_time: float = 0.0
    tasks: list[TaskTiming] = field(default_factory=list)
    #: Count of failures injected/observed during the run.
    failures: int = 0
    restarts: int = 0
    #: Scheme actually used per edge key ("src->dst").
    shuffle_schemes: dict[str, str] = field(default_factory=dict)
    #: Recovery-path accounting (Section IV-B), reconciled against the
    #: RecoveryDecisions the planner produced (tests/test_runtime_failures.py).
    recoveries_by_case: dict[str, int] = field(default_factory=dict)
    #: Same-graphlet predecessors asked to re-send cached shuffle data.
    resends: int = 0
    #: Failures that needed no action (idempotent + output fully consumed).
    noop_recoveries: int = 0
    #: Task instances actually re-launched by recovery.
    task_reruns: int = 0
    #: Task instances the RecoveryDecisions planned to re-run (upper bound
    #: for ``task_reruns``; the bounded-recovery invariant).
    planned_rerun_tasks: int = 0
    #: Owning tenant for multi-tenant service runs ("" = untenanted).
    tenant: str = ""
    #: Absolute completion deadline (simulated seconds; None = no SLO).
    deadline: Optional[float] = None

    @property
    def latency(self) -> float:
        """End-to-end latency from submission to completion."""
        return self.finish_time - self.submit_time

    @property
    def deadline_overrun(self) -> float:
        """Seconds the job finished past its deadline (0 when met or no SLO)."""
        if self.deadline is None:
            return 0.0
        return max(0.0, self.finish_time - self.deadline)

    @property
    def run_time(self) -> float:
        """Execution time from first task start to completion."""
        return self.finish_time - self.start_time

    def idle_ratio(self) -> float:
        """Mean IdleRatio over all task attempts of the job."""
        if not self.tasks:
            return 0.0
        return sum(t.idle_ratio for t in self.tasks) / len(self.tasks)

    def phase_breakdown(self, stage: str) -> PhaseBreakdown:
        """Critical-task (max) phase durations for ``stage`` (Fig. 9(b))."""
        rows = [t for t in self.tasks if t.stage == stage]
        if not rows:
            raise KeyError(f"no tasks recorded for stage {stage!r}")
        return PhaseBreakdown(
            stage=stage,
            launch=max(t.launch_time for t in rows),
            shuffle_read=max(t.shuffle_read_time for t in rows),
            processing=max(t.processing_time for t in rows),
            shuffle_write=max(t.shuffle_write_time for t in rows),
        )


def makespan(results: "Sequence[JobResult]") -> float:
    """Finish time of the last job of a run."""
    if not results:
        raise ValueError("no results")
    return max(r.metrics.finish_time for r in results)


def mean_latency(results: "Sequence[JobResult]") -> float:
    """Average end-to-end job latency of a run."""
    if not results:
        raise ValueError("no results")
    return sum(r.metrics.latency for r in results) / len(results)


def quantile(values: Sequence[float], q: float) -> float:
    """Hyndman-Fan type-7 sample quantile (the numpy/R default)."""
    if not values:
        raise ValueError("cannot take a quantile of no data")
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    h = (len(data) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (h - lo) * (data[hi] - data[lo])


def four_quartile_summary(values: Sequence[float]) -> dict[str, float]:
    """Min / Q1 / median / Q3 / max plus the interquartile mean.

    The paper reports averages "got via the widely-used four quartile
    method" [26]; we interpret that as the interquartile mean (the mean of
    samples between Q1 and Q3), which is robust to stragglers.
    """
    if not values:
        raise ValueError("cannot summarise no data")
    q1 = quantile(values, 0.25)
    q3 = quantile(values, 0.75)
    inner = [v for v in values if q1 <= v <= q3]
    iqm = sum(inner) / len(inner) if inner else (q1 + q3) / 2
    # Guard against float-summation drift on near-constant data.
    iqm = min(max(iqm, min(values)), max(values))
    return {
        "min": min(values),
        "q1": q1,
        "median": quantile(values, 0.5),
        "q3": q3,
        "max": max(values),
        "iq_mean": iqm,
        "mean": sum(values) / len(values),
    }


@dataclass
class UtilizationSample:
    """One point of the running-executor time series (Fig. 10)."""

    time: float
    running_executors: int


def utilization_series(
    intervals: Iterable[tuple[float, float]],
    step: float,
    horizon: float,
) -> list[UtilizationSample]:
    """Build a running-executor count time series from (start, end) busy
    intervals, sampled every ``step`` seconds up to ``horizon``."""
    if step <= 0:
        raise ValueError("step must be positive")
    events: list[tuple[float, int]] = []
    for start, end in intervals:
        if end < start:
            raise ValueError("interval end precedes start")
        events.append((start, 1))
        events.append((end, -1))
    events.sort()
    samples: list[UtilizationSample] = []
    running = 0
    cursor = 0
    t = 0.0
    while t <= horizon + 1e-9:
        while cursor < len(events) and events[cursor][0] <= t:
            running += events[cursor][1]
            cursor += 1
        samples.append(UtilizationSample(time=t, running_executors=running))
        t += step
    return samples


def normalized_cdf(values: Sequence[float], baseline: Sequence[float]) -> list[tuple[float, float]]:
    """CDF of per-job latency normalized to a baseline system (Fig. 11).

    ``values[i] / baseline[i]`` per job; returns (ratio, cumulative %)
    points sorted by ratio.
    """
    if len(values) != len(baseline):
        raise ValueError("values and baseline must be the same length")
    ratios = sorted(
        v / b if b > 0 else math.inf for v, b in zip(values, baseline)
    )
    n = len(ratios)
    return [(ratio, 100.0 * (i + 1) / n) for i, ratio in enumerate(ratios)]
