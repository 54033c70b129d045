"""Metrics registry: counters, gauges, and histograms.

The registry subsumes the ad-hoc aggregation previously scattered over
:class:`~repro.core.metrics.TaskTiming` / ``PhaseBreakdown`` consumers: a
run traced through :class:`~repro.obs.tracer.RecordingTracer` accumulates
job/task counters, an IdleRatio histogram, and per-phase time totals that
the figure scripts can read instead of poking at private runtime fields.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.metrics import JobMetrics

#: Default bucket upper bounds for ratio-valued histograms (IdleRatio).
RATIO_BUCKETS: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)

#: Default bucket upper bounds for duration-valued histograms (seconds).
DURATION_BUCKETS: tuple[float, ...] = (
    0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


@dataclass
class Gauge:
    """Last-observed value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum of observed values."""
        if value > self.value:
            self.value = value


@dataclass
class Histogram:
    """Fixed-bucket histogram with sum/count for mean computation."""

    name: str
    bounds: tuple[float, ...] = DURATION_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        if not self.counts:
            # One slot per bound plus the overflow slot.
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of observed samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def fraction_le(self, bound: float) -> float:
        """Fraction of samples at or below ``bound`` (bucket-resolution)."""
        if not self.count:
            return 0.0
        upto = bisect.bisect_right(self.bounds, bound)
        return sum(self.counts[:upto]) / self.count


class MetricsRegistry:
    """Named counters/gauges/histograms with create-on-first-use lookup."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DURATION_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (bounds fix on creation)."""
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, bounds)
        return found

    def to_dict(self) -> dict[str, Any]:
        """Flatten every instrument into one JSON-serializable document."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def to_json(self) -> str:
        """:meth:`to_dict` as an indented JSON string."""
        return json.dumps(self.to_dict(), indent=2)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def collect_job(registry: MetricsRegistry, metrics: "JobMetrics") -> None:
    """Fold one completed job's :class:`~repro.core.metrics.JobMetrics` into ``registry``.

    This is the registry-level replacement for the ad-hoc per-figure
    aggregation over ``TaskTiming`` lists: counters for job/task/failure
    totals, histograms for IdleRatio and latency, and per-phase time
    counters matching the 4-phase breakdown of Section V-C1.
    """
    registry.counter("jobs_completed").inc()
    registry.counter("failures_observed").inc(metrics.failures)
    registry.counter("job_restarts").inc(metrics.restarts)
    registry.histogram("job_latency_s").observe(metrics.latency)
    registry.histogram("job_run_time_s").observe(metrics.run_time)
    tasks = metrics.tasks
    idle = registry.histogram("task_idle_ratio", RATIO_BUCKETS)
    duration = registry.histogram("task_duration_s")
    # One pass over the tasks, both histograms and the per-task scalars in
    # locals, folded back once: each histogram sees the same samples, in
    # the same order, as per-task ``observe`` calls on ``TaskTiming.idle_ratio``
    # and ``TaskTiming.duration``, so its counts and float sum are identical.
    idle_bounds, idle_counts, idle_sum = idle.bounds, idle.counts, idle.total
    span_bounds, span_counts, span_sum = duration.bounds, duration.counts, duration.total
    bisect_left = bisect.bisect_left
    reruns = 0
    launch = shuffle_read = processing = shuffle_write = 0.0
    for task in tasks:
        if task.attempt:
            reruns += 1
        plan = task.plan_arrive
        span = task.finish - plan
        if span <= 0:
            ratio = 0.0
        else:
            waited = task.data_arrive - plan
            ratio = waited / span if waited > 0.0 else 0.0
            if not ratio < 1.0:
                ratio = 1.0
        idle_counts[bisect_left(idle_bounds, ratio)] += 1
        idle_sum += ratio
        span_counts[bisect_left(span_bounds, span)] += 1
        span_sum += span
        launch += task.launch_time
        shuffle_read += task.shuffle_read_time
        processing += task.processing_time
        shuffle_write += task.shuffle_write_time
    idle.total, idle.count = idle_sum, idle.count + len(tasks)
    duration.total, duration.count = span_sum, duration.count + len(tasks)
    if tasks:
        registry.counter("tasks_finished").inc(len(tasks))
        registry.counter("phase_launch_s").inc(launch)
        registry.counter("phase_shuffle_read_s").inc(shuffle_read)
        registry.counter("phase_processing_s").inc(processing)
        registry.counter("phase_shuffle_write_s").inc(shuffle_write)
    if reruns:
        registry.counter("task_reruns").inc(reruns)
    for scheme in metrics.shuffle_schemes.values():
        registry.counter(f"shuffle_scheme_{scheme}").inc()


def collect_jobs(registry: MetricsRegistry, all_metrics: Iterable["JobMetrics"]) -> None:
    """Fold many jobs' metrics into ``registry`` (see :func:`collect_job`)."""
    for metrics in all_metrics:
        collect_job(registry, metrics)
