"""The per-task ``observe`` fold of ``collect_job``, kept as a test oracle.

:func:`observe_collect_job` is the earlier body of
:func:`repro.obs.metrics.collect_job`: it folds each task through
``Histogram.observe`` on the ``TaskTiming.idle_ratio`` and
``TaskTiming.duration`` properties.  The production fold inlines both
histograms into one loop over locals; ``tests/test_obs.py`` checks that
the two leave registries whose ``to_dict()`` is equal.

It shares no fold code with the function it checks: it uses only the
registry's public instruments and the bucket bounds.
"""

from __future__ import annotations

from repro.core.metrics import JobMetrics
from repro.obs.metrics import RATIO_BUCKETS, MetricsRegistry


def observe_collect_job(registry: MetricsRegistry, metrics: JobMetrics) -> None:
    """Fold one job's metrics into ``registry`` with per-task ``observe``."""
    registry.counter("jobs_completed").inc()
    registry.counter("failures_observed").inc(metrics.failures)
    registry.counter("job_restarts").inc(metrics.restarts)
    registry.histogram("job_latency_s").observe(metrics.latency)
    registry.histogram("job_run_time_s").observe(metrics.run_time)
    observe_idle = registry.histogram("task_idle_ratio", RATIO_BUCKETS).observe
    observe_duration = registry.histogram("task_duration_s").observe
    reruns = 0
    launch = shuffle_read = processing = shuffle_write = 0.0
    for task in metrics.tasks:
        if task.attempt:
            reruns += 1
        observe_idle(task.idle_ratio)
        observe_duration(task.duration)
        launch += task.launch_time
        shuffle_read += task.shuffle_read_time
        processing += task.processing_time
        shuffle_write += task.shuffle_write_time
    if metrics.tasks:
        registry.counter("tasks_finished").inc(len(metrics.tasks))
        registry.counter("phase_launch_s").inc(launch)
        registry.counter("phase_shuffle_read_s").inc(shuffle_read)
        registry.counter("phase_processing_s").inc(processing)
        registry.counter("phase_shuffle_write_s").inc(shuffle_write)
    if reruns:
        registry.counter("task_reruns").inc(reruns)
    for scheme in metrics.shuffle_schemes.values():
        registry.counter(f"shuffle_scheme_{scheme}").inc()
