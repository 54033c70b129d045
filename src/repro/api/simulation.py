"""The stable high-level entry points: ``Simulation`` and ``Runtime``.

:class:`Runtime` is the one place a simulated run is built: it validates
one :class:`~repro.api.config.RuntimeConfig` and builds the cluster and
the :class:`~repro.core.runtime.SwiftRuntime` from it.  ``Simulation``,
the ``Service`` gateway, the experiment cells, the chaos engine and the
CLI all go through it.  :class:`Simulation` adds tracing, export and the
metric fold on top, so user code never reaches into private runtime
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from ..audit.ledger import ResourceLedger
from ..core.dag import Job
from ..core.metrics import JobMetrics, makespan, mean_latency
from ..core.runtime import JobResult, SwiftRuntime
from ..obs.metrics import MetricsRegistry, collect_jobs
from ..obs.records import TraceRecord
from ..obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from ..sim.cluster import Cluster
from .config import RuntimeConfig

#: ``Simulation.run(trace=...)`` accepts a config, a ready tracer, or a bool.
TraceOption = Union["TraceConfig", Tracer, bool, None]


@dataclass(frozen=True)
class TraceConfig:
    """How a run should be traced and where the export should land.

    ``path`` is a base name; the exporters append ``.json`` (Chrome
    ``trace_event``, loadable in Perfetto) and/or ``.jsonl``.  With
    ``path=None`` the records stay in memory on the result object.
    """

    enabled: bool = True
    path: Optional[str] = None
    #: ``"chrome"``, ``"jsonl"``, or ``"both"``.
    format: str = "chrome"
    #: Also record every simulator-engine event (very verbose).
    engine_events: bool = False

    _FORMATS = ("chrome", "jsonl", "both")

    def __post_init__(self) -> None:
        if self.format not in self._FORMATS:
            raise ValueError(f"format must be one of {self._FORMATS}")

    def make_tracer(self) -> Tracer:
        """Build the tracer this config describes."""
        if not self.enabled:
            return NULL_TRACER
        return RecordingTracer(engine_events=self.engine_events)

    def output_paths(self) -> list[str]:
        """The files :meth:`SimulationResult.export` will write."""
        if self.path is None:
            return []
        base = self.path
        for suffix in (".json", ".jsonl"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        paths = []
        if self.format in ("chrome", "both"):
            paths.append(base + ".json")
        if self.format in ("jsonl", "both"):
            paths.append(base + ".jsonl")
        return paths


def _resolve_tracer(trace: TraceOption) -> tuple[Tracer, Optional[TraceConfig]]:
    if trace is None or trace is False:
        return NULL_TRACER, None
    if trace is True:
        return RecordingTracer(), None
    if isinstance(trace, TraceConfig):
        return trace.make_tracer(), trace
    return trace, None


@dataclass
class SimulationResult:
    """Typed outcome of one :meth:`Simulation.run` call."""

    results: list[JobResult]
    #: Trace records of the run (empty when tracing was disabled).
    trace: list[TraceRecord] = field(default_factory=list)
    #: Aggregated counters/gauges/histograms of the run.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Files written by the export step (when a trace path was configured).
    trace_files: list[str] = field(default_factory=list)
    #: Resource-accounting summary (``None`` unless the config set
    #: ``audit=True``); see :meth:`repro.audit.ResourceLedger.summary`.
    audit: Optional[dict[str, object]] = None

    @property
    def completed(self) -> bool:
        """True when every job completed without failing."""
        return all(r.completed for r in self.results)

    @property
    def makespan(self) -> float:
        """Finish time of the last job (0 for an empty run)."""
        return makespan(self.results) if self.results else 0.0

    @property
    def mean_latency(self) -> float:
        """Average end-to-end job latency (0 for an empty run)."""
        return mean_latency(self.results) if self.results else 0.0

    def job(self, job_id: str) -> JobResult:
        """The result of one job by id."""
        for result in self.results:
            if result.job_id == job_id:
                return result
        raise KeyError(f"no result for job {job_id!r}")


class Runtime:
    """Facade over :class:`~repro.core.runtime.SwiftRuntime` construction.

    Builds the cluster and runtime from one :class:`RuntimeConfig` and
    exposes the submit/run lifecycle.  The underlying runtime stays
    reachable as :attr:`inner` for advanced introspection.
    """

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = (config or RuntimeConfig()).validate()
        cluster = Cluster.build(
            self.config.n_machines,
            self.config.executors_per_machine,
            config=self.config.sim,
        )
        self.inner = SwiftRuntime(
            cluster,
            self.config.policy,
            failure_plan=self.config.failure_plan,
            reference_duration=self.config.reference_duration,
            tracer=tracer,
            audit=self.config.audit,
            audit_strict=self.config.audit_strict,
        )

    @property
    def ledger(self) -> Optional["ResourceLedger"]:
        """The resource-accounting ledger (``None`` unless ``audit=True``)."""
        return self.inner.ledger

    @property
    def tracer(self) -> Tracer:
        """The tracer threaded through the runtime and engine."""
        return self.inner.tracer

    def submit(self, workload: Union[Job, Sequence[Job]]) -> None:
        """Queue a job — or a whole batch — at their submit times.

        This is the one documented submission path: ``Simulation.run`` and
        the :class:`Service` gateway both funnel through it.  Accepts a
        single :class:`~repro.core.dag.Job` or any sequence of jobs.
        """
        batch = [workload] if isinstance(workload, Job) else list(workload)
        self.inner.submit_all(batch)

    def run(self, until: Optional[float] = None) -> list[JobResult]:
        """Run to completion (or ``until``); returns per-job results."""
        return self.inner.run(until=until)


class Simulation:
    """One-call simulation runner: jobs in, typed traced results out."""

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        self.config = (config or RuntimeConfig()).validate()

    def run(
        self,
        workload: Union[Job, Sequence[Job], None] = None,
        trace: TraceOption = None,
        until: Optional[float] = None,
    ) -> SimulationResult:
        """Execute a workload (one job or a batch) on a fresh cluster.

        ``trace`` may be ``True`` (record in memory), a :class:`TraceConfig`
        (record and export), a ready :class:`~repro.obs.tracer.Tracer`, or
        ``None``/``False`` for the zero-overhead disabled path.
        """
        if workload is None:
            raise TypeError("Simulation.run needs a workload (a Job or a sequence)")
        tracer, trace_config = _resolve_tracer(trace)
        runtime = Runtime(self.config, tracer=tracer)
        runtime.submit(workload)
        outcome = SimulationResult(results=list(runtime.run(until=until)))
        _finish_outcome(outcome, runtime, trace_config)
        return outcome


def _finish_outcome(
    outcome: SimulationResult,
    runtime: Runtime,
    trace_config: Optional[TraceConfig],
    collect: Callable[[MetricsRegistry, Iterable[JobMetrics]], None] = collect_jobs,
) -> None:
    """Fill a finished run's audit summary, trace records and metrics and
    write the trace export files; shared by :class:`Simulation` and
    ``Service``.  The completed jobs' metrics are folded through
    ``collect``, into the tracer's registry when the run was recorded."""
    if runtime.ledger is not None:
        outcome.audit = runtime.ledger.summary()
    tracer = runtime.tracer
    if isinstance(tracer, RecordingTracer):
        outcome.trace = list(tracer.records)
        outcome.metrics = tracer.metrics
        if trace_config is not None:
            for path in trace_config.output_paths():
                if path.endswith(".jsonl"):
                    tracer.export_jsonl(path)
                else:
                    tracer.export_chrome(path)
                outcome.trace_files.append(path)
    collect(outcome.metrics, (r.metrics for r in outcome.results if r.completed))
