"""Tracer hook: zero overhead when disabled, structured records when on.

The base :class:`Tracer` is a null object: every emit method is a no-op and
``enabled`` is ``False``, so the runtime's hot paths pay a single hoisted
boolean check per batch (not per record) when tracing is off.

:class:`RecordingTracer` appends raw tuples to a preallocated ring buffer —
no :class:`~repro.obs.records.TraceRecord` is constructed on the hot path —
and materializes records lazily, once, at query/export time.  Export
helpers write JSON-lines or Chrome ``trace_event`` files (the latter loads
directly in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

from typing import Any, Callable

from .metrics import MetricsRegistry
from .records import Category, RecordKind, TraceRecord


class Tracer:
    """Null tracer: the disabled-by-default hook threaded through the runtime.

    Subclasses override :meth:`span` and :meth:`instant` (and optionally
    :meth:`on_engine_event`) and set ``enabled = True``.  Emitting must never
    mutate simulation state — tracers observe, they do not steer.
    """

    #: Hot paths check this once per batch and skip all emission when False.
    enabled: bool = False
    #: When True (and ``enabled``), the event engine reports every executed
    #: event via :meth:`on_engine_event`.  Extremely verbose; off by default.
    engine_events: bool = False

    def span(
        self,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        job_id: str = "",
        scope: str = "",
        **args: Any,
    ) -> None:
        """Record an interval observation (no-op here)."""

    def instant(
        self,
        cat: str,
        name: str,
        ts: float,
        job_id: str = "",
        scope: str = "",
        **args: Any,
    ) -> None:
        """Record a point observation (no-op here)."""

    def on_engine_event(
        self, ts: float, callback: Callable[..., Any], priority: int
    ) -> None:
        """Report one executed simulator event (no-op here)."""

    def task_span(
        self,
        stage: str,
        job_id: str,
        index: int,
        attempt: int,
        plan_arrive: float,
        data_arrive: float,
        finish: float,
        launch: float,
        read: float,
        proc: float,
        write: float,
    ) -> None:
        """Record one finished task attempt (no-op here).

        Specialized emit for the runtime's hottest record: positional raw
        fields, so recording tracers can defer the name formatting and args
        dict to materialization time.
        """

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter in the tracer's metrics registry (no-op here)."""

    def gauge_max(self, name: str, value: float) -> None:
        """Track a running-maximum gauge (no-op here)."""


#: Shared null tracer; the runtime default.  Stateless, so one instance
#: serves every simulator.
NULL_TRACER = Tracer()

#: Ring-entry tags (slot 0 of each raw tuple).
_SPAN = 0
_INSTANT = 1
_ENGINE = 2
_TASK = 3

#: Default ring capacity: ~1M records (must be a power of two).  Large
#: enough that every test/figure workload is retained in full; paper-scale
#: engine-event firehoses wrap and drop the oldest entries (``dropped``).
_DEFAULT_CAPACITY = 1 << 20


class RecordingTracer(Tracer):
    """In-memory tracer: ring buffer of raw tuples, lazily materialized.

    The emit methods store plain tuples into a preallocated ring
    (``buf[n & mask]``), deferring all ``TraceRecord`` construction — the
    dominant cost of the old eager tracer — to the first query or export
    after recording.  When more than ``capacity`` records are emitted the
    oldest are overwritten; :attr:`dropped` says how many were lost.
    """

    enabled = True

    def __init__(
        self,
        engine_events: bool = False,
        metrics: MetricsRegistry | None = None,
        capacity: int = _DEFAULT_CAPACITY,
    ) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        self.engine_events = engine_events
        self._registry = metrics if metrics is not None else MetricsRegistry()
        self._capacity = capacity
        self._mask = capacity - 1
        # Grown by appends until ``capacity`` entries exist, then treated as
        # a fixed ring (``buf[n & mask]``).  Constructing the tracer stays
        # O(1) — eagerly preallocating a million-slot list costs more than
        # small traced runs themselves.
        self._buf: list[tuple[Any, ...]] = []
        #: Total records ever emitted (monotonic; drops = _n - capacity).
        self._n = 0
        #: Materialization cache, valid while no new record was emitted.
        self._cache: list[TraceRecord] | None = None
        self._cache_n = -1
        #: Callback -> display name memo for engine events (satellite fix:
        #: the qualname getattr used to run once per executed event).
        self._name_memo: dict[Any, str] = {}

    # ------------------------------------------------------------------
    # Hot path: raw tuple appends, no record construction
    # ------------------------------------------------------------------
    def span(
        self,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        job_id: str = "",
        scope: str = "",
        **args: Any,
    ) -> None:
        """Append one span entry to the ring."""
        n = self._n
        if n < self._capacity:
            self._buf.append((_SPAN, cat, name, ts, dur, job_id, scope, args))
        else:
            self._buf[n & self._mask] = (_SPAN, cat, name, ts, dur, job_id, scope, args)
        self._n = n + 1

    def instant(
        self,
        cat: str,
        name: str,
        ts: float,
        job_id: str = "",
        scope: str = "",
        **args: Any,
    ) -> None:
        """Append one instant entry to the ring."""
        n = self._n
        if n < self._capacity:
            self._buf.append((_INSTANT, cat, name, ts, job_id, scope, args))
        else:
            self._buf[n & self._mask] = (_INSTANT, cat, name, ts, job_id, scope, args)
        self._n = n + 1

    def on_engine_event(
        self, ts: float, callback: Callable[..., Any], priority: int
    ) -> None:
        """Append one engine-level entry (only wired when opted in).

        The raw callback is stored; its display name is resolved (and
        memoized per callback) at materialization time, not per event.
        """
        n = self._n
        if n < self._capacity:
            self._buf.append((_ENGINE, callback, ts, priority))
        else:
            self._buf[n & self._mask] = (_ENGINE, callback, ts, priority)
        self._n = n + 1

    def task_span(
        self,
        stage: str,
        job_id: str,
        index: int,
        attempt: int,
        plan_arrive: float,
        data_arrive: float,
        finish: float,
        launch: float,
        read: float,
        proc: float,
        write: float,
    ) -> None:
        """Append one task-attempt entry (raw fields; formatted lazily)."""
        n = self._n
        entry = (
            _TASK, stage, job_id, index, attempt, plan_arrive, data_arrive,
            finish, launch, read, proc, write,
        )
        if n < self._capacity:
            self._buf.append(entry)
        else:
            self._buf[n & self._mask] = entry
        self._n = n + 1

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter in the metrics registry."""
        self._registry.counter(name).inc(amount)

    def gauge_max(self, name: str, value: float) -> None:
        """Track a running maximum in the metrics registry."""
        self._registry.gauge(name).max(value)

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry :meth:`count` and :meth:`gauge_max` update;
        a finished ``Simulation`` or ``Service`` run also folds its
        completed jobs' metrics into it."""
        return self._registry

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[TraceRecord]:
        """The retained records in emission order (materialized lazily).

        The result is cached until the next emit, so repeated queries and
        exports pay the construction cost once.  Callers must not mutate
        the returned list.
        """
        if self._cache is None or self._cache_n != self._n:
            self._cache = self._materialize()
            self._cache_n = self._n
        return self._cache

    @property
    def dropped(self) -> int:
        """Records overwritten because the ring wrapped (oldest first)."""
        return max(0, self._n - self._capacity)

    def _materialize(self) -> list[TraceRecord]:
        """Build TraceRecords for the live window of the ring."""
        n = self._n
        buf = self._buf
        mask = self._mask
        memo = self._name_memo
        out: list[TraceRecord] = []
        for i in range(max(0, n - self._capacity), n):
            entry = buf[i & mask]
            tag = entry[0]
            if tag == _TASK:
                (_, stage, job_id, index, attempt, plan_arrive, data_arrive,
                 finish, launch, read, proc, write) = entry
                idle = min(data_arrive, finish) - plan_arrive
                out.append(TraceRecord(
                    RecordKind.SPAN, Category.TASK, f"{stage}[{index}]",
                    plan_arrive, finish - plan_arrive, job_id, stage,
                    {
                        # ts + dur can round away from the exact finish
                        # time; consumers that need the precise interval
                        # (task_intervals) read this.
                        "finish": finish,
                        "attempt": attempt,
                        "idle": idle if idle > 0 else 0.0,
                        "launch": launch,
                        "read": read,
                        "proc": proc,
                        "write": write,
                    },
                ))
            elif tag == _SPAN:
                out.append(TraceRecord(
                    RecordKind.SPAN, entry[1], entry[2], entry[3], entry[4],
                    entry[5], entry[6], entry[7],
                ))
            elif tag == _INSTANT:
                out.append(TraceRecord(
                    RecordKind.INSTANT, entry[1], entry[2], entry[3], None,
                    entry[4], entry[5], entry[6],
                ))
            else:
                callback = entry[1]
                name = memo.get(callback)
                if name is None:
                    name = getattr(callback, "__qualname__", None) or repr(callback)
                    memo[callback] = name
                out.append(TraceRecord(
                    RecordKind.INSTANT, Category.ENGINE, name, entry[2], None,
                    "", "", {"priority": entry[3]},
                ))
        return out

    # ------------------------------------------------------------------
    # Queries and export
    # ------------------------------------------------------------------
    def of_category(self, cat: str) -> list[TraceRecord]:
        """All records of one category, in emission order."""
        return [r for r in self.records if r.cat == cat]

    def task_intervals(self) -> list[tuple[float, float]]:
        """(start, end) busy intervals of every task-attempt span.

        Aborted attempts are included, ending at their abort time.  This is
        the runtime's only record of executor busy time; utilization series
        (Fig. 10) are built from it.  The exact ``finish`` arg (when
        present) avoids the ``ts + dur`` floating-point round-off.
        """
        return [
            (r.ts, float(r.args["finish"]) if "finish" in r.args else r.end)
            for r in self.records
            if r.cat == Category.TASK and r.kind is RecordKind.SPAN
        ]

    def export_jsonl(self, path: str) -> str:
        """Write the JSON-lines export; returns the path written."""
        from .exporters import write_jsonl

        write_jsonl(self.records, path)
        return path

    def export_chrome(self, path: str) -> str:
        """Write the Chrome ``trace_event`` export; returns the path."""
        from .exporters import write_chrome_trace

        write_chrome_trace(self.records, path)
        return path

    def __len__(self) -> int:
        return min(self._n, self._capacity)
