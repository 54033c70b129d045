"""Discrete-event simulation kernel.

A minimal, deterministic event engine: events are ``(time, priority, seq)``
ordered, callbacks run in that order, and a shared :class:`random.Random`
instance seeded from the configuration makes every run reproducible.  The
engine is intentionally independent of the cluster model so that it can be
unit-tested and reused (the fault injector and the trace replayer both drive
it directly).

One object per event: the heap holds ``(time, priority, seq, event)``
tuples, and the :class:`Event` itself owns its callback, arguments and
cancelled flag.  ``seq`` is unique, so heap sifting is C-level tuple
comparison that never reaches the ``Event``.  The original object-heap
kernel lives on in ``tests/legacy_kernel.py`` as a differential oracle: the
kernel tests run on both, and ``tests/test_determinism.py`` drives random
interleavings through both in lockstep.

Cancelled events use lazy deletion: :meth:`Event.cancel` only marks the
entry, and the engine drops it when it reaches the top of the heap.  A live
counter keeps :meth:`Simulator.pending_events` O(1), and when more than half
of a large heap is dead the queue is compacted in one pass so replays that
cancel many recovery events cannot bloat the heap.  The runtime cancels a
task's finish event whenever recovery moves, suspends or abandons the
attempt (``repro.core.runtime``), so every queued finish event is live.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Iterable, Optional, Tuple

import random

from ..obs.tracer import NULL_TRACER, Tracer


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: Priority used for resource-assignment events.  The Event Processor handles
#: them "in high priority" (Section II-C), i.e. before same-time events.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 10
PRIORITY_LOW = 20

#: Below this queue size compaction is never worth the rebuild.
_COMPACT_MIN_QUEUE = 64

#: One batched schedule item: ``(delay, callback, args)``.
BatchItem = Tuple[float, Callable[..., Any], tuple]


class Event:
    """A scheduled callback.

    ``_sim`` is the owning simulator only while the event is queued and
    live; running, cancelling or ``clear_pending`` detach it, so a late
    :meth:`cancel` is a no-op instead of corrupting the live counter.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional[Simulator] = sim

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    ``_heap`` is a heap of ``(time, priority, seq, event)`` entries.  Seqs
    start at 1 and never repeat, so no two entries compare equal and the
    order never depends on the ``Event`` objects.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        #: Not-yet-cancelled events currently in the queue.
        self._live = 0
        #: High-water mark of the live queue; the benchmark reports it.
        self.peak_pending = 0
        self.rng = random.Random(seed)
        #: Count of events executed; used by scalability experiments to model
        #: controller load.
        self.events_processed = 0
        #: Observability hook.  The null tracer keeps the run loop on a
        #: pre-hoisted no-hook branch, so a disabled tracer costs nothing
        #: per event.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # Each check is a negated comparison so NaN fails it too.
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        The hot path (every task's finish event): the event is queued here,
        with no helper frame.
        """
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        event = Event(self, time, callback, args)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, priority, seq, event))
        self._live = live = self._live + 1
        if live > self.peak_pending:
            self.peak_pending = live
        return event

    def schedule_batch(
        self,
        items: Iterable[BatchItem],
        *,
        priority: int = PRIORITY_NORMAL,
    ) -> int:
        """Bulk-schedule ``(delay, callback, args)`` triples; returns count.

        No handles are returned — batched events cannot be cancelled
        individually, which is exactly the contract bulk producers (trace
        arrivals, job submissions) want.  The batch is all-or-nothing: every
        delay is checked before any event is queued.  The entries are then
        pushed one by one, so a dispatch of k jobs onto a queue of n live
        events costs O(k log n), not the O(n) of a heap rebuild; keys are
        unique, so the pop order is the same either way.
        """
        now = self._now
        seq = self._seq
        entries: list[tuple[float, int, int, Event]] = []
        for delay, callback, args in items:
            if not delay >= 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            seq += 1
            time = now + delay
            entries.append((time, priority, seq, Event(self, time, callback, args)))
        self._seq = seq
        heap = self._heap
        for entry in entries:
            heappush(heap, entry)
        self._live = live = self._live + len(entries)
        if live > self.peak_pending:
            self.peak_pending = live
        return len(entries)

    def _on_cancel(self) -> None:
        """Account for one cancellation; compact the heap when mostly dead.

        The heap is filtered in place, so the run loop's local binding stays
        valid when a callback's cancel triggers compaction.
        """
        self._live -= 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN_QUEUE and len(heap) - self._live > self._live:
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapify(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None`` if idle."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        tracer = self.tracer
        heap = self._heap
        while heap:
            time, priority, _, event = heappop(heap)
            if event.cancelled:
                continue
            event._sim = None
            self._live -= 1
            self._now = time
            self.events_processed += 1
            if tracer.enabled and tracer.engine_events:
                tracer.on_engine_event(time, event.callback, priority)
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time passes ``until``.

        Returns the final simulated time.  ``until`` may not lie before
        ``now``.  ``max_events`` guards against accidental infinite event
        loops in tests.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and not until >= self._now:
            raise ValueError(f"cannot run back in time (until={until}, now={self._now})")
        self._running = True
        tracer = self.tracer
        # Hoisted once per run: with tracing disabled the loop takes the
        # no-hook branch with zero per-event work.
        on_event = (
            tracer.on_engine_event
            if tracer.enabled and tracer.engine_events
            else None
        )
        # Compaction and clear_pending change the heap in place, so this
        # binding stays valid for the whole run.
        heap = self._heap
        pop = heappop
        limit = inf if until is None else until
        executed = 0
        try:
            while heap:
                # Single pop per iteration: the head is inspected in place
                # (skipping dead entries) instead of a peek+step pair that
                # walks the heap top twice per event.
                head = heap[0]
                event = head[3]
                if event.cancelled:
                    pop(heap)
                    continue
                time = head[0]
                if time > limit:
                    self._now = limit
                    break
                pop(heap)
                event._sim = None
                self._live -= 1
                self._now = time
                executed += 1
                if on_event is not None:
                    on_event(time, event.callback, head[1])
                event.callback(*event.args)
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely an event loop"
                    )
            if until is not None and self._now < until and not heap:
                self._now = until
            return self._now
        finally:
            self.events_processed += executed
            self._running = False

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    def clear_pending(self) -> int:
        """Cancel every queued event; returns how many were still live.

        Used by watchdogs (``repro.chaos``) that abandon a run after a
        deadline: the queue is emptied so the simulator can be inspected or
        discarded without draining stale callbacks.  Every queued handle is
        detached first, so a late ``Event.cancel`` is a no-op instead of
        driving ``_live`` negative.
        """
        abandoned = self._live
        for entry in self._heap:
            event = entry[3]
            event.cancelled = True
            event._sim = None
        self._heap.clear()
        self._live = 0
        return abandoned
