"""The original object-heap event kernel, kept as a test oracle.

:class:`LegacySimulator` has the same observable semantics as the
production :class:`repro.sim.engine.Simulator`, but every event is a
:class:`LegacyEvent` object on a heap ordered by a Python-level ``__lt__``.
``tests/test_sim_engine.py`` runs every behavioural test on both kernels
and ``tests/test_determinism.py`` replays random interleavings through
both in lockstep, so the production kernel can never drift silently.

The oracle shares no code with the kernel it checks: it imports only the
priority constant and the error type.  It never compacts its queue, which
is unobservable.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.engine import PRIORITY_NORMAL, SimulationError


class LegacyEvent:
    """A scheduled callback.  Cancellable; compares by (time, priority, seq)."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulator; set by ``schedule_at`` so cancellation can keep
        #: the live-event counter exact.  ``None`` for free-standing events.
        self._sim: Optional["LegacySimulator"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __lt__(self, other: "LegacyEvent") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<LegacyEvent t={self.time:.6f} p={self.priority} {name}{state}>"


class LegacySimulator:
    """The original object-heap kernel, kept as a differential oracle."""

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self._queue: list[LegacyEvent] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._live = 0
        self.peak_pending = 0
        self.rng = random.Random(seed)
        self.events_processed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return self._live

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> LegacyEvent:
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
    ) -> LegacyEvent:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        self._seq += 1
        event = LegacyEvent(time, priority, self._seq, callback, args)
        event._sim = self
        heappush(self._queue, event)
        self._live += 1
        if self._live > self.peak_pending:
            self.peak_pending = self._live
        return event

    def schedule_batch(
        self,
        items: Iterable[tuple[float, Callable[..., Any], tuple]],
        *,
        priority: int = PRIORITY_NORMAL,
    ) -> int:
        """Bulk-schedule ``(delay, callback, args)`` triples; returns count.

        All-or-nothing: every delay is checked before any event is queued.
        """
        items = list(items)
        for delay, _, _ in items:
            if not delay >= 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
        for delay, callback, args in items:
            self.schedule(delay, callback, *args, priority=priority)
        return len(items)

    def peek_time(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None`` if idle."""
        while self._queue and self._queue[0].cancelled:
            heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        tracer = self.tracer
        while self._queue:
            event = heappop(self._queue)
            if event.cancelled:
                continue
            self._live -= 1
            # Detach so a late cancel() on the executed event's handle
            # cannot decrement the live counter a second time.
            event._sim = None
            self._now = event.time
            self.events_processed += 1
            if tracer.enabled and tracer.engine_events:
                tracer.on_engine_event(event.time, event.callback, event.priority)
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time passes ``until``."""
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and not until >= self._now:
            raise ValueError(f"cannot run back in time (until={until}, now={self._now})")
        self._running = True
        tracer = self.tracer
        on_event = (
            tracer.on_engine_event
            if tracer.enabled and tracer.engine_events
            else None
        )
        try:
            executed = 0
            while self._queue:
                event = self._queue[0]
                if event.cancelled:
                    heappop(self._queue)
                    continue
                if until is not None and event.time > until:
                    self._now = until
                    break
                heappop(self._queue)
                self._live -= 1
                event._sim = None
                self._now = event.time
                self.events_processed += 1
                if on_event is not None:
                    on_event(event.time, event.callback, event.priority)
                event.callback(*event.args)
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely an event loop"
                    )
            if until is not None and self._now < until and not self._queue:
                self._now = until
            return self._now
        finally:
            self._running = False

    def clear_pending(self) -> int:
        """Cancel every queued event; returns how many were still live.

        Each event is detached (``cancelled=True``, ``_sim=None``) before the
        queue is dropped, so a handle cancelled *after* the clear is a no-op
        instead of decrementing ``_live`` below zero.
        """
        abandoned = self._live
        for event in self._queue:
            event.cancelled = True
            event._sim = None
        self._queue.clear()
        self._live = 0
        return abandoned
