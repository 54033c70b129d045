"""Discrete-event simulation kernel.

A minimal, deterministic event engine: events are ``(time, priority, seq)``
ordered, callbacks run in that order, and a shared :class:`random.Random`
instance seeded from the configuration makes every run reproducible.  The
engine is intentionally independent of the cluster model so that it can be
unit-tested and reused (the fault injector and the trace replayer both drive
it directly).

:class:`Simulator` is array-backed.  The heap is a flat array of
``(time, priority, seq, slot)`` rows, so heap sifting uses C-level tuple
comparison instead of a Python ``__lt__``.  ``slot`` indexes
struct-of-arrays storage (a seq validity array keyed into a callback+args
table); cancellation is a bitmask over slots, and slots are recycled
through a free stack.  ``schedule_batch`` amortises heap maintenance for
bulk producers (trace arrivals and job submissions).  The original
object-heap kernel lives on in ``tests/legacy_kernel.py`` as a
differential oracle: the kernel tests run on both, and
``tests/test_determinism.py`` drives random interleavings through both in
lockstep.

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
from array import array
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
    """Handle for a scheduled callback in the array-backed kernel.

    The handle does not own the callback — it only remembers which slot/seq
    pair it named, so :meth:`cancel` after the event executed (or after
    ``clear_pending`` wiped the queue) is a safe no-op: the seq check fails
    and nothing is touched.
    """

    __slots__ = ("time", "priority", "seq", "cancelled", "_sim", "_slot")

    def __init__(
        self, sim: "Simulator", slot: int, time: float, priority: int, seq: int
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.cancelled = False
        self._sim = sim
        self._slot = slot

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        self._sim._cancel_slot(self._slot, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} p={self.priority} seq={self.seq}{state}>"


class Simulator:
    """Deterministic discrete-event simulator (array-backed kernel).

    State layout: ``_heap`` is a heap of ``(time, priority, seq, slot)``
    rows — the time/priority/seq columns live in the heap entries themselves,
    compared at C speed.  ``slot`` keys the parallel per-slot storage:
    ``_seqs`` (validity), ``_callbacks``/``_cbargs`` (the callback table),
    ``_dead`` (cancellation bitmask), and ``_free`` (recycled-slot stack).
    A slot is live while its heap entry exists; it is released when that
    entry is popped (executed or found dead) or filtered out by compaction.
    Seqs start at 1 and never repeat, so ``_seqs[slot] == handle.seq`` is
    the validity test for stale handles.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self._heap: list[tuple[float, int, int, int]] = []
        # Struct-of-arrays slot storage.
        self._seqs = array("q")
        self._callbacks: list[Optional[Callable[..., Any]]] = []
        self._cbargs: list[tuple] = []
        self._dead = bytearray()
        self._free: list[int] = []
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
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._push(time, priority, callback, args)

    def _push(
        self, time: float, priority: int, callback: Callable[..., Any], args: tuple
    ) -> Event:
        """Allocate a slot, push a heap row, build the handle (hot path)."""
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._seqs[slot] = seq
            self._callbacks[slot] = callback
            self._cbargs[slot] = args
            self._dead[slot] = 0
        else:
            slot = len(self._seqs)
            self._seqs.append(seq)
            self._callbacks.append(callback)
            self._cbargs.append(args)
            self._dead.append(0)
        heappush(self._heap, (time, priority, seq, slot))
        self._live = live = self._live + 1
        if live > self.peak_pending:
            self.peak_pending = live
        # Event.__new__ + direct attribute stores: skips the __init__ frame,
        # which is measurable at millions of schedules per replay.
        event = Event.__new__(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.cancelled = False
        event._sim = self
        event._slot = slot
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
        arrivals, job submissions) want.  Heap maintenance is amortised: for
        large batches the entries are appended and the heap rebuilt once
        (O(n + k)) instead of k pushes (O(k log n)).
        """
        heap = self._heap
        now = self._now
        seq = self._seq
        appended = 0
        entries: list[tuple[float, int, int, int]] = []
        for delay, callback, args in items:
            if delay < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            seq += 1
            slot = self._alloc_slot(seq, callback, args)
            entries.append((now + delay, priority, seq, slot))
            appended += 1
        self._seq = seq
        if not appended:
            return 0
        if appended > max(len(heap) // 8, 8):
            heap.extend(entries)
            heapify(heap)
        else:
            for entry in entries:
                heappush(heap, entry)
        self._live += appended
        if self._live > self.peak_pending:
            self.peak_pending = self._live
        return appended

    def _alloc_slot(
        self, seq: int, callback: Callable[..., Any], args: tuple
    ) -> int:
        """Claim a slot (recycled or fresh) and fill its parallel arrays."""
        free = self._free
        if free:
            slot = free.pop()
            self._seqs[slot] = seq
            self._callbacks[slot] = callback
            self._cbargs[slot] = args
            self._dead[slot] = 0
        else:
            slot = len(self._seqs)
            self._seqs.append(seq)
            self._callbacks.append(callback)
            self._cbargs.append(args)
            self._dead.append(0)
        return slot

    def _release_slot(self, slot: int) -> None:
        """Return a slot to the free stack and drop its object references."""
        self._seqs[slot] = 0
        self._callbacks[slot] = None
        self._cbargs[slot] = ()
        self._dead[slot] = 0
        self._free.append(slot)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def _cancel_slot(self, slot: int, seq: int) -> None:
        """Cancel the event in ``slot`` iff the handle's seq still owns it.

        Stale handles (event executed, queue cleared, slot recycled) fail
        the bounds or seq check and are ignored, which keeps ``_live``
        exact — the accounting bug behind the old ``clear_pending`` leak.
        """
        seqs = self._seqs
        if slot >= len(seqs) or seqs[slot] != seq or self._dead[slot]:
            return
        self._dead[slot] = 1
        self._live -= 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN_QUEUE and len(heap) - self._live > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop dead heap entries in one pass and recycle their slots.

        Rebuilds in place (slice assignment) so the run loop's local heap
        binding stays valid when a callback's cancel triggers compaction.
        """
        heap = self._heap
        dead = self._dead
        kept: list[tuple[float, int, int, int]] = []
        for entry in heap:
            if dead[entry[3]]:
                self._release_slot(entry[3])
            else:
                kept.append(entry)
        heap[:] = kept
        heapify(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None`` if idle."""
        heap = self._heap
        dead = self._dead
        while heap and dead[heap[0][3]]:
            self._release_slot(heappop(heap)[3])
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        tracer = self.tracer
        heap = self._heap
        dead = self._dead
        while heap:
            time, priority, seq, slot = heappop(heap)
            if dead[slot]:
                self._release_slot(slot)
                continue
            callback = self._callbacks[slot]
            args = self._cbargs[slot]
            self._release_slot(slot)
            self._live -= 1
            self._now = time
            self.events_processed += 1
            if tracer.enabled and tracer.engine_events:
                tracer.on_engine_event(time, callback, priority)
            callback(*args)  # type: ignore[misc]
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time passes ``until``.

        Returns the final simulated time.  ``max_events`` guards against
        accidental infinite event loops in tests.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        tracer = self.tracer
        # Hoisted once per run: with tracing disabled the loop takes the
        # no-hook branch with zero per-event work.
        on_event = (
            tracer.on_engine_event
            if tracer.enabled and tracer.engine_events
            else None
        )
        # Local bindings survive callbacks: compaction rebuilds the heap in
        # place and clear_pending empties every container in place, so the
        # object identities are stable for the whole run.
        heap = self._heap
        dead = self._dead
        seqs = self._seqs
        callbacks = self._callbacks
        cbargs = self._cbargs
        free_slot = self._free.append
        pop = heappop
        limit = inf if until is None else until
        executed = 0
        try:
            while heap:
                # Single pop per iteration: the head is inspected in place
                # (skipping dead entries) instead of a peek+step pair that
                # walks the heap top twice per event.
                head = heap[0]
                slot = head[3]
                if dead[slot]:
                    pop(heap)
                    self._release_slot(slot)
                    continue
                time = head[0]
                if time > limit:
                    self._now = limit
                    break
                pop(heap)
                callback = callbacks[slot]
                args = cbargs[slot]
                # Inlined slot release: only the seq is invalidated here (it
                # is what stale handles are checked against); the callback
                # and args references are overwritten when the slot is
                # reused, or dropped by clear_pending.
                seqs[slot] = 0
                free_slot(slot)
                self._live -= 1
                self._now = time
                executed += 1
                if on_event is not None:
                    on_event(time, callback, head[1])
                callback(*args)  # type: ignore[misc]
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
        discarded without draining stale callbacks.  All slot storage is
        wiped, so handles to cleared events fail their seq check and a late
        ``Event.cancel`` is a no-op instead of driving ``_live`` negative.
        """
        abandoned = self._live
        self._heap.clear()
        del self._seqs[:]
        self._callbacks.clear()
        self._cbargs.clear()
        self._dead[:] = b""
        self._free.clear()
        self._live = 0
        return abandoned
