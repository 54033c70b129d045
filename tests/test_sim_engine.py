"""Tests for the discrete-event simulation kernel.

Every behavioural test is parametrized over both kernels — the production
:class:`Simulator` and the object-heap :class:`LegacySimulator` oracle in
``tests/legacy_kernel.py`` — so the two can never drift apart silently.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    SimulationError,
    Simulator,
)

from legacy_kernel import LegacySimulator

KERNELS = [Simulator, LegacySimulator]


# "array" names the production kernel after its earlier layout; the id is
# kept so test ids stay stable.
@pytest.fixture(params=KERNELS, ids=["array", "legacy"])
def make_sim(request):
    return request.param


def test_events_run_in_time_order(make_sim):
    sim = make_sim()
    seen: list[str] = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_now_advances_to_event_time(make_sim):
    sim = make_sim()
    times: list[float] = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5, 4.25]
    assert sim.now == 4.25


def test_same_time_orders_by_priority(make_sim):
    sim = make_sim()
    seen: list[str] = []
    sim.schedule(1.0, seen.append, "low", priority=PRIORITY_LOW)
    sim.schedule(1.0, seen.append, "high", priority=PRIORITY_HIGH)
    sim.schedule(1.0, seen.append, "normal", priority=PRIORITY_NORMAL)
    sim.run()
    assert seen == ["high", "normal", "low"]


def test_same_time_same_priority_is_fifo(make_sim):
    sim = make_sim()
    seen: list[int] = []
    for i in range(5):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_run(make_sim):
    sim = make_sim()
    seen: list[str] = []
    event = sim.schedule(1.0, seen.append, "cancelled")
    sim.schedule(2.0, seen.append, "kept")
    event.cancel()
    sim.run()
    assert seen == ["kept"]


def test_schedule_during_run(make_sim):
    sim = make_sim()
    seen: list[str] = []

    def first() -> None:
        seen.append("first")
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_schedule_in_past_raises(make_sim):
    sim = make_sim()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_stops_clock(make_sim):
    sim = make_sim()
    seen: list[str] = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_nan_times_are_rejected(make_sim):
    sim = make_sim()
    seen: list[str] = []
    sim.schedule(1.0, seen.append, "a")
    nan = float("nan")
    with pytest.raises(ValueError):
        sim.schedule(nan, seen.append, "nan")
    with pytest.raises(ValueError):
        sim.schedule_at(nan, seen.append, "nan")
    with pytest.raises(ValueError):
        sim.schedule_batch([(nan, seen.append, ("nan",))])
    assert sim.pending_events() == 1
    assert sim.run() == 1.0
    assert seen == ["a"]


def test_run_until_cannot_rewind_clock(make_sim):
    sim = make_sim()
    sim.schedule(10.0, lambda: None)
    sim.run(until=6.0)
    with pytest.raises(ValueError):
        sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=float("nan"))
    assert sim.now == 6.0
    with pytest.raises(ValueError):
        sim.schedule_at(4.0, lambda: None)
    # A rejected run leaves the simulator usable.
    assert sim.run() == 10.0


def test_run_until_with_empty_queue_advances_clock(make_sim):
    sim = make_sim()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_peek_time_skips_cancelled(make_sim):
    sim = make_sim()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek_time() == 2.0


def test_pending_events_counts_live_only(make_sim):
    sim = make_sim()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events() == 2
    e1.cancel()
    assert sim.pending_events() == 1


def test_step_returns_false_when_empty(make_sim):
    sim = make_sim()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_max_events_guard(make_sim):
    sim = make_sim()

    def loop() -> None:
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_rng_is_deterministic_per_seed(make_sim):
    a = make_sim(seed=42).rng.random()
    b = make_sim(seed=42).rng.random()
    c = make_sim(seed=43).rng.random()
    assert a == b
    assert a != c


def test_events_processed_counter(make_sim):
    sim = make_sim()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_zero_delay_event_runs_at_now(make_sim):
    sim = make_sim()
    sim.schedule(3.0, lambda: sim.schedule(0.0, lambda: None))
    sim.run()
    assert sim.now == 3.0


def test_run_not_reentrant(make_sim):
    sim = make_sim()
    captured: list[Exception] = []

    def reenter() -> None:
        try:
            sim.run()
        except SimulationError as exc:
            captured.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(captured) == 1


def test_callback_args_passed_through(make_sim):
    sim = make_sim()
    seen: list[tuple] = []
    sim.schedule(1.0, lambda *a: seen.append(a), 1, "x", None)
    sim.run()
    assert seen == [(1, "x", None)]


# ----------------------------------------------------------------------
# Batched scheduling
# ----------------------------------------------------------------------

def test_schedule_batch_runs_in_order(make_sim):
    sim = make_sim()
    seen: list[str] = []
    n = sim.schedule_batch([
        (2.0, seen.append, ("b",)),
        (1.0, seen.append, ("a",)),
        (2.0, seen.append, ("c",)),
    ])
    assert n == 3
    assert sim.pending_events() == 3
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 2.0


def test_schedule_batch_interleaves_with_singles(make_sim):
    sim = make_sim()
    seen: list[str] = []
    sim.schedule(1.5, seen.append, "single")
    sim.schedule_batch([(float(i), seen.append, (f"b{i}",)) for i in range(1, 4)])
    sim.run()
    assert seen == ["b1", "single", "b2", "b3"]


def test_schedule_batch_large_batch_heapifies(make_sim):
    sim = make_sim()
    seen: list[int] = []
    sim.schedule_batch(
        [(float((7 * i) % 50), seen.append, (i,)) for i in range(200)]
    )
    sim.run()
    assert seen == sorted(range(200), key=lambda i: (float((7 * i) % 50), i))


def test_schedule_batch_rejects_negative_delay(make_sim):
    """A batch is all-or-nothing: one bad delay queues none of it."""
    sim = make_sim()
    seen: list[str] = []
    with pytest.raises(ValueError):
        sim.schedule_batch([(1.0, seen.append, ("a",)), (-0.5, seen.append, ("b",))])
    assert sim.pending_events() == 0
    assert sim.peek_time() is None
    sim.run()
    assert seen == []
    assert sim.peak_pending == 0


def test_peak_pending_high_water_mark(make_sim):
    sim = make_sim()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.peak_pending == 5
    assert sim.pending_events() == 0


# ----------------------------------------------------------------------
# clear_pending: abandoned handles must detach (regression)
# ----------------------------------------------------------------------

def test_clear_pending_returns_live_count_and_empties(make_sim):
    sim = make_sim()
    sim.schedule(1.0, lambda: None)
    doomed = sim.schedule(2.0, lambda: None)
    doomed.cancel()
    assert sim.clear_pending() == 1
    assert sim.pending_events() == 0
    assert sim.peek_time() is None


def test_cancel_after_clear_pending_is_noop(make_sim):
    """Regression: cancelling a handle abandoned by ``clear_pending`` used to
    drive ``_live`` negative and could trigger bogus compaction."""
    sim = make_sim()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    sim.clear_pending()
    for event in events:
        event.cancel()  # must not corrupt the live counter
    assert sim.pending_events() == 0
    # The simulator must stay fully usable afterwards.
    seen: list[str] = []
    sim.schedule(1.0, seen.append, "ok")
    assert sim.pending_events() == 1
    sim.run()
    assert seen == ["ok"]
    assert sim.pending_events() == 0


def test_cancel_of_executed_event_is_noop(make_sim):
    sim = make_sim()
    seen: list[str] = []
    event = sim.schedule(1.0, seen.append, "ran")
    sim.schedule(2.0, seen.append, "later")
    sim.run(until=1.5)
    event.cancel()  # already executed: stale handle
    assert sim.pending_events() == 1
    sim.run()
    assert seen == ["ran", "later"]


def test_compaction_preserves_order_and_counts(make_sim):
    sim = make_sim()
    seen: list[int] = []
    events = [sim.schedule(float(i % 13) + 1.0, seen.append, i) for i in range(400)]
    for i, event in enumerate(events):
        if i % 4 != 0:
            event.cancel()  # 75% dead => compaction triggers
    kept = [i for i in range(400) if i % 4 == 0]
    assert sim.pending_events() == len(kept)
    sim.run()
    assert seen == sorted(kept, key=lambda i: (float(i % 13) + 1.0, i))
