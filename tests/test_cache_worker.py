"""Tests for Cache Worker memory management and LRU spill."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.core.cache_worker import CacheWorker, CacheWorkerFullError
from repro.sim.config import CacheWorkerConfig, DiskConfig
from repro.sim.disk import DiskModel

MB = 1024 ** 2


def make_worker(capacity_mb: float = 100.0) -> CacheWorker:
    config = CacheWorkerConfig(memory_capacity=int(capacity_mb * MB))
    return CacheWorker(0, config, DiskModel(DiskConfig()))


def test_write_within_capacity_no_spill():
    worker = make_worker()
    delay = worker.write("job", "e1", 10 * MB, pending_consumers=2, now=0.0)
    assert delay == 0.0
    assert worker.bytes_in_memory == 10 * MB
    assert len(worker) == 1


def test_write_rejects_negative():
    worker = make_worker()
    with pytest.raises(ValueError):
        worker.write("job", "e", -1, 1, 0.0)
    with pytest.raises(ValueError):
        worker.write("job", "e", 1, -1, 0.0)


def test_lru_spills_oldest_entry_first():
    worker = make_worker(100)
    worker.write("job", "old", 60 * MB, 1, now=0.0)
    worker.write("job", "new", 30 * MB, 1, now=1.0)
    delay = worker.write("job", "big", 50 * MB, 1, now=2.0)
    assert delay > 0.0
    old = worker.entry("job", "old")
    assert old is not None and old.bytes_in_memory == 0.0
    assert old.bytes_on_disk == 60 * MB
    new = worker.entry("job", "new")
    assert new is not None and new.bytes_in_memory == 30 * MB
    assert worker.spill_events == 1
    assert worker.bytes_spilled_total == 60 * MB


def test_read_refreshes_lru_position():
    worker = make_worker(100)
    worker.write("job", "a", 50 * MB, 1, now=0.0)
    worker.write("job", "b", 40 * MB, 1, now=1.0)
    worker.read("job", "a", now=2.0)  # "a" becomes most recently used
    worker.write("job", "c", 50 * MB, 1, now=3.0)
    assert worker.entry("job", "b").bytes_in_memory == 0.0
    assert worker.entry("job", "a").bytes_in_memory == 50 * MB


def test_read_of_spilled_data_costs_time():
    worker = make_worker(50)
    worker.write("job", "a", 40 * MB, 2, now=0.0)
    worker.write("job", "b", 40 * MB, 1, now=1.0)  # spills "a"
    delay = worker.read("job", "a", now=2.0)
    assert delay > 0.0
    assert worker.read("job", "b", now=2.0) == 0.0
    assert worker.read("job", "missing", now=2.0) == 0.0


def test_oversized_write_streams_through_disk():
    worker = make_worker(10)
    delay = worker.write("job", "huge", 100 * MB, 1, now=0.0)
    assert delay > 0.0


def test_capacity_error_when_nothing_spillable():
    worker = make_worker(100)
    worker.write("job", "a", 90 * MB, 1, now=0.0)
    # Force the existing entry to look unspillable by zeroing its memory
    # without releasing the accounting (simulates concurrent writes racing).
    entry = worker.entry("job", "a")
    entry.bytes_in_memory = 0
    worker.bytes_in_memory = 90 * MB
    with pytest.raises(CacheWorkerFullError):
        worker.write("job", "b", 50 * MB, 1, now=1.0)


def test_consume_releases_at_zero():
    worker = make_worker()
    worker.write("job", "e", 10 * MB, pending_consumers=2, now=0.0)
    assert worker.consume("job", "e") is False
    assert worker.entry("job", "e") is not None
    assert worker.consume("job", "e") is True
    assert worker.entry("job", "e") is None
    assert worker.bytes_in_memory == 0
    # Consuming a missing entry is a no-op.
    assert worker.consume("job", "e") is False


def test_release_job_drops_all_entries():
    worker = make_worker()
    worker.write("job1", "a", 10 * MB, 1, now=0.0)
    worker.write("job1", "b", 10 * MB, 1, now=0.0)
    worker.write("job2", "c", 10 * MB, 1, now=0.0)
    worker.release_job("job1")
    assert len(worker) == 1
    assert worker.bytes_in_memory == 10 * MB


def test_incremental_writes_accumulate():
    worker = make_worker()
    worker.write("job", "e", 10 * MB, 3, now=0.0)
    worker.write("job", "e", 15 * MB, 3, now=1.0)
    entry = worker.entry("job", "e")
    assert entry.bytes_in_memory == 25 * MB
    assert entry.pending_consumers == 3


def test_memory_free_accounting():
    worker = make_worker(100)
    assert worker.memory_free == 100 * MB
    worker.write("job", "e", 30 * MB, 1, now=0.0)
    assert worker.memory_free == 70 * MB


def test_write_rejects_non_integer_bytes():
    worker = make_worker()
    with pytest.raises(TypeError):
        worker.write("job", "e", 1.5, 1, 0.0)
    with pytest.raises(TypeError):
        worker.write("job", "e", float(MB), 1, 0.0)
    assert len(worker) == 0 and worker.bytes_in_memory == 0


class CountingMap(OrderedDict):
    """An entry map that counts every walk over its keys, values or items."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def test_bookkeeping_never_walks_the_entry_map():
    """Write (when it fits), read, consume and one job's release touch only
    their own keys: with entries of many jobs on the worker, none of them
    iterates the entry map."""
    worker = make_worker(1024)
    entries = worker._entries = CountingMap()
    for j in range(50):
        for e in range(4):
            worker.write(f"job{j}", f"e{e}", 1 * MB + j, 2, now=float(j))
    worker.read("job3", "e1", now=60.0)
    worker.consume("job4", "e2")
    assert worker.consume("job4", "e2") is True
    worker.release_job("job7", now=61.0)
    assert entries.walks == 0
    assert len(worker) == 50 * 4 - 1 - 4
    assert worker.entry("job7", "e0") is None
    assert worker.entry("job8", "e0") is not None
    assert worker.bytes_in_memory == sum(
        e.bytes_in_memory for e in worker.iter_entries()
    )
