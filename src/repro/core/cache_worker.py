"""Cache Worker: per-machine in-memory shuffle store with LRU spill.

One Cache Worker runs on each machine (Section II-B).  Local and Remote
Shuffle write shuffle data into it; data is deleted "to release memory after
they have been consumed by all successor tasks".  Under memory shortage
(< 1% of the time in production) the LRU policy swaps old data to disk in
large chunks (Section III-B, "Memory Management of the Cache Worker").

Every byte quantity is an exact ``int``: the runtime rounds each stored
share up to a whole byte before it calls :meth:`CacheWorker.write`, which
rejects anything else.  Integer sums do not depend on summation order, so
``bytes_in_memory`` is a running total updated in O(1) by each write,
spill, release and drop, and it equals the sum over the entry map exactly
(the audit ledger checks that with ``==``).  A per-job index of entry keys
lets :meth:`CacheWorker.release_job` touch only that job's entries, so
write (when it fits), read, consume and release never walk the whole map.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ..obs.records import Category
from ..sim.config import CacheWorkerConfig
from ..sim.disk import DiskModel

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from ..audit.ledger import ResourceLedger
    from ..obs.tracer import Tracer


@dataclass
class CacheEntry:
    """Bytes held for one (job, edge) pair on one machine."""

    key: tuple[str, str]
    bytes_in_memory: int
    bytes_on_disk: int = 0
    #: Remaining consumer tasks that must read before release.
    pending_consumers: int = 0
    last_touch: float = 0.0
    #: Per-consumer read-back share, snapshotted at spill time from the
    #: consumer count *then* — so late readers pay the same share as early
    #: ones even after ``consume()`` has shrunk ``pending_consumers``.  It
    #: only prices a read and is never summed into a counter, so it stays a
    #: fraction of the spilled bytes.
    spill_read_share: float = 0.0
    #: Spilled bytes already charged to readers, each charge rounded up to
    #: a whole byte; once every spilled byte has been read back (promoted),
    #: further reads are free.
    bytes_read_back: int = 0
    #: True for redundant copies written by shuffle replication; replica
    #: bytes are accounted separately on the audit ledger.
    replica: bool = False

    @property
    def total_bytes(self) -> int:
        """Bytes held for this entry across memory and disk."""
        return self.bytes_in_memory + self.bytes_on_disk


class CacheWorkerFullError(RuntimeError):
    """Raised when data cannot fit even after spilling everything eligible."""


class CacheWorker:
    """Memory manager for one machine's shuffle cache."""

    def __init__(self, machine_id: int, config: CacheWorkerConfig, disk: DiskModel) -> None:
        config.validate()
        self.machine_id = machine_id
        self.config = config
        self.disk = disk
        #: Live entries in LRU order (least recently used first).
        self._entries: "OrderedDict[tuple[str, str], CacheEntry]" = OrderedDict()
        #: Each job's entry keys, in insertion order.
        self._job_keys: dict[str, dict[tuple[str, str], None]] = {}
        #: Bytes of shuffle data resident in memory (the sum over entries).
        self.bytes_in_memory = 0
        self.bytes_spilled_total = 0
        self.spill_events = 0
        #: Optional resource-accounting ledger (:mod:`repro.audit`).
        self.ledger: Optional["ResourceLedger"] = None
        #: Optional tracer; failure/recovery instants for drops and job
        #: releases are emitted here, atomically with the ledger hooks.
        self.tracer: Optional["Tracer"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memory_free(self) -> int:
        """Remaining in-memory capacity in bytes."""
        return self.config.memory_capacity - self.bytes_in_memory

    def entry(self, job_id: str, edge_key: str) -> CacheEntry | None:
        """Look up the entry for one (job, edge) pair, if present."""
        return self._entries.get((job_id, edge_key))

    def iter_entries(self) -> Iterator[CacheEntry]:
        """All live entries in LRU order (audit and introspection)."""
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Write / read / release
    # ------------------------------------------------------------------
    def write(
        self,
        job_id: str,
        edge_key: str,
        n_bytes: int,
        pending_consumers: int,
        now: float,
        replica: bool = False,
    ) -> float:
        """Store ``n_bytes`` of shuffle data; returns extra delay from spill.

        ``n_bytes`` is a whole, non-negative byte count: a ``float`` raises
        ``TypeError``, a negative count ``ValueError``.  If the write does
        not fit, least-recently-used entries are spilled to disk in large
        chunks until it does; the spill time is returned so the caller can
        extend the writing task's shuffle-write phase.  ``replica`` marks
        redundant copies written by shuffle replication; their bytes are
        additionally tracked on the ledger's replica counters.
        """
        if not isinstance(n_bytes, int):
            raise TypeError(f"n_bytes must be an int byte count, got {n_bytes!r}")
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if pending_consumers < 0:
            raise ValueError("pending_consumers must be non-negative")
        spill_delay = self._ensure_capacity(n_bytes)
        key = (job_id, edge_key)
        entry = self._entries.get(key)
        new_entry = entry is None
        if entry is None:
            entry = CacheEntry(key=key, bytes_in_memory=0, replica=replica)
            self._entries[key] = entry
            self._job_keys.setdefault(job_id, {})[key] = None
        else:
            self._entries.move_to_end(key)
        mem_delta = disk_delta = 0
        if n_bytes > self.config.memory_capacity:
            # Oversized writes streamed straight through disk stay there;
            # readers will pull their share back, so snapshot it now.
            entry.bytes_on_disk += n_bytes
            entry.spill_read_share += n_bytes / max(1, pending_consumers)
            disk_delta = n_bytes
        else:
            entry.bytes_in_memory += n_bytes
            self.bytes_in_memory += n_bytes
            mem_delta = n_bytes
        entry.pending_consumers = max(entry.pending_consumers, pending_consumers)
        entry.last_touch = now
        if self.ledger is not None:
            self.ledger.cache_written(
                self.machine_id, mem_delta, disk_delta, new_entry
            )
            if entry.replica:
                self.ledger.cache_replica_written(self.machine_id, n_bytes)
        return spill_delay

    def _ensure_capacity(self, n_bytes: int) -> float:
        """Spill LRU entries until ``n_bytes`` fits; return spill seconds."""
        if n_bytes > self.config.memory_capacity:
            # A single write larger than RAM streams straight through disk.
            self.bytes_spilled_total += n_bytes
            self.spill_events += 1
            return self.disk.spill_time(n_bytes)
        if self.memory_free >= n_bytes:
            return 0.0
        spill_delay = 0.0
        # Spilling changes byte counts, never keys or order, so the LRU
        # walk runs over the live map.
        for entry in self._entries.values():
            if self.memory_free >= n_bytes:
                break
            spilled = entry.bytes_in_memory
            if spilled == 0:
                continue
            spill_delay += self.disk.spill_time(spilled)
            entry.bytes_on_disk += spilled
            # Snapshot each remaining consumer's read-back share *now*:
            # ``pending_consumers`` shrinks as consumers finish, and a
            # share computed at read time from the shrunken count would
            # overcharge late readers for the same spilled bytes.
            entry.spill_read_share += spilled / max(1, entry.pending_consumers)
            entry.bytes_in_memory = 0
            self.bytes_in_memory -= spilled
            self.bytes_spilled_total += spilled
            self.spill_events += 1
            if self.ledger is not None:
                self.ledger.cache_spilled(self.machine_id, spilled)
        if self.memory_free < n_bytes:
            raise CacheWorkerFullError(
                f"cache worker {self.machine_id} cannot fit {n_bytes} bytes"
            )
        return spill_delay

    def read(self, job_id: str, edge_key: str, now: float) -> float:
        """Read one consumer's share; returns extra delay if data was spilled."""
        key = (job_id, edge_key)
        entry = self._entries.get(key)
        if entry is None:
            return 0.0
        entry.last_touch = now
        self._entries.move_to_end(key)
        remaining = entry.bytes_on_disk - entry.bytes_read_back
        if remaining <= 0 or entry.pending_consumers <= 0:
            return 0.0
        # Charge the share snapshotted at spill time, never more than the
        # spilled bytes not yet read back.  Once every spilled byte has
        # been charged once (promoted back to memory-resident semantics),
        # further reads are free.
        share = min(entry.spill_read_share, remaining)
        entry.bytes_read_back += math.ceil(share)
        return self.disk.spill_time(share)

    def consume(self, job_id: str, edge_key: str) -> bool:
        """Mark one consumer finished; release the entry at zero.  Returns
        True when the entry was released."""
        key = (job_id, edge_key)
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.pending_consumers = max(0, entry.pending_consumers - 1)
        if entry.pending_consumers == 0:
            del self._entries[key]
            job_keys = self._job_keys[job_id]
            del job_keys[key]
            if not job_keys:
                del self._job_keys[job_id]
            self._released(entry)
            return True
        return False

    def drop_all(self, now: float = 0.0, reason: str = "") -> list[CacheEntry]:
        """Lose every entry at once (Cache Worker process death).

        Returns the lost entries so the runtime can re-run their producers;
        spill counters survive (they describe the dead process's history).
        The ledger drop and the obs failure instant are emitted together,
        so chaos repros attribute the lost bytes to the triggering failure
        rather than to whichever reconciliation checkpoint runs next.
        """
        lost = list(self._entries.values())
        mem_lost = self.bytes_in_memory
        disk_lost = sum(e.bytes_on_disk for e in lost)
        replica_lost = sum(e.total_bytes for e in lost if e.replica)
        self._entries.clear()
        self._job_keys.clear()
        self.bytes_in_memory = 0
        if self.ledger is not None:
            self.ledger.cache_dropped_all(
                self.machine_id, replica_bytes=replica_lost
            )
        if self.tracer is not None and self.tracer.enabled and lost:
            self.tracer.instant(
                Category.FAILURE,
                "cache.drop_all",
                now,
                scope=f"M{self.machine_id}",
                machine=self.machine_id,
                entries_lost=len(lost),
                bytes_in_memory=mem_lost,
                bytes_on_disk=disk_lost,
                replica_bytes=replica_lost,
                reason=reason,
            )
        return lost

    def release_job(self, job_id: str, now: float = 0.0) -> None:
        """Drop all entries of a job (job completion or restart).

        Emits one obs instant summarizing the released bytes, in the same
        step as the per-entry ledger releases.
        """
        keys = self._job_keys.pop(job_id, None)
        if keys is None:
            return
        mem = disk = 0
        for key in keys:
            entry = self._entries.pop(key)
            mem += entry.bytes_in_memory
            disk += entry.bytes_on_disk
            self._released(entry)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                Category.CACHE,
                "cache.release_job",
                now,
                job_id=job_id,
                scope=f"M{self.machine_id}",
                entries_released=len(keys),
                bytes_in_memory=mem,
                bytes_on_disk=disk,
            )

    def _released(self, entry: CacheEntry) -> None:
        """Account for one entry already removed from the maps."""
        self.bytes_in_memory -= entry.bytes_in_memory
        if self.ledger is not None:
            self.ledger.cache_released(
                self.machine_id, entry.bytes_in_memory, entry.bytes_on_disk
            )
            if entry.replica:
                self.ledger.cache_replica_released(
                    self.machine_id, entry.total_bytes
                )
