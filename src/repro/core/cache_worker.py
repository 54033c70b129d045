"""Cache Worker: per-machine in-memory shuffle store with LRU spill.

One Cache Worker runs on each machine (Section II-B).  Local and Remote
Shuffle write shuffle data into it; data is deleted "to release memory after
they have been consumed by all successor tasks".  Under memory shortage
(< 1% of the time in production) the LRU policy swaps old data to disk in
large chunks (Section III-B, "Memory Management of the Cache Worker").
"""

from __future__ import annotations

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
    bytes_in_memory: float
    bytes_on_disk: float = 0.0
    #: Remaining consumer tasks that must read before release.
    pending_consumers: int = 0
    last_touch: float = 0.0
    #: Per-consumer read-back share, snapshotted at spill time from the
    #: consumer count *then* — so late readers pay the same share as early
    #: ones even after ``consume()`` has shrunk ``pending_consumers``.
    spill_read_share: float = 0.0
    #: Spilled bytes already charged to readers; once every spilled byte
    #: has been read back (promoted), further reads are free.
    bytes_read_back: float = 0.0
    #: True for redundant copies written by shuffle replication; replica
    #: bytes are accounted separately on the audit ledger.
    replica: bool = False

    @property
    def total_bytes(self) -> float:
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
        self._entries: "OrderedDict[tuple[str, str], CacheEntry]" = OrderedDict()
        self.bytes_in_memory = 0.0
        self.bytes_spilled_total = 0.0
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
    def memory_used(self) -> float:
        """Bytes of shuffle data currently resident in memory."""
        return self.bytes_in_memory

    @property
    def memory_free(self) -> float:
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

    def _resync_memory(self) -> None:
        """Recompute the memory counter from the entry map.

        Incremental ``+=``/``-=`` updates drift (float addition is not
        associative, and repeated subtraction can go slightly negative
        mid-run); the entry map is the ground truth, so public mutators
        resync the counter from it.  The recompute is O(entries): a worker
        holds one entry per live (job, edge) pair, which is a few on small
        runs but many more in the slowest Fig. 16 cell, 2,500 jobs on
        10,000 executors.
        """
        self.bytes_in_memory = sum(
            e.bytes_in_memory for e in self._entries.values()
        )

    # ------------------------------------------------------------------
    # Write / read / release
    # ------------------------------------------------------------------
    def write(
        self,
        job_id: str,
        edge_key: str,
        n_bytes: float,
        pending_consumers: int,
        now: float,
        replica: bool = False,
    ) -> float:
        """Store ``n_bytes`` of shuffle data; returns extra delay from spill.

        If the write does not fit, least-recently-used entries are spilled
        to disk in large chunks until it does; the spill time is returned so
        the caller can extend the writing task's shuffle-write phase.
        ``replica`` marks redundant copies written by shuffle replication;
        their bytes are additionally tracked on the ledger's replica
        counters.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if pending_consumers < 0:
            raise ValueError("pending_consumers must be non-negative")
        spill_delay = self._ensure_capacity(n_bytes)
        key = (job_id, edge_key)
        entry = self._entries.get(key)
        new_entry = entry is None
        if entry is None:
            entry = CacheEntry(key=key, bytes_in_memory=0.0, replica=replica)
            self._entries[key] = entry
        mem_delta = disk_delta = 0.0
        if n_bytes > self.config.memory_capacity:
            # Oversized writes streamed straight through disk stay there;
            # readers will pull their share back, so snapshot it now.
            entry.bytes_on_disk += n_bytes
            entry.spill_read_share += n_bytes / max(1, pending_consumers)
            disk_delta = n_bytes
        else:
            entry.bytes_in_memory += n_bytes
            mem_delta = n_bytes
        entry.pending_consumers = max(entry.pending_consumers, pending_consumers)
        entry.last_touch = now
        self._entries.move_to_end(key)
        self._resync_memory()
        if self.ledger is not None:
            self.ledger.cache_written(
                self.machine_id, mem_delta, disk_delta, new_entry
            )
            if entry.replica:
                self.ledger.cache_replica_written(self.machine_id, n_bytes)
        return spill_delay

    def _ensure_capacity(self, n_bytes: float) -> float:
        """Spill LRU entries until ``n_bytes`` fits; return spill seconds."""
        if n_bytes > self.config.memory_capacity:
            # A single write larger than RAM streams straight through disk.
            self.bytes_spilled_total += n_bytes
            self.spill_events += 1
            return self.disk.spill_time(n_bytes)
        if self.memory_free >= n_bytes:
            return 0.0
        spill_delay = 0.0
        spilled_any = False
        for key in list(self._entries):
            if self.memory_free >= n_bytes:
                break
            entry = self._entries[key]
            if entry.bytes_in_memory <= 0:
                continue
            spilled = entry.bytes_in_memory
            spill_delay += self.disk.spill_time(spilled)
            entry.bytes_on_disk += spilled
            # Snapshot each remaining consumer's read-back share *now*:
            # ``pending_consumers`` shrinks as consumers finish, and a
            # share computed at read time from the shrunken count would
            # overcharge late readers for the same spilled bytes.
            entry.spill_read_share += spilled / max(1, entry.pending_consumers)
            self.bytes_in_memory -= spilled
            entry.bytes_in_memory = 0.0
            self.bytes_spilled_total += spilled
            self.spill_events += 1
            spilled_any = True
            if self.ledger is not None:
                self.ledger.cache_spilled(self.machine_id, spilled)
        if spilled_any:
            self._resync_memory()
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
        # The LRU order is the counter's summation order: a reorder is a
        # mutation too.
        self._resync_memory()
        if self.ledger is not None:
            self.ledger.cache_reordered(self.machine_id)
        if entry.bytes_on_disk <= 0 or entry.pending_consumers <= 0:
            return 0.0
        # Charge the share snapshotted at spill time, never more than the
        # spilled bytes not yet read back.  Once every spilled byte has
        # been charged once (promoted back to memory-resident semantics),
        # further reads are free — the old shrinking-denominator formula
        # (`bytes_on_disk / pending_consumers`) double-charged late
        # readers after early consumers had already pulled the data back.
        remaining = entry.bytes_on_disk - entry.bytes_read_back
        share = min(entry.spill_read_share, remaining)
        if share <= 1e-6:  # fully promoted (modulo float dust)
            return 0.0
        entry.bytes_read_back += share
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
            self._release(key)
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
        mem_lost = sum(e.bytes_in_memory for e in lost)
        disk_lost = sum(e.bytes_on_disk for e in lost)
        replica_lost = sum(e.total_bytes for e in lost if e.replica)
        self._entries.clear()
        self.bytes_in_memory = 0.0
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
        keys = [k for k in self._entries if k[0] == job_id]
        mem = sum(self._entries[k].bytes_in_memory for k in keys)
        disk = sum(self._entries[k].bytes_on_disk for k in keys)
        for key in keys:
            self._release(key)
        if self.tracer is not None and self.tracer.enabled and keys:
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

    def _release(self, key: tuple[str, str]) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            if self.ledger is not None:
                self.ledger.cache_released(
                    self.machine_id, entry.bytes_in_memory, entry.bytes_on_disk
                )
                if entry.replica:
                    self.ledger.cache_replica_released(
                        self.machine_id, entry.total_bytes
                    )
            # Recompute from the entry map instead of subtracting: repeated
            # float subtraction drifted the counter away from the true sum
            # (the old `< 1e-6` snap-to-zero papered over it only near 0).
            self._resync_memory()
