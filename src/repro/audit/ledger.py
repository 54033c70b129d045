"""Resource-accounting ledger: shadow counters + reconciliation.

The simulator's headline crossovers (Section III-B / V-E) are driven by two
hand-maintained resource counters: the cluster-wide open TCP connection
count (congestion, retransmission rate) and per-machine Cache Worker memory
(LRU spill).  :class:`ResourceLedger` shadows every register/release of
those resources — plus executor-slot occupancy — independently of the
authoritative state, and :meth:`ResourceLedger.reconcile` compares the two
at checkpoints (stage completion, job teardown, end of run).  Job
checkpoints check only what changed since the previous checkpoint: the
machines whose idle count or health changed and the Cache Workers whose
hooks fired.  ``run:end``, every drained-state checkpoint and a ledger's
first checkpoint recount the whole cluster, so a counter mutated behind
the hooks' back is caught at the end of the run at the latest.

A divergence means some code path mutated a counter without its counterpart
(double release, leaked registration, a mutation that skipped its hook) —
exactly the class of bug that silently skews every benchmark.  In **strict** mode (tests, chaos)
the first violation raises :class:`AuditError`; in **production** mode each
violation is recorded, emitted as a ``repro.obs`` instant record under
``Category.AUDIT``, and counted on the ``audit_violations`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..obs.records import Category
from ..obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..core.cache_worker import CacheWorker
    from ..sim.cluster import Cluster, Machine
    from ..sim.network import NetworkModel

@dataclass(frozen=True)
class AuditViolation:
    """One accounting divergence with enough context to debug it."""

    resource: str
    message: str
    checkpoint: str = ""
    #: Shadow (ledger) and authoritative values at the divergence.
    expected: float = 0.0
    actual: float = 0.0

    def __str__(self) -> str:
        at = f" @{self.checkpoint}" if self.checkpoint else ""
        return (
            f"[audit:{self.resource}]{at} {self.message} "
            f"(ledger={self.expected:g}, actual={self.actual:g})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "resource": self.resource,
            "message": self.message,
            "checkpoint": self.checkpoint,
            "expected": self.expected,
            "actual": self.actual,
        }


class AuditError(AssertionError):
    """Raised in strict mode on the first accounting violation.

    Subclasses ``AssertionError`` so strict-mode audit failures read as what
    they are — broken internal invariants — and fail tests loudly.
    """

    def __init__(self, violation: AuditViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class _CacheShadow:
    """Shadow bookkeeping for one machine's Cache Worker."""

    bytes_in_memory: int = 0
    bytes_on_disk: int = 0
    #: Live entry count (register on first write, release on drop).
    entries: int = 0


class ResourceLedger:
    """Shadow ledger for connections, Cache Worker bytes, executor slots.

    The ledger is observational: recording never mutates simulation state,
    and a runtime wired without one behaves identically.  All hooks are
    cheap (integer adds) so audit mode stays usable for benchmarks.
    """

    def __init__(
        self,
        strict: bool = True,
        tracer: Optional[Tracer] = None,
        now_fn: Optional[Any] = None,
    ) -> None:
        self.strict = strict
        self.tracer = tracer
        #: Zero-argument callable returning the current simulated time for
        #: obs emission; defaults to 0.0 when the runtime has not wired one.
        self._now_fn = now_fn if now_fn is not None else (lambda: 0.0)
        self.violations: list[AuditViolation] = []
        # -- network connections ------------------------------------------
        self.connections_outstanding = 0
        self.connections_registered_total = 0
        self.connections_released_total = 0
        # -- cache workers ------------------------------------------------
        self._cache: dict[int, _CacheShadow] = {}
        #: Machine ids whose Cache Worker changed since the last checkpoint.
        self._touched_workers: set[int] = set()
        # -- executor slots -----------------------------------------------
        #: Each machine's share of the cluster free-slot count (its idle
        #: executors if it accepts tasks, else 0) as of its last recount,
        #: the running total of those shares, and the cluster they were
        #: counted on (``None`` before the first full recount).
        self._free_shares: dict[int, int] = {}
        self._free_total = 0
        self._shares_of: Optional["Cluster"] = None
        # -- shuffle replication ------------------------------------------
        #: Bytes currently held as redundant replica copies across the
        #: cluster, plus lifetime totals.  Replicas must conserve: every
        #: replica byte written is eventually released, dropped with its
        #: worker, or lost with the job.
        self.replica_bytes_outstanding = 0
        self.replica_bytes_written_total = 0
        self.replica_bytes_released_total = 0
        self.replica_bytes_dropped_total = 0
        # -- reconciliation bookkeeping -----------------------------------
        self.checkpoints_run = 0

    def bind_clock(self, now_fn: Any) -> None:
        """Attach the simulated clock used to timestamp obs emissions."""
        self._now_fn = now_fn

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _violate(
        self,
        resource: str,
        message: str,
        checkpoint: str = "",
        expected: float = 0.0,
        actual: float = 0.0,
    ) -> None:
        violation = AuditViolation(
            resource=resource,
            message=message,
            checkpoint=checkpoint,
            expected=expected,
            actual=actual,
        )
        self.violations.append(violation)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                Category.AUDIT,
                f"audit.{resource}",
                self._now_fn(),
                scope=checkpoint,
                message=message,
                expected=expected,
                actual=actual,
            )
            self.tracer.count("audit_violations")
        if self.strict:
            raise AuditError(violation)

    @property
    def ok(self) -> bool:
        """True while no violation has been recorded."""
        return not self.violations

    # ------------------------------------------------------------------
    # Network connection shadow accounting
    # ------------------------------------------------------------------
    def conn_registered(self, count: int) -> None:
        """Shadow one ``NetworkModel.register_connections`` call."""
        self.connections_outstanding += count
        self.connections_registered_total += count

    def conn_released(self, count: int, open_before: int) -> None:
        """Shadow one release; flag any release exceeding registrations.

        ``open_before`` is the authoritative open-connection count before
        the release, so the report names both views of the imbalance.
        """
        self.connections_released_total += count
        if count > self.connections_outstanding:
            self._violate(
                "connections",
                f"release of {count} connections exceeds the "
                f"{self.connections_outstanding} outstanding registrations "
                f"(authoritative count before release: {open_before})",
                expected=self.connections_outstanding,
                actual=count,
            )
            # Keep the shadow clamped like production so one bug does not
            # cascade into a violation per subsequent checkpoint.
            self.connections_outstanding = 0
        else:
            self.connections_outstanding -= count

    # ------------------------------------------------------------------
    # Cache Worker shadow accounting
    # ------------------------------------------------------------------
    def _shadow(self, machine_id: int) -> _CacheShadow:
        self._touched_workers.add(machine_id)
        shadow = self._cache.get(machine_id)
        if shadow is None:
            shadow = _CacheShadow()
            self._cache[machine_id] = shadow
        return shadow

    def cache_written(
        self, machine_id: int, mem_bytes: int, disk_bytes: int, new_entry: bool
    ) -> None:
        """Shadow one Cache Worker write (memory and/or disk bytes)."""
        shadow = self._shadow(machine_id)
        shadow.bytes_in_memory += mem_bytes
        shadow.bytes_on_disk += disk_bytes
        if new_entry:
            shadow.entries += 1

    def cache_spilled(self, machine_id: int, n_bytes: int) -> None:
        """Shadow an LRU spill: bytes move from memory to disk."""
        shadow = self._shadow(machine_id)
        shadow.bytes_in_memory -= n_bytes
        shadow.bytes_on_disk += n_bytes

    def cache_released(
        self, machine_id: int, mem_bytes: int, disk_bytes: int
    ) -> None:
        """Shadow one entry release (consume-to-zero, job teardown)."""
        shadow = self._shadow(machine_id)
        shadow.bytes_in_memory -= mem_bytes
        shadow.bytes_on_disk -= disk_bytes
        shadow.entries -= 1
        if shadow.entries < 0:
            self._violate(
                "cache_entries",
                f"machine {machine_id} released more cache entries than "
                "were ever written",
                expected=0,
                actual=shadow.entries,
            )
            shadow.entries = 0

    def cache_dropped_all(
        self, machine_id: int, replica_bytes: int = 0
    ) -> None:
        """Shadow a Cache Worker process death: all state is lost at once.

        ``replica_bytes`` is the portion of the lost bytes that were
        redundant replica copies; they leave the outstanding replica pool
        with the dead worker.
        """
        self._cache[machine_id] = _CacheShadow()
        self._touched_workers.add(machine_id)
        if replica_bytes:
            self.replica_bytes_outstanding -= replica_bytes
            self.replica_bytes_dropped_total += replica_bytes
            self._check_replica_floor(machine_id)

    # ------------------------------------------------------------------
    # Shuffle-replication shadow accounting
    # ------------------------------------------------------------------
    def cache_replica_written(self, machine_id: int, n_bytes: int) -> None:
        """Shadow one redundant replica write (beyond the primary copy)."""
        self.replica_bytes_outstanding += n_bytes
        self.replica_bytes_written_total += n_bytes

    def cache_replica_released(self, machine_id: int, n_bytes: int) -> None:
        """Shadow one replica entry release (consume or job teardown)."""
        self.replica_bytes_outstanding -= n_bytes
        self.replica_bytes_released_total += n_bytes
        self._check_replica_floor(machine_id)

    def _check_replica_floor(self, machine_id: int) -> None:
        if self.replica_bytes_outstanding < 0:
            self._violate(
                "replica_bytes",
                f"machine {machine_id} released/dropped more replica bytes "
                "than were ever written",
                expected=0,
                actual=self.replica_bytes_outstanding,
            )
            self.replica_bytes_outstanding = 0

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def reconcile_network(self, network: "NetworkModel", checkpoint: str) -> None:
        """Shadow vs authoritative open-connection count."""
        if network.open_connections != self.connections_outstanding:
            self._violate(
                "connections",
                "open-connection count diverged from the ledger "
                f"({self.connections_registered_total} registered, "
                f"{self.connections_released_total} released)",
                checkpoint=checkpoint,
                expected=self.connections_outstanding,
                actual=network.open_connections,
            )
            # Resync so later checkpoints report fresh divergences only.
            self.connections_outstanding = network.open_connections

    def reconcile_cache_worker(
        self, worker: "CacheWorker", checkpoint: str
    ) -> None:
        """Three-way check of one Cache Worker's memory accounting.

        The running counter, the entry map, and the shadow ledger must all
        agree exactly (every byte count is an ``int``); the entry map is the
        ground truth (it is what spill and release decisions walk).
        """
        machine_id = worker.machine_id
        entry_sum = sum(e.bytes_in_memory for e in worker.iter_entries())
        if worker.bytes_in_memory != entry_sum:
            self._violate(
                "cache_memory",
                f"machine {machine_id} bytes_in_memory counter diverged from "
                "the entry map",
                checkpoint=checkpoint,
                expected=entry_sum,
                actual=worker.bytes_in_memory,
            )
        if worker.bytes_in_memory < 0:
            self._violate(
                "cache_memory",
                f"machine {machine_id} bytes_in_memory is negative",
                checkpoint=checkpoint,
                expected=0,
                actual=worker.bytes_in_memory,
            )
        shadow = self._cache.get(machine_id)
        if shadow is not None:
            if shadow.bytes_in_memory != entry_sum:
                self._violate(
                    "cache_memory",
                    f"machine {machine_id} ledger memory shadow diverged "
                    "from the entry map",
                    checkpoint=checkpoint,
                    expected=shadow.bytes_in_memory,
                    actual=entry_sum,
                )
                shadow.bytes_in_memory = entry_sum
            if shadow.entries != len(worker):
                self._violate(
                    "cache_entries",
                    f"machine {machine_id} ledger entry count diverged "
                    "from the worker",
                    checkpoint=checkpoint,
                    expected=shadow.entries,
                    actual=len(worker),
                )
                shadow.entries = len(worker)

    def reconcile_executors(
        self,
        cluster: "Cluster",
        checkpoint: str,
        machines: Optional[list[Machine]] = None,
    ) -> None:
        """O(1) free-slot counter vs a recount over the executor pool.

        Scheduler grants mutate idle counters inline (bypassing the
        executor state machine), on healthy and quarantined machines
        alike, so this catches any unrolled transition that forgot its
        counter half.  Each recounted machine's idle executors are checked
        against its idle counter, and its share of the free pool updates a
        running total that the cluster counter must equal.

        ``machines`` recounts just those machines (the ones touched since
        the last checkpoint); the others keep their last shares.  By
        default every machine is recounted and the total rebuilt.
        """
        from ..sim.cluster import ExecutorState

        shares = self._free_shares
        if machines is None:
            machines = cluster.machines
            shares.clear()
            self._free_total = 0
            self._shares_of = cluster
        idle_state = ExecutorState.IDLE
        diverged = []
        for machine in machines:
            idle = [executor.state for executor in machine.executors].count(idle_state)
            share = idle if machine.accepts_tasks else 0
            self._free_total += share - shares.get(machine.machine_id, 0)
            shares[machine.machine_id] = share
            if idle != machine.idle_count:
                diverged.append((machine, idle))
        if self._free_total != cluster.free_executor_count():
            self._violate(
                "executor_slots",
                "cluster free-slot counter diverged from the executor pool",
                checkpoint=checkpoint,
                expected=self._free_total,
                actual=cluster.free_executor_count(),
            )
        for machine, idle in diverged:
            self._violate(
                "executor_slots",
                f"machine {machine.machine_id} idle counter diverged "
                "from its executors",
                checkpoint=checkpoint,
                expected=idle,
                actual=machine.idle_count,
            )

    def reconcile(
        self,
        cluster: "Cluster",
        checkpoint: str,
        expect_drained: bool = False,
        touched_only: bool = False,
    ) -> list[AuditViolation]:
        """Reconciliation against one cluster's authoritative state.

        ``expect_drained`` additionally asserts the end-of-run/teardown
        state: zero open connections and no resident Cache Worker bytes
        (leaked registrations or shuffle data that outlived every job).

        ``touched_only`` (job checkpoints) checks just what changed since
        the previous checkpoint: the machines whose idle count or health
        changed and the Cache Workers whose ledger hooks fired.  Without
        it, with ``expect_drained``, and on the first checkpoint against a
        cluster, every machine and Cache Worker is recounted.  Returns the
        violations found by *this* checkpoint.
        """
        before = len(self.violations)
        self.checkpoints_run += 1
        touched = cluster.take_touched(self)
        self.reconcile_network(cluster.network, checkpoint)
        recount: Optional[list[Machine]] = None
        if (
            expect_drained
            or not touched_only
            or touched is None
            or self._shares_of is not cluster
        ):
            workers = [m.cache_worker for m in cluster.machines]
        else:
            workers = [
                m.cache_worker for m in cluster.machines_with_ids(self._touched_workers)
            ]
            recount = cluster.machines_with_ids(m.machine_id for m in touched)
        self._touched_workers.clear()
        for worker in workers:
            if worker is not None:
                self.reconcile_cache_worker(worker, checkpoint)  # type: ignore[arg-type]
        self.reconcile_executors(cluster, checkpoint, recount)
        if expect_drained:
            if cluster.network.open_connections != 0:
                self._violate(
                    "connections",
                    "connections still open after all jobs terminated",
                    checkpoint=checkpoint,
                    expected=0,
                    actual=cluster.network.open_connections,
                )
            if self.replica_bytes_outstanding != 0:
                self._violate(
                    "replica_bytes",
                    "replica bytes still outstanding after all jobs "
                    f"terminated ({self.replica_bytes_written_total:g} "
                    "written over the run)",
                    checkpoint=checkpoint,
                    expected=0,
                    actual=self.replica_bytes_outstanding,
                )
            for machine in cluster.machines:
                worker = machine.cache_worker
                if worker is None:
                    continue
                if len(worker) > 0 or worker.bytes_in_memory != 0:  # type: ignore[arg-type]
                    self._violate(
                        "cache_memory",
                        f"machine {machine.machine_id} still holds "
                        f"{len(worker)} cache entries after all jobs "  # type: ignore[arg-type]
                        "terminated",
                        checkpoint=checkpoint,
                        expected=0,
                        actual=worker.bytes_in_memory,  # type: ignore[union-attr]
                    )
        return self.violations[before:]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-friendly snapshot of the ledger state."""
        return {
            "strict": self.strict,
            "checkpoints_run": self.checkpoints_run,
            "connections_outstanding": self.connections_outstanding,
            "connections_registered_total": self.connections_registered_total,
            "connections_released_total": self.connections_released_total,
            "replica_bytes_outstanding": self.replica_bytes_outstanding,
            "replica_bytes_written_total": self.replica_bytes_written_total,
            "replica_bytes_released_total": self.replica_bytes_released_total,
            "replica_bytes_dropped_total": self.replica_bytes_dropped_total,
            "violations": [v.to_dict() for v in self.violations],
        }
