"""Simulated cluster: machines, executors, and health states.

Executors are pre-launched slots ("the worker machine provides computing
resources for tasks in terms of Swift Executors, which are pre-launched when
Swift starts", Section II-B).  Machines carry the health states of failure
detection (Section IV-A): a quarantined (unhealthy) machine goes
HEALTHY -> READ_ONLY and back, a crashed one goes to DEAD.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from typing import Iterable, Iterator, Optional

from .config import SimConfig
from .disk import DiskModel
from .network import NetworkModel


class MachineState(enum.Enum):
    """Machine health states of Section IV-A."""
    HEALTHY = "healthy"
    #: No new tasks scheduled; existing tasks drain (Section IV-A).
    READ_ONLY = "read_only"
    DEAD = "dead"


class ExecutorState(enum.Enum):
    """Lifecycle of one pre-launched executor slot."""
    IDLE = "idle"
    ASSIGNED = "assigned"
    RUNNING = "running"
    REVOKED = "revoked"


class Executor:
    """One pre-launched executor slot on a machine."""

    __slots__ = ("executor_id", "machine", "state", "current_task", "pid")

    def __init__(self, executor_id: int, machine: "Machine") -> None:
        self.executor_id = executor_id
        self.machine = machine
        self.state = ExecutorState.IDLE
        #: Opaque handle to the task instance currently assigned/running.
        self.current_task: Optional[object] = None
        #: Simulated process id; bumped on every (re)launch so the Admin can
        #: detect restarts from the self-report (Section IV-A).
        self.pid = executor_id + 10_000

    def _transition(self, new_state: ExecutorState) -> None:
        """Move to ``new_state``, keeping the machine's idle bookkeeping
        (count and free stack) exact."""
        was_idle = self.state == ExecutorState.IDLE
        now_idle = new_state == ExecutorState.IDLE
        self.state = new_state
        if was_idle and not now_idle:
            self.machine._adjust_idle(-1)
            stack = self.machine._free_stack
            # Grants consume each machine's stack from the top, so the
            # common case is a pop; the remove() fallback covers arbitrary
            # interleavings (revocation, locality overlap).
            if stack and stack[-1] is self:
                stack.pop()
            else:
                stack.remove(self)
        elif now_idle and not was_idle:
            self.machine._adjust_idle(+1)
            self.machine._free_stack.append(self)

    def assign(self, task: object) -> None:
        """Reserve this executor for a task (must be idle)."""
        if self.state != ExecutorState.IDLE:
            raise RuntimeError(f"executor {self.executor_id} is not idle ({self.state})")
        self._transition(ExecutorState.ASSIGNED)
        self.current_task = task

    def start(self) -> None:
        """Move an assigned executor to running."""
        if self.state != ExecutorState.ASSIGNED:
            raise RuntimeError(f"executor {self.executor_id} has no assigned task")
        self._transition(ExecutorState.RUNNING)

    def release(self) -> None:
        """Return the executor to the idle pool."""
        self.current_task = None
        if self.state != ExecutorState.REVOKED:
            self._transition(ExecutorState.IDLE)

    def relaunch(self) -> None:
        """Simulate a process restart: new PID, back to idle."""
        self.pid += 1_000_000
        self.current_task = None
        self._transition(ExecutorState.IDLE)

    def revoke(self) -> None:
        """Withdraw the executor permanently (machine death)."""
        self._transition(ExecutorState.REVOKED)
        self.current_task = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Executor {self.executor_id} m{self.machine.machine_id} {self.state.value}>"


class Machine:
    """One worker machine with a NIC, disks, executors, and a Cache Worker."""

    def __init__(self, machine_id: int, n_executors: int) -> None:
        self.machine_id = machine_id
        self.state = MachineState.HEALTHY
        #: Backref set by Cluster so idle counts aggregate in O(1).
        self._cluster: Optional["Cluster"] = None
        self.idle_count = n_executors
        self.executors = [
            Executor(machine_id * 10_000 + i, self) for i in range(n_executors)
        ]
        #: Exact stack of idle executors, maintained by every state
        #: transition; lets the scheduler grab free slots without scanning
        #: the executor list (O(grant) instead of O(executors)).
        self._free_stack: list[Executor] = list(self.executors)
        #: Attached by the runtime (a ``repro.core.cache_worker.CacheWorker``).
        self.cache_worker: Optional[object] = None
        #: The load this machine is filed under in the cluster's load index;
        #: ``None`` while it is not filed (not schedulable, or not indexed
        #: yet).
        self._filed_load: Optional[float] = None

    @property
    def accepts_tasks(self) -> bool:
        """True when the scheduler may place new tasks here."""
        return self.state == MachineState.HEALTHY

    @property
    def alive(self) -> bool:
        """True unless the machine is dead."""
        return self.state != MachineState.DEAD

    def _adjust_idle(self, delta: int) -> None:
        self.idle_count += delta
        cluster = self._cluster
        if cluster is not None:
            cluster._dirty.add(self)
            if self.accepts_tasks:
                cluster._free_count += delta

    def free_executors(self) -> list[Executor]:
        """Idle executors, empty when the machine is quarantined."""
        if not self.accepts_tasks:
            return []
        return list(self._free_stack)

    def busy_count(self) -> int:
        """Executors currently assigned or running."""
        return len(self.executors) - self.idle_count

    def load(self) -> float:
        """Fraction of executors occupied; the machine-load signal used by
        the Resource Scheduler to avoid scheduling flock (Section III-A2)."""
        if not self.executors:
            return 1.0
        return self.busy_count() / len(self.executors)

    def _withdraw_from_pool(self) -> None:
        """Remove this machine's idle executors from the cluster's pool
        (called when the machine stops accepting tasks)."""
        if self._cluster is not None and self.accepts_tasks:
            self._cluster._free_count -= self.idle_count

    def mark_read_only(self) -> None:
        """Quarantine: drain existing tasks, accept no new ones."""
        if self.state == MachineState.HEALTHY:
            self._withdraw_from_pool()
            self.state = MachineState.READ_ONLY
            if self._cluster is not None:
                self._cluster._health_changed(self)

    def mark_healthy(self) -> None:
        """Recover a quarantined machine: accept tasks again and return its
        idle executors to the cluster pool."""
        if self.state == MachineState.READ_ONLY:
            self.state = MachineState.HEALTHY
            if self._cluster is not None:
                self._cluster._free_count += self.idle_count
                self._cluster._health_changed(self)

    def mark_dead(self) -> None:
        """Kill the machine and revoke all of its executors."""
        if self.state != MachineState.DEAD:
            self._withdraw_from_pool()
            self.state = MachineState.DEAD
            if self._cluster is not None:
                self._cluster._live_executors -= len(self.executors)
                self._cluster._health_changed(self)
            for executor in self.executors:
                executor.revoke()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.machine_id} {self.state.value} {self.busy_count()}/{len(self.executors)}>"


class Cluster:
    """A collection of machines plus the shared network and disk models.

    The cluster keeps its schedulable machines in a *load index* ordered by
    ``(load(), machine_id)``: one bucket per exact load value, each holding
    its machines sorted by id.  Idle-count and health transitions only mark
    the machine dirty (one set add); the next index query re-files the dirty
    machines.  A grant or a locality pick therefore reads the machines it
    takes plus the ones that changed since the last query, never the whole
    cluster.
    """

    def __init__(self, machines: list[Machine], config: SimConfig) -> None:
        if not machines:
            raise ValueError("a cluster needs at least one machine")
        #: Position of each machine in ``machines``, by id.
        self._index_of = {m.machine_id: i for i, m in enumerate(machines)}
        if len(self._index_of) != len(machines):
            raise ValueError("machine ids must be unique within a cluster")
        config.validate()
        self.machines = machines
        self.config = config
        self.network = NetworkModel(config.network, n_machines=len(machines))
        self.disk = DiskModel(config.disk)
        self._free_count = 0
        for machine in machines:
            machine._cluster = self
            if machine.accepts_tasks:
                self._free_count += machine.idle_count
        #: Machine membership is fixed after construction, so the slot total
        #: is a constant (queried on every request validation).
        self._total_executors = sum(len(m.executors) for m in machines)
        #: Executor slots per machine (the mean, at least 1): how many tasks
        #: one machine hosts when shuffles and scans pack onto executors.
        self.executors_per_machine = max(1, self._total_executors // len(machines))
        #: Slots on machines that have not died; ``Machine.mark_dead``
        #: lowers it.
        self._live_executors = sum(len(m.executors) for m in machines if m.alive)
        #: Cache of :meth:`schedulable_machines`, invalidated by the
        #: ``mark_*`` health transitions.  Callers must not mutate it.
        self._schedulable_cache: Optional[list[Machine]] = None
        #: Load index: load -> ``(machine_id, machine)`` pairs sorted by id,
        #: and the sorted loads that have a bucket.  Built on first query.
        self._buckets: Optional[dict[float, list[tuple[int, Machine]]]] = None
        self._loads: list[float] = []
        #: Machines whose idle count or health changed since the index last
        #: re-filed them.
        self._dirty: set[Machine] = set()
        #: Machines changed since the last :meth:`take_touched` call of
        #: ``_touched_owner`` (``None`` until someone asks).
        self._touched: Optional[set[Machine]] = None
        self._touched_owner: Optional[object] = None

    @classmethod
    def build(
        cls,
        n_machines: int,
        executors_per_machine: int,
        config: Optional[SimConfig] = None,
    ) -> "Cluster":
        """Construct a homogeneous cluster."""
        if n_machines < 1 or executors_per_machine < 1:
            raise ValueError("cluster dimensions must be positive")
        machines = [Machine(i, executors_per_machine) for i in range(n_machines)]
        return cls(machines, config or SimConfig())

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def n_machines(self) -> int:
        """Number of machines in the cluster."""
        return len(self.machines)

    def alive_machines(self) -> list[Machine]:
        """Machines that have not died."""
        return [m for m in self.machines if m.alive]

    def schedulable_machines(self) -> list[Machine]:
        """Machines accepting new tasks (healthy only).

        The list is cached between health transitions; callers must treat
        it as read-only.
        """
        cached = self._schedulable_cache
        if cached is None:
            cached = self._schedulable_cache = [
                m for m in self.machines if m.accepts_tasks
            ]
        return cached

    def machines_with_ids(self, machine_ids: Iterable[int]) -> list[Machine]:
        """The machines with the given ids, in ``machines`` order; unknown
        ids are skipped.  A direct lookup: the cost is the number of ids,
        not the cluster size."""
        index_of = self._index_of
        machines = self.machines
        return [
            machines[i]
            for i in sorted({index_of[mid] for mid in machine_ids if mid in index_of})
        ]

    def machines_by_load(self) -> Iterator[Machine]:
        """Schedulable machines in ``(load(), machine_id)`` order.

        Loads are bucketed by their exact float value, so the order equals a
        sort on that key, heterogeneous executor counts included.  Reading
        the first k machines costs O(k) plus O(log M) per machine changed
        since the previous query.  Machine state must not change while the
        iterator is in use.
        """
        buckets = self._refile()
        for load in self._loads:
            for _, machine in buckets[load]:
                yield machine

    def take_touched(self, owner: object) -> Optional[set[Machine]]:
        """Machines whose idle count or health changed since ``owner``'s
        previous call, and start a new window.

        Returns ``None`` when ``owner`` did not make the previous call (or
        this is the first one): the changes since its last look are then
        unknown, and it must check every machine.  One owner (an audit
        ledger) per cluster is served exactly.
        """
        touched = self._touched
        known = self._touched_owner is owner
        self._touched_owner = owner
        self._touched = set()
        if touched is None or not known:
            return None
        touched |= self._dirty
        return touched

    def _health_changed(self, machine: Machine) -> None:
        self._schedulable_cache = None
        self._dirty.add(machine)

    def _refile(self) -> dict[float, list[tuple[int, Machine]]]:
        """Bring the load index up to date with the dirty machines and
        return its buckets."""
        buckets = self._buckets
        if buckets is None:
            return self._build_index()
        dirty = self._dirty
        if not dirty:
            return buckets
        loads = self._loads
        healthy = MachineState.HEALTHY
        for machine in dirty:
            old = machine._filed_load
            if machine.state is healthy:
                # Machine.load(), inlined: the same float, bit for bit.
                n = len(machine.executors)
                new: Optional[float] = (n - machine.idle_count) / n if n else 1.0
            else:
                new = None
            if new == old:
                continue
            key = machine.machine_id
            if old is not None:
                bucket = buckets[old]
                del bucket[bisect_left(bucket, (key,))]
                if not bucket:
                    del buckets[old]
                    del loads[bisect_left(loads, old)]
            if new is not None:
                bucket = buckets.get(new)  # type: ignore[assignment]
                if bucket is None:
                    bucket = buckets[new] = []
                    insort(loads, new)
                insort(bucket, (key, machine))
            machine._filed_load = new
        if self._touched is not None:
            self._touched |= dirty
        dirty.clear()
        return buckets

    def _build_index(self) -> dict[float, list[tuple[int, Machine]]]:
        """File every schedulable machine in one pass (first query)."""
        buckets: dict[float, list[tuple[int, Machine]]] = {}
        for machine in self.machines:
            if machine.accepts_tasks:
                load = machine.load()
                buckets.setdefault(load, []).append((machine.machine_id, machine))
                machine._filed_load = load
            else:
                machine._filed_load = None
        for bucket in buckets.values():
            bucket.sort()
        self._buckets = buckets
        self._loads = sorted(buckets)
        if self._touched is not None:
            self._touched |= self._dirty
        self._dirty.clear()
        return buckets

    def total_executors(self) -> int:
        """Executor slots across all machines (fixed after construction)."""
        return self._total_executors

    def live_executors(self) -> int:
        """Executor slots on machines that have not died (O(1)): the most
        any request can ever be granted."""
        return self._live_executors

    def free_executor_count(self) -> int:
        """Idle executors on machines that accept tasks (O(1))."""
        return self._free_count

    def busy_executor_count(self) -> int:
        """Occupied executors on living machines."""
        return sum(m.busy_count() for m in self.machines if m.alive)

    def iter_executors(self) -> Iterable[Executor]:
        """Iterate every executor in machine order."""
        for machine in self.machines:
            yield from machine.executors

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster {self.n_machines} machines, "
            f"{self.total_executors()} executors, {self.free_executor_count()} free>"
        )
