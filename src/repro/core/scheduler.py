"""Resource Scheduler: gang allocation with locality and machine load.

Section III-A2: "When assigning resources, both data locality and machine
load are considered. ... Machine load is considered to avoid scheduling
flock ... For tasks without locality preference, the most free machine is
chosen.  For each graphlet received, gang scheduling is used."

Requests are recorded as request items (ReqItem) in a heap ordered by
``(enqueue_time, order, request_id)``: first come, first served, with no job
priority, since the paper's grant rule names none.  On every resource event
the scheduler walks the heap from its head and grants each request that
fits entirely (gang semantics: all-or-nothing per unit), stopping at the
first gang that does not.  Executors are picked through the cluster's load
index, so one grant reads the machines it takes, not the whole cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Iterable, Optional

from ..sim.cluster import Cluster, Executor, ExecutorState, Machine


class SchedulingImpossibleError(ValueError):
    """A gang request exceeds the cluster as built: malformed input that no
    schedule can ever satisfy."""


@dataclass
class ReqItem:
    """One pending request: ``n_executors`` for one schedulable unit.

    ``gang=True`` is all-or-nothing (Swift graphlets, JetScope whole jobs);
    ``gang=False`` accepts partial grants and stays queued until satisfied
    (Spark-style wave execution).
    """

    request_id: int
    job_id: str
    unit_id: int
    n_executors: int
    #: Preferred machine ids for locality (scan stages); may be empty.
    locality: tuple[int, ...] = ()
    enqueue_time: float = 0.0
    #: Rank among requests of equal enqueue time: the request id, or that
    #: of the request whose place in the queue this one takes.
    order: int = 0
    gang: bool = True
    remaining: int = 0
    granted: bool = False
    cancelled: bool = False

    def __post_init__(self) -> None:
        self.remaining = self.n_executors


@dataclass
class Grant:
    """A fulfilled request: the executors assigned to the unit."""

    request: ReqItem
    executors: list[Executor] = field(default_factory=list)


class ResourceScheduler:
    """Maintains the request queue and the free-resource pool view."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        #: Pending requests by id, in arrival order.
        self._pending: dict[int, ReqItem] = {}
        #: ``(enqueue_time, order, request_id, item)`` for every pending
        #: request, plus cancelled ones not yet popped (deleted lazily).
        self._heap: list[tuple[float, int, int, ReqItem]] = []
        self._next_id = 0
        self.grants_made = 0
        #: Head-of-line gang size we last failed to satisfy; while the free
        #: pool stays below it (and the queue is unchanged) scheduling is a
        #: guaranteed no-op, so ``schedule`` returns immediately.
        self._stalled_need: Optional[int] = None

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def request(
        self,
        job_id: str,
        unit_id: int,
        n_executors: int,
        locality: tuple[int, ...] = (),
        now: float = 0.0,
        gang: bool = True,
        place_of: Optional[ReqItem] = None,
    ) -> ReqItem:
        """Enqueue a request item, at ``place_of``'s place in the queue
        (its enqueue time and order) when given.

        Raises :class:`SchedulingImpossibleError` for a gang larger than the
        cluster as built.  A gang that fits the cluster but not its live
        machines is enqueued; :meth:`unschedulable` reports it.
        """
        if n_executors < 1:
            raise ValueError("a resource request needs at least one executor")
        if gang and n_executors > self.cluster.total_executors():
            raise SchedulingImpossibleError(
                f"gang request for {n_executors} executors exceeds cluster "
                f"capacity {self.cluster.total_executors()}"
            )
        self._next_id += 1
        order = self._next_id
        if place_of is not None:
            now, order = place_of.enqueue_time, place_of.order
        item = ReqItem(
            request_id=self._next_id,
            job_id=job_id,
            unit_id=unit_id,
            n_executors=n_executors,
            locality=locality,
            enqueue_time=now,
            order=order,
            gang=gang,
        )
        self._pending[item.request_id] = item
        heappush(self._heap, (now, order, item.request_id, item))
        self._stalled_need = None
        return item

    def cancel_job(self, job_id: str) -> list[ReqItem]:
        """Drop all of one job's queued requests; returns them."""
        pending = self._pending
        dropped = [r for r in pending.values() if r.job_id == job_id]
        for item in dropped:
            item.cancelled = True
            del pending[item.request_id]
        if len(self._heap) > 2 * len(pending) + 64:
            # Mostly cancelled entries: rebuild rather than let them pile up.
            self._heap = [
                (r.enqueue_time, r.order, r.request_id, r)
                for r in pending.values()
            ]
            heapify(self._heap)
        self._stalled_need = None
        return dropped

    def unschedulable(self, items: Iterable[ReqItem]) -> list[ReqItem]:
        """The requests among ``items`` that no grant can ever satisfy: the
        smallest grant each accepts (its whole remainder for a gang, one
        executor otherwise) exceeds the executors on live machines.  This is
        the one place a request's size meets the live pool."""
        live = self.cluster.live_executors()
        return [r for r in items if (r.remaining if r.gang else 1) > live]

    def pending(self) -> list[ReqItem]:
        """Requests still waiting for executors, in arrival order."""
        return [
            r for r in self._pending.values() if not r.granted and not r.cancelled
        ]

    # ------------------------------------------------------------------
    # Pool-pressure introspection (read-only; used by admission control)
    # ------------------------------------------------------------------
    def queued_demand(self) -> int:
        """Executor slots still needed by queued, ungranted requests."""
        return sum(r.remaining for r in self.pending())

    def pool_pressure(self, extra_demand: int = 0) -> float:
        """Executor demand over capacity, the NOT_ENOUGH_SLOTS signal.

        Busy slots plus queued gang demand (plus ``extra_demand``, e.g. a
        service gateway's own backlog), normalized by the cluster's total
        executor count. 1.0 means the pool is exactly saturated; admission
        policies reject or hold arrivals above a configured threshold.
        """
        total = self.cluster.total_executors()
        if total <= 0:
            return float("inf")
        busy = total - self.cluster.free_executor_count()
        return (busy + self.queued_demand() + extra_demand) / total

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def schedule(self) -> list[Grant]:
        """Grant every queued request that currently fits, in queue order.

        Gang semantics: a request is granted only if *all* its executors are
        available at once; otherwise it stays queued (this is what produces
        resource fragmentation for whole-job gangs, Section III-A).
        """
        grants: list[Grant] = []
        if not self._pending:
            return grants
        free = self.cluster.free_executor_count()
        if self._stalled_need is not None and free < self._stalled_need:
            return grants
        self._stalled_need = None
        heap = self._heap
        pending = self._pending
        dirty = self.cluster._dirty
        # Entries popped but still pending (partial grants, failed picks);
        # pushed back with their keys unchanged, so they keep their place.
        kept: list[tuple[float, int, int, ReqItem]] = []
        while heap:
            item = heap[0][3]
            if item.granted or item.cancelled:
                heappop(heap)
                pending.pop(item.request_id, None)
                continue
            if free == 0:
                self._stalled_need = 1
                break
            if item.gang:
                if item.remaining > free:
                    # Strict FIFO: an unsatisfiable gang at the head blocks
                    # the queue, idling the free executors behind it.  This
                    # head-of-line blocking is what makes whole-job gangs
                    # (JetScope) waste resources; graphlet-sized gangs are
                    # small enough that it rarely bites.
                    self._stalled_need = item.remaining
                    break
                take = item.remaining
            else:
                take = min(item.remaining, free)
            entry = heappop(heap)
            executors = self._pick_executors(item, take)
            if executors is None:
                kept.append(entry)
                continue
            # Executor.assign(), unrolled in bulk: picks come only from
            # schedulable (healthy) machines, so every slot leaves the
            # cluster's free pool.
            assigned = ExecutorState.ASSIGNED
            for executor in executors:
                executor.state = assigned
                executor.current_task = item
                machine = executor.machine
                machine.idle_count -= 1
                dirty.add(machine)
                stack = machine._free_stack
                # Picks consume each stack top-first, so this is almost
                # always a pop from the end.
                if stack[-1] is executor:
                    stack.pop()
                else:
                    stack.remove(executor)
            self.cluster._free_count -= len(executors)
            item.remaining -= len(executors)
            if item.remaining == 0:
                item.granted = True
                del pending[item.request_id]
            else:
                kept.append(entry)
            free -= len(executors)
            self.grants_made += 1
            grants.append(Grant(request=item, executors=executors))
        for entry in kept:
            heappush(heap, entry)
        return grants

    def _pick_executors(self, item: ReqItem, needed: int) -> Optional[list[Executor]]:
        """Choose ``needed`` executors: locality first, then least-loaded."""
        chosen: list[Executor] = []

        # Locality pass: take free executors on preferred machines first,
        # looked up by id.  Executors come off the top of each machine's
        # free stack so the later state update pops instead of scanning.
        if item.locality:
            for machine in self.cluster.machines_with_ids(item.locality):
                if not machine.accepts_tasks:
                    continue
                for executor in reversed(machine._free_stack):
                    chosen.append(executor)
                    if len(chosen) == needed:
                        return chosen

        # Load pass: spread the remainder across the least-loaded machines,
        # round-robin so no single machine is flocked.  The cluster's load
        # index yields machines in (load, id) order, every machine with an
        # idle slot ahead of the full ones, so a grant reads O(grant)
        # machines plus the ones re-filed since the last query.  Spread
        # target: enough machines for one-executor-per-machine when the
        # cluster allows it.
        chosen_ids = {id(e) for e in chosen}
        still_needed = needed - len(chosen)
        pools: list[list[Executor]] = []
        available = 0
        for machine in self.cluster.machines_by_load():
            if available >= still_needed and len(pools) >= still_needed:
                break
            if machine.idle_count == 0:
                break
            if chosen_ids:
                pool = [
                    e for e in machine._free_stack if id(e) not in chosen_ids
                ]
            else:
                pool = list(machine._free_stack)
            if pool:
                pools.append(pool)
                available += len(pool)
        cursor = 0
        active = [pool for pool in pools if pool]
        while len(chosen) < needed and active:
            pool = active[cursor % len(active)]
            chosen.append(pool.pop())
            if not pool:
                active.remove(pool)
            else:
                cursor += 1
        if len(chosen) < needed:
            return None
        return chosen


def pick_replica_machines(
    primaries: list[Machine],
    candidates: list[Machine],
    replication_factor: int,
) -> list[list[Machine]]:
    """Load-aware replica placement for Cache-Worker shuffle entries.

    Each primary machine becomes a replica *group* of up to
    ``replication_factor`` distinct machines holding the same shuffle
    entry, primary first.  Groups fill in primary order; each replica slot
    takes the machine from ``candidates`` (those with a Cache Worker, and
    not already in the group) that comes first by, in turn:

    1. fewest replicas assigned so far in this call (round robin, so one
       idle machine does not absorb every group's replica);
    2. outside the primary set;
    3. fewest resident Cache Worker bytes;
    4. lowest machine id (the deterministic tiebreak).

    ``candidates`` must be distinct machines.  One heap over the P pool
    machines, built once, serves every slot: a slot pops past its own
    group's members, and the chosen machine goes back with its count
    raised.  Placing R replicas costs O(P + R log P), and each Cache
    Worker's resident bytes are read once.  Groups degrade gracefully:
    with fewer than two candidate machines the group is just its primary
    (v1 behaviour).
    """
    groups = [[p] for p in primaries]
    if replication_factor <= 1:
        return groups
    pool = [m for m in candidates if m.cache_worker is not None]
    if len(pool) < 2:
        return groups
    primary_ids = {p.machine_id for p in primaries}
    # Machine ids make every key unique and no resident bytes change during
    # the call, so the heap yields exactly the order a fresh min() over the
    # pool would.
    heap: list[tuple[int, bool, int, int, Machine]] = [
        (
            0,
            m.machine_id in primary_ids,
            m.cache_worker.bytes_in_memory,  # type: ignore[union-attr]
            m.machine_id,
            m,
        )
        for m in pool
    ]
    heapify(heap)
    for group in groups:
        in_group = {group[0].machine_id}
        held = []
        while len(group) < replication_factor and heap:
            count, is_primary, used, machine_id, machine = heappop(heap)
            if machine_id in in_group:
                held.append((count, is_primary, used, machine_id, machine))
                continue
            group.append(machine)
            in_group.add(machine_id)
            held.append((count + 1, is_primary, used, machine_id, machine))
        for entry in held:
            heappush(heap, entry)
    return groups


def pick_locality_machines(cluster: Cluster, n_tasks: int) -> tuple[int, ...]:
    """Simple locality preference: the least-loaded machines that could host
    the scan tasks (data placement is uniform in the simulator, so locality
    reduces to load spreading)."""
    machines = cluster.schedulable_machines()
    take = max(1, min(len(machines), -(-n_tasks // cluster.executors_per_machine)))
    return tuple(m.machine_id for m in islice(cluster.machines_by_load(), take))
