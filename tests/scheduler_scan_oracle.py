"""Full-scan oracles for the scheduler's grant path and the audit reconcile.

The code below is the scheduler and ledger code that the cluster's load
index, the request heap and touched-machine reconciles replaced, kept
verbatim so the property tests in ``test_scheduler_index.py`` can check the
new code against it:

- :class:`ScanScheduler` sorts ``pending()`` on every ``schedule`` call,
  finds locality machines by walking every schedulable machine, and builds
  and heapifies a candidate list over all of them per grant;
- :func:`scan_pick_locality_machines` is an ``nsmallest`` over every
  schedulable machine;
- :class:`FullScanLedger` recounts every machine and Cache Worker at every
  checkpoint.

Only the imports changed: they are absolute here.
"""

from __future__ import annotations

from heapq import heapify, heappop, nsmallest
from typing import Optional

from repro.audit.ledger import AuditViolation, ResourceLedger
from repro.core.scheduler import Grant, ReqItem
from repro.sim.cluster import Cluster, Executor, ExecutorState


class ScanScheduler:
    """Maintains the request queue and the free-resource pool view."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._queue: list[ReqItem] = []
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
    ) -> ReqItem:
        """Enqueue a request item; raises for impossible gang sizes."""
        if n_executors < 1:
            raise ValueError("a resource request needs at least one executor")
        if gang and n_executors > self.cluster.total_executors():
            raise ValueError(
                f"gang request for {n_executors} executors exceeds cluster "
                f"capacity {self.cluster.total_executors()}"
            )
        self._next_id += 1
        item = ReqItem(
            request_id=self._next_id,
            job_id=job_id,
            unit_id=unit_id,
            n_executors=n_executors,
            locality=locality,
            enqueue_time=now,
            gang=gang,
        )
        self._queue.append(item)
        self._stalled_need = None
        return item

    def cancel_job(self, job_id: str) -> None:
        """Drop all of one job's queued requests."""
        for item in self._queue:
            if item.job_id == job_id:
                item.cancelled = True
        self._stalled_need = None

    def pending(self) -> list[ReqItem]:
        """Requests still waiting for executors."""
        return [r for r in self._queue if not r.granted and not r.cancelled]

    # ------------------------------------------------------------------
    # Pool-pressure introspection (read-only; used by admission control)
    # ------------------------------------------------------------------
    def queued_demand(self) -> int:
        """Executor slots still needed by queued, ungranted requests."""
        return sum(r.remaining for r in self._queue if not r.granted and not r.cancelled)

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
        if not self._queue:
            return grants
        free = self.cluster.free_executor_count()
        if self._stalled_need is not None and free < self._stalled_need:
            return grants
        self._stalled_need = None
        queue = sorted(self.pending(), key=lambda r: (r.enqueue_time, r.request_id))
        for item in queue:
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
            executors = self._pick_executors(item, take)
            if executors is None:
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
            free -= len(executors)
            self.grants_made += 1
            grants.append(Grant(request=item, executors=executors))
        self._queue = [r for r in self._queue if not r.granted and not r.cancelled]
        return grants

    def _pick_executors(self, item: ReqItem, needed: int) -> Optional[list[Executor]]:
        """Choose ``needed`` executors: locality first, then least-loaded."""
        chosen: list[Executor] = []

        # Locality pass: take free executors on preferred machines first.
        # Executors come off the top of each machine's free stack so the
        # later state update pops instead of scanning.
        if item.locality:
            preferred = {mid for mid in item.locality}
            for machine in self.cluster.schedulable_machines():
                if machine.machine_id not in preferred:
                    continue
                for executor in reversed(machine._free_stack):
                    chosen.append(executor)
                    if len(chosen) == needed:
                        return chosen

        # Load pass: spread the remainder across the least-loaded machines,
        # round-robin so no single machine is flocked.  A heap over the
        # candidate machines yields them in (load, id) order one at a time,
        # so a small grant pays O(M + grant log M) instead of the full
        # O(M log M) sort.
        cand = [
            (machine.load(), machine.machine_id, machine)
            for machine in self.cluster.schedulable_machines()
            if machine.idle_count > 0
        ]
        n_idle_machines = len(cand)
        heapify(cand)
        chosen_ids = {id(e) for e in chosen}
        still_needed = needed - len(chosen)
        # Spread target: same bound the eager sort used — enough machines
        # for one-executor-per-machine when the cluster allows it.
        target_pools = min(still_needed, n_idle_machines)
        pools: list[list[Executor]] = []
        available = 0
        while cand and (available < still_needed or len(pools) < target_pools):
            machine = heappop(cand)[2]
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



def scan_pick_locality_machines(cluster: Cluster, n_tasks: int) -> tuple[int, ...]:
    """Simple locality preference: the least-loaded machines that could host
    the scan tasks (data placement is uniform in the simulator, so locality
    reduces to load spreading)."""
    machines = cluster.schedulable_machines()
    slots = sum(len(machine.executors) for machine in cluster.machines)
    per_machine = max(1, slots // len(cluster.machines))
    take = max(1, min(len(machines), -(-n_tasks // per_machine)))
    best = nsmallest(take, machines, key=lambda m: (m.load(), m.machine_id))
    return tuple(m.machine_id for m in best)


class FullScanLedger(ResourceLedger):
    """The ledger with the full-scan reconcile of every checkpoint."""

    def reconcile_executors(self, cluster: "Cluster", checkpoint: str) -> None:
        """O(1) free-slot counter vs a recount over the executor pool.

        Scheduler grants mutate idle counters inline (bypassing the
        executor state machine), on healthy and quarantined machines
        alike, so this catches any unrolled transition that forgot its
        counter half.
        """
        recount = sum(
            1
            for machine in cluster.machines
            if machine.accepts_tasks
            for executor in machine.executors
            if executor.state is ExecutorState.IDLE
        )
        if recount != cluster.free_executor_count():
            self._violate(
                "executor_slots",
                "cluster free-slot counter diverged from the executor pool",
                checkpoint=checkpoint,
                expected=recount,
                actual=cluster.free_executor_count(),
            )
        for machine in cluster.machines:
            idle = sum(
                1
                for executor in machine.executors
                if executor.state is ExecutorState.IDLE
            )
            if idle != machine.idle_count:
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
    ) -> list[AuditViolation]:
        """Full reconciliation against one cluster's authoritative state.

        ``expect_drained`` additionally asserts the end-of-run/teardown
        state: zero open connections and no resident Cache Worker bytes
        (leaked registrations or shuffle data that outlived every job).
        Returns the violations found by *this* checkpoint.
        """
        before = len(self.violations)
        self.checkpoints_run += 1
        self.reconcile_network(cluster.network, checkpoint)
        for machine in cluster.machines:
            worker = machine.cache_worker
            if worker is not None:
                self.reconcile_cache_worker(worker, checkpoint)  # type: ignore[arg-type]
        self.reconcile_executors(cluster, checkpoint)
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

