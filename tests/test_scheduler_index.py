"""Load index, request heap and touched-machine reconciles against the
full-scan oracles in ``scheduler_scan_oracle.py``.

Two clusters built alike are driven in lockstep: one by
:class:`ResourceScheduler` (load index, request heap, direct locality
lookup), one by the oracle's :class:`ScanScheduler`.  Random interleavings
of requests, grants, releases, cancels, quarantines, deaths and recoveries
must give identical grant sequences, executor picks and locality tuples.
The ledger properties run the touched-only reconcile next to the full-scan
one on the same cluster.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ResourceLedger
from repro.core.cache_worker import CacheWorker
from repro.core.scheduler import ReqItem, ResourceScheduler, pick_locality_machines
from repro.sim.cluster import Cluster, ExecutorState, Machine
from repro.sim.config import CacheWorkerConfig, DiskConfig, SimConfig
from repro.sim.disk import DiskModel

from scheduler_scan_oracle import FullScanLedger, ScanScheduler, scan_pick_locality_machines


def build(machine_ids: list[int], sizes: list[int]) -> Cluster:
    return Cluster([Machine(mid, n) for mid, n in zip(machine_ids, sizes)], SimConfig())


def grant_ids(grants) -> list[tuple[int, list[int]]]:
    return [
        (g.request.request_id, [e.executor_id for e in g.executors]) for g in grants
    ]


def busy(cluster: Cluster) -> list[int]:
    return sorted(
        e.executor_id for e in cluster.iter_executors() if e.state is ExecutorState.ASSIGNED
    )


@st.composite
def clusters(draw):
    """1-64 machines with heterogeneous executor counts (some equal, so
    loads tie) and ids that are not their list positions."""
    n = draw(st.integers(min_value=1, max_value=64))
    machine_ids = draw(st.permutations(range(2 * n)))[:n]
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    return machine_ids, sizes


@st.composite
def scenarios(draw):
    machine_ids, sizes = draw(clusters())
    total = sum(sizes)
    # Locality sets mix machine ids with ids not in the cluster.
    ids = st.sampled_from(machine_ids + [2 * len(machine_ids) + 1])
    op = st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from("abc"),
            st.integers(min_value=1, max_value=max(1, min(total, 24))),
            st.lists(ids, max_size=4).map(tuple),
            st.booleans(),
        ),
        st.tuples(st.just("schedule")),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("cancel"), st.sampled_from("abc")),
        st.tuples(
            st.sampled_from(["quarantine", "recover", "die"]),
            st.integers(min_value=0, max_value=len(machine_ids) - 1),
        ),
        st.tuples(st.just("locality"), st.integers(min_value=1, max_value=40)),
        st.tuples(
            st.just("pick"),
            st.integers(min_value=1, max_value=max(1, total)),
            st.lists(ids, max_size=4).map(tuple),
        ),
    )
    return machine_ids, sizes, draw(st.lists(op, max_size=60))


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_scheduler_matches_full_scan_oracle(case):
    machine_ids, sizes, ops = case
    new_cluster, old_cluster = build(machine_ids, sizes), build(machine_ids, sizes)
    new, old = ResourceScheduler(new_cluster), ScanScheduler(old_cluster)
    old_executors = {e.executor_id: e for e in old_cluster.iter_executors()}
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "request":
            _, job, n, locality, gang = op
            if n > new_cluster.total_executors():
                continue
            now += 1.0
            for scheduler in (new, old):
                scheduler.request(job, 0, n, locality, now, gang)
        elif kind == "schedule":
            assert grant_ids(new.schedule()) == grant_ids(old.schedule())
        elif kind == "release":
            held = busy(new_cluster)
            if held:
                executor_id = held[op[1] % len(held)]
                new_executor = next(
                    e for e in new_cluster.iter_executors() if e.executor_id == executor_id
                )
                new_executor.release()
                old_executors[executor_id].release()
        elif kind == "cancel":
            new.cancel_job(op[1])
            old.cancel_job(op[1])
        elif kind == "locality":
            assert pick_locality_machines(new_cluster, op[1]) == scan_pick_locality_machines(
                old_cluster, op[1]
            )
        elif kind == "pick":
            _, n, locality = op
            item = ReqItem(0, "p", 0, n, locality)
            got = new._pick_executors(item, n)
            want = old._pick_executors(item, n)
            assert (got is None) == (want is None)
            if got is not None:
                assert [e.executor_id for e in got] == [e.executor_id for e in want]
        else:
            position = op[1]
            for cluster in (new_cluster, old_cluster):
                machine = cluster.machines[position]
                {"quarantine": machine.mark_read_only,
                 "recover": machine.mark_healthy,
                 "die": machine.mark_dead}[kind]()
        assert new_cluster.free_executor_count() == old_cluster.free_executor_count()
        assert [r.request_id for r in new.pending()] == [r.request_id for r in old.pending()]
        assert busy(new_cluster) == busy(old_cluster)
    assert grant_ids(new.schedule()) == grant_ids(old.schedule())


def test_one_grant_reads_a_bounded_number_of_machines():
    """Complexity guard: once the load index is built, a 4-executor grant
    on 2,000 machines reads a handful of them (the old candidate list read
    every machine's load on every grant)."""
    reads: set[int] = set()

    class CountingMachine(Machine):
        def __getattribute__(self, name):
            reads.add(object.__getattribute__(self, "machine_id"))
            return object.__getattribute__(self, name)

    cluster = Cluster([CountingMachine(i, 4) for i in range(2000)], SimConfig())
    scheduler = ResourceScheduler(cluster)
    scheduler.request("warm", 0, 4)
    for grant in scheduler.schedule():
        for executor in grant.executors:
            executor.release()
    reads.clear()
    scheduler.request("job", 0, 4)
    (grant,) = scheduler.schedule()
    assert len(grant.executors) == 4
    assert len(reads) < 64


# ----------------------------------------------------------------------
# Touched-machine reconciles
# ----------------------------------------------------------------------

class Tee:
    """Forwards each Cache Worker ledger hook to several ledgers."""

    def __init__(self, *ledgers: ResourceLedger) -> None:
        self.ledgers = ledgers

    def __getattr__(self, name):
        def call(*args, **kwargs):
            for ledger in self.ledgers:
                getattr(ledger, name)(*args, **kwargs)
        return call


def summary(violations) -> list[tuple]:
    return [(v.resource, v.message, v.expected, v.actual) for v in violations]


@st.composite
def audit_scenarios(draw):
    machine_ids, sizes = draw(clusters())
    positions = st.integers(min_value=0, max_value=len(machine_ids) - 1)
    op = st.one_of(
        st.tuples(st.just("request"), st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.sampled_from(["quarantine", "recover", "die"]), positions),
        st.tuples(st.just("write"), positions, st.sampled_from("xyz"),
                  st.sampled_from([1, 3, 10**6])),
        st.tuples(st.just("read"), positions, st.sampled_from("xyz")),
        st.tuples(st.just("consume"), positions, st.sampled_from("xyz")),
        st.tuples(st.just("drop"), positions),
        # Corruptions through paths that mark what they touch.
        st.tuples(st.just("skew_idle"), positions, st.sampled_from([-1, 1])),
        st.tuples(st.just("skew_shadow"), positions, st.sampled_from([-2, 7])),
        st.tuples(st.just("checkpoint"), st.booleans()),
    )
    return machine_ids, sizes, draw(st.lists(op, max_size=60))


@settings(max_examples=300, deadline=None)
@given(audit_scenarios())
def test_touched_reconcile_matches_full_scan_oracle(case):
    """Each checkpoint reports exactly what the full scan reports, as long as
    every divergence enters through a path that marks what it touched; the
    divergence is repaired after the checkpoint that reports it."""
    machine_ids, sizes, ops = case
    cluster = build(machine_ids, sizes)
    new, old = ResourceLedger(strict=False), FullScanLedger(strict=False)
    disk = DiskModel(DiskConfig())
    for machine in cluster.machines:
        machine.cache_worker = CacheWorker(
            machine.machine_id, CacheWorkerConfig(memory_capacity=4_000_000), disk
        )
        machine.cache_worker.ledger = Tee(new, old)
    scheduler = ResourceScheduler(cluster)
    repairs = []
    assert summary(new.reconcile(cluster, "first", touched_only=True)) == []
    assert summary(old.reconcile(cluster, "first")) == []
    for step, op in enumerate(ops):
        kind = op[0]
        machine = cluster.machines[op[1]] if kind not in ("request", "release", "checkpoint") else None
        worker = machine.cache_worker if machine is not None else None
        if kind == "request":
            if op[1] <= cluster.free_executor_count():
                scheduler.request("j", 0, op[1])
                scheduler.schedule()
        elif kind == "release":
            held = [e for e in cluster.iter_executors() if e.state is ExecutorState.ASSIGNED]
            if held:
                held[op[1] % len(held)].release()
        elif kind in ("quarantine", "recover", "die"):
            {"quarantine": machine.mark_read_only,
             "recover": machine.mark_healthy,
             "die": machine.mark_dead}[kind]()
        elif kind == "write":
            worker.write("j", op[2], op[3], 2, float(step))
        elif kind == "read":
            worker.read("j", op[2], float(step))
        elif kind == "consume":
            worker.consume("j", op[2])
        elif kind == "drop":
            worker.drop_all()
        elif kind == "skew_idle":
            machine._adjust_idle(op[2])
            repairs.append((machine, -op[2]))
        elif kind == "skew_shadow":
            # Reconcile resyncs the shadow, so this repairs itself.
            worker.ledger.cache_written(machine.machine_id, op[2], 0, False)
        else:
            checkpoint = f"c{step}"
            got = new.reconcile(cluster, checkpoint, touched_only=op[1])
            want = old.reconcile(cluster, checkpoint)
            assert summary(got) == summary(want)
            for skewed, delta in repairs:
                skewed._adjust_idle(delta)
            repairs.clear()
    assert summary(new.reconcile(cluster, "end")) == summary(old.reconcile(cluster, "end"))


def test_job_checkpoint_recounts_only_touched_machines():
    """After the first full checkpoint, a checkpoint that follows one grant
    recounts the granted machines and no Cache Worker: O(touched), not
    O(cluster)."""
    cluster = Cluster.build(2000, 4)
    ledger = ResourceLedger(strict=True)
    recounted = []
    reconcile_executors = ledger.reconcile_executors

    def spy(cluster, checkpoint, machines=None):
        recounted.append(len(cluster.machines) if machines is None else len(machines))
        reconcile_executors(cluster, checkpoint, machines)

    ledger.reconcile_executors = spy
    ledger.reconcile(cluster, "first", touched_only=True)
    scheduler = ResourceScheduler(cluster)
    scheduler.request("job", 0, 8)
    (grant,) = scheduler.schedule()
    ledger.reconcile(cluster, "job", touched_only=True)
    assert recounted == [2000, len({e.machine.machine_id for e in grant.executors})]
    ledger.reconcile(cluster, "end")
    assert recounted[-1] == 2000
