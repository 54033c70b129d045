"""Tests for the Resource Scheduler: gangs, FIFO, locality, load."""

from __future__ import annotations

import pytest

from repro.core.scheduler import ResourceScheduler, pick_locality_machines
from repro.sim.cluster import Cluster


def make_scheduler(machines: int = 4, executors: int = 4) -> ResourceScheduler:
    return ResourceScheduler(Cluster.build(machines, executors))


def test_gang_grant_all_or_nothing():
    rs = make_scheduler(2, 2)  # 4 executors total
    rs.request("job", 1, n_executors=3, now=0.0)
    grants = rs.schedule()
    assert len(grants) == 1
    assert len(grants[0].executors) == 3
    assert rs.cluster.free_executor_count() == 1


def test_gang_request_waits_until_it_fits():
    rs = make_scheduler(1, 4)
    rs.request("a", 1, n_executors=3, now=0.0)
    assert len(rs.schedule()) == 1
    rs.request("b", 1, n_executors=3, now=1.0)
    assert rs.schedule() == []
    assert len(rs.pending()) == 1


def test_gang_request_exceeding_cluster_raises():
    rs = make_scheduler(1, 4)
    with pytest.raises(ValueError):
        rs.request("a", 1, n_executors=5)


def test_request_rejects_zero_executors():
    rs = make_scheduler()
    with pytest.raises(ValueError):
        rs.request("a", 1, n_executors=0)


def test_strict_fifo_head_of_line_blocking():
    """A big gang at the head blocks smaller requests behind it — the
    JetScope pathology of Figs. 10-11."""
    rs = make_scheduler(2, 2)
    # Occupy 2 executors so the big request cannot fit.
    rs.request("small0", 1, n_executors=2, now=0.0)
    rs.schedule()
    rs.request("big", 1, n_executors=4, now=1.0)
    rs.request("small1", 2, n_executors=1, now=2.0)
    grants = rs.schedule()
    assert grants == []  # small1 is stuck behind big


def test_non_gang_partial_grants():
    rs = make_scheduler(1, 4)
    item = rs.request("spark", 1, n_executors=10, gang=False, now=0.0)
    grants = rs.schedule()
    assert len(grants) == 1
    assert len(grants[0].executors) == 4
    assert item.remaining == 6
    assert not item.granted
    # Free two executors and pump again.
    for executor in grants[0].executors[:2]:
        executor.release()
    grants = rs.schedule()
    assert len(grants[0].executors) == 2
    assert item.remaining == 4


def test_partial_grant_keeps_its_queue_position():
    """A partly granted request stays ahead of a request that arrived
    after it: the executor freed next goes to it, not to the newcomer."""
    rs = make_scheduler(1, 4)
    item = rs.request("spark", 1, n_executors=6, gang=False, now=0.0)
    rs.request("waiting", 2, n_executors=1, now=1.0)
    (grant,) = rs.schedule()
    assert grant.request is item and item.remaining == 2
    grant.executors[0].release()
    (grant,) = rs.schedule()
    assert grant.request is item and item.remaining == 1


def test_non_gang_completes_and_leaves_queue():
    rs = make_scheduler(1, 4)
    item = rs.request("spark", 1, n_executors=3, gang=False)
    rs.schedule()
    assert item.granted
    assert rs.pending() == []


def test_locality_preferred_machines_used_first():
    rs = make_scheduler(4, 2)
    preferred = rs.cluster.machines[2].machine_id
    rs.request("job", 1, n_executors=2, locality=(preferred,))
    grants = rs.schedule()
    used = {e.machine.machine_id for e in grants[0].executors}
    assert used == {preferred}


def test_load_spreading_round_robin():
    rs = make_scheduler(4, 4)
    rs.request("job", 1, n_executors=4)
    grants = rs.schedule()
    used = {e.machine.machine_id for e in grants[0].executors}
    assert len(used) == 4  # one task per machine, no flock


def test_least_loaded_machines_chosen():
    rs = make_scheduler(2, 4)
    # Pre-load machine 0 with three busy executors.
    for executor in rs.cluster.machines[0].executors[:3]:
        executor.assign("x")
    rs.request("job", 1, n_executors=2)
    grants = rs.schedule()
    used = [e.machine.machine_id for e in grants[0].executors]
    assert used.count(1) >= 1


def test_read_only_machines_skipped():
    rs = make_scheduler(2, 2)
    rs.cluster.machines[0].mark_read_only()
    rs.request("job", 1, n_executors=2)
    grants = rs.schedule()
    used = {e.machine.machine_id for e in grants[0].executors}
    assert used == {1}


def test_cancel_job_drops_requests():
    rs = make_scheduler(1, 2)
    rs.request("doomed", 1, n_executors=2)
    rs.cancel_job("doomed")
    assert rs.schedule() == []
    assert rs.pending() == []


def test_grants_counter():
    rs = make_scheduler(1, 4)
    rs.request("a", 1, n_executors=1)
    rs.request("b", 1, n_executors=1)
    rs.schedule()
    assert rs.grants_made == 2


def test_pick_locality_machines_returns_least_loaded():
    cluster = Cluster.build(4, 2)
    for executor in cluster.machines[0].executors:
        executor.assign("x")
    picks = pick_locality_machines(cluster, n_tasks=4)
    assert 0 not in picks
