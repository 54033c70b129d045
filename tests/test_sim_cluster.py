"""Tests for machines, executors, and cluster capacity."""

from __future__ import annotations

import pytest

from repro.sim.cluster import Cluster, ExecutorState, Machine, MachineState
from repro.sim.config import SimConfig


def test_build_dimensions():
    cluster = Cluster.build(5, 8)
    assert cluster.n_machines == 5
    assert cluster.total_executors() == 40
    assert cluster.free_executor_count() == 40
    assert cluster.busy_executor_count() == 0


def test_build_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Cluster.build(0, 8)
    with pytest.raises(ValueError):
        Cluster.build(4, 0)
    with pytest.raises(ValueError):
        Cluster([], SimConfig())


def test_executor_assign_start_release_cycle():
    machine = Machine(0, 2)
    executor = machine.executors[0]
    executor.assign("task")
    assert executor.state == ExecutorState.ASSIGNED
    executor.start()
    assert executor.state == ExecutorState.RUNNING
    assert machine.busy_count() == 1
    executor.release()
    assert executor.state == ExecutorState.IDLE
    assert executor.current_task is None


def test_executor_double_assign_raises():
    machine = Machine(0, 1)
    executor = machine.executors[0]
    executor.assign("a")
    with pytest.raises(RuntimeError):
        executor.assign("b")


def test_executor_start_without_assign_raises():
    machine = Machine(0, 1)
    with pytest.raises(RuntimeError):
        machine.executors[0].start()


def test_executor_relaunch_changes_pid():
    machine = Machine(0, 1)
    executor = machine.executors[0]
    old_pid = executor.pid
    executor.assign("t")
    executor.relaunch()
    assert executor.pid != old_pid
    assert executor.state == ExecutorState.IDLE


def test_machine_load():
    machine = Machine(0, 4)
    assert machine.load() == 0.0
    machine.executors[0].assign("t")
    assert machine.load() == pytest.approx(0.25)


def test_read_only_machine_rejects_new_tasks():
    machine = Machine(0, 4)
    machine.mark_read_only()
    assert machine.state == MachineState.READ_ONLY
    assert not machine.accepts_tasks
    assert machine.alive
    assert machine.free_executors() == []


def test_dead_machine_revokes_executors():
    machine = Machine(0, 4)
    machine.executors[0].assign("t")
    machine.mark_dead()
    assert not machine.alive
    assert all(e.state == ExecutorState.REVOKED for e in machine.executors)


def test_dead_machine_not_marked_read_only():
    machine = Machine(0, 1)
    machine.mark_dead()
    machine.mark_read_only()
    assert machine.state == MachineState.DEAD


def test_live_executors_count_only_machines_that_have_not_died():
    """Quarantine keeps a machine's slots live (it may come back); death
    removes them once, and ``total_executors`` keeps the cluster as built."""
    cluster = Cluster.build(3, 4)
    assert cluster.live_executors() == 12
    cluster.machines[0].mark_read_only()
    assert cluster.live_executors() == 12
    cluster.machines[1].mark_dead()
    cluster.machines[1].mark_dead()
    cluster.machines[0].mark_dead()
    assert cluster.live_executors() == 4
    assert cluster.total_executors() == 12


def test_schedulable_excludes_read_only_and_dead():
    cluster = Cluster.build(3, 2)
    cluster.machines[0].mark_read_only()
    cluster.machines[1].mark_dead()
    assert len(cluster.schedulable_machines()) == 1
    assert len(cluster.alive_machines()) == 2
    assert cluster.free_executor_count() == 2


def test_iter_executors_covers_all():
    cluster = Cluster.build(3, 4)
    assert len(list(cluster.iter_executors())) == 12
