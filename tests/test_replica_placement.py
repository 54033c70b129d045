"""Cache Worker replica placement: heap placement against a min() oracle."""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import pick_replica_machines
from repro.sim.cluster import Machine


def oracle_pick_replica_machines(
    primaries: list[Machine],
    candidates: list[Machine],
    replication_factor: int,
) -> list[list[Machine]]:
    """Reference placement: one ``min()`` over the whole pool per replica slot."""
    groups = [[p] for p in primaries]
    if replication_factor <= 1:
        return groups
    pool = [m for m in candidates if m.cache_worker is not None]
    if len(pool) < 2:
        return groups
    primary_ids = {p.machine_id for p in primaries}
    assigned = {m.machine_id: 0 for m in pool}
    for group in groups:
        in_group = {group[0].machine_id}
        while len(group) < replication_factor:
            best = min(
                (m for m in pool if m.machine_id not in in_group),
                key=lambda m: (
                    assigned[m.machine_id],
                    m.machine_id in primary_ids,
                    m.cache_worker.bytes_in_memory,
                    m.machine_id,
                ),
                default=None,
            )
            if best is None:
                break
            group.append(best)
            in_group.add(best.machine_id)
            assigned[best.machine_id] += 1
    return groups


class StubWorker:
    """A Cache Worker that only reports resident bytes, counting the reads."""

    def __init__(self, used: int) -> None:
        self._used = used
        self.reads = 0

    @property
    def bytes_in_memory(self) -> int:
        self.reads += 1
        return self._used


def make_machine(machine_id: int, used: Optional[int]) -> Machine:
    machine = Machine(machine_id, 0)
    machine.cache_worker = None if used is None else StubWorker(used)
    return machine


def ids(groups: list[list[Machine]]) -> list[list[int]]:
    return [[m.machine_id for m in group] for group in groups]


@st.composite
def placements(draw):
    """Distinct machines, some without a Cache Worker and with few distinct
    memory values (ties), split into a candidate pool and primaries that may
    lie outside it."""
    n = draw(st.integers(min_value=0, max_value=24))
    machine_ids = draw(st.permutations(range(40)))[:n]
    memory = st.one_of(st.none(), st.sampled_from([0, 1, 5, 10**9]))
    machines = [make_machine(mid, draw(memory)) for mid in machine_ids]
    candidates = draw(st.permutations([m for m in machines if draw(st.booleans())]))
    primaries = draw(st.lists(st.sampled_from(machines), max_size=12)) if machines else []
    replication_factor = draw(st.integers(min_value=1, max_value=5))
    return primaries, candidates, replication_factor


@settings(max_examples=300, deadline=None)
@given(placements())
def test_heap_placement_matches_min_oracle(case):
    primaries, candidates, replication_factor = case
    got = pick_replica_machines(primaries, candidates, replication_factor)
    want = oracle_pick_replica_machines(primaries, candidates, replication_factor)
    assert ids(got) == ids(want)


@settings(max_examples=300, deadline=None)
@given(placements())
def test_groups_start_with_primary_and_hold_distinct_machines(case):
    primaries, candidates, replication_factor = case
    groups = pick_replica_machines(primaries, candidates, replication_factor)
    assert len(groups) == len(primaries)
    pool_ids = {m.machine_id for m in candidates if m.cache_worker is not None}
    for primary, group in zip(primaries, groups):
        assert group[0] is primary
        assert len({m.machine_id for m in group}) == len(group)
        assert {m.machine_id for m in group[1:]} <= pool_ids
        # Full whenever the pool has room: replicas never go unplaced.
        others = len(pool_ids - {primary.machine_id})
        full = replication_factor if len(pool_ids) >= 2 else 1
        assert len(group) == min(full, 1 + others)


def test_placement_reads_each_workers_memory_once():
    """Complexity guard: no per-slot rescans of the candidate pool (a min()
    per slot reads every worker's memory about 2M times here)."""
    candidates = [make_machine(mid, float(mid % 7)) for mid in range(2_000)]
    primaries = candidates[:1_000]
    groups = pick_replica_machines(primaries, candidates, 2)
    assert all(len(group) == 2 for group in groups)
    assert max(m.cache_worker.reads for m in candidates) <= 1
