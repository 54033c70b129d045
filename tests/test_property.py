"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dag import Edge, EdgeMode, JobDAG, Stage
from repro.core.metrics import four_quartile_summary, quantile, utilization_series
from repro.core.operators import OperatorKind as K, ops
from repro.core.partition import BubblePartitioner, partition_job
from repro.core.shuffle import ShuffleScheme, connection_count, select_scheme
from repro.sim.cluster import Cluster
from repro.sim.config import CacheWorkerConfig, DiskConfig, ShuffleConfig
from repro.core.cache_worker import CacheWorker
from repro.sim.disk import DiskModel
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Random layered DAGs
# ----------------------------------------------------------------------

@st.composite
def layered_dags(draw):
    """Random layered DAGs: every stage in layer i feeds >=1 stage in some
    later layer, so the graph is acyclic by construction."""
    n_layers = draw(st.integers(min_value=1, max_value=5))
    layer_sizes = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n_layers)]
    stages: list[Stage] = []
    names_by_layer: list[list[str]] = []
    for layer, size in enumerate(layer_sizes):
        names = []
        for i in range(size):
            name = f"L{layer}N{i}"
            blocking = draw(st.booleans())
            operators = ops(K.SHUFFLE_READ, K.MERGE_SORT if blocking else K.FILTER)
            stages.append(
                Stage(
                    name=name,
                    task_count=draw(st.integers(min_value=1, max_value=6)),
                    operators=operators,
                    output_bytes_per_task=float(draw(st.integers(0, 10))) * 1e6,
                    work_seconds_per_task=1.0,
                )
            )
            names.append(name)
        names_by_layer.append(names)
    edges: list[Edge] = []
    seen: set[tuple[str, str]] = set()
    for layer in range(1, n_layers):
        for dst in names_by_layer[layer]:
            n_preds = draw(st.integers(min_value=1, max_value=len(names_by_layer[layer - 1])))
            for src in names_by_layer[layer - 1][:n_preds]:
                if (src, dst) not in seen:
                    seen.add((src, dst))
                    edges.append(Edge(src, dst))
    return JobDAG("prop", stages, edges)


@given(layered_dags())
@settings(max_examples=60, deadline=None)
def test_partition_covers_each_stage_exactly_once(dag):
    graph = partition_job(dag)
    names = sorted(n for g in graph.graphlets for n in g.stage_names)
    assert names == sorted(dag.stages)


@given(layered_dags())
@settings(max_examples=60, deadline=None)
def test_internal_barriers_only_via_pipeline_bridges(dag):
    """Algorithm 2 groups stages along pipeline edges, so a barrier edge can
    land inside a graphlet only when its endpoints are *also* connected by a
    pipeline path (a diamond with one blocking arm).  Verify exactly that."""
    graph = partition_job(dag)
    # Union-find over pipeline edges.
    parent = {name: name for name in dag.stages}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in dag.edges:
        if dag.edge_mode(edge) == EdgeMode.PIPELINE:
            parent[find(edge.src)] = find(edge.dst)
    for edge in dag.edges:
        same_unit = (
            graph.stage_to_graphlet[edge.src] == graph.stage_to_graphlet[edge.dst]
        )
        if same_unit and dag.edge_mode(edge) == EdgeMode.BARRIER:
            assert find(edge.src) == find(edge.dst)


@given(layered_dags())
@settings(max_examples=60, deadline=None)
def test_raw_partition_keeps_pipeline_components_together(dag):
    """Raw Algorithms 1-2 (no acyclicity enforcement): any two stages joined
    by a pipeline edge land in the same graphlet."""
    from repro.core.partition import SwiftPartitioner

    graph = SwiftPartitioner(enforce_acyclic=False).partition(dag)
    for edge in dag.edges:
        if dag.edge_mode(edge) == EdgeMode.PIPELINE:
            assert graph.stage_to_graphlet[edge.src] == graph.stage_to_graphlet[edge.dst]


@given(layered_dags())
@settings(max_examples=40, deadline=None)
def test_graphlet_submission_order_is_always_topological(dag):
    graph = partition_job(dag)
    order = graph.submission_order()
    position = {gid: i for i, gid in enumerate(order)}
    for gid, deps in graph.dependencies.items():
        for dep in deps:
            assert position[dep] < position[gid]


@given(layered_dags(), st.floats(min_value=1e3, max_value=1e12))
@settings(max_examples=30, deadline=None)
def test_bubble_partition_also_covers_all_stages(dag, budget):
    graph = BubblePartitioner(memory_budget_bytes=budget).partition(dag)
    names = sorted(n for g in graph.graphlets for n in g.stage_names)
    assert names == sorted(dag.stages)


# ----------------------------------------------------------------------
# Shuffle formulas
# ----------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_local_never_more_connections_than_direct_when_y_small(m, n, y):
    if y * (y - 1) // 2 <= m * n - m - n:  # the paper's regime: Y << M, N
        local = connection_count(ShuffleScheme.LOCAL, m, n, y)
        direct = connection_count(ShuffleScheme.DIRECT, m, n, y)
        assert local <= direct


@given(st.integers(min_value=0, max_value=10**7))
@settings(max_examples=100)
def test_adaptive_selection_total(edge_size):
    scheme = select_scheme(edge_size, ShuffleConfig())
    assert scheme in (ShuffleScheme.DIRECT, ShuffleScheme.REMOTE, ShuffleScheme.LOCAL)
    if edge_size <= 10_000:
        assert scheme == ShuffleScheme.DIRECT
    elif edge_size <= 90_000:
        assert scheme == ShuffleScheme.REMOTE
    else:
        assert scheme == ShuffleScheme.LOCAL


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
@settings(max_examples=100)
def test_quantile_bounded_and_monotone(values):
    q25 = quantile(values, 0.25)
    q75 = quantile(values, 0.75)
    assert min(values) <= q25 <= q75 <= max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=100)
def test_four_quartile_summary_invariants(values):
    summary = four_quartile_summary(values)
    assert summary["min"] <= summary["q1"] <= summary["median"]
    assert summary["median"] <= summary["q3"] <= summary["max"]
    assert summary["min"] <= summary["iq_mean"] <= summary["max"]


@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
            lambda p: (min(p), max(p))
        ),
        max_size=50,
    )
)
@settings(max_examples=60)
def test_utilization_series_never_negative_and_ends_at_zero(intervals):
    horizon = max((e for _, e in intervals), default=0.0) + 1.0
    series = utilization_series(intervals, step=1.0, horizon=horizon)
    assert all(s.running_executors >= 0 for s in series)
    assert series[-1].running_executors == 0


# ----------------------------------------------------------------------
# Cache worker accounting
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),        # edge id
            st.floats(min_value=0, max_value=40 * 1024**2),  # bytes
            st.integers(min_value=1, max_value=3),        # consumers
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_cache_worker_memory_never_exceeds_capacity(operations):
    config = CacheWorkerConfig(memory_capacity=100 * 1024**2)
    worker = CacheWorker(0, config, DiskModel(DiskConfig()))
    for t, (edge, n_bytes, consumers) in enumerate(operations):
        worker.write("job", f"e{edge}", n_bytes, consumers, now=float(t))
        assert worker.bytes_in_memory <= config.memory_capacity + 1e-6
        assert worker.bytes_in_memory >= 0
    worker.release_job("job")
    assert worker.bytes_in_memory == 0.0
    assert len(worker) == 0


#: One random Cache Worker operation: (op, edge id, bytes, consumers).
_cache_ops = st.tuples(
    st.sampled_from(["write", "read", "consume", "drop_all", "release_job"]),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0, max_value=60 * 1024**2),
    st.integers(min_value=1, max_value=4),
)


@given(
    st.lists(_cache_ops, min_size=1, max_size=40),
    st.sampled_from([32 * 1024**2, 100 * 1024**2]),
)
@settings(max_examples=80, deadline=None)
# A read reorders the LRU map, which is the counter's summation order; the
# counter must follow or it drifts from the entry sum by one ulp.
@example(
    operations=[("write", 0, 1.6276050405576825, 1), ("write", 1, 4194301.0, 1),
                ("write", 2, 1.4, 1), ("read", 0, 0.0, 1)],
    capacity=32 * 1024**2,
)
def test_cache_worker_invariants_under_interleavings(operations, capacity):
    """Arbitrary write/read/consume/drop_all/release_job interleavings keep
    the memory counter equal to the entry-map sum, never negative, never
    over capacity — with a strict audit ledger attached, so any shadow
    divergence raises immediately."""
    from repro.audit import ResourceLedger

    config = CacheWorkerConfig(memory_capacity=capacity)
    worker = CacheWorker(0, config, DiskModel(DiskConfig()))
    worker.ledger = ledger = ResourceLedger(strict=True)
    jobs = ("jobA", "jobB")
    for t, (op, edge, n_bytes, consumers) in enumerate(operations):
        job_id = jobs[edge % 2]
        key = f"e{edge}"
        if op == "write":
            worker.write(job_id, key, n_bytes, consumers, now=float(t))
        elif op == "read":
            assert worker.read(job_id, key, now=float(t)) >= 0.0
        elif op == "consume":
            worker.consume(job_id, key)
        elif op == "drop_all":
            worker.drop_all()
        else:
            worker.release_job(job_id)
        entry_sum = sum(e.bytes_in_memory for e in worker.iter_entries())
        assert worker.memory_used == entry_sum
        assert 0.0 <= worker.bytes_in_memory <= capacity + 1e-6
        ledger.reconcile_cache_worker(worker, checkpoint=f"op{t}")
    worker.drop_all()
    assert worker.bytes_in_memory == 0.0
    assert ledger.ok


#: One random replicated-shuffle operation: (op, edge id, bytes).
_replica_ops = st.tuples(
    st.sampled_from(["write", "spill_pressure", "consume"]),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=1.0, max_value=10 * 1024**2),
)


@given(
    st.lists(_replica_ops, min_size=1, max_size=25),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_replication_invariants_under_interleavings(operations, lose_replica):
    """Shuffle replication conserves replica bytes across arbitrary
    write/spill/failover/consume interleavings, and a failover read serves
    exactly the bytes the primary held — never a truncated or inflated
    share.  A strict ledger shadows every transition."""
    from repro.audit import ResourceLedger

    config = CacheWorkerConfig(memory_capacity=32 * 1024**2)
    ledger = ResourceLedger(strict=True)
    primary = CacheWorker(0, config, DiskModel(DiskConfig()))
    replica = CacheWorker(1, config, DiskModel(DiskConfig()))
    primary.ledger = replica.ledger = ledger
    live = set()
    for t, (op, edge, n_bytes) in enumerate(operations):
        key = f"e{edge}"
        if op == "write":
            # Replicated store: the same bytes land on every group member,
            # with the redundant copy flagged for replica accounting.
            primary.write("job", key, n_bytes, 1, now=float(t))
            replica.write("job", key, n_bytes, 1, now=float(t), replica=True)
            live.add(key)
        elif op == "spill_pressure":
            # An unrelated tenant squeezes one worker's memory; spill moves
            # bytes to disk but must not change any entry's total.
            primary.write("other", "squeeze", n_bytes, 1, now=float(t))
            primary.consume("other", "squeeze")
        elif key in live:
            primary.consume("job", key)
            replica.consume("job", key)
            live.discard(key)
        for worker in (primary, replica):
            ledger.reconcile_cache_worker(worker, checkpoint=f"op{t}")
    # Failover: kill the primary and serve every surviving share from the
    # replica — byte-identical to what the primary held.
    lost = {e.key: e.total_bytes for e in primary.drop_all(now=99.0)
            if e.key[0] == "job"}
    for key in live:
        survivor = replica.entry("job", key)
        assert survivor is not None
        assert survivor.total_bytes == pytest.approx(lost[("job", key)])
        assert replica.read("job", key, now=100.0) >= 0.0
    # Drain the replica the way the runtime would (consume or lose it) and
    # check conservation: written == released + dropped, nothing leaks.
    if lose_replica:
        replica.drop_all(now=101.0)
    else:
        replica.release_job("job", now=101.0)
    assert ledger.ok
    assert ledger.replica_bytes_outstanding == pytest.approx(0.0, abs=1e-3)
    assert ledger.replica_bytes_written_total == pytest.approx(
        ledger.replica_bytes_released_total + ledger.replica_bytes_dropped_total
    )


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cache_worker_spill_read_back_never_exceeds_spilled(consumer_counts):
    """Every consumer of a spilled entry pays the share snapshotted at
    spill time, and the total charged never exceeds the spilled bytes
    (the old shrinking-denominator formula over-charged late readers)."""
    mb = 1024**2
    config = CacheWorkerConfig(memory_capacity=64 * mb)
    worker = CacheWorker(0, config, DiskModel(DiskConfig()))
    for i, consumers in enumerate(consumer_counts):
        worker.write("job", f"e{i}", 40 * mb, consumers, now=float(i))
    # The last write left earlier entries spilled; drain every consumer.
    for i, consumers in enumerate(consumer_counts):
        entry = worker.entry("job", f"e{i}")
        assert entry is not None
        for r in range(consumers):
            worker.read("job", f"e{i}", now=100.0 + r)
        assert entry.bytes_read_back <= entry.bytes_on_disk + 1e-6
        # Further reads are free: all spilled bytes are promoted.
        before = entry.bytes_read_back
        assert worker.read("job", f"e{i}", now=200.0) == 0.0 or (
            entry.bytes_read_back == before
        )


# ----------------------------------------------------------------------
# Event engine ordering
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=100))
@settings(max_examples=60)
def test_simulator_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    executed: list[float] = []
    for delay in delays:
        sim.schedule(delay, lambda: executed.append(sim.now))
    sim.run()
    assert executed == sorted(executed)
    assert len(executed) == len(delays)


# ----------------------------------------------------------------------
# End-to-end smoke over random DAGs
# ----------------------------------------------------------------------

@given(layered_dags())
@settings(max_examples=20, deadline=None)
def test_runtime_completes_any_layered_dag(dag):
    from repro.core.policies import swift_policy
    from repro.core.runtime import SwiftRuntime
    from repro.core.dag import Job

    cluster = Cluster.build(4, 16)
    runtime = SwiftRuntime(cluster, swift_policy())
    result = runtime.execute(Job(dag=dag))
    assert result.completed
    assert len(result.metrics.tasks) >= dag.total_tasks()
    assert cluster.free_executor_count() == cluster.total_executors()
    assert math.isfinite(result.metrics.run_time)


@given(layered_dags())
@settings(max_examples=15, deadline=None)
def test_runtime_barrier_edges_never_start_before_producer(dag):
    """Causality: a consumer's data never arrives before every barrier
    producer stage has finished, on arbitrary DAGs."""
    from repro.core.dag import Job
    from repro.core.policies import swift_policy
    from repro.core.runtime import SwiftRuntime

    runtime = SwiftRuntime(Cluster.build(4, 16), swift_policy())
    result = runtime.execute(Job(dag=dag))
    assert result.completed
    finish_by_stage: dict[str, float] = {}
    for t in result.metrics.tasks:
        finish_by_stage[t.stage] = max(finish_by_stage.get(t.stage, 0.0), t.finish)
    graph = runtime.job_runs[dag.job_id].graphlets
    for edge in dag.edges:
        cross = graph.stage_to_graphlet[edge.src] != graph.stage_to_graphlet[edge.dst]
        if not cross and dag.edge_mode(edge) == EdgeMode.PIPELINE:
            continue
        producer_finish = finish_by_stage[edge.src]
        consumer_data = min(
            t.data_arrive for t in result.metrics.tasks if t.stage == edge.dst
        )
        assert consumer_data >= producer_finish - 1e-6


@given(
    st.lists(
        st.sampled_from(
            "select from where group by order limit join on and or not "
            "( ) , . * = < > <> 'str' 1 2.5 ident tbl sum case when then "
            "else end in between is null as".split()
        ),
        max_size=25,
    )
)
@settings(max_examples=200, deadline=None)
def test_parser_total_on_token_soup(words):
    """The parser either parses or raises ParseError — never crashes."""
    from repro.sql.parser import ParseError, parse

    source = "select " + " ".join(words)
    try:
        parse(source)
    except ParseError:
        pass
