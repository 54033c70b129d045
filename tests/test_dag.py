"""Tests for the DAG job model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import DAGValidationError, Edge, EdgeMode, Job, JobDAG, Stage

from conftest import chain_dag, diamond_dag, make_stage


def test_stage_validation():
    with pytest.raises(DAGValidationError):
        Stage(name="", task_count=1)
    with pytest.raises(DAGValidationError):
        Stage(name="s", task_count=0)
    with pytest.raises(DAGValidationError):
        Stage(name="s", task_count=1, scan_bytes_per_task=-1)
    with pytest.raises(DAGValidationError):
        Stage(name="s", task_count=1, output_bytes_per_task=-1)
    with pytest.raises(DAGValidationError):
        Stage(name="s", task_count=1, work_seconds_per_task=-1)


def test_edge_validation():
    with pytest.raises(DAGValidationError):
        Edge("a", "a")
    with pytest.raises(DAGValidationError):
        Edge("a", "b", bytes_override=-1)
    with pytest.raises(DAGValidationError):
        Edge("a", "b", bytes_override=math.nan)


@pytest.mark.parametrize(
    "field, value",
    [
        ("scan_bytes_per_task", math.nan),
        ("scan_bytes_per_task", math.inf),
        ("output_bytes_per_task", math.nan),
        ("work_seconds_per_task", math.inf),
        ("work_seconds_per_task", math.nan),
        ("work_seconds_per_task", "1"),
        ("task_count", 2.5),
        ("task_count", 4.0),
        ("task_count", True),
        ("task_count", "4"),
        ("task_count", None),
    ],
)
def test_stage_rejects_non_finite_amounts_and_non_int_counts(field, value):
    with pytest.raises(DAGValidationError):
        Stage(**{"name": "s", "task_count": 1, field: value})


def test_duplicate_stage_name_rejected():
    with pytest.raises(DAGValidationError):
        JobDAG("j", [make_stage("a"), make_stage("a")], [])


def test_edge_to_unknown_stage_rejected():
    with pytest.raises(DAGValidationError):
        JobDAG("j", [make_stage("a")], [Edge("a", "ghost")])
    with pytest.raises(DAGValidationError):
        JobDAG("j", [make_stage("a")], [Edge("ghost", "a")])


def test_cycle_detected():
    stages = [make_stage("a"), make_stage("b"), make_stage("c")]
    edges = [Edge("a", "b"), Edge("b", "c"), Edge("c", "a")]
    with pytest.raises(DAGValidationError):
        JobDAG("cyclic", stages, edges)


def test_topo_order_respects_edges():
    dag = diamond_dag()
    order = dag.topo_order()
    assert order.index("A") < order.index("B")
    assert order.index("A") < order.index("C")
    assert order.index("B") < order.index("D")
    assert order.index("C") < order.index("D")


def test_roots_and_sinks():
    dag = diamond_dag()
    assert dag.roots() == ["A"]
    assert dag.sinks() == ["D"]


def test_predecessors_successors():
    dag = diamond_dag()
    assert set(dag.predecessors("D")) == {"B", "C"}
    assert set(dag.successors("A")) == {"B", "C"}
    assert dag.predecessors("A") == []


def test_edge_mode_derived_from_producer():
    dag = chain_dag(blocking_stages=(1,))
    e12, e23 = dag.out_edges("S1")[0], dag.out_edges("S2")[0]
    assert dag.edge_mode(e12) == EdgeMode.BARRIER
    assert dag.edge_mode(e23) == EdgeMode.PIPELINE


def test_edge_mode_explicit_override_wins():
    stages = [make_stage("a", blocking=True), make_stage("b")]
    dag = JobDAG("j", stages, [Edge("a", "b", mode=EdgeMode.PIPELINE)])
    assert dag.edge_mode(dag.edges[0]) == EdgeMode.PIPELINE


def test_edge_bytes_split_across_fanout():
    dag = diamond_dag()
    producer = dag.stage("A")
    for edge in dag.out_edges("A"):
        assert dag.edge_bytes(edge) == pytest.approx(producer.total_output_bytes / 2)


def test_edge_bytes_override():
    stages = [make_stage("a"), make_stage("b")]
    dag = JobDAG("j", stages, [Edge("a", "b", bytes_override=123.0)])
    assert dag.edge_bytes(dag.edges[0]) == 123.0


def test_edge_size_is_m_times_n():
    stages = [make_stage("a", tasks=7), make_stage("b", tasks=5)]
    dag = JobDAG("j", stages, [Edge("a", "b")])
    assert dag.edge_size(dag.edges[0]) == 35


def test_total_tasks():
    dag = chain_dag(tasks=4, n_stages=3)
    assert dag.total_tasks() == 12


def test_critical_path_is_longest_chain():
    dag = diamond_dag()
    path = dag.critical_path_stages()
    assert path[0] == "A"
    assert path[-1] == "D"
    assert len(path) == 3


def test_iteration_yields_topo_order():
    dag = chain_dag()
    assert [s.name for s in dag] == dag.topo_order()
    assert len(dag) == 3


def test_stage_is_blocking_property():
    blocking = make_stage("x", blocking=True)
    assert blocking.is_blocking
    assert not make_stage("y").is_blocking


def test_empty_dag_rejected_by_validate():
    dag = JobDAG("empty", [], [])
    with pytest.raises(DAGValidationError):
        dag.validate()


def test_job_wrapper():
    dag = chain_dag()
    job = Job(dag=dag, submit_time=5.0, tags={"k": 1})
    assert job.job_id == dag.job_id
    assert job.submit_time == 5.0
    assert job.tags["k"] == 1


def test_multi_root_dag():
    stages = [make_stage("a", scan_mb=1), make_stage("b", scan_mb=1), make_stage("j")]
    dag = JobDAG("j", stages, [Edge("a", "j"), Edge("b", "j")])
    assert set(dag.roots()) == {"a", "b"}
    assert dag.sinks() == ["j"]


# ----------------------------------------------------------------------
# Constructor fuzz: a bad value raises DAGValidationError, never anything else
# ----------------------------------------------------------------------

_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
)


def _amount_ok(value: object) -> bool:
    return (
        type(value) in (int, float) and not math.isnan(value) and 0 <= value < math.inf
    )


@settings(max_examples=300, deadline=None)
@given(count=_ANY_VALUE, scan=_ANY_VALUE, output=_ANY_VALUE, work=_ANY_VALUE)
def test_stage_accepts_exactly_finite_amounts_and_positive_int_counts(count, scan, output, work):
    valid = (
        type(count) is int and count >= 1
        and _amount_ok(scan) and _amount_ok(output)
        and (work is None or _amount_ok(work))
    )
    try:
        stage = Stage("s", count, scan_bytes_per_task=scan,
                      output_bytes_per_task=output, work_seconds_per_task=work)
    except DAGValidationError:
        assert not valid
    else:
        assert valid
        assert stage.total_output_bytes >= 0


_NAMES = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=300, deadline=None)
@given(
    stages=st.lists(st.tuples(_NAMES, st.integers(min_value=1, max_value=5)), max_size=4),
    edges=st.lists(st.tuples(_NAMES, _NAMES, _ANY_VALUE), max_size=6),
)
def test_job_dag_is_valid_or_raises_dag_validation_error(stages, edges):
    """Random stages and edges (duplicates, self-edges, unknown ends,
    cycles, bad byte overrides) build a DAG or raise
    ``DAGValidationError``; a built DAG orders every edge forwards."""
    try:
        dag = JobDAG(
            "j",
            [Stage(name, count) for name, count in stages],
            [Edge(src, dst, bytes_override=size) for src, dst, size in edges],
        )
    except DAGValidationError:
        return
    position = {name: i for i, name in enumerate(dag.topo_order())}
    assert len(position) == len(stages)
    for edge in dag.edges:
        assert position[edge.src] < position[edge.dst]
        assert dag.edge_bytes(edge) >= 0
