"""Tests for the columnar SQL engine and the engine dispatcher.

The correctness contract is differential: on every TPC-H query and on
assorted plan shapes, the columnar engine must return *exactly* the rows
the row executor returns — same values, same order, same key sets.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.obs import MetricsRegistry, RecordingTracer
from repro.sql import (
    DEFAULT_CATALOG,
    FIG1_QUERY,
    ColumnarExecutor,
    QueryExecutor,
    columnar,
    compile_kernel,
    execute_sql,
    executor,
    generate_database,
    parse,
    plan_statement,
    run_query,
)
from repro.sql.ast import BinaryOp, ColumnRef, FunctionCall, Literal, Star
from repro.sql.columnar import ColumnBatch, ColumnVector, compile_plan, walk_ops
from repro.workloads.tpch_sql import TPCH_SQL, run_tpch_query, runnable_queries


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=5)


def _row_engine(sql, database):
    plan = plan_statement(parse(sql), DEFAULT_CATALOG)
    return QueryExecutor(database, DEFAULT_CATALOG).execute(plan)


def _columnar_engine(sql, database):
    plan = plan_statement(parse(sql), DEFAULT_CATALOG)
    executor = ColumnarExecutor(database, DEFAULT_CATALOG)
    return executor.execute(plan)


# ----------------------------------------------------------------------
# Differential correctness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("query", runnable_queries())
def test_tpch_columnar_matches_row_engine(query, db):
    expected = _row_engine(TPCH_SQL[query], db)
    assert _columnar_engine(TPCH_SQL[query], db) == expected


def test_fig1_query_matches_row_engine(db):
    expected = _row_engine(FIG1_QUERY, db)
    assert expected  # the Fig. 1 query produces rows on the mini database
    assert _columnar_engine(FIG1_QUERY, db) == expected


def test_auto_mode_run_query_matches_row_engine(db):
    # The package-level run_query routes through the dispatcher; on its
    # default engine it must return exactly what the row engine returns.
    for query in runnable_queries():
        expected = _row_engine(TPCH_SQL[query], db)
        assert run_query(TPCH_SQL[query], db) == expected


def test_run_tpch_query_engine_selection(db):
    expected = _row_engine(TPCH_SQL[6], db)
    assert run_tpch_query(6, db) == expected
    assert run_tpch_query(6, db, engine="row") == expected
    assert run_tpch_query(6, db, engine="columnar") == expected


def _compiled_ops(query, database):
    plan = plan_statement(parse(TPCH_SQL[query]), DEFAULT_CATALOG)
    return walk_ops(compile_plan(plan, database, DEFAULT_CATALOG))


def test_q3_where_conjuncts_filter_their_scans(db):
    ops = _compiled_ops(3, db)
    filters = [op for op in ops if op.kind == "filter"]
    # One filter directly above each filtered scan, none above the joins.
    assert sorted(f.child.detail for f in filters) == [
        "customer", "lineitem", "orders",
    ]
    assert all(f.child.kind == "scan" for f in filters)
    (aggregate,) = [op for op in ops if op.kind == "aggregate"]
    assert aggregate.child.kind == "join"


def _q9_join(database):
    plan = plan_statement(parse(TPCH_SQL[9]), DEFAULT_CATALOG)
    root = compile_plan(plan, database, DEFAULT_CATALOG)
    (join,) = [op for op in walk_ops(root) if op.kind == "join"]
    return root, join


def test_q9_runs_as_one_multi_way_join_starting_from_filtered_part(db):
    root, join = _q9_join(db)
    labels = [columnar._input_label(op) for op in join.inputs]
    assert labels == ["s", "l", "ps", "p", "o", "n"]
    part = join.inputs[labels.index("p")]
    assert part.kind == "filter" and part.child.detail == "part"
    ColumnarExecutor(db, DEFAULT_CATALOG).run(root)
    # Greedy by exact join size: lineitem meets the filtered part input
    # before it meets supplier, partsupp or orders.
    lineitem = labels.index("l")
    first = next(m for m in join.merges if lineitem in m[0] + m[1])
    assert sorted(first[:2]) == [(lineitem,), (labels.index("p"),)]
    assert len(join.merges) == len(join.inputs) - 1


def test_merge_order_is_formatted_only_when_stats_are_read(db, monkeypatch):
    calls = []
    label = columnar._input_label
    monkeypatch.setattr(columnar, "_input_label", lambda op: calls.append(op) or label(op))
    root, join = _q9_join(db)
    assert "order:" not in join.detail
    ColumnarExecutor(db, DEFAULT_CATALOG).run(root)
    assert not calls
    detail = join.stats()["detail"]
    assert calls
    order = detail.split(" | order: ")[1].split("; ")
    assert len(order) == 5 and "l x p -> " in detail


def test_q6_scan_reads_only_referenced_columns(db):
    (scan,) = [op for op in _compiled_ops(6, db) if op.kind == "scan"]
    assert sorted(scan.base_names) == [
        "l_discount", "l_extendedprice", "l_quantity", "l_shipdate",
    ]


# ----------------------------------------------------------------------
# Aggregates stay columnar
# ----------------------------------------------------------------------

def test_aggregate_never_leaves_columns(db, monkeypatch):
    # Inside the aggregate operator no row dict is built or read and the
    # row engine's per-group evaluator is never called.
    expected = {q: _row_engine(TPCH_SQL[q], db) for q in runnable_queries()}
    inside: list[object] = []
    apply = columnar._AggregateOp.apply

    def guarded(self, table):
        inside.append(self)
        try:
            return apply(self, table)
        finally:
            inside.pop()

    def forbid(name, real):
        def call(*args, **kwargs):
            assert not inside, f"{name} called inside _AggregateOp"
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(columnar._AggregateOp, "apply", guarded)
    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(
        forbid("from_rows", ColumnBatch.from_rows.__func__)))
    monkeypatch.setattr(ColumnBatch, "to_rows", forbid("to_rows", ColumnBatch.to_rows))
    monkeypatch.setattr(executor, "_eval_with_aggregates", forbid(
        "_eval_with_aggregates", executor._eval_with_aggregates))
    assert len(expected) == 10
    for query, rows in expected.items():
        assert _columnar_engine(TPCH_SQL[query], db) == rows, query


def test_row_engine_imports_only_shrink():
    # The columnar engine's imports from the row reference (ROADMAP item
    # 6's cut list): a change may remove names from this set, never add.
    sql_dir = Path(columnar.__file__).parent
    imported = {}
    for module in ("columnar.py", "kernels.py"):
        tree = ast.parse((sql_dir / module).read_text())
        imported[module] = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.level == 1 and node.module == "executor"
            for alias in node.names
        }
    assert imported == {
        "columnar.py": {
            "Database", "ExecutionError", "Row",
            "_extract_equi_keys", "_sort_key",
        },
        "kernels.py": {
            "ExecutionError", "_SCALAR_FUNCTIONS", "like_to_glob", "sql_like",
        },
    }


_AGG_INPUTS = {
    "int": [3, None, -1, 7, None, 2],
    "float": [1.5, None, 0.25, None, 4.0, -2.0],
    "str": ["b", None, "zz", "a", None, "c"],
    "bool": [True, None, False, None, True, False],
    "object": [1, 2.5, None, 4, None, 7],
}


@pytest.mark.parametrize("kind", sorted(_AGG_INPUTS))
@pytest.mark.parametrize("name", ["count", "sum", "avg", "min", "max"])
@pytest.mark.parametrize("gids", [
    [0, 0, 1, 2, 2, 2],  # group 1 holds one value
    [0, 1, 0, 2, 1, 0],  # group 1 is all NULL for every kind
    [0, 0, 0, 0, 0, 0],
])
def test_aggregate_vectors_encode_like_from_values(kind, name, gids):
    # Each aggregate's per-group vector is exactly the one
    # ColumnVector.from_values infers from its values: NULL lanes hold
    # zeros, an all-NULL result is an object column, and a string result's
    # dictionary holds only the values present in it.
    values = ColumnVector.from_values(_AGG_INPUTS[kind])
    table = ColumnBatch(["v"], {"v": values}, len(values))
    groups = np.array(gids, np.int64)
    n_groups = int(groups.max()) + 1
    call = FunctionCall(name, (ColumnRef("v"),))
    got = columnar._AggCall(call, ["v"]).compute(table, groups, n_groups)
    want = ColumnVector.from_values(got.to_pylist())
    assert got.kind == want.kind
    assert got.data.tolist() == want.data.tolist()
    assert (got.mask is None) == (want.mask is None)
    if want.mask is not None:
        assert got.mask.tolist() == want.mask.tolist()
    if want.kind == "str":
        assert got.dictionary.tolist() == want.dictionary.tolist()
    star = FunctionCall("count", (Star(),))
    counts = columnar._AggCall(star, ["v"]).compute(table, groups, n_groups)
    assert counts.kind == "int" and counts.mask is None


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def test_dispatcher_picks_columnar_for_supported_plans(db):
    outcome = execute_sql(TPCH_SQL[1], db)
    assert outcome.engine == "columnar"


def test_dispatcher_outcome_reports_engine(db):
    outcome = execute_sql(TPCH_SQL[6], db)
    assert outcome.engine == "columnar"
    assert outcome.elapsed_s >= 0.0
    forced = execute_sql(TPCH_SQL[6], db, engine="row")
    assert forced.engine == "row"
    assert forced.rows == outcome.rows


def test_dispatcher_runs_non_equi_join_columnar(db):
    # A join without an equi-key runs as a vectorized nested loop.
    sql = """
        select count(*) as n
        from tpch_nation a join tpch_nation b on a.n_nationkey < b.n_nationkey
    """
    outcome = execute_sql(sql, db)
    assert outcome.engine == "columnar"
    assert outcome.rows == [{"n": 300}]
    assert outcome.rows == _row_engine(sql, db)


def test_unknown_engine_rejected(db):
    for engine in ("gpu", "auto"):
        with pytest.raises(ValueError):
            execute_sql("select 1 as x from tpch_nation", db, engine=engine)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

def test_columnar_run_emits_metrics_and_spans(db):
    metrics = MetricsRegistry()
    tracer = RecordingTracer()
    outcome = execute_sql(
        TPCH_SQL[1], db, metrics=metrics, tracer=tracer
    )
    assert outcome.engine == "columnar"
    counters = metrics.to_dict()["counters"]
    assert counters["sql_queries"] == 1
    assert counters["sql_engine_columnar"] == 1
    assert counters["sql_columnar_scan_rows"] == len(db["lineitem"])
    assert counters["sql_columnar_aggregate_rows"] == len(outcome.rows)
    categories = {record.cat for record in tracer.records}
    assert "sql" in categories
    names = {record.name for record in tracer.records}
    assert "columnar.scan" in names
    assert "columnar.aggregate" in names


def test_row_engine_dispatch_also_counts(db):
    metrics = MetricsRegistry()
    execute_sql(TPCH_SQL[1], db, engine="row", metrics=metrics)
    counters = metrics.to_dict()["counters"]
    assert counters["sql_engine_row"] == 1


# ----------------------------------------------------------------------
# Kernel / batch primitives
# ----------------------------------------------------------------------

def test_column_batch_round_trip():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    batch = ColumnBatch.from_rows(rows, ["a", "b"])
    assert batch.length == 2
    assert batch.to_rows() == rows


def test_compile_kernel_null_semantics():
    # NULL comparison yields NULL (excluded by filters), like the row engine.
    expr = BinaryOp("<", ColumnRef("a"), Literal(5))
    kernel = compile_kernel(expr, ["a"])
    batch = ColumnBatch(["a"], {"a": [1, None, 9]}, 3)
    assert kernel(batch) == [True, None, False]


def test_compile_kernel_constant_on_empty_batch():
    # Constant kernels must not evaluate the expression when there are no
    # rows (the row engine never evaluates expressions for absent rows).
    expr = BinaryOp("/", Literal(1), Literal(0))
    kernel = compile_kernel(expr, [])
    empty = ColumnBatch([], {}, 0)
    assert kernel(empty) == []
