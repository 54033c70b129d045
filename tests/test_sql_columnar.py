"""Tests for the columnar SQL engine and the engine dispatcher.

The correctness contract is differential: on every TPC-H query and on
assorted plan shapes, the columnar engine must return *exactly* the rows
the row executor returns — same values, same order, same key sets.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, RecordingTracer
from repro.sql import (
    DEFAULT_CATALOG,
    FIG1_QUERY,
    ColumnarExecutor,
    QueryExecutor,
    compile_kernel,
    execute_sql,
    generate_database,
    parse,
    plan_statement,
    run_query,
)
from repro.sql.ast import BinaryOp, ColumnRef, Literal
from repro.sql.columnar import ColumnBatch
from repro.workloads.tpch_sql import TPCH_SQL, run_tpch_query, runnable_queries


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=5)


def _row_engine(sql, database):
    plan = plan_statement(parse(sql), DEFAULT_CATALOG)
    return QueryExecutor(database, DEFAULT_CATALOG).execute(plan)


def _columnar_engine(sql, database, batch_size=4096):
    plan = plan_statement(parse(sql), DEFAULT_CATALOG)
    executor = ColumnarExecutor(database, DEFAULT_CATALOG, batch_size=batch_size)
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


@pytest.mark.parametrize("batch_size", [1, 7, 100, 4096])
def test_batch_size_never_changes_results(batch_size, db):
    # Batch boundaries are an implementation detail: results must be
    # byte-identical whether a table spans one batch or hundreds.
    for query in (1, 3, 13):
        expected = _row_engine(TPCH_SQL[query], db)
        assert _columnar_engine(TPCH_SQL[query], db, batch_size) == expected


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
    assert counters["sql_columnar_aggregate_batches"] >= 1
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
