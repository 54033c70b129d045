"""Tests for the TPC-H Swift-dialect query texts: parse, plan, execute."""

from __future__ import annotations

import pytest

from repro.core.partition import partition_job
from repro.sql import compile_sql, generate_database, parse, run_sql
from repro.workloads.tpch_sql import TPCH_SQL, query_sql, runnable_queries


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=5)


def test_registry():
    assert 9 in runnable_queries()
    assert query_sql(9) == TPCH_SQL[9]
    with pytest.raises(KeyError):
        query_sql(2)


@pytest.mark.parametrize("query", runnable_queries())
def test_all_texts_parse(query):
    statement = parse(TPCH_SQL[query])
    assert statement.select_items


@pytest.mark.parametrize("query", runnable_queries())
def test_all_texts_compile_to_dags(query):
    dag = compile_sql(TPCH_SQL[query], scale_factor=100, job_id=f"q{query}")
    dag.validate()
    graph = partition_job(dag)
    assert len(graph) >= 1


@pytest.mark.parametrize("query", runnable_queries())
def test_all_texts_execute_on_mini_db(query, db):
    rows = run_sql(TPCH_SQL[query], db).rows
    assert isinstance(rows, list)
    # Aggregation queries always produce at least one row on this data.
    if query not in (3,):
        assert rows


def test_q1_aggregate_consistency(db):
    rows = run_sql(TPCH_SQL[1], db).rows
    total = sum(r["count_order"] for r in rows)
    eligible = [l for l in db["lineitem"] if l["l_shipdate"] <= "1998-09-02"]
    assert total == len(eligible)
    for r in rows:
        assert r["avg_qty"] == pytest.approx(r["sum_qty"] / r["count_order"])


def test_q5_matches_manual(db):
    rows = run_sql(TPCH_SQL[5], db).rows
    revenues = [r["revenue"] for r in rows]
    assert revenues == sorted(revenues, reverse=True)
    for r in rows:
        assert r["revenue"] > 0


def test_q13_distribution_sums_to_customers(db):
    rows = run_sql(TPCH_SQL[13], db).rows
    assert sum(r["custdist"] for r in rows) == len(db["customer"])


def test_q14_promo_fraction_bounded(db):
    rows = run_sql(TPCH_SQL[14], db).rows
    value = rows[0]["promo_revenue"]
    if value is not None:
        assert 0.0 <= value <= 100.0


def test_q12_counts_partition(db):
    rows = run_sql(TPCH_SQL[12], db).rows
    for r in rows:
        assert r["high_line_count"] >= 0 and r["low_line_count"] >= 0
