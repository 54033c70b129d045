"""Tests for the row-level query executor."""

from __future__ import annotations

import pytest

from repro.sql import FIG1_QUERY, generate_database, run_sql
from repro.sql.executor import ExecutionError, eval_expr
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=11)


def expr(text):
    return parse(f"select {text} from t").select_items[0].expr


def test_eval_arithmetic():
    row = {"a": 10, "b": 3}
    assert eval_expr(expr("a + b * 2"), row) == 16
    assert eval_expr(expr("(a - b) / 7"), row) == 1
    assert eval_expr(expr("a % b"), row) == 1
    assert eval_expr(expr("-a"), row) == -10


def test_eval_comparisons_and_logic():
    row = {"x": 5, "y": "abc"}
    assert eval_expr(expr("x >= 5 and x < 6"), row) is True
    assert eval_expr(expr("x <> 5 or y = 'abc'"), row) is True
    assert eval_expr(expr("not x = 5"), row) is False


def test_eval_like():
    row = {"name": "forest green metal"}
    assert eval_expr(expr("name like '%green%'"), row) is True
    assert eval_expr(expr("name like 'green%'"), row) is False


def test_eval_substr_and_concat():
    row = {"d": "1997-03-15"}
    assert eval_expr(expr("substr(d, 1, 4)"), row) == "1997"
    assert eval_expr(expr("substr(d, 6)"), row) == "03-15"
    assert eval_expr(expr("'y' || d"), row) == "y1997-03-15"


def test_eval_null_propagation():
    row = {"a": None, "b": 1}
    assert eval_expr(expr("a + b"), row) is None
    assert eval_expr(expr("coalesce(a, b)"), row) == 1


def test_eval_qualified_names():
    row = {"t.a": 7, "a": 7}
    assert eval_expr(expr("t.a"), row) == 7


def test_missing_column_raises():
    with pytest.raises(ExecutionError):
        eval_expr(expr("ghost"), {"a": 1})


def test_scan_and_filter(db):
    rows = run_sql("select s_name from supplier where s_suppkey < 3", db).rows
    assert len(rows) == 3
    assert all("Supplier#" in r["s_name"] for r in rows)


def test_projection_expression(db):
    rows = run_sql(
        "select l_extendedprice * (1 - l_discount) as revenue from lineitem", db
    ).rows
    assert all(r["revenue"] >= 0 for r in rows)


def test_join_matches_foreign_keys(db):
    rows = run_sql(
        "select o.o_orderkey, c.c_name from orders o "
        "join customer c on o.o_custkey = c.c_custkey",
        db,
    ).rows
    assert len(rows) == len(db["orders"])


def test_left_join_keeps_unmatched(db):
    inner = run_sql(
        "select c.c_custkey from customer c "
        "join orders o on o.o_custkey = c.c_custkey",
        db,
    ).rows
    left = run_sql(
        "select c.c_custkey from customer c "
        "left join orders o on o.o_custkey = c.c_custkey",
        db,
    ).rows
    assert len(left) >= len(inner)
    assert len({r["c_custkey"] for r in left}) == len(db["customer"])


def test_group_by_aggregates(db):
    rows = run_sql(
        "select l_returnflag, count(*) as n, sum(l_quantity) as q, "
        "avg(l_quantity) as a, min(l_quantity) as lo, max(l_quantity) as hi "
        "from lineitem group by l_returnflag",
        db,
    ).rows
    total = sum(r["n"] for r in rows)
    assert total == len(db["lineitem"])
    for r in rows:
        assert r["lo"] <= r["a"] <= r["hi"]
        assert r["q"] == pytest.approx(r["a"] * r["n"])


def test_global_aggregate_without_groups(db):
    rows = run_sql("select count(*) as n from lineitem", db).rows
    assert rows == [{"n": len(db["lineitem"])}]


def test_having_filters_groups(db):
    rows = run_sql(
        "select l_returnflag, count(*) as n from lineitem "
        "group by l_returnflag having count(*) > 100000",
        db,
    ).rows
    assert rows == []


def test_order_by_and_limit(db):
    rows = run_sql(
        "select o_orderkey, o_totalprice from orders "
        "order by o_totalprice desc limit 5",
        db,
    ).rows
    assert len(rows) == 5
    prices = [r["o_totalprice"] for r in rows]
    assert prices == sorted(prices, reverse=True)


def test_distinct(db):
    rows = run_sql("select distinct l_returnflag from lineitem", db).rows
    flags = {r["l_returnflag"] for r in rows}
    assert len(rows) == len(flags) <= 3


def test_count_distinct(db):
    rows = run_sql("select count(distinct l_returnflag) as n from lineitem", db).rows
    assert 1 <= rows[0]["n"] <= 3


def test_fig1_query_returns_profit_by_nation_year(db):
    rows = run_sql(FIG1_QUERY, db).rows
    assert rows, "Fig. 1 query returned no rows"
    for row in rows:
        assert set(row) == {"nation", "o_year", "sum_profit"}
        assert len(row["o_year"]) == 4
    # Order by nation asc, o_year desc.
    keys = [(r["nation"], r["o_year"]) for r in rows]
    assert keys == sorted(keys, key=lambda k: (k[0],))
    nations = {r["nation"] for r in rows}
    assert len(nations) > 1


def test_fig1_matches_manual_computation(db):
    """Cross-check the executor against a hand-rolled computation."""
    expected: dict[tuple[str, str], float] = {}
    nation_by_key = {n["n_nationkey"]: n["n_name"] for n in db["nation"]}
    supplier_nation = {s["s_suppkey"]: nation_by_key[s["s_nationkey"]] for s in db["supplier"]}
    ps_cost = {(p["ps_partkey"], p["ps_suppkey"]): p["ps_supplycost"] for p in db["partsupp"]}
    order_year = {o["o_orderkey"]: o["o_orderdate"][:4] for o in db["orders"]}
    green = {p["p_partkey"] for p in db["part"] if "green" in p["p_name"]}
    for l in db["lineitem"]:
        if l["l_partkey"] not in green:
            continue
        key = (supplier_nation[l["l_suppkey"]], order_year[l["l_orderkey"]])
        amount = (
            l["l_extendedprice"] * (1 - l["l_discount"])
            - ps_cost[(l["l_partkey"], l["l_suppkey"])] * l["l_quantity"]
        )
        expected[key] = expected.get(key, 0.0) + amount
    rows = run_sql(FIG1_QUERY, db).rows
    got = {(r["nation"], r["o_year"]): r["sum_profit"] for r in rows}
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value)


def test_datagen_deterministic():
    a = generate_database(seed=3)
    b = generate_database(seed=3)
    assert a["lineitem"] == b["lineitem"]
    c = generate_database(seed=4)
    assert a["lineitem"] != c["lineitem"]


def test_datagen_foreign_keys_valid(db):
    suppliers = {s["s_suppkey"] for s in db["supplier"]}
    parts = {p["p_partkey"] for p in db["part"]}
    orders = {o["o_orderkey"] for o in db["orders"]}
    ps_pairs = {(p["ps_partkey"], p["ps_suppkey"]) for p in db["partsupp"]}
    for l in db["lineitem"]:
        assert l["l_suppkey"] in suppliers
        assert l["l_partkey"] in parts
        assert l["l_orderkey"] in orders
        assert (l["l_partkey"], l["l_suppkey"]) in ps_pairs


def test_eval_case_when():
    row = {"x": 5}
    assert eval_expr(
        expr("case when x > 3 then 'big' when x > 0 then 'small' else 'neg' end"),
        row,
    ) == "big"
    assert eval_expr(expr("case when x < 0 then 1 end"), row) is None


def test_eval_in_list():
    row = {"mode": "AIR"}
    assert eval_expr(expr("mode in ('AIR', 'MAIL')"), row) is True
    assert eval_expr(expr("mode not in ('AIR', 'MAIL')"), row) is False
    assert eval_expr(expr("mode in ('SHIP')"), row) is False


def test_q12_style_case_aggregation(db):
    """TPC-H Q12 shape: conditional counts via sum(case when ...)."""
    rows = run_sql(
        "select l_shipmode, "
        "sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 "
        "else 0 end) as high_line_count, "
        "count(*) as total "
        "from orders o join lineitem l on o.o_orderkey = l.l_orderkey "
        "where l_shipmode in ('AIR', 'MAIL') "
        "group by l_shipmode order by l_shipmode",
        db,
    ).rows
    assert [r["l_shipmode"] for r in rows] == ["AIR", "MAIL"]
    for r in rows:
        assert 0 <= r["high_line_count"] <= r["total"]
