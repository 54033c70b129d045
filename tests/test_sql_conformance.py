"""SQL conformance corpus, parameterized over both execution engines.

Every case runs through :func:`repro.sql.run_sql` with
``engine`` set to ``row`` and to ``columnar`` and asserts identical
results, pinning down the semantic corners where vectorized rewrites
classically diverge from row-at-a-time interpreters: NULL
comparison and arithmetic, LIKE with ``_``/``%`` wildcards and glob
metacharacters in the data, CASE, IN lists, aggregates over empty input,
and duplicate group keys.
"""

from __future__ import annotations

import json

import pytest

from repro.sql import (
    Catalog,
    ColumnTable,
    ExecutionError,
    PlanError,
    SqlTypeError,
    TableSchema,
    generate_database,
    like_to_glob,
    parse,
    plan_statement,
    run_sql,
    sql_like,
)
from repro.sql.catalog import _cols
from repro.sql.columnar import ColumnarExecutor, compile_plan, walk_ops

ENGINES = ("row", "columnar")


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(TableSchema(
        "items",
        _cols("id:int", "price:float", "qty:int", "tag:str", "grp:str"),
        base_rows=10, bytes_per_row=50,
    ))
    catalog.register(TableSchema(
        "owners",
        _cols("oid:int", "owner:str"),
        base_rows=5, bytes_per_row=30,
    ))
    return catalog


def _numpy_catalog() -> Catalog:
    """Tables for the numpy-specific corpus (NaN, all-null, empty)."""
    catalog = _catalog()
    catalog.register(TableSchema(
        "metrics",
        _cols("m_id:int", "m_val:float", "m_grp:str"),
        base_rows=6, bytes_per_row=30,
    ))
    catalog.register(TableSchema(
        "blanks",
        _cols("b_id:int", "b_note:str", "b_val:float"),
        base_rows=4, bytes_per_row=30,
    ))
    return catalog


def _numpy_database() -> dict:
    nan = float("nan")
    database = _database()
    database["metrics"] = [
        {"m_id": 1, "m_val": 2.5, "m_grp": "x"},
        {"m_id": 2, "m_val": nan, "m_grp": "x"},
        {"m_id": 3, "m_val": None, "m_grp": "y"},
        {"m_id": 4, "m_val": -1.0, "m_grp": "y"},
        {"m_id": 5, "m_val": nan, "m_grp": "y"},
        {"m_id": 6, "m_val": 9.0, "m_grp": "x"},
    ]
    database["blanks"] = [
        {"b_id": i, "b_note": None, "b_val": None} for i in range(1, 5)
    ]
    return database


def _database() -> dict:
    return {
        "items": [
            {"id": 1, "price": 10.0, "qty": 2, "tag": "alpha", "grp": "a"},
            {"id": 2, "price": None, "qty": 5, "tag": "al_ha", "grp": "a"},
            {"id": 3, "price": 7.5, "qty": None, "tag": "10%", "grp": "b"},
            {"id": 4, "price": 2.5, "qty": 1, "tag": None, "grp": "b"},
            {"id": 5, "price": 100.0, "qty": 9, "tag": "10[%", "grp": "a"},
            {"id": 6, "price": 7.5, "qty": 3, "tag": "beta*", "grp": "b"},
        ],
        "owners": [
            {"oid": 1, "owner": "ada"},
            {"oid": 3, "owner": "bob"},
            {"oid": 99, "owner": "eve"},
        ],
    }


def _canon(rows):
    """Order-insensitive canonical form for queries without ORDER BY."""
    return sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)


#: (case id, SQL text, order_sensitive)
CORPUS = [
    ("null_comparison",
     "select id from items where price > 5 order by id", True),
    ("null_equality_excluded",
     "select id from items where price = price order by id", True),
    ("null_arithmetic",
     "select id, price * qty as total from items order by id", True),
    ("null_in_predicate",
     "select id from items where qty in (1, 2, 3) order by id", True),
    ("in_with_strings",
     "select id from items where grp in ('a', 'missing') order by id", True),
    ("like_underscore",
     "select id from items where tag like 'al_ha' order by id", True),
    ("like_percent",
     "select id from items where tag like '10%' order by id", True),
    ("like_glob_metachars",
     "select id from items where tag like 'beta*' order by id", True),
    ("case_when",
     "select id, case when qty > 2 then 'big' when qty is null then 'unknown' "
     "else 'small' end as size from items order by id", True),
    ("empty_input_aggregates",
     "select count(*) as n, sum(price) as total, min(qty) as lo, "
     "max(qty) as hi, avg(price) as mean from items where id > 100", True),
    ("duplicate_group_keys",
     "select grp, count(*) as n, sum(price) as total from items "
     "group by grp order by grp", True),
    ("grouped_avg_skips_nulls",
     "select grp, avg(price) as mean, avg(qty) as mean_qty from items "
     "group by grp order by grp", True),
    ("having_filter",
     "select grp, count(*) as n from items group by grp "
     "having count(*) > 2 order by grp", True),
    ("inner_join",
     "select i.id, o.owner from items i join owners o on i.id = o.oid "
     "order by i.id", True),
    ("left_join_unmatched",
     "select i.id, o.owner from items i left join owners o on i.id = o.oid "
     "order by i.id", True),
    ("non_equi_join",
     "select i.id, o.owner from items i join owners o on i.id < o.oid", True),
    ("left_non_equi_join",
     "select i.id, o.owner from items i left join owners o "
     "on i.qty > o.oid or o.owner like i.grp || '%'", True),
    ("distinct_rows",
     "select distinct grp, price from items", False),
    ("string_concat",
     "select id, grp || '-' || id as label from items order by id", True),
    ("limit_after_sort",
     "select id, price from items order by price desc, id limit 3", True),
    ("filter_and_or",
     "select id from items where (qty > 1 and price < 50) or grp = 'b' "
     "order by id", True),
    ("unary_negation",
     "select id, -price as neg from items where -price < -5 order by id", True),
    # a.grp and b.grp share the bare name grp: each group's representative
    # row must keep both qualified copies, not fall back to the bare one.
    ("self_join_group_by_qualified_shared_name",
     "select a.grp as agrp, b.grp as bgrp, count(*) as n from items a "
     "join items b on a.qty = b.id group by a.grp, b.grp "
     "order by agrp, bgrp", True),
]


@pytest.fixture(scope="module")
def setup():
    return _database(), _catalog()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case_id,sql,ordered", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_case_runs(engine, case_id, sql, ordered, setup):
    database, catalog = setup
    outcome = run_sql(sql, database, catalog=catalog, engine=engine)
    assert isinstance(outcome.rows, list)


@pytest.mark.parametrize("case_id,sql,ordered", CORPUS, ids=[c[0] for c in CORPUS])
def test_engines_agree(case_id, sql, ordered, setup):
    database, catalog = setup
    row = run_sql(sql, database, catalog=catalog, engine="row").rows
    columnar = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    if ordered:
        assert columnar == row
    else:
        assert _canon(columnar) == _canon(row)


def test_left_join_fills_missing_right_columns(setup):
    database, catalog = setup
    sql = ("select i.id, o.owner from items i left join owners o "
           "on i.id = o.oid order by i.id")
    rows = run_sql(sql, database, catalog=catalog, engine="row").rows
    assert {"id", "owner"} <= set(rows[0].keys())
    unmatched = [r for r in rows if r["owner"] is None]
    assert [r["id"] for r in unmatched] == [2, 4, 5, 6]


def test_left_join_empty_right_side(setup):
    database, catalog = setup
    # The right input planner-filters to nothing: NULL fill must come from
    # the static catalog schema, not from observed rows.
    sql = ("select i.id, o.owner from items i left join "
           "(select oid, owner from owners where 1 = 0) o on i.id = o.oid "
           "order by i.id")
    for engine in ENGINES:
        rows = run_sql(sql, database, catalog=catalog, engine=engine).rows
        assert len(rows) == len(database["items"])
        assert all(r["owner"] is None for r in rows)


def test_empty_aggregate_values(setup):
    database, catalog = setup
    sql = ("select count(*) as n, sum(price) as total, avg(price) as mean "
           "from items where id > 100")
    for engine in ENGINES:
        (row,) = run_sql(sql, database, catalog=catalog, engine=engine).rows
        assert row == {"n": 0, "total": None, "mean": None}


def test_like_to_glob_escapes_metacharacters():
    assert like_to_glob("10%") == "10*"
    assert like_to_glob("a_c") == "a?c"
    # Glob specials in the LIKE pattern must match literally.
    assert like_to_glob("10[%") == "10[[]*"
    assert like_to_glob("a*b?") == "a[*]b[?]"


def test_sql_like_literal_metacharacters():
    assert sql_like("10[x", "10[%")
    assert not sql_like("10x", "10[%")
    assert sql_like("a*b", "a*b")
    assert not sql_like("axb", "a*b")
    assert sql_like("anything", "%")
    assert sql_like("a", "_")
    assert not sql_like("ab", "_")


# ----------------------------------------------------------------------
# Numpy-specific semantics: NaN vs NULL, dictionary strings with glob
# metacharacters, empty batches, all-null columns.  Every case is
# differential: the row engine's answer is the spec.
# ----------------------------------------------------------------------

#: NaN is a *value* (counted, propagated through sums) while NULL is the
#: *absence* of one (skipped by aggregates, excluded by comparisons) —
#: the classic place a numpy rewrite conflates the two.
NAN_CORPUS = [
    ("nan_comparison_false",
     "select m_id from metrics where m_val > 1.0 order by m_id"),
    ("nan_not_self_equal",
     "select m_id from metrics where m_val = m_val order by m_id"),
    ("nan_is_not_null",
     "select m_id from metrics where m_val is null order by m_id"),
    ("nan_counted_not_skipped",
     "select count(*) as all_rows, count(m_val) as with_val from metrics"),
    ("nan_poisons_sum_and_avg",
     "select sum(m_val) as total, avg(m_val) as mean from metrics"),
    ("nan_grouped_aggregates",
     "select m_grp, count(m_val) as n, sum(m_val) as total from metrics "
     "group by m_grp order by m_grp"),
    ("nan_min_max_first_seen",
     "select m_grp, min(m_val) as lo, max(m_val) as hi from metrics "
     "group by m_grp order by m_grp"),
    ("nan_case_branch",
     "select m_id, case when m_val > 0 then 'pos' when m_val is null "
     "then 'none' else 'other' end as bucket from metrics order by m_id"),
]

#: Equality and LIKE against dictionary-encoded strings whose *data*
#: contains glob metacharacters ("10%", "10[%", "beta*") — a regex or
#: fnmatch translation applied to the dictionary must not let them match
#: as wildcards.
METACHAR_CORPUS = [
    ("dict_equality_percent",
     "select id from items where tag = '10%' order by id"),
    ("dict_equality_bracket",
     "select id from items where tag = '10[%' order by id"),
    ("dict_like_bracket_literal",
     "select id from items where tag like '10[%' order by id"),
    ("dict_like_star_is_literal",
     "select id from items where tag like '%a*' order by id"),
    ("dict_in_metachars",
     "select id from items where tag in ('10%', 'beta*', 'nope') order by id"),
]


@pytest.fixture(scope="module")
def numpy_setup():
    return _numpy_database(), _numpy_catalog()


def _json_rows(rows):
    """Order-preserving row images; NaN-tolerant (NaN != NaN under ==)."""
    return [json.dumps(r, sort_keys=True, default=str) for r in rows]


@pytest.mark.parametrize("case_id,sql", NAN_CORPUS + METACHAR_CORPUS,
                         ids=[c[0] for c in NAN_CORPUS + METACHAR_CORPUS])
def test_numpy_semantics_match_row_engine(case_id, sql, numpy_setup):
    database, catalog = numpy_setup
    row = run_sql(sql, database, catalog=catalog, engine="row").rows
    columnar = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row)


def test_nan_is_distinct_from_null(numpy_setup):
    database, catalog = numpy_setup
    sql = "select count(*) as all_rows, count(m_val) as with_val from metrics"
    for engine in ENGINES:
        (row,) = run_sql(sql, database, catalog=catalog, engine=engine).rows
        # 6 rows, 1 NULL: NaN rows still count as present values.
        assert row == {"all_rows": 6, "with_val": 5}


#: Queries that must behave identically over a zero-row table.
EMPTY_CORPUS = [
    ("empty_filter_project",
     "select id, price * 2 as dbl from items where qty > 1 order by id"),
    ("empty_global_aggregate",
     "select count(*) as n, sum(price) as total, avg(qty) as mean from items"),
    ("empty_group_by",
     "select grp, count(*) as n from items group by grp order by grp"),
    ("empty_join_left_input",
     "select i.id, o.owner from items i join owners o on i.id = o.oid "
     "order by i.id"),
    ("empty_sort_limit",
     "select id, price from items order by price desc, id limit 3"),
    ("empty_non_equi_right_input",
     "select * from owners o left join items i on o.oid < i.id"),
]


@pytest.mark.parametrize("case_id,sql", EMPTY_CORPUS,
                         ids=[c[0] for c in EMPTY_CORPUS])
@pytest.mark.parametrize("layout", ("rows", "columnar"))
def test_empty_table_both_layouts(case_id, sql, layout, numpy_setup):
    _, catalog = numpy_setup
    items = ([] if layout == "rows"
             else catalog.resolve_table("items").empty_table())
    database = {"items": items, "owners": _database()["owners"]}
    expected = run_sql(sql, database, catalog=catalog, engine="row").rows
    got = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert got == expected


#: The EMPTY_CORPUS queries over a non-empty ``items`` that a WHERE no row
#: satisfies empties first, so each operator gets a zero-row batch with
#: typed columns rather than an empty table.
FILTERED_EMPTY_CORPUS = [
    ("empty_filter_project",
     "select id, price * 2 as dbl from items where qty > 1 and id < 0 "
     "order by id"),
    ("empty_global_aggregate",
     "select count(*) as n, sum(price) as total, avg(qty) as mean from items "
     "where id < 0"),
    ("empty_group_by",
     "select grp, count(*) as n from items where id < 0 group by grp "
     "order by grp"),
    ("empty_join_left_input",
     "select i.id, o.owner from items i join owners o on i.id = o.oid "
     "where i.id < 0 order by i.id"),
    ("empty_sort_limit",
     "select id, price from items where id < 0 order by price desc, id "
     "limit 3"),
    ("empty_non_equi_right_input",
     "select * from owners o left join (select * from items where id < 0) i "
     "on o.oid < i.id"),
]


@pytest.mark.parametrize("case_id,sql", FILTERED_EMPTY_CORPUS,
                         ids=[c[0] for c in FILTERED_EMPTY_CORPUS])
@pytest.mark.parametrize("layout", ("rows", "columnar"))
def test_filtered_to_empty_both_layouts(case_id, sql, layout, numpy_setup):
    assert [c[0] for c in FILTERED_EMPTY_CORPUS] == [c[0] for c in EMPTY_CORPUS]
    _, catalog = numpy_setup
    database = _database()
    if layout == "columnar":
        database["items"] = ColumnTable.from_rows(database["items"])
    expected = run_sql(sql, database, catalog=catalog, engine="row").rows
    got = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert got == expected


#: All-null columns (typed ``object`` by inference — no valid value to
#: pick a dtype from) must survive predicates, grouping, and aggregation.
ALL_NULL_CORPUS = [
    ("all_null_is_null_filter",
     "select b_id from blanks where b_note is null order by b_id"),
    ("all_null_comparison_empty",
     "select b_id from blanks where b_val > 0 order by b_id"),
    ("all_null_aggregates",
     "select count(b_val) as n, sum(b_val) as total, min(b_note) as lo "
     "from blanks"),
    ("all_null_group_key",
     "select b_note, count(*) as n from blanks group by b_note"),
    ("all_null_concat",
     "select b_id, b_note || '!' as noisy from blanks order by b_id"),
]


@pytest.mark.parametrize("case_id,sql", ALL_NULL_CORPUS,
                         ids=[c[0] for c in ALL_NULL_CORPUS])
def test_all_null_column_matches_row_engine(case_id, sql, numpy_setup):
    database, catalog = numpy_setup
    row = run_sql(sql, database, catalog=catalog, engine="row").rows
    columnar = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row)


def test_non_equi_self_join_runs_columnar(setup):
    database, catalog = setup
    sql = "select a.id from items a join items b on a.id < b.id"
    outcome = run_sql(sql, database, catalog=catalog, engine="columnar")
    assert outcome.engine == "columnar"
    assert len(outcome.rows) == 15
    assert outcome.rows == run_sql(sql, database, catalog=catalog, engine="row").rows


def test_right_join_is_a_plan_error_on_both_engines():
    database = generate_database()
    sql = ("select * from tpch_region r right join tpch_nation n "
           "on n.n_regionkey = r.r_regionkey and r.r_regionkey < 2")
    for engine in ENGINES:
        with pytest.raises(PlanError, match="use LEFT JOIN"):
            run_sql(sql, database, engine=engine)


# ----------------------------------------------------------------------
# Columnar lowering: equi-key orientation, WHERE pushdown legality and
# column pruning.  Each case is differential; the structural asserts pin
# where the lowering put each filter and which columns each scan reads.
# ----------------------------------------------------------------------

def _join_key_setup():
    catalog = Catalog()
    catalog.register(TableSchema(
        "a", _cols("aid:int", "ak:int"), base_rows=3, bytes_per_row=16,
    ))
    catalog.register(TableSchema(
        "b", _cols("bk:int", "bv:str"), base_rows=2, bytes_per_row=16,
    ))
    database = {
        "a": [{"aid": 1, "ak": None}, {"aid": 2, "ak": 5}, {"aid": 3, "ak": 6}],
        "b": [{"bk": 5, "bv": "x"}, {"bk": 6, "bv": "y"}],
    }
    return database, catalog


@pytest.mark.parametrize("on", ["a.ak = b.bk", "b.bk = a.ak"])
def test_equi_join_with_null_first_left_key(on):
    # The first left row's key is NULL: orienting the key pair by that
    # value (instead of by which input's schema has the column) once made
    # the columnar engine return no rows.
    database, catalog = _join_key_setup()
    sql = f"select aid, bv from a join b on {on}"
    for engine in ENGINES:
        rows = run_sql(sql, database, catalog=catalog, engine=engine).rows
        assert rows == [{"aid": 2, "bv": "x"}, {"aid": 3, "bv": "y"}], engine


def _lowered(sql, database, catalog):
    """(root, filters, scans, joins) of the compiled columnar tree."""
    root = compile_plan(plan_statement(parse(sql), catalog), database, catalog)
    ops = walk_ops(root)
    return (
        root,
        [op for op in ops if op.kind == "filter"],
        {op.detail: op for op in ops if op.kind == "scan"},
        [op for op in ops if op.kind == "join"],
    )


def _agree(sql, database, catalog):
    row = run_sql(sql, database, catalog=catalog, engine="row").rows
    columnar = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert columnar == row
    return row


# ----------------------------------------------------------------------
# Inner equi-join chains run as one multi-way join, in an order of their
# own, and still emit the row engine's rows in its order.
# ----------------------------------------------------------------------

def _python_key_setup():
    nan = float("nan")  # one object in both tables: same identity, never equal
    big = 2 ** 53
    catalog = Catalog()
    catalog.register(TableSchema(
        "pa", _cols("a_id:int", "a_f:float", "a_big:int"), base_rows=4, bytes_per_row=24,
    ))
    catalog.register(TableSchema(
        "pb", _cols("b_id:int", "b_f:float", "b_obj:str"), base_rows=6, bytes_per_row=24,
    ))
    catalog.register(TableSchema(
        "pc", _cols("c_id:int", "c_obj:str", "c_float:float"), base_rows=4, bytes_per_row=24,
    ))
    database = {
        "pa": [
            {"a_id": 1, "a_f": 1.5, "a_big": big + 1},
            {"a_id": 2, "a_f": nan, "a_big": big + 2},
            {"a_id": 3, "a_f": 2.0, "a_big": big + 2},
            {"a_id": 4, "a_f": None, "a_big": big + 2},
        ],
        "pb": [
            {"b_id": 10, "b_f": nan, "b_obj": 1},
            {"b_id": 11, "b_f": 1.5, "b_obj": "x"},
            {"b_id": 12, "b_f": 2.0, "b_obj": 2.0},
            {"b_id": 13, "b_f": 1.5, "b_obj": None},
            {"b_id": 14, "b_f": 2.0, "b_obj": "x"},
            {"b_id": 15, "b_f": 2.0, "b_obj": 1},
        ],
        "pc": [
            {"c_id": 20, "c_obj": "x", "c_float": float(big)},
            {"c_id": 21, "c_obj": 2, "c_float": float(big + 2)},
            {"c_id": 22, "c_obj": "x", "c_float": float(big + 2)},
            {"c_id": 23, "c_obj": True, "c_float": float(big + 2)},
        ],
    }
    return database, catalog


def test_join_chain_keys_that_need_python_equality():
    # Each edge has a key shape plain numpy equality gets wrong: a NaN
    # float key (pa-pb), which must match nothing, a mixed-type object key
    # (pb-pc), and ints above 2**53 against floats (pa-pc), where float64
    # pooling would match big + 1 with float(big).
    database, catalog = _python_key_setup()
    sql = ("select a_id, b_id, c_id from pa join pb on pa.a_f = pb.b_f "
           "join pc on pc.c_obj = pb.b_obj and pc.c_float = pa.a_big")
    assert _agree(sql, database, catalog) == [
        {"a_id": 3, "b_id": 12, "c_id": 21},
        {"a_id": 3, "b_id": 14, "c_id": 22},
        {"a_id": 3, "b_id": 15, "c_id": 23},
    ]


#: GROUP BY, DISTINCT and COUNT(DISTINCT) over the key shapes no typed code
#: path takes: a NaN float (``a_f``), mixed types (``b_obj``, ``c_obj``:
#: ``1``, ``1.0`` and ``True`` are one value, a string never equals a
#: number) and ints above 2**53 (``a_big``).
KEY_SHAPE_CORPUS = [
    ("nan_group_by", "select a_f, count(*) as n from pa group by a_f"),
    ("nan_distinct", "select distinct a_f from pa"),
    ("nan_count_distinct",
     "select count(distinct a_f) as n, sum(distinct a_f) as s from pa"),
    ("mixed_group_by", "select b_obj, count(*) as n from pb group by b_obj"),
    ("mixed_distinct", "select distinct b_obj from pb"),
    ("mixed_count_distinct", "select count(distinct b_obj) as n from pb"),
    ("mixed_bool_group_by", "select c_obj, count(*) as n from pc group by c_obj"),
    ("mixed_count_distinct_per_nan_group",
     "select b_f, count(distinct b_obj) as n from pb group by b_f"),
    ("big_int_group_by", "select a_big, count(*) as n from pa group by a_big"),
    ("big_int_distinct", "select distinct a_big, a_f from pa"),
    ("big_int_count_distinct",
     "select count(distinct a_big) as n, sum(distinct a_big) as s from pa"),
]


def _in_layout(database, layout):
    if layout == "columnar":
        return {name: ColumnTable.from_rows(rows) for name, rows in database.items()}
    return database


@pytest.mark.parametrize("case_id,sql", KEY_SHAPE_CORPUS,
                         ids=[c[0] for c in KEY_SHAPE_CORPUS])
@pytest.mark.parametrize("layout", ("rows", "columnar"))
def test_key_shapes_both_layouts(case_id, sql, layout):
    database, catalog = _python_key_setup()
    database = _in_layout(database, layout)
    row = run_sql(sql, database, catalog=catalog, engine="row").rows
    columnar = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row)


_NAN = float("nan")

#: Every NaN is one group key and one DISTINCT value, whether the NaNs are
#: one float object (``metrics`` shares one) or fresh ones.
NAN_KEY_CASES = [
    ("select m_val, count(*) as n from metrics group by m_val",
     [{"m_val": 2.5, "n": 1}, {"m_val": _NAN, "n": 2}, {"m_val": None, "n": 1},
      {"m_val": -1.0, "n": 1}, {"m_val": 9.0, "n": 1}]),
    ("select distinct m_val from metrics",
     [{"m_val": v} for v in (2.5, _NAN, None, -1.0, 9.0)]),
    ("select count(distinct m_val) as n from metrics", [{"n": 4}]),
]


@pytest.mark.parametrize("sql,expected", NAN_KEY_CASES,
                         ids=("group_by", "distinct", "count_distinct"))
@pytest.mark.parametrize("nan", ("shared", "fresh"))
@pytest.mark.parametrize("layout", ("rows", "columnar"))
def test_nan_is_one_key_in_both_layouts(sql, expected, nan, layout):
    database, catalog = _numpy_database(), _numpy_catalog()
    if nan == "fresh":
        database["metrics"] = [
            {**r, "m_val": float("nan")} if r["m_val"] != r["m_val"] else r
            for r in database["metrics"]
        ]
    database = _in_layout(database, layout)
    for engine in ENGINES:
        rows = run_sql(sql, database, catalog=catalog, engine=engine).rows
        assert _json_rows(rows) == _json_rows(expected), engine


@pytest.mark.parametrize("engine", ENGINES)
def test_count_over_mixed_types_compares_nothing(engine):
    # Only min and max compare values; 1 and "x" have no order.
    database, catalog = _python_key_setup()
    sql = "select count(b_obj) as n, count(distinct b_obj) as d from pb"
    assert run_sql(sql, database, catalog=catalog, engine=engine).rows == [{"n": 5, "d": 3}]


def test_join_chain_in_size_order_binds_shared_names_as_written():
    # FROM order is mid, big, small; the pushed WHERE leaves small one row,
    # so mid meets small first and big joins last.  ``note`` is a column of
    # big and of small: the select list and WHERE read small's, as the
    # left-deep chain of joins would, and rows come in FROM order
    # (mid-major), not in the order the inputs were merged.
    catalog = Catalog()
    catalog.register(TableSchema(
        "big", _cols("b_id:int", "m_ref:int", "note:str"), base_rows=6, bytes_per_row=24,
    ))
    catalog.register(TableSchema(
        "mid", _cols("m_id:int", "s_ref:int"), base_rows=3, bytes_per_row=16,
    ))
    catalog.register(TableSchema(
        "small", _cols("s_id:int", "note:str"), base_rows=2, bytes_per_row=16,
    ))
    database = {
        "big": [{"b_id": i, "m_ref": ref, "note": "big"}
                for i, ref in enumerate([1, 2, 1, 3, 3, 1], 1)],
        "mid": [{"m_id": 1, "s_ref": 7}, {"m_id": 2, "s_ref": 8}, {"m_id": 3, "s_ref": 7}],
        "small": [{"s_id": 7, "note": "keep"}, {"s_id": 8, "note": "drop"}],
    }
    sql = ("select b_id, m_id, note from mid join big on big.m_ref = mid.m_id "
           "join small on small.s_id = mid.s_ref where note <> 'drop'")
    assert _agree(sql, database, catalog) == [
        {"b_id": 1, "m_id": 1, "note": "keep"},
        {"b_id": 3, "m_id": 1, "note": "keep"},
        {"b_id": 6, "m_id": 1, "note": "keep"},
        {"b_id": 4, "m_id": 3, "note": "keep"},
        {"b_id": 5, "m_id": 3, "note": "keep"},
    ]
    root, (where,), scans, (join,) = _lowered(sql, database, catalog)
    assert join.inputs[2] is where and where.child is scans["small"]
    ColumnarExecutor(database, catalog).run(root)
    assert [sorted(merge[:2]) for merge in join.merges] == [
        [(0,), (2,)], [(0, 2), (1,)],
    ]


def test_left_join_anti_join_filter_stays_on_top(setup):
    database, catalog = setup
    sql = ("select i.id from items i left join owners o on i.id = o.oid "
           "where o.oid is null order by i.id")
    assert [r["id"] for r in _agree(sql, database, catalog)] == [2, 4, 5, 6]
    _, filters, _, (join,) = _lowered(sql, database, catalog)
    # Pushed into the NULL-supplying side it would drop every owner row
    # and turn the anti-join into "all items".
    assert [f.child for f in filters] == [join]


@pytest.mark.parametrize("kind", ["join", "left join"])
def test_self_join_bare_shared_name_binds_like_the_row_engine(kind, setup):
    database, catalog = setup
    sql = (f"select a.id as aid, b.id as bid, qty from items a {kind} items b "
           "on a.grp = b.grp and b.id > 5 where qty > 2 order by aid, bid")
    rows = _agree(sql, database, catalog)
    qty = {r["id"]: r["qty"] for r in database["items"]}
    # The joined row takes the right input's copy of a shared bare name
    # (the row engine merges {**left, **right}), so the conjunct reads b:
    # an inner join pushes it into b, a LEFT JOIN keeps it on top.
    assert rows and all(r["qty"] == qty[r["bid"]] > 2 for r in rows)
    _, (where,), _, (join,) = _lowered(sql, database, catalog)
    if kind == "join":
        assert join.inputs[1] is where and where.child.kind == "scan"
    else:
        assert where.child is join


def test_or_spanning_both_sides_stays_on_top(setup):
    database, catalog = setup
    sql = ("select i.id, o.owner from items i join owners o on i.id = o.oid "
           "where i.qty > 2 or o.owner = 'ada' order by i.id")
    assert _agree(sql, database, catalog) == [{"id": 1, "owner": "ada"}]
    _, filters, _, (join,) = _lowered(sql, database, catalog)
    assert [f.child for f in filters] == [join]


def test_conjuncts_split_between_sides_and_top(setup):
    database, catalog = setup
    sql = ("select i.id, o.owner from items i join owners o on i.id < o.oid "
           "where i.qty > 1 and o.owner <> 'eve' and i.id + o.oid > 3 "
           "order by i.id, o.owner")
    _agree(sql, database, catalog)
    _, filters, scans, (join,) = _lowered(sql, database, catalog)
    assert join.inputs[0].kind == join.inputs[1].kind == "filter"
    assert join.inputs[0].child is scans["items"]
    assert join.inputs[1].child is scans["owners"]
    (top,) = [f for f in filters if f.child is join]
    assert top.detail == "((i.id + o.oid) > 3)"


@pytest.mark.parametrize("where", ["nosuch > 1", "i.qty > 1 and nosuch = 2"])
def test_where_naming_missing_column_raises_on_both_engines(where, setup):
    database, catalog = setup
    sql = ("select i.id from items i join owners o on i.id = o.oid "
           f"where {where}")
    for engine in ENGINES:
        with pytest.raises(ExecutionError, match="column 'nosuch' not found"):
            run_sql(sql, database, catalog=catalog, engine=engine)


def test_count_star_reads_no_column(setup):
    database, catalog = setup
    sql = "select count(*) as n from items"
    assert _agree(sql, database, catalog) == [{"n": 6}]
    _, _, scans, _ = _lowered(sql, database, catalog)
    assert scans["items"].base_names == []
    sql = ("select count(*) as n from items i join owners o on i.id = o.oid "
           "where o.owner <> 'eve'")
    assert _agree(sql, database, catalog) == [{"n": 2}]
    _, _, scans, _ = _lowered(sql, database, catalog)
    # Only the join key and the WHERE column are read.
    assert scans["items"].base_names == ["id"]
    assert scans["owners"].base_names == ["oid", "owner"]


@pytest.mark.parametrize("star", ["*", "i.*"])
def test_select_star_over_join_keeps_every_column(star, setup):
    database, catalog = setup
    sql = (f"select {star} from items i left join owners o on i.id = o.oid "
           "where i.qty > 1")
    rows = _agree(sql, database, catalog)
    assert set(rows[0]) == {
        "id", "price", "qty", "tag", "grp", "oid", "owner",
        "i.id", "i.price", "i.qty", "i.tag", "i.grp", "o.oid", "o.owner",
    }


# ----------------------------------------------------------------------
# Aggregates bound inside expressions, and the error paths of the
# aggregate operator.  ``t`` has one group with a value and a NULL, and
# one all-NULL group; ``d`` holds a string ``year()`` rejects.
# ----------------------------------------------------------------------

def _agg_setup():
    catalog = Catalog()
    catalog.register(TableSchema(
        "t", _cols("g:int", "x:float", "d:str"), base_rows=3, bytes_per_row=20,
    ))
    database = {"t": [
        {"g": 1, "x": 1.0, "d": "1995-01-02"},
        {"g": 1, "x": None, "d": "n/a"},
        {"g": 2, "x": None, "d": "1996-03-04"},
    ]}
    return database, catalog


#: (case id, SQL text, expected rows on both engines, in order)
AGGREGATE_EXPR_CORPUS = [
    ("unary_minus_over_null_sum",
     "select g, -sum(x) as s from t group by g",
     [{"g": 1, "s": -1.0}, {"g": 2, "s": None}]),
    ("having_is_null_over_aggregate",
     "select g from t group by g having sum(x) is null",
     [{"g": 2}]),
    ("case_over_aggregate",
     "select g, case when sum(x) > 0 then 1 else 0 end as pos from t group by g",
     [{"g": 1, "pos": 1}, {"g": 2, "pos": 0}]),
    ("in_list_over_aggregate",
     "select g from t group by g having count(*) in (2, 5)",
     [{"g": 1}]),
    ("scalar_function_over_aggregate",
     "select g, coalesce(sum(x), 0.0) as s from t group by g",
     [{"g": 1, "s": 1.0}, {"g": 2, "s": 0.0}]),
    ("float_plus_int_aggregates",
     "select g, sum(x) + count(*) as s from t group by g",
     [{"g": 1, "s": 3.0}, {"g": 2, "s": None}]),
    # year() runs once per dictionary entry in the columnar engine: the
    # min's dictionary must not keep 'n/a', which no group's min holds.
    ("scalar_function_over_string_min",
     "select g, year(min(d)) as y from t group by g",
     [{"g": 1, "y": 1995}, {"g": 2, "y": 1996}]),
    # ... nor may a group key's dictionary keep a value WHERE dropped.
    ("scalar_function_over_filtered_group_key",
     "select year(d) as y, count(*) as n from t where d <> 'n/a' group by d",
     [{"y": 1995, "n": 1}, {"y": 1996, "n": 1}]),
    # ... or one whose group HAVING dropped.
    ("scalar_function_over_having_survivors",
     "select year(d) as y from t group by d having d <> 'n/a'",
     [{"y": 1995}, {"y": 1996}]),
    # HAVING runs first: the all-NULL group's round(NULL) would raise.
    ("having_drops_every_raising_group",
     "select g, round(max(x)) as r from t group by g having count(*) > 5",
     []),
    ("having_drops_the_raising_group",
     "select g, round(max(x)) as r from t group by g having count(*) > 1",
     [{"g": 1, "r": 1.0}]),
    ("grouped_over_zero_rows",
     "select g, round(max(x)) as r, sum(x) as s from t where g > 10 group by g",
     []),
    # Nothing is evaluated on zero groups, not even a bad column name.
    ("grouped_over_zero_rows_reading_no_such_column",
     "select g, nosuch as bad from t where g > 10 group by g",
     []),
    ("ungrouped_over_zero_rows",
     "select count(*) as n, -sum(x) as s, min(d) as lo from t where g > 10",
     [{"n": 0, "s": None, "lo": None}]),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case_id,sql,expected", AGGREGATE_EXPR_CORPUS,
                         ids=[c[0] for c in AGGREGATE_EXPR_CORPUS])
def test_aggregates_bind_inside_expressions(engine, case_id, sql, expected):
    database, catalog = _agg_setup()
    rows = run_sql(sql, database, catalog=catalog, engine=engine).rows
    assert _json_rows(rows) == _json_rows(expected)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql,column", [
    # No row, so no representative to read ``x`` from.
    ("select x, count(*) as n from t where g > 10", "x"),
    ("select g, nosuch as bad from t group by g", "nosuch"),
    ("select g from t group by g having nosuch > 1", "nosuch"),
])
def test_aggregate_reading_a_missing_column_raises(engine, sql, column):
    database, catalog = _agg_setup()
    with pytest.raises(ExecutionError, match=f"column '{column}' not found in row"):
        run_sql(sql, database, catalog=catalog, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_round_over_null_aggregate_raises_without_having(engine):
    database, catalog = _agg_setup()
    sql = "select g, round(max(x)) as r from t group by g"
    with pytest.raises(TypeError):
        run_sql(sql, database, catalog=catalog, engine=engine)


# ----------------------------------------------------------------------
# An operator over operand types it does not accept (an int column against
# a date string, a string times a float) is a typed SQL error on both
# engines: ``SqlTypeError`` is an ``ExecutionError`` and a ``TypeError``.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql", [
    "select id from items where id < '1995-03-15'",
    "select id from items where '1995-03-15' >= price",
    "select id from items where 1 < 'a'",
    "select tag * price as x from items",
    "select -tag as x from items",
    "select -'a' as x from items",
], ids=("int_vs_str", "str_vs_float", "constants", "str_times_float", "negate_column",
        "negate_constant"))
def test_operator_type_mismatch_is_a_typed_error(engine, sql, setup):
    database, catalog = setup
    with pytest.raises(SqlTypeError) as info:
        run_sql(sql, database, catalog=catalog, engine=engine)
    assert isinstance(info.value, ExecutionError) and isinstance(info.value, TypeError)


# ----------------------------------------------------------------------
# LIMIT takes its rows after the child ran in full, like the row engine's
# ``rows[:count]``: an error on a row past the limit still raises.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("count", (0, 1))
def test_limit_still_evaluates_rows_past_it(engine, count):
    catalog = Catalog()
    catalog.register(TableSchema("t", _cols("a:int"), base_rows=2, bytes_per_row=8))
    database = {"t": [{"a": 1}, {"a": "x"}]}
    sql = f"select a + 1 as b from t limit {count}"
    with pytest.raises(TypeError):
        run_sql(sql, database, catalog=catalog, engine=engine)


# ----------------------------------------------------------------------
# Scalar functions run only over values some lane holds: a filtered or
# joined ``str`` column keeps its source's whole dictionary, and ``year``
# rejects ``'n/a'``, which only a dropped row of ``t`` holds.
# ----------------------------------------------------------------------

def test_scalar_function_skips_values_only_dropped_rows_hold():
    database, catalog = _agg_setup()
    sql = "select year(d) as y from t where d <> 'n/a'"
    assert _agree(sql, database, catalog) == [{"y": 1995}, {"y": 1996}]


def test_scalar_function_over_a_conjunct_pushed_below_a_join():
    database, catalog = _agg_setup()
    catalog.register(TableSchema(
        "u", _cols("ug:int", "label:str"), base_rows=2, bytes_per_row=16,
    ))
    database["u"] = [{"ug": 1, "label": "one"}, {"ug": 2, "label": "two"}]
    sql = ("select year(t.d) as y, u.label from t join u on t.g = u.ug "
           "where t.d <> 'n/a' order by y")
    assert _agree(sql, database, catalog) == [
        {"y": 1995, "label": "one"}, {"y": 1996, "label": "two"},
    ]
    _, (where,), scans, (join,) = _lowered(sql, database, catalog)
    assert join.inputs[0] is where and where.child is scans["t"]


# ----------------------------------------------------------------------
# Strings holding NUL characters, and the numpy string traps.  numpy's
# ``str_`` drops trailing ``\x00``, so "a\x00" and "a" must not share a
# dictionary entry: a string column holding a NUL stays exact Python
# strings, and a NUL constant or LIKE pattern is compared in Python.
# ``np.strings.upper`` keeps the input width ("straße" -> "STRAS"), and
# ``np.strings.slice(a, k)`` reads a lone ``k`` as the stop.
# ----------------------------------------------------------------------

def _string_setup():
    catalog = Catalog()
    catalog.register(TableSchema(
        "words", _cols("w_id:int", "w:str", "v:str"), base_rows=6, bytes_per_row=16,
    ))
    database = {"words": [
        {"w_id": 1, "w": "a\x00", "v": "straße"},
        {"w_id": 2, "w": "a", "v": "a"},
        {"w_id": 3, "w": "a\x00b", "v": ""},
        {"w_id": 4, "w": None, "v": None},
        {"w_id": 5, "w": "\x00", "v": "10%_x"},
        {"w_id": 6, "w": "a", "v": "ab\nc"},
    ]}
    return database, catalog


STRING_CORPUS = [
    ("nul_group_by", "select w, count(*) as c from words group by w"),
    ("nul_distinct", "select distinct w from words"),
    ("nul_equality", "select w_id from words where w = 'a' order by w_id"),
    ("nul_constant_equality",
     "select w_id from words where w = 'a\x00' order by w_id"),
    ("nul_ordering", "select w_id from words where w > 'a' order by w_id"),
    ("nul_length", "select w_id, length(w) as n from words order by w_id"),
    ("nul_substr", "select w_id, substr(w, 2) as t from words order by w_id"),
    ("nul_like", "select w_id from words where w like 'a%' order by w_id"),
    ("nul_like_underscore",
     "select w_id from words where w like 'a_' order by w_id"),
    ("nul_constant_vs_plain_column",
     "select w_id from words where v < 'a\x00' order by w_id"),
    ("nul_constant_on_the_left",
     "select w_id from words where 'a\x00' >= v order by w_id"),
    ("nul_constant_in_list",
     "select w_id from words where v in ('a\x00', 'zz') order by w_id"),
    ("nul_like_pattern",
     "select w_id from words where v like 'a\x00%' order by w_id"),
    ("upper_expands", "select w_id from words where upper(v) = 'STRASSE'"),
    ("upper_column", "select w_id, upper(v) as u from words order by w_id"),
    ("substr_two_args",
     "select w_id, substr(v, 3) as t from words order by w_id"),
    ("substring_from_zero",
     "select w_id, substring(v, 0, 3) as t from words order by w_id"),
    ("substr_bounds_past_int64",
     "select w_id, substr(v, 100000000000000000000, 2) as t, "
     "substr(v, -100000000000000000000) as u, "
     "substr(v, 1, 100000000000000000000) as x from words order by w_id"),
    ("substr_null_length",
     "select w_id, substr(v, 2, null) as t from words order by w_id"),
    ("like_newline", "select w_id from words where v like 'ab%' order by w_id"),
    ("like_inner_runs",
     "select w_id from words where v like '%t%a%e' order by w_id"),
    ("substr_bad_start_no_rows",
     "select substr(v, 'x') as t from words where w_id > 100"),
    ("substr_null_start_no_rows",
     "select substr(v, null) as t from words where w_id > 100"),
    ("length_of_null_lane",
     "select w_id, length(v) as n from words order by w_id"),
]


@pytest.mark.parametrize("case_id,sql", STRING_CORPUS,
                         ids=[c[0] for c in STRING_CORPUS])
@pytest.mark.parametrize("layout", ("rows", "columnar"))
def test_string_corner_cases_both_layouts(case_id, sql, layout):
    database, catalog = _string_setup()
    database = _in_layout(database, layout)
    row = run_sql(sql, database, catalog=catalog, engine="row").rows
    columnar = run_sql(sql, database, catalog=catalog, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row)


def test_nul_strings_are_distinct_values():
    database, catalog = _string_setup()
    sql = "select w, count(*) as c from words where w_id < 4 group by w"
    for engine in ENGINES:
        rows = run_sql(sql, database, catalog=catalog, engine=engine).rows
        assert rows == [{"w": "a\x00", "c": 1}, {"w": "a", "c": 1},
                        {"w": "a\x00b", "c": 1}], engine
