"""SQL conformance corpus, parameterized over both execution engines.

Every case runs through :func:`repro.sql.dispatch.execute_sql` with
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

from repro.api import run_sql
from repro.sql import (
    Catalog,
    PlanError,
    TableSchema,
    execute_sql,
    generate_database,
    like_to_glob,
    sql_like,
)
from repro.sql.catalog import _cols

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
]


@pytest.fixture(scope="module")
def setup():
    return _database(), _catalog()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case_id,sql,ordered", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_case_runs(engine, case_id, sql, ordered, setup):
    database, catalog = setup
    outcome = execute_sql(sql, database, catalog, engine=engine)
    assert isinstance(outcome.rows, list)


@pytest.mark.parametrize("case_id,sql,ordered", CORPUS, ids=[c[0] for c in CORPUS])
def test_engines_agree(case_id, sql, ordered, setup):
    database, catalog = setup
    row = execute_sql(sql, database, catalog, engine="row").rows
    columnar = execute_sql(sql, database, catalog, engine="columnar").rows
    if ordered:
        assert columnar == row
    else:
        assert _canon(columnar) == _canon(row)


def test_left_join_fills_missing_right_columns(setup):
    database, catalog = setup
    sql = ("select i.id, o.owner from items i left join owners o "
           "on i.id = o.oid order by i.id")
    rows = execute_sql(sql, database, catalog, engine="row").rows
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
        rows = execute_sql(sql, database, catalog, engine=engine).rows
        assert len(rows) == len(database["items"])
        assert all(r["owner"] is None for r in rows)


def test_empty_aggregate_values(setup):
    database, catalog = setup
    sql = ("select count(*) as n, sum(price) as total, avg(price) as mean "
           "from items where id > 100")
    for engine in ENGINES:
        (row,) = execute_sql(sql, database, catalog, engine=engine).rows
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
    row = execute_sql(sql, database, catalog, engine="row").rows
    columnar = execute_sql(sql, database, catalog, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row)


def test_nan_is_distinct_from_null(numpy_setup):
    database, catalog = numpy_setup
    sql = "select count(*) as all_rows, count(m_val) as with_val from metrics"
    for engine in ENGINES:
        (row,) = execute_sql(sql, database, catalog, engine=engine).rows
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
    expected = execute_sql(sql, database, catalog, engine="row").rows
    got = execute_sql(sql, database, catalog, engine="columnar").rows
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
    row = execute_sql(sql, database, catalog, engine="row").rows
    columnar = execute_sql(sql, database, catalog, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row)


def test_non_equi_self_join_runs_columnar(setup):
    database, catalog = setup
    sql = "select a.id from items a join items b on a.id < b.id"
    outcome = execute_sql(sql, database, catalog, engine="columnar")
    assert outcome.engine == "columnar"
    assert len(outcome.rows) == 15
    assert outcome.rows == execute_sql(sql, database, catalog, engine="row").rows


def test_right_join_is_a_plan_error_on_both_engines():
    database = generate_database()
    sql = ("select * from tpch_region r right join tpch_nation n "
           "on n.n_regionkey = r.r_regionkey and r.r_regionkey < 2")
    for engine in ENGINES:
        with pytest.raises(PlanError, match="use LEFT JOIN"):
            run_sql(sql, database, engine=engine)
