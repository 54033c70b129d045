"""Property-based differential test: columnar engine == row engine.

Hypothesis generates random tables (mixed int/float/string columns with
NULLs) crossed with random query fragments, equi and non-equi joins
included; every sample must produce the same multiset of rows from both
engines.  Results are compared after canonical row sorting because not
every generated fragment carries a total ORDER BY; join fragments are also
compared in order, since filters keep order and both engines emit joins
left-major in build order — which is what lets the columnar engine push
WHERE conjuncts below a join, and run a chain of inner equi-joins in an
order of its own before sorting the rows back into FROM order.

The fragment generators deliberately avoid the documented engine
divergences: no division or modulo (the row engine raises on a zero
divisor mid-scan where numpy masks the lane).  Their columns hold no NaN,
mixed types or ints beyond 2**53; those key shapes get their own property
(:func:`test_grouping_keys_agree`), which runs GROUP BY, DISTINCT and
DISTINCT aggregates over a key column that mixes all of them with NULLs.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import Catalog, ColumnTable, TableSchema, run_sql
from repro.sql.catalog import _cols

CATALOG = Catalog()
CATALOG.register(TableSchema(
    "t",
    _cols("i:int", "f:float", "s:str", "g:str"),
    base_rows=25, bytes_per_row=40,
))
#: A second table whose column names share nothing with ``t``: a ref that
#: names the wrong side then finds no column instead of a same-named one.
CATALOG.register(TableSchema(
    "u",
    _cols("k:int", "v:float", "w:str"),
    base_rows=25, bytes_per_row=30,
))

_FLOATS = (-2.5, -1.0, 0.0, 0.5, 1.25, 3.0, 7.5, 100.0)
_STRINGS = ("", "a", "ab", "abc", "b%", "c_d", "e*f", "x[y")
_GROUPS = ("g1", "g2", "g3")

_row = st.fixed_dictionaries({
    "i": st.one_of(st.none(), st.integers(-5, 20)),
    "f": st.one_of(st.none(), st.sampled_from(_FLOATS)),
    "s": st.one_of(st.none(), st.sampled_from(_STRINGS)),
    "g": st.sampled_from(_GROUPS),
})
_table = st.lists(_row, min_size=0, max_size=25)

_predicates = st.sampled_from([
    "i > {c}",
    "i <= {c}",
    "f >= {c}",
    "i + 1 < f",
    "i = {c} or f > {c}",
    "i is null",
    "f is not null",
    "s is null",
    "s = 'ab'",
    "s like 'a%'",
    "s like '%_%'",
    "s like 'e*f'",
    "s in ('a', 'b%', 'zzz')",
    "g in ('g1', 'g3')",
    "not (i > {c})",
    "case when i > {c} then f > 0 else g = 'g2' end",
])

#: (select list, ORDER BY clauses valid over that output schema).
_SELECTS = [
    ("i, f, s, g", ("", " order by g, i", " order by f desc, i, s")),
    ("i + 1 as i2, f * 2 as f2, g", ("", " order by g, i2")),
    ("i - f as delta, s", ("", " order by delta, s")),
    ("-i as neg, f", ("", " order by neg desc, f")),
    ("case when i > {c} then 'hi' when i is null then 'null' "
     "else 'lo' end as bucket, g", ("", " order by bucket, g")),
    ("g || '-' || i as label, f", ("", " order by label")),
    ("coalesce(i, {c}) as filled, g", ("", " order by filled, g")),
    ("distinct g, s", ("", " order by g, s")),
]
_select_lists = st.sampled_from(_SELECTS)

_agg_lists = st.sampled_from([
    "count(*) as n, sum(f) as total",
    "count(i) as n, avg(f) as mean",
    "min(i) as lo, max(i) as hi",
    "min(s) as first_s, max(f) as peak",
    "sum(i) as si, count(s) as cs",
    # Expressions over aggregates: each call binds inside the operator.
    "sum(f) / count(*) as ratio, -min(i) as neg",
    "not max(f) > {c} as small, sum(i) is null as none",
    "case when count(*) > {c} then 'many' when count(*) = 1 then 'one' "
    "else 'few' end as size, sum(i) + count(*) as mixed",
    "max(s) || '!' as loud, coalesce(min(f), {c}) as low",
])

#: HAVING over aggregates (and over the group key, when grouped).
_havings = st.sampled_from([
    "",
    " having count(*) > {c}",
    " having sum(f) > {c}",
    " having min(i) is null",
    " having max(s) like 'a%'",
    " having count(i) in (0, 1, {c})",
    " having not avg(f) < {c}",
])

_limits = st.sampled_from(["", " limit 5"])


def _json_rows(rows: list[dict]) -> list[str]:
    return [json.dumps(r, sort_keys=True, default=str) for r in rows]


def _canon(rows: list[dict]) -> list[str]:
    return sorted(_json_rows(rows))


def _run_both(
    sql: str, rows: list[dict], other: tuple = ()
) -> tuple[list[dict], list[dict]]:
    database = {"t": rows, "u": list(other)}
    row = run_sql(sql, database, catalog=CATALOG, engine="row").rows
    columnar = run_sql(sql, database, catalog=CATALOG, engine="columnar").rows
    assert _canon(columnar) == _canon(row), sql
    return row, columnar


@settings(max_examples=60, deadline=None)
@given(rows=_table, select=_select_lists, pred=_predicates,
       c=st.integers(-3, 12), order_pick=st.integers(0, 7),
       limit=_limits)
def test_scan_fragments_agree(rows, select, pred, c, order_pick, limit):
    select_list, orders = select
    order = orders[order_pick % len(orders)]
    if limit and not order:
        # Both engines take a deterministic scan-order prefix, but the
        # canonical (sorted) comparison cannot express "any 5 of the
        # matches" — so only pair LIMIT with ORDER BY.
        limit = ""
    sql = (f"select {select_list.format(c=c)} from t "
           f"where {pred.format(c=c)}{order}{limit}")
    _run_both(sql, rows)


@settings(max_examples=100, deadline=None)
@given(rows=_table, aggs=_agg_lists, pred=_predicates, c=st.integers(-3, 12),
       grouped=st.booleans(), having=_havings,
       null_group=st.sampled_from([None, "g1", "g2"]))
def test_aggregate_fragments_agree(rows, aggs, pred, c, grouped, having, null_group):
    if null_group is not None:
        # One group whose every aggregated column is NULL.
        rows = [
            {**r, "i": None, "f": None, "s": None} if r["g"] == null_group else r
            for r in rows
        ]
    group = " group by g" if grouped else ""
    head = f"g, {aggs}" if grouped else aggs
    sql = (f"select {head.format(c=c)} from t where {pred.format(c=c)}"
           f"{group}{having.format(c=c)}")
    row, columnar = _run_both(sql, rows)
    # Exact and in order: first-seen group order is part of the contract,
    # and JSON tells 1 from 1.0 where == does not.
    assert _json_rows(columnar) == _json_rows(row), sql


#: Join conditions: the equi case (NULL keys never match) plus non-equi
#: ones, which the columnar engine runs as a vectorized nested loop.
_join_conditions = st.sampled_from([
    "a.i = b.i",
    "a.i < b.i",
    "a.i < b.i and a.g = b.g",
    "a.f >= b.f or a.i = b.i",
    "a.s like b.s",
    "a.i + 1 < b.f",
    "1 = 1",
])


@settings(max_examples=80, deadline=None)
@given(left=_table, right=_table, c=st.integers(-3, 12),
       kind=st.sampled_from(["join", "left join"]), on=_join_conditions,
       filtered=st.booleans())
def test_join_fragments_agree(left, right, c, kind, on, filtered):
    where = f" where a.f > {c} or a.f is null" if filtered else ""
    sql = f"select a.i, a.g, b.f from t a {kind} t b on {on}{where}"
    row, columnar = _run_both(sql, left + right)
    assert columnar == row, sql


_u_row = st.fixed_dictionaries({
    "k": st.one_of(st.none(), st.integers(-5, 20)),
    "v": st.one_of(st.none(), st.sampled_from(_FLOATS)),
    "w": st.one_of(st.none(), st.sampled_from(_STRINGS)),
})

#: ``t a`` joined to ``u b``: equi keys (one or two pairs, either written
#: order), an equi key with a residual, and a non-equi condition.
_two_table_conditions = st.sampled_from([
    "a.i = b.k",
    "b.k = a.i",
    "a.i = b.k and a.s = b.w",
    "a.s = b.w",
    "a.i = b.k and a.f < b.v",
    "a.i < b.k",
])

#: WHERE conjuncts by the side(s) they read: left only, right only (never
#: pushed into a LEFT JOIN), both sides, and an OR spanning both sides.
_two_table_conjuncts = st.sampled_from([
    "a.f > {c}",
    "a.s is null",
    "a.g in ('g1', 'g3')",
    "b.v <= {c}",
    "b.k is null",
    "b.w like 'a%'",
    "a.i + b.k > {c}",
    "a.i > {c} or b.v is null",
    "1 = 1",
])


@settings(max_examples=100, deadline=None)
@given(left=_table, right=st.lists(_u_row, max_size=25), c=st.integers(-3, 12),
       kind=st.sampled_from(["join", "left join"]), on=_two_table_conditions,
       conjuncts=st.lists(_two_table_conjuncts, max_size=3),
       null_first=st.booleans())
def test_two_table_join_with_where_agrees_in_order(
    left, right, c, kind, on, conjuncts, null_first
):
    if null_first and left:
        # A NULL key in the first left row once flipped the columnar
        # engine's equi-key orientation and lost every match.
        left = [{**left[0], "i": None, "s": None}] + left[1:]
    where = " and ".join(p.format(c=c) for p in conjuncts)
    sql = (f"select a.i, a.s, a.g, b.k, b.v from t a {kind} u b on {on}"
           + (f" where {where}" if where else ""))
    row, columnar = _run_both(sql, left, right)
    assert columnar == row, sql


# ----------------------------------------------------------------------
# Chains of three and four inner equi-joins: the columnar engine runs each
# chain as one multi-way join in an order of its own choosing and must
# still emit the row engine's rows in the row engine's order.
# ----------------------------------------------------------------------

for _n in range(4):
    CATALOG.register(TableSchema(
        f"c{_n}",
        _cols(f"k{_n}:int", f"j{_n}:int", f"v{_n}:float", f"s{_n}:str"),
        base_rows=12, bytes_per_row=40,
    ))

#: Few distinct keys, so duplicates are the norm; NULL keys never match.
_chain_row = st.fixed_dictionaries({
    "k": st.sampled_from((None, 0, 1, 1, 2)),
    "j": st.sampled_from((None, 0, 1)),
    "v": st.sampled_from((None, 0.0, 1.0, 1.5)),
    "s": st.sampled_from((None, "a", "b")),
})

#: One equi-pair's columns: int-int, int-float and string-string keys.
_pair_columns = st.sampled_from([("k", "k"), ("j", "j"), ("k", "v"), ("s", "s")])

#: Conjuncts over one table (pushed into its input) or over two (on top).
_chain_conjuncts = st.sampled_from([
    "v{a} > {c}",
    "k{a} is not null",
    "s{a} like 'a%'",
    "j{a} <> {c}",
    "k{a} + j{b} > {c}",
    "v{a} < {c} or s{b} = 'b'",
])


@st.composite
def _join_chains(draw):
    """(FROM order, per-join conditions, tables) for a 3- or 4-table chain.

    Join *p* links the *p*-th table in FROM order to an earlier one.  One
    join has a second pair to the same table (an edge keyed on two
    columns); another may have one to a third table (a cycle in the join
    graph).
    """
    n = draw(st.integers(3, 4))
    order = draw(st.permutations(range(n)))
    tables = [draw(st.lists(_chain_row, min_size=2, max_size=8)) for _ in range(n)]
    two_pairs = draw(st.integers(1, n - 1))

    def pair(p, other):
        mine, theirs = draw(_pair_columns)
        if draw(st.booleans()):
            mine, theirs = theirs, mine
        return f"c{other}.{theirs}{other} = c{order[p]}.{mine}{order[p]}"

    joins = []
    for p in range(1, n):
        other = order[draw(st.integers(0, p - 1))]
        pairs = [pair(p, other)]
        if p == two_pairs:
            pairs.append(pair(p, other))
        elif p > 1 and draw(st.sampled_from((False, False, True))):
            pairs.append(pair(p, order[draw(st.integers(0, p - 1))]))
        joins.append(" and ".join(pairs))
    return order, joins, tables


@settings(max_examples=300, deadline=None)
@given(chain=_join_chains(), c=st.integers(-1, 4),
       conjuncts=st.lists(st.tuples(_chain_conjuncts, st.integers(0, 3),
                                    st.integers(0, 3)), max_size=2))
def test_join_chains_agree_in_order(chain, c, conjuncts):
    order, joins, tables = chain
    n = len(order)
    database = {
        f"c{t}": [{f"{name}{t}": value for name, value in row.items()} for row in rows]
        for t, rows in enumerate(tables)
    }
    where = " and ".join(
        text.format(a=order[a % n], b=order[b % n], c=c) for text, a, b in conjuncts
    )
    columns = ", ".join(f"{name}{t}" for t in order for name in "kjvs")
    sql = (f"select {columns} from c{order[0]} "
           + " ".join(f"join c{order[p]} on {on}" for p, on in enumerate(joins, 1))
           + (f" where {where}" if where else ""))
    row = run_sql(sql, database, catalog=CATALOG, engine="row").rows
    columnar = run_sql(sql, database, catalog=CATALOG, engine="columnar").rows
    assert _json_rows(columnar) == _json_rows(row), sql


# ----------------------------------------------------------------------
# Grouping keys: one equality rule for GROUP BY, DISTINCT and DISTINCT
# aggregates.  Every NULL is one key and every NaN another, shared float
# object or not; 1, 1.0 and True are one key; a string equals no number;
# ints near 2**53 stay exact.
# ----------------------------------------------------------------------

CATALOG.register(TableSchema(
    "keys", _cols("k:float", "g:str"), base_rows=20, bytes_per_row=16,
))

_SHARED_NAN = float("nan")
_BIG = 2 ** 53

_numeric_keys = st.one_of(
    st.none(),
    st.just(_SHARED_NAN),
    st.builds(float, st.just("nan")),
    st.sampled_from((1, 1.0, True, 0, -0.0, False, 2.5)),
    st.integers(_BIG - 2, _BIG + 2),
    st.sampled_from((float(_BIG), float(_BIG + 2))),
)
_mixed_keys = st.one_of(_numeric_keys, st.sampled_from(("a", "1", "b")))


def _key_rows(keys):
    return st.lists(
        st.fixed_dictionaries({"k": keys, "g": st.sampled_from(_GROUPS)}),
        max_size=20,
    )


_KEY_QUERIES = [
    "select k, count(*) as n from keys group by k",
    "select distinct k from keys",
    "select count(distinct k) as n from keys",
    "select g, count(distinct k) as n, count(k) as c from keys group by g",
    "select distinct g, k from keys",
]
#: DISTINCT sums and averages, over key columns of numbers only.
_NUMERIC_KEY_QUERIES = [
    "select sum(distinct k) as s, avg(distinct k) as a from keys",
    "select g, sum(distinct k) as s from keys group by g",
]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), numeric=st.booleans(),
       layout=st.sampled_from(["rows", "columnar"]))
def test_grouping_keys_agree(data, numeric, layout):
    rows = data.draw(_key_rows(_numeric_keys if numeric else _mixed_keys))
    queries = _KEY_QUERIES + (_NUMERIC_KEY_QUERIES if numeric else [])
    sql = data.draw(st.sampled_from(queries))
    table = ColumnTable.from_rows(rows, ["k", "g"]) if layout == "columnar" else rows
    database = {"keys": table}
    row = run_sql(sql, database, catalog=CATALOG, engine="row").rows
    columnar = run_sql(sql, database, catalog=CATALOG, engine="columnar").rows
    # In order: groups and DISTINCT rows come first-seen, and JSON tells
    # 1 from 1.0 from true and shows NaN, which == would not match.
    assert _json_rows(columnar) == _json_rows(row), sql
