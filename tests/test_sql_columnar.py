"""Tests for the columnar SQL engine and the engine dispatcher.

The correctness contract is differential: on every TPC-H query and on
assorted plan shapes, the columnar engine must return *exactly* the rows
the row executor returns — same values, same order, same key sets.
"""

from __future__ import annotations

import ast
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import RecordingTracer
from repro.sql import (
    DEFAULT_CATALOG,
    Catalog,
    ColumnTable,
    TableSchema,
    FIG1_QUERY,
    ColumnarExecutor,
    QueryExecutor,
    columnar,
    compile_kernel,
    executor,
    generate_database,
    parse,
    plan_statement,
    run_sql,
)
from repro.sql.catalog import _cols
from repro.sql.ast import BinaryOp, ColumnRef, FunctionCall, Literal, Star
from repro.sql.columnar import ColumnBatch, ColumnVector, compile_plan, walk_ops
from repro.workloads.tpch_sql import TPCH_SQL, runnable_queries


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
    # run_sql on its default engine must return exactly what the row
    # engine returns.
    for query in runnable_queries():
        expected = _row_engine(TPCH_SQL[query], db)
        assert run_sql(TPCH_SQL[query], db).rows == expected


def test_tpch_query_engine_selection(db):
    expected = _row_engine(TPCH_SQL[6], db)
    assert run_sql(TPCH_SQL[6], db).rows == expected
    assert run_sql(TPCH_SQL[6], db, engine="row").rows == expected
    assert run_sql(TPCH_SQL[6], db, engine="columnar").rows == expected


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


def _imported_modules(path, package):
    """Absolute names of the modules ``path`` imports (``from x import y``
    counts both ``x`` and ``x.y``, since ``y`` may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_dispatch_imports_the_row_engine():
    # The row reference is reached only through run_sql(engine="row") and
    # the repro.sql re-exports; the columnar engine shares semantics.py.
    src = Path(columnar.__file__).parents[2]
    importers = set()
    for path in sorted((src / "repro").rglob("*.py")):
        # A module's relative imports resolve against its package, and a
        # package's __init__ against the package itself: both are parts[:-1].
        package = ".".join(path.relative_to(src).parts[:-1])
        if "repro.sql.executor" in _imported_modules(path, package):
            importers.add(path.relative_to(src / "repro").as_posix())
    assert importers == {"sql/dispatch.py", "sql/__init__.py"}


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
# Grouping and ordering kernels
# ----------------------------------------------------------------------

#: Code-space sizes on both sides of the uint16 and two-pass bounds; small
#: sizes fall on both sides of the renumbering bound 4n + 64.
_SIZES = st.sampled_from([
    1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
]) | st.integers(1, 300)


@st.composite
def _coded(draw, n=None):
    """Codes in ``[0, size)`` and their size; a few large values reach
    every branch cheaply, and repeats make groups."""
    size = draw(_SIZES)
    edges = {0, size // 2, size - 1, min(size - 1, 2**16 - 1), min(size - 1, 2**16)}
    value = st.sampled_from(sorted(edges)) | st.integers(0, size - 1)
    n = draw(st.integers(0, 40)) if n is None else n
    return np.array(draw(st.lists(value, min_size=n, max_size=n)), np.int64), size


@st.composite
def _code_parts(draw):
    n = draw(st.integers(0, 30))
    return [draw(_coded(n)) for _ in range(draw(st.integers(1, 3)))]


_NO_CODES = np.empty(0, np.int64)


@settings(max_examples=300, deadline=None)
@given(_coded())
@example((_NO_CODES, 1))
@example((np.array([2**32 - 1]), 2**32))
def test_stable_order_is_the_stable_argsort(coded):
    codes, size = coded
    want = np.argsort(codes, kind="stable")
    assert columnar._stable_order(codes, size).tolist() == want.tolist()


@settings(max_examples=300, deadline=None)
@given(_code_parts())
@example([(_NO_CODES, 2**40), (_NO_CODES, 3)])
@example([(np.array([5]), 2**40), (np.array([2**16]), 2**16 + 1)])
def test_combine_codes_keep_tuple_equality_and_order(parts):
    keys = [codes for codes, _ in parts]
    n = len(keys[0])
    codes, size = columnar._combine_codes(keys, [size for _, size in parts])
    assert codes.dtype == np.int64 and len(codes) == n
    assert size <= 4 * n + 64
    assert ((codes >= 0) & (codes < size)).all()
    # Equal codes exactly for equal tuples, ranked as the tuples sort ...
    _, want = np.unique(np.stack(keys, axis=1), axis=0, return_inverse=True)
    _, got = np.unique(codes, return_inverse=True)
    assert got.tolist() == want.ravel().tolist()
    # ... so a stable order of the joint codes is the tuples' lexsort.
    order = columnar._stable_order(codes, size)
    assert order.tolist() == np.lexsort(keys[::-1]).tolist()


@settings(max_examples=300, deadline=None)
@given(_coded())
@example((_NO_CODES, 2**40))
@example((np.array([2**16 + 1]), 2**32))
def test_first_seen_groups_match_unique(coded):
    raw, raw_size = coded
    uniques, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniques), np.int64)
    rank[order] = np.arange(len(uniques))
    gids, reps = columnar._first_seen_groups(*columnar._combine_codes([raw], [raw_size]))
    assert gids.tolist() == rank[inverse].tolist()
    assert reps.tolist() == first[order].tolist()


def _wide_database():
    """``wide``: 2**16 + 500 rows, so its string dictionary and its row ids
    pass 2**16; ``probe`` and ``third`` pick a handful of its rows."""
    n = 2**16 + 500
    wide = [
        {"k": f"k{i:06d}", "v": i, "a": (i * 7919) % 20011,
         "b": f"s{(i * 31) % 9973}", "c": float((i * 17) % 5003) / 4}
        for i in range(n)
    ]
    probe = [
        {"pk": key, "tag": f"t{j}"}
        for j, key in enumerate(["k000003", "k065999", None, "nope", "k000003", "k065537"])
    ]
    third = [{"tv": v, "note": f"n{v}"} for v in (65537, 3, 65999)]
    catalog = Catalog()
    catalog.register(TableSchema(
        "wide", _cols("k:str", "v:int", "a:int", "b:str", "c:float"),
        base_rows=n, bytes_per_row=40,
    ))
    catalog.register(TableSchema("probe", _cols("pk:str", "tag:str"), 6, 20))
    catalog.register(TableSchema("third", _cols("tv:int", "note:str"), 3, 20))
    names = {"wide": ["k", "v", "a", "b", "c"], "probe": ["pk", "tag"], "third": ["tv", "note"]}
    database = {
        name: ColumnTable.from_rows(rows, names[name])
        for name, rows in (("wide", wide), ("probe", probe), ("third", third))
    }
    return database, catalog


@pytest.fixture(scope="module")
def wide_db():
    return _wide_database()


@pytest.mark.parametrize("sql", [
    # A filtered scan keeps the whole >2**16 dictionary, so the build codes
    # take the two-pass order, with either side building.
    "select w.v, p.tag from wide w join probe p on w.k = p.pk where w.v < 4",
    "select p.tag, w.v from probe p join wide w on p.pk = w.k where w.v > 65000",
    # A LEFT JOIN fill over more than 2**16 left rows.
    "select w.v, p.tag from wide w left join probe p on w.k = p.pk",
    # w x t merges first, so FROM order is restored over w's ids.
    "select w.v, p.tag, t.note from wide w join probe p on w.k = p.pk"
    " join third t on t.tv = w.v",
    # Three high-cardinality keys: the fold renumbers.
    "select a, b, c, count(*) as n, sum(v) as s from wide group by a, b, c",
    "select distinct b, a from wide",
    "select b, count(distinct a) as n from wide group by b",
])
def test_wide_code_spaces_match_row_engine(sql, wide_db):
    database, catalog = wide_db
    plan = plan_statement(parse(sql), catalog)
    want = QueryExecutor(database, catalog).execute(plan)
    assert want
    assert ColumnarExecutor(database, catalog).execute(plan) == want


def test_wide_restore_runs_out_of_from_order(wide_db):
    database, catalog = wide_db
    sql = ("select w.v from wide w join probe p on w.k = p.pk"
           " join third t on t.tv = w.v")
    root = compile_plan(plan_statement(parse(sql), catalog), database, catalog)
    ColumnarExecutor(database, catalog).run(root)
    (join,) = [op for op in walk_ops(root) if op.kind == "join"]
    assert join.merges[0][:2] == ((0,), (2,))


# ----------------------------------------------------------------------
# String kernels against oracles that share no code with them: LIKE
# against ``re``, ``substr`` against Python slicing, comparisons with a
# constant against Python's operators.  Vectors carry NULL lanes, and a
# gathered vector keeps dictionary entries no lane holds.
# ----------------------------------------------------------------------

_LIKE_CHARS = ["a", "b", "%", "*", "?", "[", "]", "\n", "ß"]
_LIKE_TEXT = st.text(st.sampled_from(_LIKE_CHARS + ["_"]), max_size=5)
_LIKE_PATTERN = (
    st.text(st.sampled_from(_LIKE_CHARS), max_size=6)
    | st.text(st.sampled_from(_LIKE_CHARS + ["_"]), max_size=6)
)
_ORDERED_TEXT = st.text(st.sampled_from("abc"), max_size=3)


@st.composite
def _string_lanes(draw, text):
    """A vector over ``text`` values (some NULL) and its lane values; half
    the time a gather that may leave dictionary entries unused."""
    values = draw(st.lists(st.none() | text, min_size=1, max_size=12))
    vec = ColumnVector.from_values(values)
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=12))
        vec = vec.take(np.array(picks, np.intp))
        values = [values[i] for i in picks]
    return vec, values


def _eval_on(expr, vec):
    return compile_kernel(expr, ["s"])(ColumnBatch(["s"], {"s": vec}, len(vec)))


def _like_oracle(value, pattern):
    rx = "".join(
        ".*" if c == "%" else "." if c == "_" else re.escape(c) for c in pattern
    )
    return re.fullmatch(rx, str(value), re.DOTALL) is not None


@settings(max_examples=300, deadline=None)
@given(_string_lanes(_LIKE_TEXT), _LIKE_PATTERN)
@example((ColumnVector.from_values(["ab", "aba", "", None]), ["ab", "aba", "", None]), "ab%ba")
@example((ColumnVector.from_values(["a\nb", "ß", None]), ["a\nb", "ß", None]), "%")
def test_like_matches_a_regex_oracle(lanes, pattern):
    vec, values = lanes
    got = _eval_on(BinaryOp("like", ColumnRef("s"), Literal(pattern)), vec)
    assert got == [_like_oracle(v, pattern) for v in values]


_ABSENT = object()


@settings(max_examples=300, deadline=None)
@given(
    _string_lanes(_LIKE_TEXT),
    st.sampled_from(["substr", "substring"]),
    st.integers(-3, 8) | st.floats(-3, 8) | st.booleans(),
    st.just(_ABSENT) | st.none() | st.integers(-2, 6) | st.floats(-2, 6) | st.booleans(),
)
def test_substr_matches_python_slicing(lanes, name, start, length):
    vec, values = lanes
    args = (ColumnRef("s"), Literal(start))
    if length is not _ABSENT:
        args += (Literal(length),)
    got = _eval_on(FunctionCall(name, args), vec)
    begin = int(start) - 1
    if length is _ABSENT or length is None:
        want = [str(v)[begin:] for v in values]
    else:
        want = [str(v)[begin:begin + int(length)] for v in values]
    assert got == want


@settings(max_examples=100, deadline=None)
@given(_string_lanes(_LIKE_TEXT))
def test_length_matches_len(lanes):
    vec, values = lanes
    got = _eval_on(FunctionCall("length", (ColumnRef("s"),)), vec)
    assert got == [len(str(v)) for v in values]


_PY_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


@settings(max_examples=300, deadline=None)
@given(
    _string_lanes(_ORDERED_TEXT),
    # Before every entry (""), inside, absent between entries, after ("~").
    st.sampled_from(["", "~"]) | st.text(st.sampled_from("abcd"), max_size=3),
    st.sampled_from(sorted(_PY_COMPARE)),
    st.booleans(),
)
def test_string_comparison_with_a_constant(lanes, const, op, const_on_left):
    vec, values = lanes
    col, lit = ColumnRef("s"), Literal(const)
    expr = BinaryOp(op, lit, col) if const_on_left else BinaryOp(op, col, lit)
    got = _eval_on(expr, vec)
    py = _PY_COMPARE[op]
    assert got == [
        None if v is None else py(const, v) if const_on_left else py(v, const)
        for v in values
    ]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def test_dispatcher_picks_columnar_for_supported_plans(db):
    outcome = run_sql(TPCH_SQL[1], db)
    assert outcome.engine == "columnar"


def test_dispatcher_outcome_reports_engine(db):
    outcome = run_sql(TPCH_SQL[6], db)
    assert outcome.engine == "columnar"
    assert outcome.elapsed_s >= 0.0
    forced = run_sql(TPCH_SQL[6], db, engine="row")
    assert forced.engine == "row"
    assert forced.rows == outcome.rows


def test_dispatcher_runs_non_equi_join_columnar(db):
    # A join without an equi-key runs as a vectorized nested loop.
    sql = """
        select count(*) as n
        from tpch_nation a join tpch_nation b on a.n_nationkey < b.n_nationkey
    """
    outcome = run_sql(sql, db)
    assert outcome.engine == "columnar"
    assert outcome.rows == [{"n": 300}]
    assert outcome.rows == _row_engine(sql, db)


def test_unknown_engine_rejected(db):
    for engine in ("gpu", "auto"):
        with pytest.raises(ValueError):
            run_sql("select 1 as x from tpch_nation", db, engine=engine)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

def test_columnar_run_emits_metrics_and_spans(db):
    tracer = RecordingTracer()
    outcome = run_sql(TPCH_SQL[1], db, tracer=tracer)
    assert outcome.engine == "columnar"
    categories = {record.cat for record in tracer.records}
    assert "sql" in categories
    rows = {}
    for record in tracer.records:
        rows[record.name] = rows.get(record.name, 0) + record.args.get("rows", 0)
    assert rows["columnar.scan"] == len(db["lineitem"])
    assert rows["columnar.aggregate"] == len(outcome.rows)


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
    batch = ColumnBatch(["a"], {"a": ColumnVector.from_values([1, None, 9])}, 3)
    assert kernel(batch) == [True, None, False]


def test_compile_kernel_constant_on_empty_batch():
    # Constant kernels must not evaluate the expression when there are no
    # rows (the row engine never evaluates expressions for absent rows).
    expr = BinaryOp("/", Literal(1), Literal(0))
    kernel = compile_kernel(expr, [])
    empty = ColumnBatch([], {}, 0)
    assert kernel(empty) == []
