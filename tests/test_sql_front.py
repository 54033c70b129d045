"""The SQL front end against independent oracles.

* Differential: :func:`repro.sql.parse` against the character-loop oracle
  in ``tests/sql_front_oracle.py`` (which shares no code with it) over the
  conformance corpus, the TPC-H texts, token mutants of those texts and
  random token and character soup.  Wherever the oracle parses, ``parse``
  must build an equal tree; wherever the oracle rejects the text,
  ``parse`` must raise :class:`ParseError`.
* Round trip: random expression trees printed with the ``ast`` node
  ``__str__`` parse back to the same tree.
* Typed errors: every token mutant of the TPC-H texts either runs on both
  engines or raises a typed SQL error.
* The benchmark's span hooks still find the lexer and the parser.
"""

from __future__ import annotations

import importlib.util
import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_sql
from repro.sql import (
    FIG1_QUERY,
    CatalogError,
    ExecutionError,
    ParseError,
    PlanError,
    generate_database,
    parse,
)
from repro.sql.ast import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    FunctionCall,
    InList,
    Literal,
    Star,
    UnaryOp,
)
from repro.workloads.tpch_sql import TPCH_SQL

import test_sql_conformance
from sql_front_oracle import KEYWORDS, OracleParseError, oracle_parse, oracle_tokenize

ROOT = Path(__file__).resolve().parent.parent


def _assert_agrees_with_oracle(sql: str) -> None:
    try:
        expected = oracle_parse(sql)
    except OracleParseError:
        with pytest.raises(ParseError):
            parse(sql)
        return
    got = parse(sql)
    assert got == expected
    assert repr(got) == repr(expected)  # also tells 1 from 1.0


# ----------------------------------------------------------------------
# Corpora
# ----------------------------------------------------------------------

def _conformance_texts() -> list[str]:
    texts = []
    for name, corpus in vars(test_sql_conformance).items():
        if name.endswith(("CORPUS", "CASES")) and isinstance(corpus, list):
            texts.extend(
                item for case in corpus for item in case
                if isinstance(item, str) and item.startswith("select ")
            )
    return texts


CONFORMANCE = _conformance_texts()
TPCH = [sql for _, sql in sorted(TPCH_SQL.items())] + [FIG1_QUERY]


def _token_texts(sql: str) -> list[str]:
    """``sql``'s tokens as source text (strings keep their quotes)."""
    return [sql[token.position:token.end] for token in oracle_tokenize(sql)[:-1]]


def mutants(count: int, seed: int) -> list[str]:
    """``count`` TPC-H texts with one token deleted, duplicated or swapped
    with another token of the same text."""
    rng = random.Random(seed)
    texts = [_token_texts(sql) for sql in TPCH]
    out = []
    for _ in range(count):
        tokens = list(rng.choice(texts))
        i = rng.randrange(len(tokens))
        edit = rng.randrange(3)
        if edit == 0:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, tokens[i])
        else:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        out.append(" ".join(tokens))
    return out


MUTANTS = mutants(1500, seed=0)

#: ``test_parser_total_on_token_soup``'s vocabulary, plus the operators,
#: keywords and literal shapes it leaves out.
SOUP = (
    "select from where group by order limit join on and or not "
    "( ) , . * = < > <> 'str' 1 2.5 ident tbl sum case when then "
    "else end in between is null as "
    "!= >= <= + - / % || ; like distinct having asc desc left right inner "
    "outer SELECT Null 1e5 2.5E-3 .5 t.c t.*"
).split()


def test_corpora_are_not_empty():
    assert len(CONFORMANCE) > 40 and len(TPCH) == len(TPCH_SQL) + 1
    assert len(set(MUTANTS)) > 1000


@pytest.mark.parametrize("sql", (
    [pytest.param(sql, id=f"conformance{i}") for i, sql in enumerate(CONFORMANCE)]
    + [pytest.param(sql, id=f"tpch_q{n}") for n, sql in sorted(TPCH_SQL.items())]
    + [pytest.param(FIG1_QUERY, id="fig1")]
))
def test_parse_matches_oracle_on_fixed_corpora(sql):
    oracle_parse(sql)  # every fixed text is valid
    _assert_agrees_with_oracle(sql)


def test_parse_matches_oracle_on_token_mutants():
    for sql in MUTANTS:
        _assert_agrees_with_oracle(sql)


@given(st.lists(st.sampled_from(SOUP), max_size=25))
@settings(max_examples=300, deadline=None)
def test_parse_matches_oracle_on_token_soup(words):
    _assert_agrees_with_oracle("select " + " ".join(words))


#: Characters and fragments joined with no spaces, so that numbers,
#: exponents, dots, quotes, comment dashes and non-ASCII numerals meet
#: words and operators at every kind of token boundary.
CHARACTERS = list("ab e1.5'-+*/<>=!|(),;\n\t²٣_xE0") + [
    "select ", " from ", " t", " and ", " not ", " in ", " like ", "1e5", "--",
    "null", "case ", " when ", " then ", " end", " is ",
]


@given(st.lists(st.sampled_from(CHARACTERS), min_size=1, max_size=20))
@settings(max_examples=500, deadline=None)
def test_parse_matches_oracle_on_character_soup(pieces):
    _assert_agrees_with_oracle("select " + "".join(pieces))


@pytest.mark.parametrize("sql", [
    "select 1e5, 2.5E-3, .5e+2, 1.0 from t",
    "select ² from t", "select 1x from t", "select 1e from t", "select 1.e5 from t",
    "select 'open from t", "select a from t limit 1e400",
])
def test_parse_matches_oracle_on_number_and_string_edges(sql):
    _assert_agrees_with_oracle(sql)


# ----------------------------------------------------------------------
# Round trip: tree -> ast __str__ -> parse -> the same tree
# ----------------------------------------------------------------------

_NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name.lower() not in KEYWORDS
)
_FUNCTIONS = _NAMES.map(str.lower).filter(lambda name: name not in KEYWORDS)

_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=2**53).map(Literal),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Literal),
    st.text(string.ascii_letters + string.digits + " %_-.,", max_size=8).map(Literal),
    st.builds(ColumnRef, _NAMES),
    st.builds(ColumnRef, _NAMES, _NAMES),
)

_BINARY = ("+", "-", "*", "/", "%", "||", "=", "<>", "<", ">", "<=", ">=", "and", "or", "like")


def _compound(children):
    some = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(_BINARY), children, children),
        st.builds(UnaryOp, st.sampled_from(("-", "not")), children),
        st.builds(
            FunctionCall, _FUNCTIONS,
            st.one_of(st.lists(children, max_size=3).map(tuple), st.just((Star(),))),
            st.booleans(),
        ),
        st.builds(
            CaseExpr, st.lists(st.tuples(children, children), min_size=1, max_size=2)
            .map(tuple), st.none() | children,
        ),
        st.builds(InList, children, some, st.booleans()),
    )


EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=12)


@given(EXPRESSIONS)
@settings(max_examples=300, deadline=None)
def test_printed_expression_parses_back_to_itself(expr):
    statement = parse(f"select {expr} from t")
    (item,) = statement.select_items
    assert item.expr == expr
    assert repr(item.expr) == repr(expr)


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=0.0))
@settings(max_examples=200, deadline=None)
def test_every_finite_float_repr_is_one_literal(value):
    (item,) = parse(f"select {value!r} from t").select_items
    assert item.expr == Literal(value) and type(item.expr.value) is float


# ----------------------------------------------------------------------
# Typed errors over token mutants, on both engines
# ----------------------------------------------------------------------

TYPED = (ParseError, PlanError, CatalogError, ExecutionError)


@pytest.mark.parametrize("engine", ("columnar", "row"))
def test_every_token_mutant_runs_or_raises_a_typed_error(engine):
    layout = "columnar" if engine == "columnar" else "rows"
    database = generate_database(scale=0.2, seed=7, layout=layout)
    raised = 0
    for sql in MUTANTS:
        try:
            run_sql(sql, database, engine=engine)
        except TYPED:
            raised += 1
    assert 0 < raised < len(MUTANTS)


# ----------------------------------------------------------------------
# The benchmark's span hooks
# ----------------------------------------------------------------------

def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_spans_record_one_lex_and_one_parse_per_query():
    recorder = _bench_spans().SpanRecorder()
    database = generate_database(scale=0.1, seed=7, layout="columnar")
    with recorder.instrument(), recorder.root():
        run_sql(TPCH_SQL[3], database)
    assert recorder.stats["sql.lexer.tokenize"][1] == 1
    assert recorder.stats["sql.parser.parse"][1] == 1
