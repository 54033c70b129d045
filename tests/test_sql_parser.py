"""Tests for the SQL parser."""

from __future__ import annotations

import pytest

from repro.sql import FIG1_QUERY
from repro.sql.ast import (
    BinaryOp,
    FunctionCall,
    Literal,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.parser import ParseError, parse


def test_minimal_select():
    stmt = parse("select a, b from t")
    assert [i.output_name for i in stmt.select_items] == ["a", "b"]
    assert isinstance(stmt.from_table, TableRef)
    assert stmt.from_table.name == "t"


def test_aliases():
    stmt = parse("select a as x, b y from t u")
    assert stmt.select_items[0].alias == "x"
    assert stmt.select_items[1].alias == "y"
    assert stmt.from_table.alias == "u"


def test_star():
    stmt = parse("select * from t")
    assert isinstance(stmt.select_items[0].expr, Star)


def test_arithmetic_precedence():
    stmt = parse("select a + b * c from t")
    expr = stmt.select_items[0].expr
    assert isinstance(expr, BinaryOp) and expr.op == "+"
    assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"


def test_parenthesised_expression():
    stmt = parse("select (a + b) * c from t")
    expr = stmt.select_items[0].expr
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_unary_minus():
    stmt = parse("select -a from t")
    assert isinstance(stmt.select_items[0].expr, UnaryOp)


def test_where_and_or_precedence():
    stmt = parse("select a from t where x = 1 or y = 2 and z = 3")
    assert stmt.where.op == "or"
    assert stmt.where.right.op == "and"


def test_like_and_not_like():
    stmt = parse("select a from t where name like '%x%' and name not like 'y%'")
    clause = stmt.where
    assert clause.op == "and"
    assert clause.left.op == "like"
    assert isinstance(clause.right, UnaryOp) and clause.right.op == "not"


def test_between_desugars():
    stmt = parse("select a from t where x between 1 and 5")
    clause = stmt.where
    assert clause.op == "and"
    assert clause.left.op == ">=" and clause.right.op == "<="


def test_is_null():
    stmt = parse("select a from t where x is null")
    assert isinstance(stmt.where, FunctionCall)
    stmt = parse("select a from t where x is not null")
    assert isinstance(stmt.where, UnaryOp)


def test_joins_with_conditions():
    stmt = parse(
        "select a from t1 join t2 on t1.k = t2.k left join t3 on t2.j = t3.j"
    )
    assert len(stmt.joins) == 2
    assert stmt.joins[0].kind == "inner"
    assert stmt.joins[1].kind == "left"


def test_multi_term_join_condition():
    stmt = parse("select a from t1 join t2 on t1.x = t2.x and t1.y = t2.y")
    assert stmt.joins[0].condition.op == "and"


def test_group_by_order_by_limit():
    stmt = parse(
        "select a, sum(b) s from t group by a order by a desc, s limit 10"
    )
    assert len(stmt.group_by) == 1
    assert stmt.order_by[0].descending is True
    assert stmt.order_by[1].descending is False
    assert stmt.limit == 10
    assert stmt.is_aggregate


def test_count_star_and_distinct():
    stmt = parse("select count(*) c, count(distinct x) d from t")
    count = stmt.select_items[0].expr
    assert isinstance(count.args[0], Star)
    assert stmt.select_items[1].expr.distinct


def test_subquery_in_from():
    stmt = parse("select x from (select a as x from t) sub")
    assert isinstance(stmt.from_table, SubqueryRef)
    assert stmt.from_table.alias == "sub"
    assert stmt.from_table.query.from_table.name == "t"


def test_fig1_query_parses():
    """The paper's Fig. 1 job text (TPC-H Q9) must parse completely."""
    stmt = parse(FIG1_QUERY)
    assert isinstance(stmt.from_table, SubqueryRef)
    inner = stmt.from_table.query
    assert len(inner.joins) == 5
    assert stmt.limit == 999999
    assert stmt.is_aggregate
    assert [i.output_name for i in stmt.select_items] == [
        "nation", "o_year", "sum_profit",
    ]


def test_function_call_substr():
    stmt = parse("select substr(o_orderdate, 1, 4) from orders")
    call = stmt.select_items[0].expr
    assert call.name == "substr"
    assert len(call.args) == 3
    assert call.args[1] == Literal(1)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("selec a from t")
    with pytest.raises(ParseError):
        parse("select a from")
    with pytest.raises(ParseError):
        parse("select a from t where")
    with pytest.raises(ParseError):
        parse("select a from t extra junk")
    with pytest.raises(ParseError):
        parse("select a from t join u")  # missing ON


def test_case_when_expression():
    from repro.sql.ast import CaseExpr

    stmt = parse(
        "select case when x > 1 then 'big' when x = 1 then 'one' "
        "else 'small' end as size from t"
    )
    expr = stmt.select_items[0].expr
    assert isinstance(expr, CaseExpr)
    assert len(expr.whens) == 2
    assert expr.default == Literal("small")


def test_case_without_else():
    from repro.sql.ast import CaseExpr

    stmt = parse("select case when x = 1 then 2 end from t")
    expr = stmt.select_items[0].expr
    assert isinstance(expr, CaseExpr)
    assert expr.default is None


def test_case_requires_when():
    with pytest.raises(ParseError):
        parse("select case else 1 end from t")


def test_in_list_and_not_in():
    from repro.sql.ast import InList

    stmt = parse("select a from t where x in (1, 2, 3) and y not in ('a')")
    clause = stmt.where
    assert isinstance(clause.left, InList) and not clause.left.negated
    assert len(clause.left.values) == 3
    assert isinstance(clause.right, InList) and clause.right.negated


def test_aggregate_inside_case_detected():
    stmt = parse("select case when sum(x) > 1 then 1 else 0 end from t")
    assert stmt.is_aggregate


def test_exponent_literal_is_a_float():
    stmt = parse("select 1e5, 2.5E-3 from t")
    assert [item.expr for item in stmt.select_items] == [Literal(100000.0), Literal(0.0025)]
    assert type(stmt.select_items[0].expr.value) is float
    assert stmt.select_items[0].alias is None


def test_integer_and_decimal_literals_keep_their_type():
    values = [item.expr.value for item in parse("select 7, 7.0, .5 from t").select_items]
    assert values == [7, 7.0, 0.5]
    assert [type(v) for v in values] == [int, float, float]


@pytest.mark.parametrize("sql", [
    "select ² from t",
    "select 1x from t",
    "select 1e from t",
    "select a from t limit 1e400",
    pytest.param("select " + "(" * 400 + "1" + ")" * 400 + " from t", id="deep_nesting"),
])
def test_malformed_input_is_a_parse_error(sql):
    with pytest.raises(ParseError):
        parse(sql)


def test_error_messages_name_the_expected_token():
    with pytest.raises(ParseError, match=r"expected 'BY', found 'x' at position 22"):
        parse("select a from t group x")
    with pytest.raises(ParseError, match=r"expected \), found 'from' at position 11"):
        parse("select f(a from t")
    with pytest.raises(ParseError, match=r"expected ident, found '1' at position 12"):
        parse("select a as 1 from t")
    with pytest.raises(ParseError, match=r"expected eof, found 'junk' at position 21"):
        parse("select a from t junk junk")
    with pytest.raises(ParseError, match=r"unexpected token 'from' at position 7"):
        parse("select from t")
