"""Recursive-descent parser for the Swift SQL dialect.

Covers the constructs Fig. 1 uses: SELECT lists with aliases and arithmetic,
FROM with base tables and parenthesised subqueries, chained JOIN ... ON with
multi-term conditions, WHERE with LIKE, GROUP BY, ORDER BY ... DESC, LIMIT.

It keeps one method per precedence level and compares each lookahead
token's ``tag`` (resolved once by the lexer); a binary level finds its
operators in a small dict.  Token text is never lowered here.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Optional, TypeVar, Union

from .ast import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from .lexer import KEYWORDS, LexError, Tag, Token, TokenKind, tokenize


class ParseError(ValueError):
    """Raised when the source does not conform to the grammar."""


_IDENT, _NUMBER, _STRING, _EOF = TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING, TokenKind.EOF

#: Operator tag -> the ``BinaryOp`` operator, one dict per precedence level.
_COMPARISONS = {"=": "=", "<>": "<>", "!=": "<>", "<": "<", ">": ">", "<=": "<=", ">=": ">="}
_ADDITIVE = {"+": "+", "-": "-", "||": "||"}
_MULTIPLICATIVE = {"*": "*", "/": "/", "%": "%"}

#: Tag that starts a JOIN clause -> the join kind.
_JOIN_KINDS = {"join": "inner", "inner": "inner", "left": "left", "right": "right"}

T = TypeVar("T")


class Parser:
    """One-token-lookahead recursive-descent parser over token tags."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        #: Every token's tag, plus one more EOF so reading past the end is EOF.
        self._tags = [token.tag for token in tokens] + [_EOF]
        self._pos = 0
        #: The lookahead token's tag.
        self._tag = self._tags[0]

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _advance(self) -> Token:
        pos = self._pos
        self._pos = pos + 1
        self._tag = self._tags[pos + 1]
        return self._tokens[pos]

    def _accept(self, tag: Tag) -> bool:
        if self._tag == tag:
            self._advance()
            return True
        return False

    def _expect(self, tag: Tag) -> Token:
        if self._tag != tag:
            if isinstance(tag, TokenKind):
                expected = tag.value
            else:
                expected = repr(tag.upper()) if tag in KEYWORDS else tag
            token = self._tokens[self._pos]
            raise ParseError(
                f"expected {expected}, found {token.text!r} at position {token.position}"
            )
        return self._advance()

    def _parse_list(self, parse_item: Callable[[], T]) -> list[T]:
        """One or more comma-separated items."""
        items = [parse_item()]
        while self._accept(","):
            items.append(parse_item())
        return items

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> SelectStatement:
        """Parse a full SELECT statement up to EOF."""
        statement = self._parse_select()
        self._accept(";")
        self._expect(_EOF)
        return statement

    def _parse_select(self) -> SelectStatement:
        self._expect("select")
        statement = SelectStatement()
        statement.distinct = self._accept("distinct")
        statement.select_items = self._parse_list(self._parse_select_item)
        if self._accept("from"):
            statement.from_table = self._parse_table_ref()
            while self._tag in _JOIN_KINDS:
                statement.joins.append(self._parse_join())
        if self._accept("where"):
            statement.where = self._parse_expr()
        if self._accept("group"):
            self._expect("by")
            statement.group_by = self._parse_list(self._parse_expr)
        if self._accept("having"):
            statement.having = self._parse_expr()
        if self._accept("order"):
            self._expect("by")
            statement.order_by = self._parse_list(self._parse_order_item)
        if self._accept("limit"):
            token = self._expect(_NUMBER)
            limit = float(token.text)
            if not isfinite(limit):
                raise ParseError(f"LIMIT {token.text!r} out of range at position {token.position}")
            statement.limit = int(limit)
        return statement

    def _parse_alias(self) -> Optional[str]:
        if self._tag is _IDENT:
            return self._advance().text
        return self._expect(_IDENT).text if self._accept("as") else None

    def _parse_select_item(self) -> SelectItem:
        if self._accept("*"):
            return SelectItem(expr=Star())
        expr = self._parse_expr()
        return SelectItem(expr=expr, alias=self._parse_alias())

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        descending = self._accept("desc")
        if not descending:
            self._accept("asc")
        return OrderItem(expr=expr, descending=descending)

    def _parse_table_ref(self) -> Union[TableRef, SubqueryRef]:
        if self._accept("("):
            subquery = self._parse_select()
            self._expect(")")
            self._accept("as")
            alias = self._advance().text if self._tag is _IDENT else None
            return SubqueryRef(query=subquery, alias=alias)
        name = self._expect(_IDENT).text
        return TableRef(name=name, alias=self._parse_alias())

    def _parse_join(self) -> JoinClause:
        kind = _JOIN_KINDS[self._tag]
        if self._tag != "join":
            self._advance()
            if kind != "inner":
                self._accept("outer")
        self._expect("join")
        table = self._parse_table_ref()
        self._expect("on")
        return JoinClause(kind=kind, table=table, condition=self._parse_expr())

    # ------------------------------------------------------------------
    # Expressions, loosest level first: OR, AND, NOT, comparison,
    # additive, multiplicative, unary minus, primary.
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        left = self._parse_and()
        while self._tag == "or":
            self._advance()
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._tag == "and":
            self._advance()
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._tag == "not":
            self._advance()
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        tag = self._tag
        op = _COMPARISONS.get(tag)
        if op is not None:
            self._advance()
            return BinaryOp(op, left, self._parse_additive())
        if tag == "not" and self._tags[self._pos + 1] in ("like", "in"):
            # "x NOT LIKE y" / "x NOT IN (...)"; any other NOT is the caller's.
            self._advance()
            if self._accept("like"):
                return UnaryOp("not", BinaryOp("like", left, self._parse_additive()))
            self._advance()
            return self._parse_in_list(left, negated=True)
        if tag == "like":
            self._advance()
            return BinaryOp("like", left, self._parse_additive())
        if tag == "in":
            self._advance()
            return self._parse_in_list(left, negated=False)
        if tag == "between":
            self._advance()
            low = self._parse_additive()
            self._expect("and")
            high = self._parse_additive()
            return BinaryOp("and", BinaryOp(">=", left, low), BinaryOp("<=", left, high))
        if tag == "is":
            self._advance()
            negated = self._accept("not")
            self._expect("null")
            test = FunctionCall("is_null", (left,))
            return UnaryOp("not", test) if negated else test
        return left

    def _parse_in_list(self, left: Expr, negated: bool) -> InList:
        self._expect("(")
        values = self._parse_list(self._parse_expr)
        self._expect(")")
        return InList(expr=left, values=tuple(values), negated=negated)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        op = _ADDITIVE.get(self._tag)
        while op is not None:
            self._advance()
            left = BinaryOp(op, left, self._parse_multiplicative())
            op = _ADDITIVE.get(self._tag)
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        op = _MULTIPLICATIVE.get(self._tag)
        while op is not None:
            self._advance()
            left = BinaryOp(op, left, self._parse_unary())
            op = _MULTIPLICATIVE.get(self._tag)
        return left

    def _parse_unary(self) -> Expr:
        if self._tag == "-":
            self._advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tag = self._tag
        if tag is _IDENT:
            return self._parse_name_or_call()
        if tag is _NUMBER:
            text = self._advance().text
            value = float(text)
            return Literal(int(value) if value.is_integer() and text.isdigit() else value)
        if tag is _STRING:
            return Literal(self._advance().text)
        if self._accept("("):
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if self._accept("null"):
            return Literal(None)
        if tag == "case":
            return self._parse_case()
        token = self._tokens[self._pos]
        raise ParseError(f"unexpected token {token.text!r} at position {token.position}")

    def _parse_case(self) -> CaseExpr:
        self._advance()  # CASE
        whens: list[tuple[Expr, Expr]] = []
        while self._accept("when"):
            condition = self._parse_expr()
            self._expect("then")
            whens.append((condition, self._parse_expr()))
        if not whens:
            raise ParseError("CASE needs at least one WHEN arm")
        default = self._parse_expr() if self._accept("else") else None
        self._expect("end")
        return CaseExpr(whens=tuple(whens), default=default)

    def _parse_name_or_call(self) -> Expr:
        name = self._advance().text
        tag = self._tag
        if tag == "(":
            self._advance()
            distinct = self._accept("distinct")
            args: list[Expr] = []
            if self._accept("*"):
                args.append(Star())
            elif self._tag != ")":
                args = self._parse_list(self._parse_expr)
            self._expect(")")
            return FunctionCall(name.lower(), tuple(args), distinct=distinct)
        if tag == ".":
            self._advance()
            if self._accept("*"):
                return Star(qualifier=name)
            return ColumnRef(name=self._expect(_IDENT).text, qualifier=name)
        return ColumnRef(name=name)


def parse(source: str) -> SelectStatement:
    """Parse one SELECT statement."""
    try:
        tokens = tokenize(source)
    except LexError as exc:
        raise ParseError(str(exc)) from exc
    try:
        return Parser(tokens).parse_statement()
    except RecursionError:
        raise ParseError("statement nested too deeply") from None
