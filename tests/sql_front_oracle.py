"""The original character-loop lexer and recursive-descent parser, kept as
a test oracle for the SQL front end.

:func:`oracle_parse` accepts the same dialect as :func:`repro.sql.parse`
and builds the same trees, but it walks the text one character at a time,
builds a dataclass per token, and tests keywords by lowering the token
text at every check, as the front end once did.  Its number literals
follow the current grammar: ASCII digits, an optional fraction and an
optional exponent, and a number may not run into a letter or ``_``.
``tests/test_sql_front.py`` runs both over fixed corpora and token
mutants and requires equal trees, or a parse error from both.

The oracle shares no code with the front end it checks: it imports only
the :mod:`repro.sql.ast` node classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite
from typing import Optional, Union

from repro.sql.ast import (
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


class OracleParseError(ValueError):
    """The oracle's lexing or parsing error."""


class Kind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    OPERATOR = "operator"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    DOT = "."
    STAR = "*"
    SEMICOLON = ";"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "select", "from", "where", "group", "order", "by", "having",
        "join", "inner", "left", "right", "outer", "on", "as", "and",
        "or", "not", "like", "in", "between", "limit", "asc", "desc",
        "distinct", "case", "when", "then", "else", "end", "is", "null",
        "exists", "union", "all",
    }
)

_OPERATORS = ("<>", "!=", ">=", "<=", "=", "<", ">", "+", "-", "/", "%", "||")
_PUNCTUATION = {
    "(": Kind.LPAREN, ")": Kind.RPAREN, ",": Kind.COMMA,
    ".": Kind.DOT, "*": Kind.STAR, ";": Kind.SEMICOLON,
}


@dataclass(frozen=True)
class OracleToken:
    kind: Kind
    text: str
    position: int

    @property
    def lowered(self) -> str:
        return self.text.lower()

    @property
    def end(self) -> int:
        """Where the token's source text ends (strings include the quotes)."""
        return self.position + len(self.text) + (2 if self.kind == Kind.STRING else 0)


def _ascii_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _digits_from(source: str, i: int) -> int:
    while i < len(source) and _ascii_digit(source[i]):
        i += 1
    return i


def oracle_tokenize(source: str) -> list[OracleToken]:
    """Tokenize ``source``; always ends with an EOF token."""
    tokens: list[OracleToken] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if source.startswith("--", i):
            end = source.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            end = source.find("'", i + 1)
            if end < 0:
                raise OracleParseError(f"unterminated string literal at {i}")
            tokens.append(OracleToken(Kind.STRING, source[i + 1 : end], i))
            i = end + 1
            continue
        if _ascii_digit(ch) or (ch == "." and i + 1 < n and _ascii_digit(source[i + 1])):
            end = _digits_from(source, i)
            # A dot is part of the number only when a digit follows it.
            if end + 1 < n and source[end] == "." and _ascii_digit(source[end + 1]):
                end = _digits_from(source, end + 1)
            if end < n and source[end] in "eE":
                digits = end + 2 if end + 1 < n and source[end + 1] in "+-" else end + 1
                if digits < n and _ascii_digit(source[digits]):
                    end = _digits_from(source, digits)
            if end < n and (source[end].isalnum() or source[end] == "_"):
                raise OracleParseError(f"malformed number at position {i}")
            tokens.append(OracleToken(Kind.NUMBER, source[i:end], i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i
            while end < n and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[i:end]
            kind = Kind.KEYWORD if text.lower() in KEYWORDS else Kind.IDENT
            tokens.append(OracleToken(kind, text, i))
            i = end
            continue
        if ch in _PUNCTUATION:
            tokens.append(OracleToken(_PUNCTUATION[ch], ch, i))
            i += 1
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(OracleToken(Kind.OPERATOR, op, i))
                i += len(op)
                break
        else:
            raise OracleParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(OracleToken(Kind.EOF, "", n))
    return tokens


class OracleParser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[OracleToken]) -> None:
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> OracleToken:
        return self._tokens[self._pos]

    def _advance(self) -> OracleToken:
        token = self.current
        self._pos += 1
        return token

    def _check_keyword(self, *words: str) -> bool:
        return self.current.kind == Kind.KEYWORD and self.current.lowered in words

    def _accept_keyword(self, *words: str) -> bool:
        if self._check_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise OracleParseError(f"expected {word!r} at position {self.current.position}")

    def _expect(self, kind: Kind) -> OracleToken:
        if self.current.kind != kind:
            raise OracleParseError(f"expected {kind.value} at position {self.current.position}")
        return self._advance()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> SelectStatement:
        statement = self._parse_select()
        if self.current.kind == Kind.SEMICOLON:
            self._advance()
        self._expect(Kind.EOF)
        return statement

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        statement = SelectStatement()
        statement.distinct = self._accept_keyword("distinct")
        statement.select_items.append(self._parse_select_item())
        while self.current.kind == Kind.COMMA:
            self._advance()
            statement.select_items.append(self._parse_select_item())
        if self._accept_keyword("from"):
            statement.from_table = self._parse_table_ref()
            while self._check_keyword("join", "inner", "left", "right"):
                statement.joins.append(self._parse_join())
        if self._accept_keyword("where"):
            statement.where = self._parse_expr()
        if self._check_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            statement.group_by.append(self._parse_expr())
            while self.current.kind == Kind.COMMA:
                self._advance()
                statement.group_by.append(self._parse_expr())
        if self._accept_keyword("having"):
            statement.having = self._parse_expr()
        if self._check_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            statement.order_by.append(self._parse_order_item())
            while self.current.kind == Kind.COMMA:
                self._advance()
                statement.order_by.append(self._parse_order_item())
        if self._accept_keyword("limit"):
            token = self._expect(Kind.NUMBER)
            value = float(token.text)
            if not isfinite(value):
                raise OracleParseError(f"LIMIT out of range at position {token.position}")
            statement.limit = int(value)
        return statement

    def _parse_select_item(self) -> SelectItem:
        if self.current.kind == Kind.STAR:
            self._advance()
            return SelectItem(expr=Star())
        expr = self._parse_expr()
        alias: Optional[str] = None
        if self._accept_keyword("as"):
            alias = self._expect(Kind.IDENT).text
        elif self.current.kind == Kind.IDENT:
            alias = self._advance().text
        return SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expr=expr, descending=descending)

    def _parse_table_ref(self) -> Union[TableRef, SubqueryRef]:
        if self.current.kind == Kind.LPAREN:
            self._advance()
            subquery = self._parse_select()
            self._expect(Kind.RPAREN)
            alias = None
            self._accept_keyword("as")
            if self.current.kind == Kind.IDENT:
                alias = self._advance().text
            return SubqueryRef(query=subquery, alias=alias)
        name = self._expect(Kind.IDENT).text
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect(Kind.IDENT).text
        elif self.current.kind == Kind.IDENT:
            alias = self._advance().text
        return TableRef(name=name, alias=alias)

    def _parse_join(self) -> JoinClause:
        kind = "inner"
        if self._accept_keyword("left"):
            kind = "left"
            self._accept_keyword("outer")
        elif self._accept_keyword("right"):
            kind = "right"
            self._accept_keyword("outer")
        elif self._accept_keyword("inner"):
            kind = "inner"
        self._expect_keyword("join")
        table = self._parse_table_ref()
        self._expect_keyword("on")
        condition = self._parse_expr()
        return JoinClause(kind=kind, table=table, condition=condition)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self.current.kind == Kind.OPERATOR and self.current.text in (
            "=", "<>", "!=", "<", ">", "<=", ">=",
        ):
            op = self._advance().text
            if op == "!=":
                op = "<>"
            return BinaryOp(op, left, self._parse_additive())
        if self._check_keyword("like"):
            self._advance()
            return BinaryOp("like", left, self._parse_additive())
        if self._check_keyword("in"):
            self._advance()
            return self._parse_in_list(left, negated=False)
        if self._check_keyword("not"):
            save = self._pos
            self._advance()
            if self._accept_keyword("like"):
                return UnaryOp("not", BinaryOp("like", left, self._parse_additive()))
            if self._accept_keyword("in"):
                return self._parse_in_list(left, negated=True)
            self._pos = save
        if self._check_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return BinaryOp(
                "and", BinaryOp(">=", left, low), BinaryOp("<=", left, high)
            )
        if self._check_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            test = FunctionCall("is_null", (left,))
            return UnaryOp("not", test) if negated else test
        return left

    def _parse_in_list(self, left: Expr, negated: bool) -> InList:
        self._expect(Kind.LPAREN)
        values = [self._parse_expr()]
        while self.current.kind == Kind.COMMA:
            self._advance()
            values.append(self._parse_expr())
        self._expect(Kind.RPAREN)
        return InList(expr=left, values=tuple(values), negated=negated)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.current.kind == Kind.OPERATOR and self.current.text in ("+", "-", "||"):
            op = self._advance().text
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while (
            self.current.kind == Kind.STAR
            or (self.current.kind == Kind.OPERATOR and self.current.text in ("/", "%"))
        ):
            op = "*" if self.current.kind == Kind.STAR else self.current.text
            self._advance()
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self.current.kind == Kind.OPERATOR and self.current.text == "-":
            self._advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.current
        if token.kind == Kind.NUMBER:
            self._advance()
            value = float(token.text)
            integral = value.is_integer() and all(_ascii_digit(ch) for ch in token.text)
            return Literal(int(value) if integral else value)
        if token.kind == Kind.STRING:
            self._advance()
            return Literal(token.text)
        if token.kind == Kind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(Kind.RPAREN)
            return expr
        if token.kind == Kind.KEYWORD and token.lowered == "null":
            self._advance()
            return Literal(None)
        if token.kind == Kind.KEYWORD and token.lowered == "case":
            return self._parse_case()
        if token.kind == Kind.IDENT:
            return self._parse_name_or_call()
        raise OracleParseError(f"unexpected token {token.text!r} at position {token.position}")

    def _parse_case(self) -> CaseExpr:
        self._expect_keyword("case")
        whens: list[tuple[Expr, Expr]] = []
        while self._accept_keyword("when"):
            condition = self._parse_expr()
            self._expect_keyword("then")
            whens.append((condition, self._parse_expr()))
        if not whens:
            raise OracleParseError("CASE needs at least one WHEN arm")
        default = self._parse_expr() if self._accept_keyword("else") else None
        self._expect_keyword("end")
        return CaseExpr(whens=tuple(whens), default=default)

    def _parse_name_or_call(self) -> Expr:
        name = self._expect(Kind.IDENT).text
        if self.current.kind == Kind.LPAREN:
            self._advance()
            distinct = self._accept_keyword("distinct")
            args: list[Expr] = []
            if self.current.kind == Kind.STAR:
                self._advance()
                args.append(Star())
            elif self.current.kind != Kind.RPAREN:
                args.append(self._parse_expr())
                while self.current.kind == Kind.COMMA:
                    self._advance()
                    args.append(self._parse_expr())
            self._expect(Kind.RPAREN)
            return FunctionCall(name.lower(), tuple(args), distinct=distinct)
        if self.current.kind == Kind.DOT:
            self._advance()
            if self.current.kind == Kind.STAR:
                self._advance()
                return Star(qualifier=name)
            column = self._expect(Kind.IDENT).text
            return ColumnRef(name=column, qualifier=name)
        return ColumnRef(name=name)


def oracle_parse(source: str) -> SelectStatement:
    """Parse one SELECT statement; raises :class:`OracleParseError`."""
    return OracleParser(oracle_tokenize(source)).parse_statement()
