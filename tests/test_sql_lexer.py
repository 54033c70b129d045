"""Tests for the SQL tokenizer."""

from __future__ import annotations

import pytest

from repro.sql.lexer import LexError, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_simple_select():
    tokens = tokenize("select a from t")
    assert [t.text for t in tokens[:-1]] == ["select", "a", "from", "t"]
    assert tokens[0].kind == TokenKind.KEYWORD
    assert tokens[1].kind == TokenKind.IDENT
    assert tokens[-1].kind == TokenKind.EOF


def test_string_literal():
    tokens = tokenize("where name like '%green%'")
    strings = [t for t in tokens if t.kind == TokenKind.STRING]
    assert strings[0].text == "%green%"


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize("select 'oops")


def test_numbers_int_and_float():
    tokens = tokenize("1 23.5 0.25")
    numbers = [t.text for t in tokens if t.kind == TokenKind.NUMBER]
    assert numbers == ["1", "23.5", "0.25"]


def test_qualified_name_not_a_float():
    tokens = tokenize("l.l_suppkey")
    assert [t.kind for t in tokens[:-1]] == [
        TokenKind.IDENT, TokenKind.DOT, TokenKind.IDENT,
    ]


def test_operators():
    tokens = tokenize("a <> b >= c <= d != e")
    ops = [t.text for t in tokens if t.kind == TokenKind.OPERATOR]
    assert ops == ["<>", ">=", "<=", "!="]


def test_comments_skipped():
    tokens = tokenize("select a -- comment here\nfrom t")
    assert [t.text for t in tokens[:-1]] == ["select", "a", "from", "t"]


def test_keywords_case_insensitive():
    tokens = tokenize("SELECT A FROM T")
    assert tokens[0].kind == TokenKind.KEYWORD
    assert tokens[0].lowered == "select"


def test_punctuation():
    source = "f(a, b) * c;"
    expected = [
        TokenKind.IDENT, TokenKind.LPAREN, TokenKind.IDENT, TokenKind.COMMA,
        TokenKind.IDENT, TokenKind.RPAREN, TokenKind.STAR, TokenKind.IDENT,
        TokenKind.SEMICOLON, TokenKind.EOF,
    ]
    assert kinds(source) == expected


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("select @")


def test_exponent_numbers_are_one_token():
    tokens = tokenize("1e5 2.5E-3 .5e+2 7")
    numbers = [t.text for t in tokens if t.kind == TokenKind.NUMBER]
    assert numbers == ["1e5", "2.5E-3", ".5e+2", "7"]
    assert kinds("1e5") == [TokenKind.NUMBER, TokenKind.EOF]


@pytest.mark.parametrize("source", ["1x", "1e", "1e+", "2.5e3x", "1_000", "3²"])
def test_number_running_into_a_word_raises(source):
    with pytest.raises(LexError, match="malformed number"):
        tokenize(source)


@pytest.mark.parametrize("source", ["²", "a + ²", "٣"])
def test_numbers_are_ascii_digits_only(source):
    with pytest.raises(LexError, match="unexpected character"):
        tokenize(source)


def test_non_ascii_identifiers_still_lex():
    tokens = tokenize("café x²")
    assert [(t.kind, t.text) for t in tokens[:-1]] == [
        (TokenKind.IDENT, "café"), (TokenKind.IDENT, "x²"),
    ]


def test_tags_are_resolved_once():
    tokens = tokenize("SELECT a, 1, 'b' <> (c) FROM t")
    assert [t.tag for t in tokens] == [
        "select", TokenKind.IDENT, ",", TokenKind.NUMBER, ",", TokenKind.STRING,
        "<>", "(", TokenKind.IDENT, ")", "from", TokenKind.IDENT, TokenKind.EOF,
    ]
    assert tokens[0].text == "SELECT" and tokens[0].lowered == "select"


def test_positions_and_trailing_whitespace():
    tokens = tokenize("  a 'x y' -- note\n b  ")
    assert [(t.text, t.position) for t in tokens] == [
        ("a", 2), ("x y", 4), ("b", 19), ("", 22),
    ]
