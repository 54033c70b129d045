"""Tokenizer for the Swift SQL-like job-description language (Fig. 1).

One compiled regex, run with ``finditer``, splits the text: each match
skips whitespace and ``--`` comments, then takes one word, number,
punctuation, operator or string token, a bad character, or the end.
Each token's ``tag`` is resolved here, once, for the parser to compare:
a keyword's lowered, interned text, an operator's or punctuation's text,
or the :class:`TokenKind` of an identifier, number, string or EOF.
"""

from __future__ import annotations

import enum
import re
import sys
from typing import NamedTuple, Union


class TokenKind(enum.Enum):
    """Token categories produced by the lexer."""
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

_KEYWORD_TAGS = {word: sys.intern(word) for word in KEYWORDS}
_PUNCTUATION = {
    "(": TokenKind.LPAREN, ")": TokenKind.RPAREN, ",": TokenKind.COMMA,
    ".": TokenKind.DOT, "*": TokenKind.STAR, ";": TokenKind.SEMICOLON,
}

# Numbers are ASCII digits (what float() reads) with an optional fraction
# and exponent; a number that runs into a letter, digit or "_" is malformed.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:--[^\n]*\s*)*
    (?:
        (?P<word>[^\W\d]\w*)
      | (?P<number>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)(?P<badnumber>\w+)?
      | (?P<punct>[(),.*;])
      | (?P<op><>|!=|>=|<=|\|\||[=<>+\-/%])
      | (?P<string>'[^']*')
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: Group numbers, so that the loop compares ints rather than group names.
_WORD, _NUMBER, _BADNUMBER, _PUNCT, _OP, _STRING, _EOF = (
    _TOKEN_RE.groupindex[name]
    for name in ("word", "number", "badnumber", "punct", "op", "string", "eof")
)

Tag = Union[str, TokenKind]


class LexError(ValueError):
    """Raised on unexpected input characters."""


class Token(NamedTuple):
    """One lexical token with its source position and parser tag."""
    kind: TokenKind
    text: str
    position: int
    tag: Tag

    @property
    def lowered(self) -> str:
        """The token text lower-cased (keywords compare case-insensitively)."""
        return self.text.lower()


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; always ends with an EOF token."""
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # skips NamedTuple's Python __new__
    ident, number = TokenKind.IDENT, TokenKind.NUMBER
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        text = match[group]
        position = match.start(group)
        if group == _WORD:
            tag = _KEYWORD_TAGS.get(text.lower())
            if tag is not None:
                append(new(Token, (TokenKind.KEYWORD, text, position, tag)))
            elif text[0].isalpha() or text[0] == "_":
                append(new(Token, (ident, text, position, ident)))
            else:  # '²' and other numeric characters start no identifier
                raise LexError(f"unexpected character {text[0]!r} at position {position}")
        elif group == _PUNCT:
            append(new(Token, (_PUNCTUATION[text], text, position, text)))
        elif group == _OP:
            append(new(Token, (TokenKind.OPERATOR, text, position, text)))
        elif group == _NUMBER:
            append(new(Token, (number, text, position, number)))
        elif group == _STRING:
            append(new(Token, (TokenKind.STRING, text[1:-1], position, TokenKind.STRING)))
        elif group == _EOF:
            append(new(Token, (TokenKind.EOF, "", position, TokenKind.EOF)))
            break
        elif group == _BADNUMBER:
            start = match.start(_NUMBER)
            raise LexError(f"malformed number {source[start:match.end()]!r} at position {start}")
        elif text == "'":
            raise LexError(f"unterminated string literal at {position}")
        else:
            raise LexError(f"unexpected character {text!r} at position {position}")
    return tokens
