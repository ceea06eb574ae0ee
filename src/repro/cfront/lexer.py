"""Tokenizer for the C subset used by TSVC kernels and SIMD candidates.

The keyword set includes the vector type name of every registered target
ISA (derived from :mod:`repro.targets`), so candidates for a new backend
lex without touching this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterator

from repro.errors import LexError, SourceLocation
from repro.targets.isa import PREDICATE_TYPE_NAMES, VECTOR_TYPE_LANES


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punct"
    STRING = "string"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "int",
        "void",
        "char",
        "long",
        "short",
        "unsigned",
        "signed",
        "const",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "goto",
        "struct",
        "sizeof",
        "static",
        "extern",
        "int16_t",
        "int32_t",
        "int64_t",
    }
) | frozenset(VECTOR_TYPE_LANES) | PREDICATE_TYPE_NAMES

# C digits are ASCII only: ``str.isdigit`` would also accept "\u0663" and
# friends, which ``int()`` then reads as decimal digits.
_DIGITS = frozenset("0123456789")

# Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "<<=",
    ">>=",
    "...",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ".",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source location."""

    kind: TokenKind
    text: str
    location: SourceLocation

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"


class _Cursor:
    """Mutable scanning cursor over the source text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.text):
            return ""
        return self.text[index]

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            char = self.text[self.pos]
            self.pos += 1
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def startswith(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)


def _skip_trivia(cursor: _Cursor) -> None:
    """Skip whitespace, comments and preprocessor lines."""
    while not cursor.at_end():
        char = cursor.peek()
        if char in " \t\r\n":
            cursor.advance()
        elif cursor.startswith("//"):
            while not cursor.at_end() and cursor.peek() != "\n":
                cursor.advance()
        elif cursor.startswith("/*"):
            cursor.advance(2)
            while not cursor.at_end() and not cursor.startswith("*/"):
                cursor.advance()
            if cursor.at_end():
                raise LexError("unterminated block comment", cursor.location())
            cursor.advance(2)
        elif char == "#" and cursor.column == 1:
            # Preprocessor directives (#include <immintrin.h>) are ignored;
            # intrinsic semantics are supplied by repro.intrinsics.
            while not cursor.at_end() and cursor.peek() != "\n":
                cursor.advance()
        else:
            return


def _lex_number(cursor: _Cursor) -> Token:
    location = cursor.location()
    start = cursor.pos
    if cursor.peek() == "0" and cursor.peek(1) and cursor.peek(1) in "xX":
        cursor.advance(2)
        while cursor.peek() and cursor.peek() in "0123456789abcdefABCDEF":
            cursor.advance()
    else:
        while cursor.peek() in _DIGITS:
            cursor.advance()
        if cursor.peek() == "." and cursor.peek(1) in _DIGITS:
            cursor.advance()
            while cursor.peek() in _DIGITS:
                cursor.advance()
    # Integer suffixes are accepted and discarded.  (peek() returns "" at
    # end of input, and "" is a substring of any string — guard against it.)
    while cursor.peek() and cursor.peek() in "uUlL":
        cursor.advance()
    text = cursor.text[start : cursor.pos]
    return Token(TokenKind.NUMBER, text, location)


def _lex_ident(cursor: _Cursor) -> Token:
    location = cursor.location()
    start = cursor.pos
    while cursor.peek().isalnum() or cursor.peek() == "_":
        cursor.advance()
    text = cursor.text[start : cursor.pos]
    kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
    return Token(kind, text, location)


def _lex_string(cursor: _Cursor) -> Token:
    location = cursor.location()
    quote = cursor.peek()
    cursor.advance()
    start = cursor.pos
    while not cursor.at_end() and cursor.peek() != quote:
        if cursor.peek() == "\\":
            cursor.advance()
        cursor.advance()
    if cursor.at_end():
        raise LexError("unterminated string literal", location)
    text = cursor.text[start : cursor.pos]
    cursor.advance()
    return Token(TokenKind.STRING, text, location)


def iter_tokens(source: str) -> Iterator[Token]:
    """Yield tokens for ``source``, ending with a single EOF token."""
    cursor = _Cursor(source)
    while True:
        _skip_trivia(cursor)
        if cursor.at_end():
            yield Token(TokenKind.EOF, "", cursor.location())
            return
        char = cursor.peek()
        if char in _DIGITS:
            yield _lex_number(cursor)
        elif char.isalpha() or char == "_":
            yield _lex_ident(cursor)
        elif char in "\"'":
            yield _lex_string(cursor)
        else:
            location = cursor.location()
            for punct in _PUNCTUATORS:
                if cursor.startswith(punct):
                    cursor.advance(len(punct))
                    yield Token(TokenKind.PUNCT, punct, location)
                    break
            else:
                raise LexError(f"unexpected character {char!r}", location)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    return list(iter_tokens(source))
