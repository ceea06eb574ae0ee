"""Tokenizer for the C subset used by TSVC kernels and SIMD candidates.

:func:`tokenize` is one scan of a master regular expression with one named
alternative per lexical category; each token's line and column are
computed from its offset.  Whitespace, comments and preprocessor
directives are skipped.  The keyword set includes the vector type name of
every registered target ISA (derived from :mod:`repro.targets`), so
candidates for a new backend lex without touching this module.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

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


#: One alternative per lexical category, tried in order at each offset.
#: ``open_comment`` and ``open_string`` match only where the full form
#: failed, and ``other`` takes any character nothing else accepts: all three
#: are errors.  Digits are ASCII only: ``\d`` and ``str.isdigit`` would also
#: accept "\u0663", which ``int()`` then reads as a decimal digit.
_SCANNER = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in (
        ("space", r"[ \t\r\n]+"),
        ("comment", r"//[^\n]*|/\*.*?\*/"),
        ("open_comment", r"/\*"),
        ("directive", r"#[^\n]*"),
        ("number", r"0[xX][0-9a-fA-F]*[uUlL]*|[0-9]+(?:\.[0-9]+)?[uUlL]*"),
        # A word character that is not a decimal digit; the scan rejects
        # the non-letter numerics (superscripts, fractions) this admits.
        ("ident", r"[^\W\d]\w*"),
        ("string", r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\''),
        ("open_string", "[\"']"),
        ("punct", "|".join(re.escape(punct) for punct in _PUNCTUATORS)),
        ("other", "."),
    )),
    re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into a list ending with an EOF token.

    One scan of :data:`_SCANNER`; a token's line and column come from its
    offset and the offset where its line starts.  A line whose first
    non-blank character is ``#`` is a preprocessor directive (C11 6.10) and
    is skipped: ``#include <immintrin.h>`` carries no meaning here, since
    intrinsic semantics are supplied by :mod:`repro.intrinsics`.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _SCANNER.finditer(source):
        kind, text, start = match.lastgroup, match.group(), match.start()
        column = start - line_start + 1
        if kind == "space" or kind == "comment":
            pass
        elif kind == "punct":
            append(Token(TokenKind.PUNCT, text, SourceLocation(line, column)))
        elif kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            append(Token(TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT, text,
                         SourceLocation(line, column)))
        elif kind == "number":
            append(Token(TokenKind.NUMBER, text, SourceLocation(line, column)))
        elif kind == "string":
            append(Token(TokenKind.STRING, text[1:-1], SourceLocation(line, column)))
        elif kind == "directive" and not source[line_start:start].strip(" \t"):
            pass
        elif kind == "open_comment":
            raise LexError("unterminated block comment",
                           SourceLocation(line + source.count("\n", start),
                                          len(source) - source.rfind("\n")))
        elif kind == "open_string":
            raise LexError("unterminated string literal", SourceLocation(line, column))
        else:
            raise LexError(f"unexpected character {text[0]!r}", SourceLocation(line, column))
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    append(Token(TokenKind.EOF, "", SourceLocation(line, len(source) - line_start + 1)))
    return tokens
