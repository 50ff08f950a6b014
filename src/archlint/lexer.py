"""The one lexer: tables of token patterns, positions and a token cursor.

It names no language: each front-end and the architecture parser build
their tables with `_table` in their own modules.

A table is a compiled alternation of named groups, tried in order at each
position; the name of the group that matched is the token kind. Each match
first passes over the table's gap, the text it skips: `blank` characters
and whole `skipped` pieces (comments). Every table ends in an `eof` group
that matches the end of the text. A table may have an `error` group that
matches any other single character: lexing stops at it and the caller
reports it in its own terms. A `string` group holds a `body` group, the
text between the quotes. `lex` makes the token of a `string` match with
the rule its caller passes; the default keeps the kind `string` and takes
the body with each backslash dropped and the character after it kept.

A token carries the text offset where it starts. `Lines` is the one
position rule: it turns an offset into a line, counted at `\\n`, and a
column, counting characters (tabs included) from the last `\\n`. Every
front-end reports each location through it.

`Cursor` is the one token reader: every parser subclasses it and says only
how a failed expectation is reported (`fail`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Callable


class Token(namedtuple("Token", "kind text start")):
    """A token: its kind (str, the name of the group that matched), its text
    (str), and the text offset (int) where it starts."""

    __slots__ = ()


class Lines:
    """The 1-based (line, column) of offsets in `text`: `at` counts forward
    from its last answer, and from the start when asked for an earlier one."""

    __slots__ = ("text", "offset", "line", "line_start")

    def __init__(self, text: str) -> None:
        self.text = text
        self.offset = 0  # newlines in text[:offset] are already in `line`
        self.line = 1
        self.line_start = 0  # the offset of column 1 of `line`

    def at(self, offset: int) -> tuple[int, int]:
        counted = self.offset
        if offset < counted:
            counted, self.line, self.line_start = 0, 1, 0
        self.offset = offset
        newlines = self.text.count("\n", counted, offset)
        if newlines:
            self.line += newlines
            self.line_start = self.text.rindex("\n", counted, offset) + 1
        return self.line, offset - self.line_start + 1


def _table(blank: str, skipped: str | None, **groups: str) -> re.Pattern[str]:
    """The gap of `blank` characters and `skipped` pieces, then the
    alternation of `groups` and `eof`.

    No `skipped` piece may start with a `blank` character. The groups must
    match wherever the gap stops, so that no match backtracks into it:
    `punct` and `error` take any character. The gap is an unrolled loop,
    which is about as fast as the possessive form that Python 3.10 lacks.
    """
    gap = f"{blank}*" if skipped is None else f"{blank}*(?:(?:{skipped}){blank}*)*"
    body = "|".join(f"(?P<{kind}>{regex})" for kind, regex in groups.items())
    return re.compile(rf"{gap}(?:{body}|(?P<eof>\Z))", re.S)


_ESCAPE = re.compile(r"\\(.)", re.S)


def _string(match: re.Match[str]) -> tuple[str, str]:
    """The kind and text of a `string` token: its body with each backslash
    escape replaced by the character after the backslash."""
    body = match.group("body")
    return "string", _ESCAPE.sub(r"\1", body) if "\\" in body else body


# Builds a Token from a tuple without the Python-level namedtuple
# constructor, which costs about a sixth of `lex`.
_new_token = tuple.__new__


def lex(
    table: re.Pattern[str], text: str, pos: int = 0, until: frozenset[str] = frozenset(),
    string: Callable[[re.Match[str]], tuple[str, str]] = _string,
) -> tuple[list[Token], int]:
    """The tokens of `text` from the offset `pos` on, and the offset just
    past the last of them; `string(match)` gives the kind and text of the
    token of each `string` match.

    The tokens end in the `eof` token every table has, in the first `error`
    token, or in the first `punct` token whose text is in `until`.
    """
    tokens: list[Token] = []
    for match in table.finditer(text, pos):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "string":
            kind, value = string(match)
        else:
            value = match.group(kind)
        tokens.append(_new_token(Token, (kind, value, start)))
        if kind == "eof" or kind == "error" or (kind == "punct" and value in until):
            return tokens, match.end()
    return tokens, len(text)


def tokenize(table: re.Pattern[str], text: str) -> list[Token]:
    """The tokens of `text` through the `eof` token or the first `error` token."""
    return lex(table, text)[0]


class Cursor:
    """A position in a list of tokens that ends in an `eof` token."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        """The current token; the cursor moves past it unless it is `eof`."""
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "punct" and tok.text == text

    def at_ident(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "ident" and tok.text == text

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.fail(f"'{text}'")
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        if self.tokens[self.pos].kind != "ident":
            raise self.fail(what)
        return self.advance()

    def fail(self, expected: str) -> Exception:
        """The exception that says the current token is not `expected`."""
        raise NotImplementedError

