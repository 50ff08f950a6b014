"""The one lexer behind the ADL, pragma and Java-style front-ends.

A table is a compiled alternation of named groups, tried in order at each
position; the name of the group that matched is the token kind. Each match
first passes over the table's gap, the text it skips: `blank` characters
and whole `skipped` pieces (comments). Every table ends in an `eof` group that matches the end of the
text. The ADL and pragma tables have an `error` group that matches any
other single character: lexing stops at it and the caller reports it in its
own terms. The text of a `string` token is its unescaped `body`, without the
quotes.

`JAVA_SKIM` is read from a `JAVA` token boundary without building tokens.
It matches comments, strings, text blocks and char literals whole (`skip`),
as `JAVA` does, and stops at `@`, a brace or a type keyword; its gap passes
over everything else. Each stop is a `JAVA` token, except a keyword after a
`.` that a number swallows (`1.class` is one number).
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _table(blank: str, skipped: str | None, **groups: str) -> re.Pattern[str]:
    """The gap of `blank` characters and `skipped` pieces, then the
    alternation of `groups` and `eof`.

    No `skipped` piece may start with a `blank` character. The groups must
    match wherever the gap stops, so that no match backtracks into it:
    `punct` and `error` take any character, and the skim's gap stops only
    where one of its groups starts. The gap is an unrolled loop, which is
    about as fast as the possessive form that Python 3.10 lacks.
    """
    gap = f"{blank}*" if skipped is None else f"{blank}*(?:(?:{skipped}){blank}*)*"
    body = "|".join(f"(?P<{kind}>{regex})" for kind, regex in groups.items())
    return re.compile(rf"{gap}(?:{body}|(?P<eof>\Z))", re.S)


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
# The pragma table's blank and string body; the pragma fast path in
# `annotations` is built from them too.
_PRAGMA_BLANK = r"[ \t\r]"
_STRING_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'

# Java identifiers are Unicode (JLS 3.8); `_JAVA_WORD` is their character class.
_JAVA_WORD = r"[\w$]"
_JAVA_COMMENT = r"//[^\n]*|/\*.*?(?:\*/|\Z)"
_JAVA_TEXT_BLOCK = r'"""(?:[^\\]|\\.)*?(?:"""|\\?\Z)'
_JAVA_STRING = r'"(?P<body>(?:[^"\\]|\\.)*)(?:"|\\?\Z)'
_JAVA_CHAR = r"'(?:[^'\\]|\\.)*(?:'|\\?\Z)"

JAVA_TYPE_KEYWORDS = ("class", "interface", "enum", "record")

JAVA = _table(
    r"[ \t\r\n]",
    _JAVA_COMMENT,
    text_block=_JAVA_TEXT_BLOCK,
    string=_JAVA_STRING,
    char=_JAVA_CHAR,
    ident=rf"(?:[^\W\d]|\$){_JAVA_WORD}*",
    number=r"\d[\w.]*",
    punct=r".",
)

_JAVA_KEYWORD = "|".join(JAVA_TYPE_KEYWORDS)

# The gap passes whole words, so a keyword is tried only where a word starts.
JAVA_SKIM = _table(
    r"""[^/"'@{}\w$]""",
    rf"(?!(?:{_JAVA_KEYWORD})(?!{_JAVA_WORD})){_JAVA_WORD}+|/(?![/*])",
    skip="|".join((_JAVA_COMMENT, _JAVA_TEXT_BLOCK, _JAVA_STRING, _JAVA_CHAR)),
    at="@",
    open=r"\{",
    close=r"\}",
    keyword=f"(?<!{_JAVA_WORD})(?:{_JAVA_KEYWORD})(?!{_JAVA_WORD})",
)

PRAGMA = _table(
    _PRAGMA_BLANK,
    None,
    string=f'"(?P<body>{_STRING_BODY})"',
    ident=_IDENT,
    number=r"\d(?:[^\W_]|\.)*",
    punct=r"[(){}@=,.]",
    error=r".",
)

ADL = _table(
    r"[ \t\r\n]",
    r"//[^\n]*",
    ident=r"[A-Za-z_][A-Za-z0-9_]*",
    number=r"\d+",
    punct=r"<->|->|<-|\.\.|[{}\[\]:;.*]",
    error=r".",
)

_ESCAPE = re.compile(r"\\(.)", re.S)


def unescape(body: str) -> str:
    """A string literal's body with each backslash escape replaced by the
    character after the backslash."""
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


# Builds a Token from a tuple without the Python-level NamedTuple
# constructor, which costs about a sixth of `lex`.
_new_token = tuple.__new__


def lex(
    table: re.Pattern[str],
    text: str,
    pos: int = 0,
    line: int = 1,
    column: int = 1,
    until: frozenset[str] = frozenset(),
) -> tuple[list[Token], int]:
    """The tokens of `text` from the offset `pos` on, where text[pos] sits
    at (line, column), and the offset just past the last of them.

    Lines are counted at `\\n`; a column counts characters, tabs included.
    The tokens end in the `eof` token every table has, in the first `error`
    token, or in the first `punct` token whose text is in `until`.
    """
    tokens: list[Token] = []
    counted = pos  # newlines in text[:counted] are already in `line`
    line_start = pos + 1 - column  # the text index that column 1 of the current line maps to
    for match in table.finditer(text, pos):
        kind = match.lastgroup
        start = match.start(kind)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        value = unescape(match.group("body")) if kind == "string" else match.group(kind)
        tokens.append(_new_token(Token, (kind, value, line, start - line_start + 1)))
        if kind == "eof" or kind == "error" or (kind == "punct" and value in until):
            return tokens, match.end()
    return tokens, len(text)


def tokenize(table: re.Pattern[str], text: str) -> list[Token]:
    """The tokens of `text` through the `eof` token or the first `error` token."""
    return lex(table, text)[0]

