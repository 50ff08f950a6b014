"""The one lexer behind the ADL, pragma and Java-style front-ends.

A table is a compiled alternation of named groups, tried in order at each
position; the name of the group that matched is the token kind. Groups whose
names start with `_` (whitespace, comments) are skipped, and every table
ends in an `eof` group that matches the end of the text. The ADL and pragma
tables have an `error` group that matches any other single character:
lexing stops at it and the caller reports it in its own terms. The text of
a `string` token is its unescaped `body`, without the quotes.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _table(**groups: str) -> re.Pattern[str]:
    groups["eof"] = r"\Z"
    return re.compile("|".join(f"(?P<{kind}>{regex})" for kind, regex in groups.items()), re.S)


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"

JAVA = _table(
    _space=r"[ \t\r\n]+",
    _comment=r"//[^\n]*|/\*.*?(?:\*/|\Z)",
    text_block=r'"""(?:[^\\]|\\.)*?(?:"""|\\?\Z)',
    string=r'"(?P<body>(?:[^"\\]|\\.)*)(?:"|\\?\Z)',
    char=r"'(?:[^'\\]|\\.)*(?:'|\\?\Z)",
    ident=_IDENT,
    number=r"\d[\w.]*",
    punct=r".",
)

PRAGMA = _table(
    _space=r"[ \t\r]+",
    string=r'"(?P<body>(?:[^"\\]|\\.)*)"',
    ident=_IDENT,
    number=r"\d(?:[^\W_]|\.)*",
    punct=r"[(){}@=,.]",
    error=r".",
)

ADL = _table(
    _space=r"[ \t\r\n]+",
    _comment=r"//[^\n]*",
    ident=r"[A-Za-z_][A-Za-z0-9_]*",
    number=r"\d+",
    punct=r"<->|->|<-|\.\.|[{}\[\]:;.*]",
    error=r".",
)

_ESCAPE = re.compile(r"\\(.)", re.S)


def tokenize(table: re.Pattern[str], text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Tokens of `text`, whose first character sits at (line, column).

    Lines are counted at `\\n`; a column counts characters, tabs included.
    The list ends in the `eof` token every table has, or in the first
    `error` token.
    """
    tokens: list[Token] = []
    counted = 0  # newlines in text[:counted] are already in `line`
    line_start = 1 - column  # the text index that column 1 of the current line maps to
    for match in table.finditer(text):
        kind = match.lastgroup
        if kind[0] == "_":
            continue
        start = match.start()
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        value = _ESCAPE.sub(r"\1", match.group("body")) if kind == "string" else match.group()
        tokens.append(Token(kind, value, line, start - line_start + 1))
        if kind == "error":
            break
    return tokens
