"""The one lexer behind the ADL, pragma and Java-style front-ends.

A table is a compiled alternation of named groups, tried in order at each
position; the name of the group that matched is the token kind. Each match
first passes over the table's gap, the text it skips: `blank` characters
and whole `skipped` pieces (comments). Every table ends in an `eof` group that matches the end of the
text. The ADL and pragma tables have an `error` group that matches any
other single character: lexing stops at it and the caller reports it in its
own terms. The text of a `string` token is its `body`, without the quotes,
with its escapes decoded: a Java string's as the JLS says (`java_unescape`),
any other string's by dropping each backslash (`unescape`).

`JAVA_SKIM` is searched from a `JAVA` token boundary without building
tokens. It is one alternation without named groups, every branch starting
with a literal character, so that the regex engine passes in C over the
text between two candidates. It matches comments, text blocks, strings and
char literals whole, as `JAVA` does, and stops at `@`, a brace or a type
keyword that is a whole word; the caller tells the stops apart by their
first character. Each stop is a `JAVA` token, except a keyword after a `.`
that a number swallows (`1.class` is one number). A Java string or char
literal, as javac reads it, ends at its line: an unclosed one stops before
the line break, and an unclosed string is a `cut_string` token.

A token carries the text offset where it starts. `Lines` is the one
position rule: it turns an offset into a line, counted at `\\n`, and a
column, counting characters (tabs included) from the last `\\n`. The
three front-ends report every location through it.

`Cursor` is the one token reader: the ADL parser and the pragma and
annotation argument parsers subclass it and say only how a failed
expectation is reported (`fail`).
"""

from __future__ import annotations

import re
from collections import namedtuple


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


# Java identifiers are Unicode (JLS 3.8); `_JAVA_WORD` is their character class.
_JAVA_WORD = r"[\w$]"
_JAVA_COMMENT = r"//[^\n]*|/\*.*?(?:\*/|\Z)"
_JAVA_TEXT_BLOCK = r'"""(?:[^\\]|\\.)*?(?:"""|\\?\Z)'
_JAVA_STRING = r'"(?P<body>(?:[^"\\\r\n]|\\[^\r\n])*)(?:"|(?P<cut>\\?)(?=[\r\n]|\Z))'
_JAVA_CHAR = r"'(?:[^'\\\r\n]|\\[^\r\n])*(?:'|\\?(?=[\r\n]|\Z))"

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

# A keyword is a stop only as a whole word; the lookbehind comes after it
# so that its branch still starts with a literal.
JAVA_SKIM = re.compile(
    "|".join((
        _JAVA_COMMENT, _JAVA_TEXT_BLOCK, _JAVA_STRING, _JAVA_CHAR, "@", r"\{", r"\}",
        *(f"{kw}(?!{_JAVA_WORD})(?<!{_JAVA_WORD}{kw})" for kw in JAVA_TYPE_KEYWORDS),
    )),
    re.S,
)

PRAGMA = _table(
    r"[ \t\r]",
    None,
    string=r'"(?P<body>[^"\\]*(?:\\.[^"\\]*)*)"',
    ident=r"[A-Za-z_$][A-Za-z0-9_$]*",
    number=r"\d(?:[^\W_]|\.)*",
    punct=r"[(){}@=,.]",
    error=r".",
)

# An ADL identifier; `model.IDENT_RE` is built from it.
ADL_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

ADL = _table(
    r"[ \t\r\n]",
    r"//[^\n]*",
    ident=ADL_IDENT,
    number=r"\d+",
    punct=r"<->|->|<-|\.\.|[{}\[\]:;.*]",
    error=r".",
)

_ESCAPE = re.compile(r"\\(.)", re.S)


def unescape(body: str) -> str:
    """A string literal's body with each backslash escape replaced by the
    character after the backslash."""
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


# A Unicode escape, an octal escape, or a one-character escape; a text
# block's `\<line break>` joins its two lines.
_JAVA_ESCAPE = re.compile(r"\\(?:u+([0-9A-Fa-f]{4})|([0-3][0-7]{0,2}|[4-7][0-7]?)|(.))", re.S)
_JAVA_ESCAPED = {"b": "\b", "s": " ", "t": "\t", "n": "\n", "f": "\f", "r": "\r", "\n": ""}


def _java_escape(match: re.Match[str]) -> str:
    hex_digits, octal, char = match.groups()
    if hex_digits is not None:
        return chr(int(hex_digits, 16))
    if octal is not None:
        return chr(int(octal, 8))
    return _JAVA_ESCAPED.get(char, char)


def java_unescape(body: str) -> str:
    """A Java string or text block's body with its escapes decoded: JLS
    3.10.7 escapes, octal escapes and `\\<line break>`, and Unicode escapes
    `\\uXXXX`, whose character is taken as it is. The backslash of any
    other escape is dropped, as `unescape` drops it."""
    return _JAVA_ESCAPE.sub(_java_escape, body) if "\\" in body else body


# Builds a Token from a tuple without the Python-level namedtuple
# constructor, which costs about a sixth of `lex`.
_new_token = tuple.__new__


def lex(
    table: re.Pattern[str], text: str, pos: int = 0, until: frozenset[str] = frozenset()
) -> tuple[list[Token], int]:
    """The tokens of `text` from the offset `pos` on, and the offset just
    past the last of them.

    The tokens end in the `eof` token every table has, in the first `error`
    token, or in the first `punct` token whose text is in `until`.
    """
    tokens: list[Token] = []
    java = table is JAVA
    decode = java_unescape if java else unescape
    for match in table.finditer(text, pos):
        kind = match.lastgroup
        start = match.start(kind)
        value = decode(match.group("body")) if kind == "string" else match.group(kind)
        if java and kind == "string" and match.start("cut") >= 0:
            kind = "cut_string"
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

