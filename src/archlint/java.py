"""The Java front-end: `extract_attributes` and every Java rule it reads by.

A Java string or char literal, as javac reads it, ends at its line: an
unclosed one stops before the line break, and an unclosed string is a
`cut_string` token. A string's text is its body with its escapes decoded
as the JLS says (`java_unescape`).

`JAVA_SKIM` is searched from a `JAVA` token boundary without building
tokens. It is one alternation without named groups, every branch starting
with a literal character, so that the regex engine passes in C over the
text between two candidates. It matches comments, text blocks, strings and
char literals whole, as `JAVA` does, and stops at `@`, a brace or a type
keyword that is a whole word; the caller tells the stops apart by their
first character. Each stop is a `JAVA` token, except a keyword after a `.`
that a number swallows (`1.class` is one number).
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Callable

from .annotations import (
    _COMPONENT, _TYPE, ANNOTATION_NAMES, AnnotationInstance, TargetKind, _ArgProblem, _Cursor,
    _default_package, _finish_instance, _parse_args, _place,
)
from .findings import Finding, SourceLocation, finding
from .lexer import Lines, Token, _table, lex

# Java identifiers are Unicode (JLS 3.8); `_JAVA_WORD` is their character class.
_JAVA_WORD = r"[\w$]"
_JAVA_COMMENT = r"//[^\n]*|/\*.*?(?:\*/|\Z)"
_JAVA_TEXT_BLOCK = r'"""(?:[^\\]|\\.)*?(?:"""|\\?\Z)'
_JAVA_STRING = r'"(?P<body>(?:[^"\\\r\n]|\\[^\r\n])*)(?:"|(?P<cut>\\?)(?=[\r\n]|\Z))'
_JAVA_CHAR = r"'(?:[^'\\\r\n]|\\[^\r\n])*(?:'|\\?(?=[\r\n]|\Z))"

JAVA_TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "record"})

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
        *(f"{kw}(?!{_JAVA_WORD})(?<!{_JAVA_WORD}{kw})" for kw in sorted(JAVA_TYPE_KEYWORDS)),
    )),
    re.S,
)

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
    other escape is dropped."""
    return _JAVA_ESCAPE.sub(_java_escape, body) if "\\" in body else body


def _java_string(match: re.Match[str]) -> tuple[str, str]:
    """The kind and text of the token a `JAVA` string match makes (`lex`):
    `cut_string` when the string is cut at its line break."""
    kind = "string" if match.start("cut") < 0 else "cut_string"
    return kind, java_unescape(match.group("body"))


_MODIFIERS = frozenset(
    "public private protected static final abstract default native synchronized transient"
    " volatile strictfp sealed".split()
)


# A text block's opening `"""` ends its line; `content` runs to the closing one.
_TEXT_BLOCK = re.compile(r'"""[ \t\f]*(?:\r\n?|\n)(?P<content>(?:[^\\]|\\.)*?)"""\Z', re.S)
_LINE_TERMINATOR = re.compile(r"\r\n?|\n")
# The characters of Java's `Character.isWhitespace`: Python's white space
# less U+0085 and the no-break spaces U+00A0, U+2007 and U+202F.
_JAVA_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
    "\u2008\u2009\u200a\u2028\u2029\u205f\u3000"
)


def _text_block_string(tok: Token) -> Token:
    """The `string` token of the value a Java text block denotes (JLS 3.10.6).

    The value is the content after the opening line, with the incidental
    indentation and each line's trailing white space stripped, then escapes
    undone. The closing delimiter's line counts toward the indentation even
    when blank. A token that is no legal text block comes back unchanged.
    """
    match = _TEXT_BLOCK.match(tok.text)
    if match is None:
        return tok
    lines = _LINE_TERMINATOR.split(match["content"])
    significant = [line for line in lines[:-1] if line.strip(_JAVA_WHITESPACE)] + [lines[-1]]
    indent = min(len(line) - len(line.lstrip(_JAVA_WHITESPACE)) for line in significant)
    value = "\n".join(line[indent:].rstrip(_JAVA_WHITESPACE) for line in lines)
    return Token("string", java_unescape(value), tok.start)


class _PendingAnnotation(namedtuple("_PendingAnnotation", "kind values attrs location")):
    """A parsed annotation waiting for its declaration: kind
    (AnnotationKind), values (tuple[str, ...]), attrs (dict[str, str]) and
    location (SourceLocation)."""

    __slots__ = ()


# A window lexes on through the next of these, a statement at a time.
_STATEMENT_ENDS = frozenset("{};")


def _may_follow(prev: Token, tok: Token, braces: int) -> bool:
    """Whether an annotation's argument list can hold `tok` after `prev`,
    with `braces` of the `{` it holds still open: anything but a `;`, a `{`
    after none of `(`, `,`, `=` and `{`, a `}` that closes none of them, or
    a type keyword not after a `.`, and nothing after a string cut at its
    line break. The list ends before the first token it cannot hold, so an
    unbalanced `(` swallows no more than its statement and leaves the brace
    that ends its block to the block."""
    if prev.kind == "cut_string":
        return False
    if tok.kind == "punct" and tok.text in ";{}":
        if tok.text == "}":
            return braces > 0
        return tok.text == "{" and prev.kind == "punct" and prev.text in "(,={"
    if tok.kind == "ident" and tok.text in JAVA_TYPE_KEYWORDS:
        return prev.kind == "punct" and prev.text == "."
    return True


def _detect_package(tokens: list[Token], path: str) -> str:
    if tokens and tokens[0].kind == "ident" and tokens[0].text == "package":
        parts: list[str] = []
        for tok in tokens[1:]:
            if tok.kind == "ident":
                parts.append(tok.text)
            elif tok.kind == "punct" and tok.text == ".":
                continue
            else:
                break
        if parts:
            return "/".join(parts)
    return _default_package(path)


# A scope: the type whose body it is, the component context inside that
# body, and the body's brace depth.
_Scope = tuple[str, tuple[str, ...], int]


def _classify_member(
    at: Callable[[int], Token | None], start: int, scope: list[_Scope], depth: int
) -> tuple[TargetKind, str] | None:
    """Decide what declaration begins at the `ident` token `start`; `at(j)`
    is token j, None past `eof`.

    First decisive token wins: `(` makes it a method (constructor when the
    name matches the innermost type); `=` or `;` makes it a field, or a local
    variable when we are below the innermost type's body depth.
    """
    last_ident = ""
    j = start
    while (tok := at(j)) is not None:
        if tok.kind == "ident":
            last_ident = tok.text
        elif tok.kind == "punct":
            if tok.text == "(":
                if scope and last_ident == scope[-1][0]:
                    return (TargetKind.CONSTRUCTOR, last_ident)
                return (TargetKind.METHOD, last_ident)
            if tok.text in ("=", ";"):
                inside_body = bool(scope) and depth > scope[-1][2]
                return (TargetKind.LOCAL if inside_body else TargetKind.FIELD, last_ident)
            if tok.text in ("{", "}", "@"):
                return None
        j += 1
    return None


def extract_attributes(
    file_text: str, path: str
) -> tuple[list[AnnotationInstance], list[Finding]]:
    """Extract Java-style annotations with heuristic target classification.

    Annotations accumulate across modifiers until a declaration starts; the
    declaration fixes target kind and name for the whole group. Annotation
    names outside the recognized eight are ignored.

    One scope stack tracks the enclosing types. A type declaration waits for
    its body (`opening`: its name and its group's @Component values), and
    the brace that opens the body pushes a scope: the type's name, the
    component context inside it, and the body's brace depth. The context is
    the type's own @Component values, or else the context the type is
    nested in. The brace that closes the body pops the scope; a `;` before
    the body drops the waiting type.

    Full tokens are built only in windows. With nothing pending and no type
    waiting for its body (idle), only `@`, a brace or a type keyword changes
    the state, so the reader skims to the next of those (`JAVA_SKIM`),
    counting braces on the way. A window starts at an `@` or a keyword and
    is lexed a statement at a time until the state is idle again with every
    token lexed so far read. The file's first statement is a window too,
    for the package.
    """
    instances: list[AnnotationInstance] = []
    findings: list[Finding] = []

    tokens: list[Token] = []  # the current window
    frontier = 0  # the text offset just past the window's last token
    position = Lines(file_text).at

    def at(j: int) -> Token | None:
        """Token j of the window, lexing its next statements as far as that;
        None past the `eof` token."""
        nonlocal frontier
        while j >= len(tokens):
            if tokens and tokens[-1].kind == "eof":
                return None
            lexed, frontier = lex(JAVA, file_text, frontier, _STATEMENT_ENDS, _java_string)
            tokens.extend(lexed)
        return tokens[j]

    at(0)
    package = _detect_package(tokens, path)

    depth = 0
    scope: list[_Scope] = []
    opening: tuple[str, tuple[str, ...]] | None = None
    pending: list[_PendingAnnotation] = []

    def context() -> tuple[str, ...]:
        return scope[-1][1] if scope else ()

    def drop_pending(reason: str) -> None:
        nonlocal pending
        if pending:
            names = ", ".join(f"@{p.kind.value}" for p in pending)
            findings.append(
                finding(
                    "UNCLASSIFIABLE_TARGET",
                    f"cannot classify the declaration for {names}: {reason}",
                    locations=[pending[0].location],
                )
            )
            pending = []

    def emit(target: TargetKind, target_name: str) -> tuple[str, ...]:
        """Finish the pending group on its declaration; returns the values of
        the group's @Component annotations."""
        nonlocal pending
        own = tuple(v for p in pending if p.kind is _COMPONENT for v in p.values)
        group_context = own if own and target is _TYPE else context()
        for p in pending:
            try:
                instances.append(
                    _place(
                        _finish_instance(p.kind, p.values, p.attrs, target, target_name),
                        p.location, package, group_context,
                    )
                )
            except _ArgProblem as problem:
                findings.append(
                    finding("MALFORMED_ANNOTATION", problem.message, locations=[p.location])
                )
        pending = []
        return own

    def begin_type(j: int, what: str) -> int:
        """Declare the type `what` whose name is token j; the index of the
        token to read next."""
        nonlocal opening
        name_tok = at(j)
        if name_tok.kind != "ident":
            drop_pending(f"{what} without a name")
            return j
        opening = (name_tok.text, emit(TargetKind.TYPE, name_tok.text))
        return j + 1

    def open_block() -> None:
        nonlocal depth, opening
        depth += 1
        if opening is not None:
            name, own = opening
            scope.append((name, own or context(), depth))
            opening = None
        else:
            drop_pending("a block starts without a declaration")

    def close_block() -> None:
        nonlocal depth
        drop_pending("the enclosing block ends")
        if scope and scope[-1][2] == depth:
            scope.pop()
        depth = max(0, depth - 1)

    def next_window() -> bool:
        """Skim from the frontier to the next `@` or type keyword and start a
        window there; False at the end of the text."""
        nonlocal frontier
        start = frontier  # the end of the last skim match: a token boundary
        for stop in JAVA_SKIM.finditer(file_text, frontier):
            found = stop.start()
            first = file_text[found]
            if first == "{":
                open_block()
            elif first == "}":
                close_block()
            elif first not in "/\"'":  # `@` or a type keyword
                # A keyword after a `.` may end a number, as `1.class` does:
                # that window starts back at the last skim match instead.
                if first == "@" or file_text[found - 1] != ".":
                    start = found
                break
            start = stop.end()
        else:
            return False
        frontier = start
        tokens.clear()
        return True

    i = 0
    while True:
        if i >= len(tokens) and not pending and opening is None:
            if not next_window():
                break
            i = 0
        tok = tokens[i] if i < len(tokens) else at(i)
        if tok is None:
            break
        i += 1
        kind, text = tok.kind, tok.text
        if kind == "punct" and text == "{":
            open_block()
        elif kind == "punct" and text == "}":
            close_block()
        elif kind == "punct" and text == ";":
            opening = None  # a type without a body opens no scope
        elif kind == "punct" and text == "@":
            nxt = at(i)  # `@` is not `eof`, so a token follows it
            if nxt.kind == "ident" and nxt.text == "interface":
                i = begin_type(i + 1, "'@interface'")
            elif nxt.kind == "ident":
                location = SourceLocation(path, *position(tok.start))
                i += 1
                arg_tokens: list[Token] | None = None
                paren = at(i)
                if paren.kind == "punct" and paren.text == "(":
                    arg_tokens = [paren]
                    nesting = 1
                    braces = 0
                    i += 1
                    while nesting and (t := at(i)) is not None and _may_follow(arg_tokens[-1], t, braces):
                        i += 1
                        arg_tokens.append(_text_block_string(t) if t.kind == "text_block" else t)
                        if t.kind == "punct":
                            nesting += (t.text == "(") - (t.text == ")")
                            braces += (t.text == "{") - (t.text == "}")
                annotation = ANNOTATION_NAMES.get(nxt.text)
                if annotation is not None:
                    try:
                        if arg_tokens is None:
                            values, attrs = (), {}
                        else:
                            cursor = _Cursor(arg_tokens + [Token("eof", "", tok.start)])
                            values, attrs = _parse_args(cursor, annotation)
                        pending.append(_PendingAnnotation(annotation, values, attrs, location))
                    except _ArgProblem as problem:
                        findings.append(
                            finding("MALFORMED_ANNOTATION", problem.message, locations=[location])
                        )
        elif kind == "ident" and text in JAVA_TYPE_KEYWORDS:
            i = begin_type(i, f"'{text}'")
        elif pending and (kind != "ident" or text not in _MODIFIERS):
            classified = _classify_member(at, i - 1, scope, depth) if kind == "ident" else None
            if classified is None:
                drop_pending("no declaration found")
            else:
                emit(*classified)
    drop_pending("end of file")
    return instances, findings
