"""Annotation extraction: the source side of conformance checking.

Two front-ends produce the same AnnotationInstance shape:

* the pragma front-end reads language-agnostic comment pragmas,
  `//@arch Component("Car") @on type Car`, one per line;
* the attribute front-end reads Java-style annotations immediately
  preceding a declaration, classifying the declaration heuristically.

Extraction never raises on bad input; problems become findings
(MALFORMED_PRAGMA, MALFORMED_ANNOTATION, UNCLASSIFIABLE_TARGET) and the
offending annotation is dropped.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import PurePosixPath
from typing import Callable, Iterable, Mapping, TypeVar

from .findings import Finding, SourceLocation, finding, sort_findings
from .lexer import (
    _IDENT,
    _PRAGMA_BLANK,
    _STRING_BODY,
    JAVA,
    JAVA_SKIM,
    JAVA_TYPE_KEYWORDS,
    PRAGMA,
    Token,
    lex,
    tokenize,
    unescape,
)
from .model import ROOT_CONTEXT, ElementRef

__all__ = [
    "AnnotationKind",
    "TargetKind",
    "AnnotationInstance",
    "CodeModel",
    "extract_pragmas",
    "extract_attributes",
    "resolve_context",
    "validate_targets",
    "side_context",
    "part_owners",
    "syntactic_refs",
    "code_model_payload",
    "canonical_json",
    "dump_code_model",
    "ALLOWED_TARGETS",
    "VALUE_REQUIRED",
    "CONNECTION_KINDS",
]


class AnnotationKind(enum.Enum):
    COMPONENT = "Component"
    PART = "Part"
    PORT = "Port"
    ADD_PART = "AddPart"
    REMOVE_PART = "RemovePart"
    CONNECTS = "Connects"
    DISCONNECTS = "Disconnects"
    CONNECTOR = "Connector"


class TargetKind(enum.Enum):
    TYPE = "type"
    FIELD = "field"
    METHOD = "method"
    CONSTRUCTOR = "constructor"
    LOCAL = "local"


ANNOTATION_NAMES: Mapping[str, AnnotationKind] = {k.value: k for k in AnnotationKind}

ALLOWED_TARGETS: Mapping[AnnotationKind, frozenset[TargetKind]] = {
    AnnotationKind.COMPONENT: frozenset({TargetKind.TYPE}),
    AnnotationKind.PART: frozenset({TargetKind.FIELD}),
    AnnotationKind.PORT: frozenset({TargetKind.METHOD, TargetKind.CONSTRUCTOR, TargetKind.TYPE}),
    AnnotationKind.ADD_PART: frozenset({TargetKind.METHOD, TargetKind.CONSTRUCTOR}),
    AnnotationKind.REMOVE_PART: frozenset({TargetKind.METHOD, TargetKind.CONSTRUCTOR}),
    AnnotationKind.CONNECTS: frozenset({TargetKind.METHOD, TargetKind.CONSTRUCTOR}),
    AnnotationKind.DISCONNECTS: frozenset({TargetKind.METHOD, TargetKind.CONSTRUCTOR}),
    AnnotationKind.CONNECTOR: frozenset({TargetKind.TYPE, TargetKind.FIELD, TargetKind.LOCAL}),
}

VALUE_REQUIRED = frozenset(
    {
        AnnotationKind.COMPONENT,
        AnnotationKind.PART,
        AnnotationKind.PORT,
        AnnotationKind.ADD_PART,
        AnnotationKind.REMOVE_PART,
    }
)

CONNECTION_KINDS = frozenset(
    {AnnotationKind.CONNECTS, AnnotationKind.DISCONNECTS, AnnotationKind.CONNECTOR}
)

_ALLOWED_ATTRS: Mapping[AnnotationKind, frozenset[str]] = {
    AnnotationKind.COMPONENT: frozenset(),
    AnnotationKind.PART: frozenset(),
    AnnotationKind.PORT: frozenset(),
    AnnotationKind.ADD_PART: frozenset({"componentname"}),
    AnnotationKind.REMOVE_PART: frozenset({"componentname"}),
    AnnotationKind.CONNECTS: frozenset({"left", "right", "leftcomponent", "rightcomponent", "type"}),
    AnnotationKind.DISCONNECTS: frozenset(
        {"left", "right", "leftcomponent", "rightcomponent", "type"}
    ),
    AnnotationKind.CONNECTOR: frozenset(
        {"left", "right", "leftcomponent", "rightcomponent", "type"}
    ),
}

_DIRECTIONS = frozenset({"LEFT", "RIGHT", "BIDIR"})


@dataclass(frozen=True)
class AnnotationInstance:
    kind: AnnotationKind
    values: tuple[str, ...]
    attrs: Mapping[str, str]
    target: TargetKind
    target_name: str
    enclosing_components: tuple[str, ...]
    location: SourceLocation
    package: str

    def sort_key(self) -> tuple[str, int, int]:
        return self.location.sort_key()


def validate_targets(instance: AnnotationInstance) -> list[Finding]:
    """One TARGET_RULE_VIOLATION iff the (kind, target) pair is not permitted."""
    if instance.target in ALLOWED_TARGETS[instance.kind]:
        return []
    allowed = ", ".join(sorted(t.value for t in ALLOWED_TARGETS[instance.kind]))
    return [
        finding(
            "TARGET_RULE_VIOLATION",
            f"@{instance.kind.value} does not apply to {instance.target.value} targets "
            f"(allowed: {allowed})",
            locations=[instance.location],
        )
    ]


# ---------------------------------------------------------------------------
# shared token machinery for pragma lines and annotation argument lists


class _ArgProblem(Exception):
    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class _Cursor:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == value

    def expect_punct(self, value: str) -> None:
        if not self.at_punct(value):
            raise _ArgProblem(f"expected '{value}'")
        self.advance()

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise _ArgProblem(f"expected {what}")
        self.advance()
        return tok.text


def _parse_string_array(cursor: _Cursor) -> tuple[str, ...]:
    cursor.expect_punct("{")
    items: list[str] = []
    if cursor.at_punct("}"):
        cursor.advance()
        return ()
    while True:
        tok = cursor.peek()
        if tok.kind != "string":
            raise _ArgProblem("array elements must be quoted strings")
        items.append(cursor.advance().text)
        if cursor.at_punct(","):
            cursor.advance()
            continue
        cursor.expect_punct("}")
        return tuple(items)


def _parse_token_path(cursor: _Cursor) -> str:
    parts = [cursor.expect_ident("a value")]
    while cursor.at_punct("."):
        cursor.advance()
        parts.append(cursor.expect_ident("a path segment"))
    return ".".join(parts)


def _normalize_direction(raw: str) -> str:
    tail = raw.split(".")[-1]
    if tail not in _DIRECTIONS:
        raise _ArgProblem(f"direction must be LEFT, RIGHT, or BIDIR, not '{raw}'")
    return tail


_Member = TypeVar("_Member", AnnotationKind, TargetKind)


def _known(names: Mapping[str, _Member], word: str, what: str) -> _Member:
    """The member `word` names; raises _ArgProblem when it names none."""
    member = names.get(word)
    if member is None:
        raise _ArgProblem(f"unknown {what} '{word}'")
    return member


def _check_arg(
    kind: AnnotationKind, key: str | None, quoted: bool, values: tuple | None, attrs: dict
) -> None:
    """The rules of `_parse_args` for one argument, checked before its value
    is read: `key` is None for a positional value, `quoted` says whether the
    value starts with a string, and `values` and `attrs` hold the arguments
    read so far. Every pragma and Java-style argument list keeps them."""
    if key is None:
        if values is not None or attrs:
            raise _ArgProblem("positional value must be the first argument")
    elif key == "value":
        if values is not None:
            raise _ArgProblem("duplicate value argument")
    elif key not in _ALLOWED_ATTRS[kind]:
        raise _ArgProblem(f"@{kind.value} does not take attribute '{key}'")
    elif key in attrs:
        raise _ArgProblem(f"duplicate attribute '{key}'")
    elif key != "type" and not quoted:
        raise _ArgProblem(f"attribute '{key}' must be a quoted string")


def _parse_args(cursor: _Cursor, kind: AnnotationKind) -> tuple[tuple[str, ...], dict[str, str]]:
    """Argument list between parentheses: positional value, then named attrs."""
    cursor.expect_punct("(")
    values: tuple[str, ...] | None = None
    attrs: dict[str, str] = {}
    if cursor.at_punct(")"):
        cursor.advance()
        return ((), attrs)
    while True:
        key = None
        if cursor.peek().kind == "ident":
            key = cursor.advance().text
            cursor.expect_punct("=")
        elif cursor.peek().kind != "string" and not cursor.at_punct("{"):
            raise _ArgProblem("expected a value or attribute")
        quoted = cursor.peek().kind == "string"
        _check_arg(kind, key, quoted, values, attrs)
        if key is None or key == "value":
            values = (cursor.advance().text,) if quoted else _parse_string_array(cursor)
        elif key == "type":
            raw = cursor.advance().text if quoted else _parse_token_path(cursor)
            attrs[key] = _normalize_direction(raw)
        else:
            attrs[key] = cursor.advance().text
        if cursor.at_punct(","):
            cursor.advance()
            continue
        cursor.expect_punct(")")
        return (values or (), attrs)


def _finish_instance(
    kind: AnnotationKind,
    values: tuple[str, ...],
    attrs: dict[str, str],
    target: TargetKind,
    target_name: str,
    enclosing: tuple[str, ...],
    location: SourceLocation,
    package: str,
) -> AnnotationInstance:
    """Construction-time invariants; raises _ArgProblem when violated."""
    if kind in VALUE_REQUIRED and not values:
        raise _ArgProblem(f"@{kind.value} requires at least one value")
    if kind in CONNECTION_KINDS:
        missing = [k for k in ("left", "right") if k not in attrs]
        if missing:
            raise _ArgProblem(f"@{kind.value} requires attributes: {', '.join(missing)}")
    return AnnotationInstance(
        kind, values, dict(attrs), target, target_name, enclosing, location, package
    )


# ---------------------------------------------------------------------------
# pragma front-end

_TARGET_WORDS: Mapping[str, TargetKind] = {t.value: t for t in TargetKind}


def _default_package(path: str) -> str:
    parent = PurePosixPath(path.replace("\\", "/")).parent.as_posix()
    return "" if parent == "." else parent


def _parse_pragma_tail(
    tail: str, location: SourceLocation, package: str
) -> AnnotationInstance:
    """Parse everything after the sigil; raises _ArgProblem on any deviation.

    A tail the fast path declines goes to the token parser.
    """
    instance = _match_pragma_tail(tail, location, package)
    if instance is None:
        instance = _parse_pragma_tokens(tail, location, package)
    return instance


# Every optional blank run is followed by a non-blank, so a failing match
# never splits one run between two quantifiers; two identifiers in a row
# are split by at least one blank, as the lexer splits them.
_BLANKS = f"{_PRAGMA_BLANK}*"
_GAP = f"{_PRAGMA_BLANK}+"
_STRING = f'"{_STRING_BODY}"'
_ARRAY = rf"\{{{_BLANKS}(?:{_STRING}(?:{_BLANKS},{_BLANKS}{_STRING})*{_BLANKS})?\}}"
_PATH = rf"{_IDENT}(?:{_BLANKS}\.{_BLANKS}{_IDENT})*"


@cache
def _pragma_tail_pattern() -> re.Pattern[str]:
    """A whole well-formed tail, `Name(args) @on kind [name] [@in A, B]`,
    where an argument is an optional `key =` and then a string, an array of
    strings or a dotted path. Compiled on first use."""
    arg = rf"(?:{_IDENT}{_BLANKS}={_BLANKS})?(?:{_STRING}|{_ARRAY}|{_PATH})"
    return re.compile(
        rf"{_BLANKS}(?P<name>{_IDENT}){_BLANKS}\("
        rf"{_BLANKS}(?:(?P<args>{arg}(?:{_BLANKS},{_BLANKS}{arg})*){_BLANKS})?\)"
        rf"{_BLANKS}@{_BLANKS}on{_GAP}(?P<target>{_IDENT})(?:{_GAP}(?P<target_name>{_IDENT}))?"
        rf"(?:{_BLANKS}@{_BLANKS}in{_GAP}(?P<within>{_IDENT}(?:{_BLANKS},{_BLANKS}{_IDENT})*))?"
        rf"{_BLANKS}",
        re.S,
    )


@cache
def _pragma_arg_pattern() -> re.Pattern[str]:
    """One argument of a matched tail, its parts in groups."""
    return re.compile(
        rf"(?:(?P<key>{_IDENT}){_BLANKS}={_BLANKS})?"
        rf'(?:"(?P<string>{_STRING_BODY})"|(?P<array>{_ARRAY})|(?P<path>{_PATH}))',
        re.S,
    )


def _match_pragma_tail(
    tail: str, location: SourceLocation, package: str
) -> AnnotationInstance | None:
    """The instance of a tail that `_pragma_tail_pattern` matches whole, or
    None when it does not match or has an argument the token grammar rejects:
    a positional path, a `value=` path or a `type=` array. A matched tail that
    breaks a rule raises _ArgProblem with the token parser's message.
    """
    match = _pragma_tail_pattern().fullmatch(tail)
    if match is None:
        return None
    kind = _known(ANNOTATION_NAMES, match["name"], "annotation")
    values: tuple[str, ...] | None = None
    attrs: dict[str, str] = {}
    if match["args"] is not None:
        for arg in _pragma_arg_pattern().finditer(tail, *match.span("args")):
            key, string, array, path = arg.groups()
            if path is not None and key in (None, "value") or array is not None and key == "type":
                return None
            _check_arg(kind, key, string is not None, values, attrs)
            if key is None or key == "value":
                if array is None:
                    values = (unescape(string),)
                else:
                    values = tuple(
                        unescape(item["body"])
                        for item in PRAGMA.finditer(array)
                        if item.lastgroup == "string"
                    )
            elif key == "type":
                raw = "".join(path.split()) if string is None else unescape(string)
                attrs[key] = _normalize_direction(raw)
            else:
                attrs[key] = unescape(string)
    target = _known(_TARGET_WORDS, match["target"], "target kind")
    within = match["within"]
    enclosing = () if within is None else tuple("".join(within.split()).split(","))
    return _finish_instance(
        kind, values or (), attrs, target, match["target_name"] or "", enclosing, location, package
    )


def _parse_pragma_tokens(
    tail: str, location: SourceLocation, package: str
) -> AnnotationInstance:
    """The token parser behind `_parse_pragma_tail`: every tail, every message."""
    tokens = tokenize(PRAGMA, tail)
    bad = tokens[-1]
    if bad.kind == "error":
        raise _ArgProblem(
            "unterminated string" if bad.text == '"' else f"unexpected character {bad.text!r}"
        )
    cursor = _Cursor(tokens)
    kind = _known(ANNOTATION_NAMES, cursor.expect_ident("an annotation name"), "annotation")
    values, attrs = _parse_args(cursor, kind)
    cursor.expect_punct("@")
    if cursor.expect_ident("'on'") != "on":
        raise _ArgProblem("expected '@on'")
    target = _known(_TARGET_WORDS, cursor.expect_ident("a target kind"), "target kind")
    target_name = ""
    if cursor.peek().kind == "ident":
        target_name = cursor.advance().text
    enclosing: tuple[str, ...] = ()
    if cursor.at_punct("@"):
        cursor.advance()
        if cursor.expect_ident("'in'") != "in":
            raise _ArgProblem("expected '@in'")
        names = [cursor.expect_ident("a component name")]
        while cursor.at_punct(","):
            cursor.advance()
            names.append(cursor.expect_ident("a component name"))
        enclosing = tuple(names)
    if cursor.peek().kind != "eof":
        raise _ArgProblem(f"unexpected trailing input '{cursor.peek().text}'")
    return _finish_instance(kind, values, attrs, target, target_name, enclosing, location, package)


# Whitespace and comment punctuation a pragma line may start with; stripped
# before the sigil is matched, so a sigil cannot start with one of them.
PRAGMA_LEADERS = " \t/#;*'\"!<%->"

# The characters `str.splitlines` breaks at; a pragma never spans one.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _sigil_and_tail(sigil: str) -> re.Pattern[str]:
    """The sigil and the rest of its line (group `tail`).

    A sigil followed by a letter, digit, `_` or `$` starts a longer word,
    not a pragma.
    """
    return re.compile(f"{re.escape(sigil)}(?![A-Za-z0-9_$])(?P<tail>[^{_LINE_BREAKS}]*)")


def extract_pragmas(
    file_text: str, path: str, sigil: str = "@arch"
) -> tuple[list[AnnotationInstance], list[Finding]]:
    """One instance per well-formed pragma line; malformed lines become findings.

    A pragma line is optional whitespace and comment punctuation, the sigil,
    then `Name(args) @on kind [name] [@in Component,...]`. Lines not starting
    with the sigil are ignored; lines break where `str.splitlines` breaks
    them. Locations count lines at `\\n` and columns from the last `\\n`,
    as `lexer.tokenize` does. Context resolution is a separate pass
    (resolve_context); only explicit `@in` fills enclosing_components here.
    """
    instances: list[AnnotationInstance] = []
    findings: list[Finding] = []
    # A sigil that starts with a leader is stripped with the leaders, and one
    # that is not exactly one line never fits on one: neither finds anything.
    if sigil.splitlines() != [sigil] or sigil[0] in PRAGMA_LEADERS or sigil not in file_text:
        return instances, findings
    package = _default_package(path)
    line = 1
    line_start = 0  # text index of column 1 of `line`
    counted = 0  # newlines in file_text[:counted] are already in `line`
    for match in _sigil_and_tail(sigil).finditer(file_text):
        start = match.start()
        lead = start
        while lead and file_text[lead - 1] in PRAGMA_LEADERS:
            lead -= 1
        if lead and file_text[lead - 1] not in _LINE_BREAKS:
            continue  # the sigil is not the first thing on its line
        newlines = file_text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = file_text.rindex("\n", counted, start) + 1
        counted = start
        location = SourceLocation(path, line, start - line_start + 1)
        try:
            instances.append(_parse_pragma_tail(match.group("tail"), location, package))
        except _ArgProblem as problem:
            findings.append(
                finding("MALFORMED_PRAGMA", problem.message, locations=[location])
            )
    return instances, findings


def resolve_context(instances: Iterable[AnnotationInstance]) -> list[AnnotationInstance]:
    """Fill empty enclosing_components from the nearest preceding TYPE-targeted
    COMPONENT instance in file order; explicit contexts are left untouched."""
    ordered = sorted(instances, key=lambda i: i.sort_key())
    current: tuple[str, ...] = ()
    out: list[AnnotationInstance] = []
    for inst in ordered:
        if inst.kind is AnnotationKind.COMPONENT:
            if inst.target is TargetKind.TYPE:
                current = inst.values
            out.append(inst)
            continue
        if not inst.enclosing_components and current:
            inst = AnnotationInstance(
                inst.kind, inst.values, inst.attrs, inst.target, inst.target_name,
                current, inst.location, inst.package,
            )
        out.append(inst)
    return out


# ---------------------------------------------------------------------------
# attribute front-end (Java-style sources)

_MODIFIERS = frozenset(
    {
        "public",
        "private",
        "protected",
        "static",
        "final",
        "abstract",
        "default",
        "native",
        "synchronized",
        "transient",
        "volatile",
        "strictfp",
        "sealed",
    }
)

_TYPE_KEYWORDS = frozenset(JAVA_TYPE_KEYWORDS)


# A text block's opening `"""` ends its line; `content` runs to the closing one.
_TEXT_BLOCK = re.compile(r'"""[ \t\f]*(?:\r\n?|\n)(?P<content>(?:[^\\]|\\.)*?)"""\Z', re.S)
_LINE_TERMINATOR = re.compile(r"\r\n?|\n")


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
    significant = [line for line in lines[:-1] if line.strip()] + [lines[-1]]
    indent = min(len(line) - len(line.lstrip()) for line in significant)
    value = "\n".join(line[indent:].rstrip() for line in lines)
    return Token("string", unescape(value), tok.line, tok.column)


@dataclass
class _PendingAnnotation:
    kind: AnnotationKind
    values: tuple[str, ...]
    attrs: dict[str, str]
    location: SourceLocation


# A window lexes on through the next of these, a statement at a time.
_STATEMENT_ENDS = frozenset("{};")


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


def _classify_member(
    tokens: list[Token],
    more: Callable[[], bool],
    start: int,
    type_stack: list[tuple[str, int]],
    depth: int,
) -> tuple[TargetKind, str] | None:
    """Decide what declaration begins at tokens[start]; `more()` lexes
    further tokens onto `tokens`.

    First decisive token wins: `(` makes it a method (constructor when the
    name matches the innermost type); `=` or `;` makes it a field, or a local
    variable when we are below the innermost type's body depth.
    """
    last_ident: str | None = None
    j = start
    while j < len(tokens) or more():
        tok = tokens[j]
        if tok.kind == "ident":
            last_ident = tok.text
        elif tok.kind == "punct":
            if tok.text == "(":
                if last_ident is None:
                    return None
                inner = type_stack[-1][0] if type_stack else None
                if last_ident == inner:
                    return (TargetKind.CONSTRUCTOR, last_ident)
                return (TargetKind.METHOD, last_ident)
            if tok.text in ("=", ";"):
                if last_ident is None:
                    return None
                inside_body = bool(type_stack) and depth > type_stack[-1][1]
                return (TargetKind.LOCAL if inside_body else TargetKind.FIELD, last_ident)
            if tok.text in ("{", "}", "@"):
                return None
        elif tok.kind == "eof":
            return None
        j += 1
    return None


def extract_attributes(
    file_text: str, path: str
) -> tuple[list[AnnotationInstance], list[Finding]]:
    """Extract Java-style annotations with heuristic target classification.

    Annotations accumulate across modifiers until a declaration starts; the
    declaration fixes target kind and name for the whole group. Brace depth
    tracks enclosing types, and @Component bodies define the enclosing
    component context for everything inside them. Annotation names outside
    the recognized eight are ignored.

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
    frontier_at = (1, 1)  # (line, column) of file_text[frontier]

    def more() -> bool:
        """Lex the window's next statement; False once `eof` is lexed."""
        nonlocal frontier, frontier_at
        if tokens and tokens[-1].kind == "eof":
            return False
        lexed, frontier = lex(JAVA, file_text, frontier, *frontier_at, _STATEMENT_ENDS)
        tokens.extend(lexed)
        last = lexed[-1]  # a one-character `punct`, or `eof`
        frontier_at = (last.line, last.column + 1)
        return True

    more()
    package = _detect_package(tokens, path)

    depth = 0
    type_stack: list[tuple[str, int]] = []  # (type name, body depth)
    comp_stack: list[tuple[tuple[str, ...], int]] = []  # (component values, body depth)
    pending: list[_PendingAnnotation] = []
    pending_type: str | None = None
    pending_comp_values: tuple[str, ...] | None = None

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

    def context_values() -> tuple[str, ...]:
        return comp_stack[-1][0] if comp_stack else ()

    def emit(target: TargetKind, target_name: str) -> None:
        nonlocal pending
        group_component = tuple(
            v for p in pending if p.kind is AnnotationKind.COMPONENT for v in p.values
        )
        for p in pending:
            if p.kind is AnnotationKind.COMPONENT:
                enclosing: tuple[str, ...] = ()
            elif target is TargetKind.TYPE and group_component:
                enclosing = group_component
            else:
                enclosing = context_values()
            try:
                instances.append(
                    _finish_instance(
                        p.kind, p.values, p.attrs, target, target_name, enclosing, p.location, package
                    )
                )
            except _ArgProblem as problem:
                findings.append(
                    finding("MALFORMED_ANNOTATION", problem.message, locations=[p.location])
                )
        pending = []

    def begin_type(name: str) -> None:
        nonlocal pending_type, pending_comp_values
        component_values = tuple(
            v for p in pending if p.kind is AnnotationKind.COMPONENT for v in p.values
        )
        emit(TargetKind.TYPE, name)
        pending_type = name
        pending_comp_values = component_values or None

    def open_block() -> None:
        nonlocal depth, pending_type, pending_comp_values
        depth += 1
        if pending_type is not None:
            type_stack.append((pending_type, depth))
            if pending_comp_values is not None:
                comp_stack.append((pending_comp_values, depth))
            pending_type = None
            pending_comp_values = None
        else:
            drop_pending("a block starts without a declaration")

    def close_block() -> None:
        nonlocal depth
        drop_pending("the enclosing block ends")
        while type_stack and type_stack[-1][1] == depth:
            type_stack.pop()
        while comp_stack and comp_stack[-1][1] == depth:
            comp_stack.pop()
        depth = max(0, depth - 1)

    def next_window() -> bool:
        """Skim from the frontier to the next `@` or type keyword and start a
        window there; False at the end of the text."""
        nonlocal frontier, frontier_at
        start = frontier  # the end of the last skim match: a token boundary
        for stop in JAVA_SKIM.finditer(file_text, frontier):
            kind = stop.lastgroup
            if kind == "open":
                open_block()
            elif kind == "close":
                close_block()
            elif kind == "at" or kind == "keyword":
                # A keyword after a `.` may end a number, as `1.class` does:
                # that window starts back at the last skim match instead.
                if kind == "at" or file_text[stop.start(kind) - 1] != ".":
                    start = stop.start(kind)
                break
            elif kind == "eof":
                return False
            start = stop.end()
        line, column = frontier_at
        newlines = file_text.count("\n", frontier, start)
        if newlines:
            line += newlines
            column = start - file_text.rindex("\n", frontier, start)
        else:
            column += start - frontier
        frontier, frontier_at = start, (line, column)
        tokens.clear()
        return more()

    i = 0
    while True:
        if i >= len(tokens):
            if pending or pending_type is not None:
                if not more():
                    break
            elif next_window():
                i = 0
            else:
                break
        tok = tokens[i]
        if tok.kind == "punct" and tok.text == "{":
            open_block()
            i += 1
            continue
        if tok.kind == "punct" and tok.text == "}":
            close_block()
            i += 1
            continue
        if tok.kind == "punct" and tok.text == ";":
            # `class X;` style: a pending type without a body never opens a scope
            pending_type = None
            pending_comp_values = None
            i += 1
            continue
        if tok.kind == "punct" and tok.text == "@":
            nxt = tokens[i + 1] if i + 1 < len(tokens) or more() else None
            if nxt is not None and nxt.kind == "ident" and nxt.text == "interface":
                name_tok = tokens[i + 2] if i + 2 < len(tokens) or more() else None
                if name_tok is not None and name_tok.kind == "ident":
                    begin_type(name_tok.text)
                    i += 3
                    continue
                drop_pending("'@interface' without a name")
                i += 2
                continue
            if nxt is not None and nxt.kind == "ident":
                location = SourceLocation(path, tok.line, tok.column)
                j = i + 2
                arg_tokens: list[Token] | None = None
                if (
                    (j < len(tokens) or more())
                    and tokens[j].kind == "punct"
                    and tokens[j].text == "("
                ):
                    nesting = 0
                    k = j
                    collected: list[Token] = []
                    while k < len(tokens) or more():
                        t = tokens[k]
                        collected.append(_text_block_string(t) if t.kind == "text_block" else t)
                        if t.kind == "punct" and t.text == "(":
                            nesting += 1
                        elif t.kind == "punct" and t.text == ")":
                            nesting -= 1
                            if nesting == 0:
                                break
                        k += 1
                    arg_tokens = collected
                    j = k + 1
                kind = ANNOTATION_NAMES.get(nxt.text)
                if kind is not None:
                    try:
                        if arg_tokens is None:
                            values, attrs = (), {}
                        else:
                            cursor = _Cursor(arg_tokens + [Token("eof", "", tok.line, tok.column)])
                            values, attrs = _parse_args(cursor, kind)
                            if cursor.peek().kind != "eof":
                                raise _ArgProblem("unexpected trailing input in arguments")
                        pending.append(_PendingAnnotation(kind, values, attrs, location))
                    except _ArgProblem as problem:
                        findings.append(
                            finding("MALFORMED_ANNOTATION", problem.message, locations=[location])
                        )
                i = j
                continue
            i += 1
            continue
        if tok.kind == "ident":
            word = tok.text
            if word in _TYPE_KEYWORDS:
                name_tok = tokens[i + 1] if i + 1 < len(tokens) or more() else None
                if name_tok is not None and name_tok.kind == "ident":
                    begin_type(name_tok.text)
                    i += 2
                    continue
                drop_pending(f"'{word}' without a name")
                i += 1
                continue
            if word in _MODIFIERS:
                i += 1
                continue
            if pending:
                classified = _classify_member(tokens, more, i, type_stack, depth)
                if classified is None:
                    drop_pending("no declaration found")
                else:
                    emit(*classified)
            i += 1
            continue
        if pending:
            drop_pending("no declaration found")
        i += 1
    drop_pending("end of file")
    return instances, findings


# ---------------------------------------------------------------------------
# the lightweight architectural model


@dataclass(frozen=True)
class CodeModel:
    """All extracted instances plus extraction findings, canonically sorted."""

    instances: tuple[AnnotationInstance, ...] = ()
    findings: tuple[Finding, ...] = ()
    config_fingerprint: str = ""

    @classmethod
    def build(
        cls,
        instances: Iterable[AnnotationInstance],
        findings: Iterable[Finding] = (),
        config_fingerprint: str = "",
    ) -> CodeModel:
        ordered = tuple(sorted(instances, key=lambda x: x.sort_key()))
        return cls(ordered, tuple(sort_findings(findings)), config_fingerprint)

    @cached_property
    def by_kind(self) -> Mapping[AnnotationKind, tuple[AnnotationInstance, ...]]:
        out: dict[AnnotationKind, list[AnnotationInstance]] = {k: [] for k in AnnotationKind}
        for inst in self.instances:
            out[inst.kind].append(inst)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def packages_by_component(self) -> Mapping[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for inst in self.by_kind[AnnotationKind.COMPONENT]:
            for name in inst.values:
                out.setdefault(name, set()).add(inst.package)
        return {k: frozenset(v) for k, v in out.items()}


def side_context(instance: AnnotationInstance, side: str) -> str:
    """Context component for one endpoint: explicit attr, else first enclosing,
    else the document root."""
    explicit = instance.attrs.get(f"{side}component")
    if explicit is not None:
        return explicit
    if instance.enclosing_components:
        return instance.enclosing_components[0]
    return ROOT_CONTEXT


def part_owners(instance: AnnotationInstance) -> tuple[str, ...]:
    """The components an @AddPart or @RemovePart changes: componentname, else enclosing."""
    explicit = instance.attrs.get("componentname")
    return (explicit,) if explicit else instance.enclosing_components


def syntactic_refs(instance: AnnotationInstance) -> frozenset[ElementRef]:
    """Architecture elements this instance textually references.

    Endpoint paths are interpreted without the architecture: a one-segment
    path could be a part or a port of the side's context, so both refs are
    indexed; lookup with an architecture model refines this.
    """
    refs: set[ElementRef] = set()
    for name in instance.enclosing_components:
        refs.add(ElementRef.component(name))
    kind = instance.kind
    if kind is AnnotationKind.COMPONENT:
        for value in instance.values:
            refs.add(ElementRef.component(value))
    elif kind is AnnotationKind.PART:
        for ctx in instance.enclosing_components:
            for value in instance.values:
                refs.add(ElementRef.part(ctx, value))
    elif kind is AnnotationKind.PORT:
        for ctx in instance.enclosing_components:
            for value in instance.values:
                refs.add(ElementRef.port(ctx, value))
    elif kind in (AnnotationKind.ADD_PART, AnnotationKind.REMOVE_PART):
        for owner in part_owners(instance):
            refs.add(ElementRef.component(owner))
            for value in instance.values:
                refs.add(ElementRef.part(owner, value))
    else:
        for side in ("left", "right"):
            path = instance.attrs.get(side)
            if not path:
                continue
            explicit = instance.attrs.get(f"{side}component")
            if explicit:
                refs.add(ElementRef.component(explicit))
            context = side_context(instance, side)
            segments = path.split(".")
            first = segments[0]
            if context == ROOT_CONTEXT:
                if len(segments) > 1:
                    refs.add(ElementRef.component(first))
            elif len(segments) == 1:
                refs.add(ElementRef.part(context, first))
                refs.add(ElementRef.port(context, first))
            else:
                refs.add(ElementRef.part(context, first))
    return frozenset(refs)


def instance_payload(inst: AnnotationInstance) -> dict:
    return {
        "kind": inst.kind.name,
        "values": list(inst.values),
        "attrs": dict(sorted(inst.attrs.items())),
        "target": inst.target.value,
        "target_name": inst.target_name,
        "enclosing_components": list(inst.enclosing_components),
        "location": {
            "file": inst.location.file,
            "line": inst.location.line,
            "column": inst.location.column,
        },
        "package": inst.package,
    }


def finding_payload(f: Finding) -> dict:
    return {
        "check_id": f.check_id,
        "severity": f.severity.value,
        "message": f.message,
        "element": f.element.path if f.element is not None else None,
        "element_kind": f.element.kind.value if f.element is not None else None,
        "locations": [
            {"file": loc.file, "line": loc.line, "column": loc.column} for loc in f.locations
        ],
    }


def code_model_payload(code: CodeModel) -> dict:
    """The JSON form of a CodeModel: what `extract --format json` prints and
    what the report fingerprint hashes."""
    return {
        "version": "1",
        "instances": [instance_payload(i) for i in code.instances],
        "findings": [finding_payload(f) for f in code.findings],
    }


def canonical_json(payload: dict) -> str:
    """Indented, key-sorted JSON plus a newline, the form of every JSON
    document archlint prints; byte-identical for equal payloads."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_code_model(code: CodeModel) -> str:
    """Canonical JSON dump of a CodeModel; byte-identical for equal models."""
    return canonical_json(code_model_payload(code))
