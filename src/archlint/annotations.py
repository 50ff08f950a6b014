"""Annotation extraction: the source side of conformance checking.

Two front-ends produce the same AnnotationInstance shape:

* the pragma front-end reads language-agnostic comment pragmas,
  `//@arch Component("Car") @on type Car`, one per line;
* the attribute front-end reads Java-style annotations immediately
  preceding a declaration, classifying the declaration heuristically.

Extraction never raises on bad input; problems become findings
(MALFORMED_PRAGMA, MALFORMED_ANNOTATION, UNCLASSIFIABLE_TARGET) and the
offending annotation is dropped.

Every rule about a kind of annotation reads that kind's row in
`AnnotationKind`. `named_elements` is the one rule for what an element
annotation names.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from functools import cache, cached_property, lru_cache
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
    Cursor,
    Token,
    java_unescape,
    lex,
    tokenize,
    unescape,
)
from .model import ROOT_CONTEXT, Direction, ElementRef, RefKind


class TargetKind(enum.Enum):
    TYPE = "type"
    FIELD = "field"
    METHOD = "method"
    CONSTRUCTOR = "constructor"
    LOCAL = "local"

    # By identity, as members compare: `Enum.__hash__` is Python code.
    __hash__ = object.__hash__


def _root(instance: AnnotationInstance) -> tuple[str, ...]:
    return (ROOT_CONTEXT,)


def _enclosing(instance: AnnotationInstance) -> tuple[str, ...]:
    return instance.enclosing_components


def _componentname_or_enclosing(instance: AnnotationInstance) -> tuple[str, ...]:
    explicit = instance.attrs.get("componentname")
    return (explicit,) if explicit else instance.enclosing_components


_METHODS = "method constructor"
_ENDPOINTS = "left right leftcomponent rightcomponent type"


class AnnotationKind(enum.Enum):
    """The eight annotation kinds, one row each. A row is the one definition
    of its kind's facts, and every rule reads them as `kind.<fact>`:

    * `targets`: the target kinds it may annotate (`validate_targets`);
    * `accepted`: the attributes it takes (`_check_arg`);
    * `required` and `value_required`: the attributes it must have, and
      whether it must have a value (`_finish_instance`);
    * `referent`: the element kind each value names, None for a connection
      kind; `owners`: the owners of an instance's values (`named_elements`);
    * `covers`: whether check 1 counts what it names as annotated;
    * `usage`: the `ConnectorUsages` group a connection kind fills.

    `targets`, `accepted` and `required` are written as words.
    """

    def __new__(
        cls, value: str, targets: str, accepted: str, required: str, value_required: bool,
        referent: RefKind | None, owners: Callable | None, covers: bool, usage: str | None,
    ) -> AnnotationKind:
        kind = object.__new__(cls)
        kind._value_ = value
        kind.targets = frozenset(TargetKind(word) for word in targets.split())
        kind.accepted = frozenset(accepted.split())
        kind.required = tuple(required.split())
        kind.value_required = value_required
        kind.referent = referent
        kind.owners = owners
        kind.covers = covers
        kind.usage = usage
        return kind

    COMPONENT = "Component", "type", "", "", True, RefKind.COMPONENT, _root, True, None
    PART = "Part", "field", "", "", True, RefKind.PART, _enclosing, True, None
    PORT = "Port", "method constructor type", "", "", True, RefKind.PORT, _enclosing, True, None
    ADD_PART = ("AddPart", _METHODS, "componentname", "", True,
                RefKind.PART, _componentname_or_enclosing, True, None)
    REMOVE_PART = ("RemovePart", _METHODS, "componentname", "", True,
                   RefKind.PART, _componentname_or_enclosing, False, None)
    CONNECTS = "Connects", _METHODS, _ENDPOINTS, "left right", False, None, None, False, "connects"
    DISCONNECTS = ("Disconnects", _METHODS, _ENDPOINTS, "left right", False,
                   None, None, False, "disconnects")
    CONNECTOR = ("Connector", "type field local", _ENDPOINTS, "left right", False,
                 None, None, False, "stores")

    __hash__ = object.__hash__  # as TargetKind's


# Module globals for the rules run per instance: on Python 3.11 each
# `AnnotationKind.X` lookup runs `EnumType.__getattr__`.
_COMPONENT = AnnotationKind.COMPONENT
_TYPE = TargetKind.TYPE


ANNOTATION_NAMES: Mapping[str, AnnotationKind] = {k.value: k for k in AnnotationKind}


class AnnotationInstance(
    namedtuple(
        "AnnotationInstance",
        "kind values attrs target target_name enclosing_components location package",
    )
):
    """One extracted annotation: its kind (AnnotationKind), values
    (tuple[str, ...]), attrs (Mapping[str, str]), target (TargetKind),
    target_name (str), enclosing_components (tuple[str, ...]), location
    (SourceLocation) and package (str)."""

    __slots__ = ()

    def sort_key(self) -> tuple[str, int, int]:
        return self.location.sort_key()


def validate_targets(instance: AnnotationInstance) -> list[Finding]:
    """One TARGET_RULE_VIOLATION iff the (kind, target) pair is not permitted."""
    targets = instance.kind.targets
    if instance.target in targets:
        return []
    allowed = ", ".join(sorted(t.value for t in targets))
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


class _Cursor(Cursor):
    def fail(self, expected: str) -> _ArgProblem:
        return _ArgProblem(f"expected {expected}")


_QUOTED = frozenset({"string", "cut_string"})  # a cut string ends its list (`_may_follow`)


def _parse_string_array(cursor: _Cursor) -> tuple[str, ...]:
    cursor.expect_punct("{")
    items: list[str] = []
    if cursor.at_punct("}"):
        cursor.advance()
        return ()
    while True:
        tok = cursor.peek()
        if tok.kind not in _QUOTED:
            raise _ArgProblem("array elements must be quoted strings")
        items.append(cursor.advance().text)
        if cursor.at_punct(","):
            cursor.advance()
            continue
        cursor.expect_punct("}")
        return tuple(items)


def _parse_token_path(cursor: _Cursor) -> str:
    parts = [cursor.expect_ident("a value").text]
    while cursor.at_punct("."):
        cursor.advance()
        parts.append(cursor.expect_ident("a path segment").text)
    return ".".join(parts)


def _normalize_direction(raw: str) -> str:
    tail = raw.split(".")[-1]
    if tail not in Direction.__members__:
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
    elif key not in kind.accepted:
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
        elif cursor.peek().kind not in _QUOTED and not cursor.at_punct("{"):
            raise _ArgProblem("expected a value or attribute")
        quoted = cursor.peek().kind in _QUOTED
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


# An annotation as its text and its declaration give it, before it has a
# place in the source: (kind, values, attrs, target, target_name,
# enclosing_components), with only the components it names itself.
_Unplaced = tuple


def _finish_instance(
    kind: AnnotationKind,
    values: tuple[str, ...],
    attrs: dict[str, str],
    target: TargetKind,
    target_name: str,
    enclosing: tuple[str, ...] = (),
) -> _Unplaced:
    """The annotation, unplaced, once the construction-time invariants
    hold; raises _ArgProblem when one is violated."""
    if kind.value_required and not values:
        raise _ArgProblem(f"@{kind.value} requires at least one value")
    for key in kind.required:
        if key not in attrs:
            missing = ", ".join(k for k in kind.required if k not in attrs)
            raise _ArgProblem(f"@{kind.value} requires attributes: {missing}")
    return kind, values, attrs, target, target_name, enclosing


def _place(
    unplaced: _Unplaced, location: SourceLocation, package: str, inherited: tuple[str, ...] = ()
) -> AnnotationInstance:
    """The instance of `unplaced` at `location`, with its own attrs dict.
    With no enclosing components it takes `inherited`, unless it is a
    @Component."""
    kind, values, attrs, target, target_name, enclosing = unplaced
    if not enclosing and kind is not _COMPONENT:
        enclosing = inherited
    # As the namedtuple's own `__new__` builds it, without that Python frame.
    return tuple.__new__(
        AnnotationInstance,
        (kind, values, dict(attrs), target, target_name, enclosing, location, package),
    )


# ---------------------------------------------------------------------------
# pragma front-end

_TARGET_WORDS: Mapping[str, TargetKind] = {t.value: t for t in TargetKind}


def _default_package(path: str) -> str:
    parent = PurePosixPath(path.replace("\\", "/")).parent.as_posix()
    return "" if parent == "." else parent


# Tails of at most this many characters are remembered; a longer one is
# parsed each time it appears, so the memo's keys stay short whatever a
# tree holds. The memo keeps 4,096 tails: pragma-drift at four times the
# benchmark's size holds about 2,650 distinct ones.
_LONGEST_REMEMBERED_TAIL = 512


@lru_cache(maxsize=4096)  # bounded: keyed by tails read from the input
def _parse_pragma_tail(tail: str) -> _Unplaced | str:
    """Parse everything after the sigil: its annotation, or the _ArgProblem
    message of its first deviation. A tail depends on nothing but its text,
    so each distinct tail is parsed once and its outcome reused.

    A tail the fast path declines goes to the token parser.
    """
    try:
        parsed = _match_pragma_tail(tail)
        return _parse_pragma_tokens(tail) if parsed is None else parsed
    except _ArgProblem as problem:
        return problem.message


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


def _match_pragma_tail(tail: str) -> _Unplaced | None:
    """The annotation of a tail that `_pragma_tail_pattern` matches whole, or
    None when it does not match or has an argument the token grammar rejects:
    a positional path, a `value=` path or a `type=` array. A matched tail that
    breaks a rule raises _ArgProblem with the token parser's message.
    """
    match = _pragma_tail_pattern().fullmatch(tail)
    if match is None:
        return None
    name, args, target_word, target_name, within = match.group(
        "name", "args", "target", "target_name", "within"
    )
    kind = _known(ANNOTATION_NAMES, name, "annotation")
    values: tuple[str, ...] | None = None
    attrs: dict[str, str] = {}
    if args is not None:
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
    target = _known(_TARGET_WORDS, target_word, "target kind")
    enclosing = () if within is None else tuple("".join(within.split()).split(","))
    return _finish_instance(kind, values or (), attrs, target, target_name or "", enclosing)


def _parse_pragma_tokens(tail: str) -> _Unplaced:
    """The token parser behind `_parse_pragma_tail`: every tail, every message."""
    tokens = tokenize(PRAGMA, tail)
    bad = tokens[-1]
    if bad.kind == "error":
        raise _ArgProblem(
            "unterminated string" if bad.text == '"' else f"unexpected character {bad.text!r}"
        )
    cursor = _Cursor(tokens)
    kind = _known(ANNOTATION_NAMES, cursor.expect_ident("an annotation name").text, "annotation")
    values, attrs = _parse_args(cursor, kind)
    cursor.expect_punct("@")
    if cursor.expect_ident("'on'").text != "on":
        raise _ArgProblem("expected '@on'")
    target = _known(_TARGET_WORDS, cursor.expect_ident("a target kind").text, "target kind")
    target_name = ""
    if cursor.peek().kind == "ident":
        target_name = cursor.advance().text
    enclosing: tuple[str, ...] = ()
    if cursor.at_punct("@"):
        cursor.advance()
        if cursor.expect_ident("'in'").text != "in":
            raise _ArgProblem("expected '@in'")
        names = [cursor.expect_ident("a component name").text]
        while cursor.at_punct(","):
            cursor.advance()
            names.append(cursor.expect_ident("a component name").text)
        enclosing = tuple(names)
    if cursor.peek().kind != "eof":
        raise _ArgProblem(f"unexpected trailing input '{cursor.peek().text}'")
    return _finish_instance(kind, values, attrs, target, target_name, enclosing)


# Whitespace and comment punctuation a pragma line may start with; stripped
# before the sigil is matched, so a sigil cannot start with one of them.
PRAGMA_LEADERS = " \t/#;*'\"!<%->"

# The characters `str.splitlines` breaks at; a pragma never spans one.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@cache
def _sigil_and_tail(sigil: str) -> re.Pattern[str]:
    """The sigil and the rest of its line (group `tail`).

    A sigil followed by a letter, digit, `_` or `$` starts a longer word,
    not a pragma.
    """
    return re.compile(f"{re.escape(sigil)}(?![A-Za-z0-9_$])(?P<tail>[^{LINE_BREAKS}]*)")


def extract_pragmas(
    file_text: str, path: str, sigil: str = "@arch"
) -> tuple[list[AnnotationInstance], list[Finding]]:
    """One instance per well-formed pragma line; malformed lines become findings.

    A pragma line is optional whitespace and comment punctuation, the sigil,
    then `Name(args) @on kind [name] [@in Component,...]`. Lines not starting
    with the sigil are ignored; lines break where `str.splitlines` breaks
    them. Locations count lines at `\\n` and columns from the last `\\n`,
    as `lexer.tokenize` does. Each instance is built with the context
    `resolve_context` would give it, so that pass copies none.
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
    context: tuple[str, ...] = ()  # the last type @Component's values
    for match in _sigil_and_tail(sigil).finditer(file_text):
        start = match.start()
        lead = start
        while lead and file_text[lead - 1] in PRAGMA_LEADERS:
            lead -= 1
        if lead and file_text[lead - 1] not in LINE_BREAKS:
            continue  # the sigil is not the first thing on its line
        newlines = file_text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = file_text.rindex("\n", counted, start) + 1
        counted = start
        location = SourceLocation(path, line, start - line_start + 1)
        tail = match["tail"]
        if len(tail) <= _LONGEST_REMEMBERED_TAIL:
            parsed = _parse_pragma_tail(tail)
        else:
            parsed = _parse_pragma_tail.__wrapped__(tail)
        if isinstance(parsed, str):
            findings.append(finding("MALFORMED_PRAGMA", parsed, locations=[location]))
            continue
        instance = _place(parsed, location, package, context)
        if instance.kind is _COMPONENT and instance.target is _TYPE:
            context = instance.values
        instances.append(instance)
    return instances, findings


def resolve_context(instances: Iterable[AnnotationInstance]) -> list[AnnotationInstance]:
    """Fill empty enclosing_components from the nearest preceding TYPE-targeted
    COMPONENT instance of the same file, in file order; explicit contexts are
    left untouched."""
    ordered = sorted(instances, key=lambda i: i.sort_key())
    file = None
    current: tuple[str, ...] = ()
    out: list[AnnotationInstance] = []
    for inst in ordered:
        if inst.location.file != file:
            file, current = inst.location.file, ()
        if inst.kind is _COMPONENT and inst.target is _TYPE:
            current = inst.values
        elif inst.kind is not _COMPONENT and not inst.enclosing_components and current:
            inst = inst._replace(enclosing_components=current)
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
    return Token("string", java_unescape(value), tok.line, tok.column)


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
    if tok.kind == "ident" and tok.text in _TYPE_KEYWORDS:
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
    frontier_at = (1, 1)  # (line, column) of file_text[frontier]

    def at(j: int) -> Token | None:
        """Token j of the window, lexing its next statements as far as that;
        None past the `eof` token."""
        nonlocal frontier, frontier_at
        while j >= len(tokens):
            if tokens and tokens[-1].kind == "eof":
                return None
            lexed, frontier = lex(JAVA, file_text, frontier, *frontier_at, _STATEMENT_ENDS)
            tokens.extend(lexed)
            last = lexed[-1]  # a one-character `punct`, or `eof`
            frontier_at = (last.line, last.column + 1)
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
        nonlocal frontier, frontier_at
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
        line, column = frontier_at
        newlines = file_text.count("\n", frontier, start)
        if newlines:
            line += newlines
            column = start - file_text.rindex("\n", frontier, start)
        else:
            column += start - frontier
        frontier, frontier_at = start, (line, column)
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
                location = SourceLocation(path, tok.line, tok.column)
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
                            cursor = _Cursor(arg_tokens + [Token("eof", "", tok.line, tok.column)])
                            values, attrs = _parse_args(cursor, annotation)
                        pending.append(_PendingAnnotation(annotation, values, attrs, location))
                    except _ArgProblem as problem:
                        findings.append(
                            finding("MALFORMED_ANNOTATION", problem.message, locations=[location])
                        )
        elif kind == "ident" and text in _TYPE_KEYWORDS:
            i = begin_type(i, f"'{text}'")
        elif pending and (kind != "ident" or text not in _MODIFIERS):
            classified = _classify_member(at, i - 1, scope, depth) if kind == "ident" else None
            if classified is None:
                drop_pending("no declaration found")
            else:
                emit(*classified)
    drop_pending("end of file")
    return instances, findings


# ---------------------------------------------------------------------------
# the lightweight architectural model


class CodeModel(
    namedtuple("CodeModel", "instances findings config_fingerprint", defaults=((), (), ""))
):
    """All extracted instances (a tuple of AnnotationInstance) plus extraction
    findings, canonically sorted, and the scan configuration's fingerprint."""

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
    def element_refs(self) -> Mapping[ElementRef, list[int]]:
        """Each element the element annotations reference (`syntactic_refs`,
        whatever the model), mapped to their positions in `instances`."""
        index: dict[ElementRef, list[int]] = {}
        for position, inst in enumerate(self.instances):
            if inst.kind.usage is None:
                for ref in syntactic_refs(inst):
                    index.setdefault(ref, []).append(position)
        return index


def side_context(instance: AnnotationInstance, side: str) -> str:
    """Context component for one endpoint: explicit attr, else first enclosing,
    else the document root."""
    explicit = instance.attrs.get(f"{side}component")
    if explicit is not None:
        return explicit
    if instance.enclosing_components:
        return instance.enclosing_components[0]
    return ROOT_CONTEXT


def named_elements(instance: AnnotationInstance) -> tuple[RefKind, tuple[str, ...]] | None:
    """The element kind an annotation names, and the owners it names each
    value in, from its kind's `referent` and `owners`. None for connection
    annotations.
    """
    kind = instance.kind
    if kind.referent is None:
        return None
    return kind.referent, kind.owners(instance)


def syntactic_refs(instance: AnnotationInstance) -> frozenset[ElementRef]:
    """Architecture elements this instance textually references.

    Enclosing components, and for an element annotation each element and
    owner `named_elements` gives. Endpoint paths are interpreted without
    the architecture: a one-segment path could be a part or a port of the
    side's context, so both refs are indexed; lookup with an architecture
    model refines this.
    """
    refs: set[ElementRef] = set()
    enclosing = instance.enclosing_components
    for name in enclosing:
        refs.add(ElementRef.component(name))
    named = named_elements(instance)
    if named is not None:
        ref_kind, owners = named
        for owner in owners:
            if owner != ROOT_CONTEXT and owner not in enclosing:
                refs.add(ElementRef.component(owner))
            for value in instance.values:
                refs.add(ElementRef.member(ref_kind, owner, value))
        return frozenset(refs)
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
