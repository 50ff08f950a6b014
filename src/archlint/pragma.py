"""The pragma front-end: `extract_pragmas` reads language-agnostic comment
pragmas, one per line, `//@arch Component("Car") @on type Car`, by the
`PRAGMA` token table and a memoized parser of what follows the sigil.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from typing import Mapping

from .annotations import (
    _COMPONENT, _TYPE, ANNOTATION_NAMES, LINE_BREAKS, PRAGMA_LEADERS, AnnotationInstance,
    TargetKind, _ArgProblem, _Cursor, _default_package, _finish_instance, _known, _parse_args,
    _place, _Unplaced,
)
from .findings import Finding, SourceLocation, finding
from .lexer import Lines, _table, tokenize

PRAGMA = _table(
    r"[ \t\r]",
    None,
    string=r'"(?P<body>[^"\\]*(?:\\.[^"\\]*)*)"',
    ident=r"[A-Za-z_$][A-Za-z0-9_$]*",
    number=r"\d(?:[^\W_]|\.)*",
    punct=r"[(){}@=,.]",
    error=r".",
)

_TARGET_WORDS: Mapping[str, TargetKind] = {t.value: t for t in TargetKind}


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
    """
    try:
        return _parse_pragma_tokens(tail)
    except _ArgProblem as problem:
        return problem.message


def _parse_pragma_tokens(tail: str) -> _Unplaced:
    """The annotation of `tail`; raises _ArgProblem at its first deviation."""
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
    them. Locations come from `lexer.Lines`, which counts lines at `\\n`
    only. Each instance is built with the context `resolve_context` would
    give it, so that pass copies none.
    """
    instances: list[AnnotationInstance] = []
    findings: list[Finding] = []
    # A sigil that starts with a leader is stripped with the leaders, and one
    # that is not exactly one line never fits on one: neither finds anything.
    if sigil.splitlines() != [sigil] or sigil[0] in PRAGMA_LEADERS or sigil not in file_text:
        return instances, findings
    package = _default_package(path)
    position = Lines(file_text).at
    context: tuple[str, ...] = ()  # the last type @Component's values
    for match in _sigil_and_tail(sigil).finditer(file_text):
        start = match.start()
        lead = start
        while lead and file_text[lead - 1] in PRAGMA_LEADERS:
            lead -= 1
        if lead and file_text[lead - 1] not in LINE_BREAKS:
            continue  # the sigil is not the first thing on its line
        # As the namedtuple's own `__new__` builds it, without that Python frame.
        location = tuple.__new__(SourceLocation, (path, *position(start)))
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
