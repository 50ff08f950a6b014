"""What the two extraction front-ends and the checks share.

The pragma front-end (`archlint.pragma`) and the Java front-end
(`archlint.java`) produce the same AnnotationInstance shape. This module
holds what both build it from and what the checks read of it: the kinds,
the argument-list rules, `validate_targets`, `resolve_context`, the
`CodeModel` and the rules for what an annotation names. It imports neither
front-end, so a scan whose every file is in the result store loads none.

Extraction never raises on bad input; problems become findings
(MALFORMED_PRAGMA, MALFORMED_ANNOTATION, UNCLASSIFIABLE_TARGET) and the
offending annotation is dropped.

Every rule about a kind of annotation reads that kind's row in
`AnnotationKind`. `named_elements` is the one rule for what an element
annotation names.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cached_property
from pathlib import PurePosixPath
from typing import Callable, Iterable, Mapping, TypeVar

from .findings import Finding, SourceLocation, finding, sort_findings
from .lexer import Cursor
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
    * `accepted`: the attributes it takes (`_parse_args`);
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
# the argument-list rules both front-ends parse by


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
        if key is None or key == "value":
            if key is None and (values is not None or attrs):
                raise _ArgProblem("positional value must be the first argument")
            if values is not None:
                raise _ArgProblem("duplicate value argument")
            values = (cursor.advance().text,) if quoted else _parse_string_array(cursor)
        elif key not in kind.accepted:
            raise _ArgProblem(f"@{kind.value} does not take attribute '{key}'")
        elif key in attrs:
            raise _ArgProblem(f"duplicate attribute '{key}'")
        elif key == "type":
            raw = cursor.advance().text if quoted else _parse_token_path(cursor)
            attrs[key] = _normalize_direction(raw)
        elif not quoted:
            raise _ArgProblem(f"attribute '{key}' must be a quoted string")
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


def _default_package(path: str) -> str:
    parent = PurePosixPath(path.replace("\\", "/")).parent.as_posix()
    return "" if parent == "." else parent


# Whitespace and comment punctuation a pragma line may start with; stripped
# before the sigil is matched, so a sigil cannot start with one of them.
PRAGMA_LEADERS = " \t/#;*'\"!<%->"

# The characters `str.splitlines` breaks at; a pragma never spans one.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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
        compact_json: str | None = None,
    ) -> CodeModel:
        """The model of these instances and findings; `compact_json`, when
        given, is its `compact_json`, already written."""
        ordered = tuple(sorted(instances, key=lambda x: x.sort_key()))
        code = cls(ordered, tuple(sort_findings(findings)), config_fingerprint)
        if compact_json is not None:
            code.__dict__["compact_json"] = compact_json  # where the cached_property keeps it
        return code

    @cached_property
    def compact_json(self) -> str:
        """The compact JSON of the model (`jsontext.code_model` at depth None),
        which the report fingerprint hashes."""
        from . import jsontext

        return jsontext.code_model(self, None)

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
