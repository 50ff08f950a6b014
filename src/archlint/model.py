"""Component-and-connector architecture model.

Components own ports and role-named, typed parts; connectors wire two
endpoint paths inside a context component. All values are immutable and
normalized on construction (members sorted), so two models built from the
same declarations in any order compare equal.

A connector declared with the empty context ("" here, rendered "/id") lives
at document root: its endpoint paths start at a top-level component name.

`walk_endpoint` is the only function that steps through an endpoint path;
every resolution and every path rewrite reads its result. When a path does
not resolve, its EndpointError carries the elements walked before the stop.

Each model resolves its connectors once, lazily, into the ConnectorIndex
every connector query reads; a derived model builds its own.

Two naming rules are stated once here. An element's path is its owner, the
separator of its kind (`_SEPARATORS`) and its name, or a component's name
alone: `ElementRef.member` writes it, `ElementRef.split` and `parse_ref`
read it, and no other module spells one. A name (or a connector's wiring)
declared more than once is found by `_repeats`: each declaration after the
first is a finding.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import EndpointError
from .findings import Finding, finding, sort_findings

# An ADL identifier; `adl.ADL` is built from it too.
ADL_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
IDENT_RE = re.compile(ADL_IDENT + r"\Z")

# Context name of connectors declared at document root.
ROOT_CONTEXT = ""


def is_identifier(text: str) -> bool:
    return bool(IDENT_RE.match(text))


class Direction(enum.Enum):
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    BIDIR = "BIDIR"


def flip(direction: Direction) -> Direction:
    if direction is Direction.LEFT:
        return Direction.RIGHT
    if direction is Direction.RIGHT:
        return Direction.LEFT
    return direction


class Record(tuple):
    """A record that compares by type, then fields: it equals no plain tuple
    and no record of another type with the same items. (`object.__ne__`
    inverts `__eq__`; a class that sets `__eq__` alone is unhashable.)"""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__


class Multiplicity(Record, namedtuple("Multiplicity", "lower upper", defaults=(1, 1))):
    """A part's bounds: lower (int) and upper (int, or None for unbounded)."""

    __slots__ = ()

    def is_valid(self) -> bool:
        if self.lower < 0:
            return False
        if self.upper is None:
            return True
        return self.upper >= 1 and self.lower <= self.upper


MULT_ONE = Multiplicity(1, 1)


class Port(Record, namedtuple("Port", "name")):
    """A port: its name (str)."""

    __slots__ = ()


class Part(Record, namedtuple("Part", "role type_component multiplicity", defaults=(MULT_ONE,))):
    """A part: its role (str), the name of the component that types it
    (type_component, str) and its multiplicity (Multiplicity)."""

    __slots__ = ()


class Component(Record, namedtuple("Component", "name ports parts")):
    """A component, its ports sorted by name and its parts by role."""

    def __new__(cls, name: str, ports: Iterable[Port] = (), parts: Iterable[Part] = ()) -> Component:
        ports = tuple(sorted(ports, key=lambda p: p.name))
        parts = tuple(sorted(parts, key=lambda p: p.role))
        return super().__new__(cls, name, ports, parts)

    # `_replace` builds through `_make`: through the constructor, sorted too.
    _make = classmethod(lambda cls, values: cls(*values))

    @cached_property
    def _port_map(self) -> Mapping[str, Port]:
        return {p.name: p for p in self.ports}

    @cached_property
    def _part_map(self) -> Mapping[str, Part]:
        return {p.role: p for p in self.parts}

    def port(self, name: str) -> Port | None:
        return self._port_map.get(name)

    def part(self, role: str) -> Part | None:
        return self._part_map.get(role)


class EndpointPath(Record, namedtuple("EndpointPath", "segments")):
    """A dotted endpoint path: its segments (tuple[str, ...])."""

    __slots__ = ()

    def __str__(self) -> str:
        return ".".join(self.segments)

    @classmethod
    def parse(cls, text: str) -> EndpointPath:
        segments = text.split(".")
        if not text or any(not is_identifier(s) for s in segments):
            raise ValueError(f"invalid endpoint path '{text}'")
        return cls(tuple(segments))


class Connector(Record, namedtuple("Connector", "id context left right direction")):
    """A declared connector: its id (str), the context component it is
    declared in (context, str; ROOT_CONTEXT at document root), its left and
    right endpoints (EndpointPath) and its direction (Direction)."""

    __slots__ = ()


class RefKind(enum.Enum):
    COMPONENT = "component"
    PART = "part"
    PORT = "port"
    CONNECTOR = "connector"

    __hash__ = object.__hash__  # by identity, in C, so an ElementRef hashes as its tuple


# Module globals for the refs built per annotation: on Python 3.11 each
# `RefKind.X` lookup runs `EnumType.__getattr__`.
_COMPONENT = RefKind.COMPONENT
_PART = RefKind.PART
_PORT = RefKind.PORT
_CONNECTOR = RefKind.CONNECTOR


# The separator between an element's owner and its name in its path, per
# kind, in the order `parse_ref` tries them; a component's path is its name.
_SEPARATORS = {_CONNECTOR: "/", _PORT: "#", _PART: "."}


class ElementRef(namedtuple("ElementRef", "kind path")):
    """Uniform address of an architecture element: its kind (RefKind) and
    path (str).

    Path shapes: component `Car`, part `Car.rear`, port `Engine#p`,
    connector `Car/c1` (root connectors render as `/c1`).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return self.path

    def sort_key(self) -> tuple[str, str]:
        return (self.path, self.kind.value)

    # `component`, `part`, `port` and `connector` are `member` of one kind,
    # without its table lookup.
    @classmethod
    def component(cls, name: str) -> ElementRef:
        return cls(_COMPONENT, name)

    @classmethod
    def part(cls, owner: str, role: str) -> ElementRef:
        return cls(_PART, f"{owner}.{role}")

    @classmethod
    def port(cls, owner: str, name: str) -> ElementRef:
        return cls(_PORT, f"{owner}#{name}")

    @classmethod
    def connector(cls, context: str, cid: str) -> ElementRef:
        return cls(_CONNECTOR, f"{context}/{cid}")

    @classmethod
    def member(cls, kind: RefKind, owner: str, name: str) -> ElementRef:
        """The element a name of `kind` denotes: the part, port or connector
        `name` of owner (a connector's context), or the component `name`."""
        separator = _SEPARATORS.get(kind)
        return cls(kind, name if separator is None else f"{owner}{separator}{name}")

    def split(self) -> tuple[str, str]:
        """The (owner, name) pair `member` takes: a part's, port's or
        connector's owner (a connector's context) and name, or "" and a
        component's name."""
        separator = _SEPARATORS.get(self.kind)
        if separator is None:
            return ("", self.path)
        owner, _, name = self.path.partition(separator)
        return (owner, name)


def parse_ref(text: str) -> ElementRef:
    """Parse the textual ref shapes accepted on the command line and in plans:
    the first separator `text` holds gives its kind, and none a component.
    Owner and name are identifiers; a connector's owner may be the root
    context."""
    kind = next((k for k, separator in _SEPARATORS.items() if separator in text), _COMPONENT)
    ref = ElementRef(kind, text)
    owner, name = ref.split()
    if not is_identifier(name) or not (
        is_identifier(owner) or owner == ROOT_CONTEXT and kind in (_COMPONENT, _CONNECTOR)
    ):
        raise ValueError(f"invalid {kind.value} reference '{text}'")
    return ref


class ArchitectureModel(Record, namedtuple("ArchitectureModel", "components connectors")):
    """Components and connectors, sorted on construction.

    Cached lookups such as `connector_index`, which resolves every connector
    on first use, and `validation`, live as long as this object and never
    enter equality.
    """

    def __new__(
        cls, components: Iterable[Component] = (), connectors: Iterable[Connector] = ()
    ) -> ArchitectureModel:
        components = tuple(sorted(components, key=lambda c: c.name))
        connectors = tuple(sorted(connectors, key=lambda c: (c.context, c.id)))
        return super().__new__(cls, components, connectors)

    _make = classmethod(lambda cls, values: cls(*values))

    @cached_property
    def _component_map(self) -> Mapping[str, Component]:
        out: dict[str, Component] = {}
        for comp in self.components:
            out.setdefault(comp.name, comp)
        return out

    @cached_property
    def _part_type_uses(self) -> frozenset[str]:
        return frozenset(p.type_component for c in self.components for p in c.parts)

    @cached_property
    def declared_keys(self) -> frozenset[tuple[RefKind, str, str]]:
        return frozenset(_member_keys(self.components))

    @cached_property
    def connector_index(self) -> ConnectorIndex:
        return ConnectorIndex(self)

    @cached_property
    def validation(self) -> tuple[Finding, ...]:
        """`validate_model`'s findings: empty when the model is well-formed."""
        return tuple(validate_model(self))

    def component(self, name: str) -> Component | None:
        return self._component_map.get(name)

    def connector_by_id(self, cid: str) -> Connector | None:
        return self.connector_index.by_id.get(cid)

    def is_top_level(self, name: str) -> bool:
        """A component is top-level when no part anywhere is typed by it."""
        return name in self._component_map and name not in self._part_type_uses


def walk_endpoint(
    model: ArchitectureModel, context: str, path: EndpointPath | str
) -> tuple[ElementRef, ...]:
    """Walk a dotted endpoint path from a context component to a part or port.

    Each non-final segment must be a part role (descending into its type);
    the final segment is a part role or a port name. In the root context
    the first segment selects a top-level component instead. Returns the
    element each segment reaches, in order (that component, each traversed
    part, then the endpoint itself); raises EndpointError, carrying the
    elements reached so far, when the path does not resolve.
    """
    ep = EndpointPath.parse(path) if isinstance(path, str) else path
    segments = ep.segments
    walked: list[ElementRef] = []

    def stop(reason: str) -> EndpointError:
        return EndpointError(context, str(ep), reason, tuple(walked))

    if context == ROOT_CONTEXT:
        first = segments[0]
        if not model.is_top_level(first):
            raise stop(f"'{first}' is not a top-level component")
        walked.append(ElementRef.component(first))
        if len(segments) == 1:
            raise stop("path ends at a component, not a part or port")
        comp = model.component(first)
        segments = segments[1:]
    else:
        comp = model.component(context)
        if comp is None:
            raise stop(f"unknown context component '{context}'")

    for index, segment in enumerate(segments):
        final = index == len(segments) - 1
        part = comp.part(segment)
        if part is not None:
            walked.append(ElementRef.part(comp.name, segment))
            if final:
                return tuple(walked)
            nxt = model.component(part.type_component)
            if nxt is None:
                raise stop(f"part '{segment}' has undeclared type '{part.type_component}'")
            comp = nxt
            continue
        if final and comp.port(segment) is not None:
            walked.append(ElementRef.port(comp.name, segment))
            return tuple(walked)
        what = "port or part" if final else "part"
        raise stop(f"no {what} '{segment}' in component '{comp.name}'")


def resolve_endpoint(
    model: ArchitectureModel, context: str, path: EndpointPath | str
) -> ElementRef:
    """The part or port an endpoint path ends at: the last element of its walk."""
    return walk_endpoint(model, context, path)[-1]


def normalize_connector(
    left: ElementRef, right: ElementRef, direction: Direction
) -> tuple[ElementRef, ElementRef, Direction]:
    """Canonical endpoint order: lexicographic by path; swapping flips LEFT/RIGHT."""
    if right.path < left.path:
        return (right, left, flip(direction))
    if right.path == left.path and direction is Direction.RIGHT:
        return (left, right, Direction.LEFT)
    return (left, right, direction)


class ConnectorIndex:
    """Every connector of one model, its endpoints resolved once; never mutated.

    `sides` holds each connector's two resolved endpoints (or the
    EndpointError a side raised), `triples` the canonical triple of each
    connector whose sides resolve, `by_pair` the (direction, connector ref)
    entries per canonical endpoint pair in declared order, and `by_id` and
    `by_ref` the first connector declared per id and per ref.
    """

    def __init__(self, model: ArchitectureModel) -> None:
        self.sides: dict[Connector, tuple[ElementRef | EndpointError, ...]] = {}
        self.triples: dict[Connector, tuple[str, str, Direction]] = {}
        self.by_pair: dict[tuple[str, str], list[tuple[Direction, ElementRef]]] = {}
        self.by_id: dict[str, Connector] = {}
        self.by_ref: dict[ElementRef, Connector] = {}
        for conn in model.connectors:
            ref = ElementRef.connector(conn.context, conn.id)
            self.by_id.setdefault(conn.id, conn)
            self.by_ref.setdefault(ref, conn)
            sides: list[ElementRef | EndpointError] = []
            for endpoint in (conn.left, conn.right):
                try:
                    sides.append(resolve_endpoint(model, conn.context, endpoint))
                except EndpointError as err:
                    sides.append(err.with_traceback(None))  # kept without its frames
            self.sides[conn] = tuple(sides)
            left, right = sides
            if isinstance(left, EndpointError) or isinstance(right, EndpointError):
                continue
            nl, nr, nd = normalize_connector(left, right, conn.direction)
            self.triples[conn] = (nl.path, nr.path, nd)
            self.by_pair.setdefault((nl.path, nr.path), []).append((nd, ref))

    def matching(self, triple: tuple[str, str, Direction | None]) -> list[ElementRef]:
        """Refs of the declared connectors a canonical connection triple matches.

        A triple without a direction (an annotation without `type`) matches
        on endpoints alone; the rule is the same for @Connects, @Disconnects
        and @Connector.
        """
        left, right, direction = triple
        return [
            ref
            for declared, ref in self.by_pair.get((left, right), ())
            if direction is None or direction is declared
        ]


def canonical_triple(
    model: ArchitectureModel, connector: Connector
) -> tuple[str, str, Direction]:
    """Canonical triple of a connector declared in model; raises the
    EndpointError of its first side that does not resolve."""
    index = model.connector_index
    triple = index.triples.get(connector)
    if triple is None:
        raise next(side for side in index.sides[connector] if isinstance(side, EndpointError))
    return triple


def _member_keys(comps: Iterable[Component]) -> Iterator[tuple[RefKind, str, str]]:
    """The (kind, owner, name) key `ElementRef.member` takes of each
    component, port and part that `comps` declare."""
    for comp in comps:
        owner = comp.name
        yield _COMPONENT, ROOT_CONTEXT, owner
        yield from ((_PORT, owner, port.name) for port in comp.ports)
        yield from ((_PART, owner, part.role) for part in comp.parts)


def list_elements(model: ArchitectureModel) -> set[ElementRef]:
    connectors = {ElementRef.connector(conn.context, conn.id) for conn in model.connectors}
    return {ElementRef.member(*key) for key in model.declared_keys} | connectors


def created_or_deleted(old: ArchitectureModel, new: ArchitectureModel) -> frozenset[ElementRef]:
    """The elements declared in exactly one of two models: `list_elements(old)
    ^ list_elements(new)`, skipping the components of a name that are the
    same objects or equal in both, with connectors compared by (context, id)."""
    named: dict[str, tuple[list[Component], list[Component]]] = {}
    for side, model in enumerate((old, new)):
        for comp in model.components:
            named.setdefault(comp.name, ([], []))[side].append(comp)
    refs: set[ElementRef] = set()
    for before, after in named.values():
        if before != after:
            changed = set(_member_keys(before)) ^ set(_member_keys(after))
            refs.update(ElementRef.member(*key) for key in changed)
    keys = {(c.context, c.id) for c in old.connectors} ^ {(c.context, c.id) for c in new.connectors}
    refs.update(ElementRef.connector(context, cid) for context, cid in keys)
    return frozenset(refs)


def _repeats(keys: Sequence[Hashable]) -> list[int]:
    """The positions whose key already appeared earlier in `keys`: the one
    rule for a name (or wiring) declared more than once."""
    if len(set(keys)) == len(keys):
        return []
    seen: set[Hashable] = set()
    repeats: list[int] = []
    for position, key in enumerate(keys):
        if key in seen:
            repeats.append(position)
        seen.add(key)
    return repeats


def validate_model(model: ArchitectureModel) -> list[Finding]:
    """Well-formedness gate: empty result means every invariant holds. A
    finding's ref and message are built only when it is found."""
    findings: list[Finding] = []

    def found(check_id: str, ref: ElementRef, message: str) -> None:
        findings.append(finding(check_id, message, ref))

    components = model.components
    for i in _repeats([comp.name for comp in components]):
        name = components[i].name
        found(
            "DUPLICATE_COMPONENT", ElementRef.component(name),
            f"component '{name}' declared more than once",
        )
    for comp in components:
        owner = comp.name
        for i in _repeats([port.name for port in comp.ports]):
            name = comp.ports[i].name
            found(
                "DUPLICATE_PORT", ElementRef.port(owner, name),
                f"port '{name}' declared more than once in '{owner}'",
            )
        for i in _repeats([part.role for part in comp.parts]):
            role = comp.parts[i].role
            found(
                "DUPLICATE_PART_ROLE", ElementRef.part(owner, role),
                f"part role '{role}' declared more than once in '{owner}'",
            )
        for part in comp.parts:
            role, mult = part.role, part.multiplicity
            if comp.port(role) is not None:
                found(
                    "DUPLICATE_MEMBER_NAME", ElementRef.part(owner, role),
                    f"part role '{role}' is also a port name in '{owner}'",
                )
            if not mult.is_valid():
                ref = ElementRef.part(owner, role)
                found(
                    "BAD_MULTIPLICITY", ref,
                    f"part '{ref.path}' has invalid multiplicity {mult.lower}..{mult.upper}",
                )
            if model.component(part.type_component) is None:
                ref = ElementRef.part(owner, role)
                found(
                    "UNRESOLVED_PART_TYPE", ref,
                    f"part '{ref.path}' has undeclared type '{part.type_component}'",
                )

    connectors = model.connectors
    for i in _repeats([conn.id for conn in connectors]):
        conn = connectors[i]
        found(
            "DUPLICATE_CONNECTOR_ID", ElementRef.connector(conn.context, conn.id),
            f"connector id '{conn.id}' declared more than once",
        )
    index = model.connector_index
    wired: list[Connector] = []
    for conn in connectors:
        if conn.context != ROOT_CONTEXT and model.component(conn.context) is None:
            found(
                "UNKNOWN_CONTEXT", ElementRef.connector(conn.context, conn.id),
                f"connector '{conn.id}' declared in unknown component '{conn.context}'",
            )
            continue
        triple = index.triples.get(conn)
        if triple is None:
            for side in index.sides[conn]:
                if isinstance(side, EndpointError):
                    found(
                        "UNRESOLVED_ENDPOINT", ElementRef.connector(conn.context, conn.id),
                        f"connector '{conn.id}': {side}",
                    )
        elif triple[0] == triple[1]:
            found(
                "SELF_CONNECTOR", ElementRef.connector(conn.context, conn.id),
                f"connector '{conn.id}' joins '{triple[0]}' to itself",
            )
        else:
            wired.append(conn)
    # Same wiring in different contexts is reuse, not duplication.
    for i in _repeats([(conn.context, *index.triples[conn]) for conn in wired]):
        conn = wired[i]
        nl, nr, nd = index.triples[conn]
        found(
            "DUPLICATE_CONNECTOR", ElementRef.connector(conn.context, conn.id),
            f"connector '{conn.id}' duplicates an existing connector in the "
            f"same context ({nl} / {nr} {nd.value})",
        )

    return sort_findings(findings)
