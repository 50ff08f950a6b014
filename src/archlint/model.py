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
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from functools import cached_property
from typing import Iterable, Mapping

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


class Multiplicity(namedtuple("Multiplicity", "lower upper", defaults=(1, 1))):
    """A part's bounds: lower (int) and upper (int, or None for unbounded)."""

    __slots__ = ()

    def is_valid(self) -> bool:
        if self.lower < 0:
            return False
        if self.upper is None:
            return True
        return self.upper >= 1 and self.lower <= self.upper


MULT_ONE = Multiplicity(1, 1)


class Port(namedtuple("Port", "name")):
    """A port: its name (str)."""

    __slots__ = ()


class Part(namedtuple("Part", "role type_component multiplicity", defaults=(MULT_ONE,))):
    """A part: its role (str), the name of the component that types it
    (type_component, str) and its multiplicity (Multiplicity)."""

    __slots__ = ()


class Component(namedtuple("Component", "name ports parts")):
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


class EndpointPath(namedtuple("EndpointPath", "segments")):
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


class Connector(namedtuple("Connector", "id context left right direction")):
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
    def member(cls, kind: RefKind, owner: str, name: str) -> ElementRef:
        """The element a name of `kind` denotes: the part, port or connector
        `name` of owner (a connector's context), or the component `name`."""
        if kind is _PART:
            return cls(kind, f"{owner}.{name}")
        if kind is _PORT:
            return cls(kind, f"{owner}#{name}")
        if kind is _CONNECTOR:
            return cls(kind, f"{owner}/{name}")
        return cls(kind, name)

    @classmethod
    def connector(cls, context: str, cid: str) -> ElementRef:
        return cls(_CONNECTOR, f"{context}/{cid}")

    def split(self) -> tuple[str, str]:
        """The (owner, name) pair `member` takes: a part's, port's or
        connector's owner (a connector's context) and name, or "" and a
        component's name."""
        if self.kind is _PART:
            owner, _, member = self.path.rpartition(".")
        elif self.kind is _PORT:
            owner, _, member = self.path.partition("#")
        elif self.kind is _CONNECTOR:
            owner, _, member = self.path.partition("/")
        else:
            return ("", self.path)
        return (owner, member)


def parse_ref(text: str) -> ElementRef:
    """Parse the textual ref shapes accepted on the command line and in plans."""
    if "/" in text:
        context, _, cid = text.partition("/")
        if (context and not is_identifier(context)) or not is_identifier(cid):
            raise ValueError(f"invalid connector reference '{text}'")
        return ElementRef.connector(context, cid)
    if "#" in text:
        owner, _, port = text.partition("#")
        if not is_identifier(owner) or not is_identifier(port):
            raise ValueError(f"invalid port reference '{text}'")
        return ElementRef.port(owner, port)
    if "." in text:
        owner, _, role = text.partition(".")
        if not is_identifier(owner) or not is_identifier(role):
            raise ValueError(f"invalid part reference '{text}'")
        return ElementRef.part(owner, role)
    if not is_identifier(text):
        raise ValueError(f"invalid component reference '{text}'")
    return ElementRef.component(text)


class ArchitectureModel(namedtuple("ArchitectureModel", "components connectors")):
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


def _component_refs(comps: Iterable[Component]) -> set[ElementRef]:
    """The elements components declare: each component, its ports and its parts."""
    refs: set[ElementRef] = set()
    for comp in comps:
        refs.add(ElementRef.component(comp.name))
        refs.update(ElementRef.port(comp.name, port.name) for port in comp.ports)
        refs.update(ElementRef.part(comp.name, part.role) for part in comp.parts)
    return refs


def list_elements(model: ArchitectureModel) -> set[ElementRef]:
    connectors = {ElementRef.connector(conn.context, conn.id) for conn in model.connectors}
    return _component_refs(model.components) | connectors


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
            refs |= _component_refs(before) ^ _component_refs(after)
    keys = {(c.context, c.id) for c in old.connectors} ^ {(c.context, c.id) for c in new.connectors}
    refs.update(ElementRef.connector(context, cid) for context, cid in keys)
    return frozenset(refs)


def validate_model(model: ArchitectureModel) -> list[Finding]:
    """Well-formedness gate: empty result means every invariant holds."""
    findings: list[Finding] = []
    seen_components: set[str] = set()
    for comp in model.components:
        cref = ElementRef.component(comp.name)
        if comp.name in seen_components:
            findings.append(
                finding("DUPLICATE_COMPONENT", f"component '{comp.name}' declared more than once", cref)
            )
        seen_components.add(comp.name)

        seen_ports: set[str] = set()
        for port in comp.ports:
            if port.name in seen_ports:
                findings.append(
                    finding(
                        "DUPLICATE_PORT",
                        f"port '{port.name}' declared more than once in '{comp.name}'",
                        ElementRef.port(comp.name, port.name),
                    )
                )
            seen_ports.add(port.name)

        seen_roles: set[str] = set()
        for part in comp.parts:
            pref = ElementRef.part(comp.name, part.role)
            if part.role in seen_roles:
                findings.append(
                    finding(
                        "DUPLICATE_PART_ROLE",
                        f"part role '{part.role}' declared more than once in '{comp.name}'",
                        pref,
                    )
                )
            seen_roles.add(part.role)
            if part.role in seen_ports:
                findings.append(
                    finding(
                        "DUPLICATE_MEMBER_NAME",
                        f"part role '{part.role}' is also a port name in '{comp.name}'",
                        pref,
                    )
                )
            if not part.multiplicity.is_valid():
                findings.append(
                    finding(
                        "BAD_MULTIPLICITY",
                        f"part '{comp.name}.{part.role}' has invalid multiplicity "
                        f"{part.multiplicity.lower}..{part.multiplicity.upper}",
                        pref,
                    )
                )
            if model.component(part.type_component) is None:
                findings.append(
                    finding(
                        "UNRESOLVED_PART_TYPE",
                        f"part '{comp.name}.{part.role}' has undeclared type '{part.type_component}'",
                        pref,
                    )
                )

    seen_ids: set[str] = set()
    seen_triples: set[tuple[str, str, str, Direction]] = set()
    index = model.connector_index
    for conn in model.connectors:
        kref = ElementRef.connector(conn.context, conn.id)
        if conn.id in seen_ids:
            findings.append(
                finding("DUPLICATE_CONNECTOR_ID", f"connector id '{conn.id}' declared more than once", kref)
            )
        seen_ids.add(conn.id)

        if conn.context != ROOT_CONTEXT and model.component(conn.context) is None:
            findings.append(
                finding(
                    "UNKNOWN_CONTEXT",
                    f"connector '{conn.id}' declared in unknown component '{conn.context}'",
                    kref,
                )
            )
            continue

        for side in index.sides[conn]:
            if isinstance(side, EndpointError):
                findings.append(finding("UNRESOLVED_ENDPOINT", f"connector '{conn.id}': {side}", kref))
        resolved = index.triples.get(conn)
        if resolved is None:
            continue
        nl, nr, nd = resolved
        if nl == nr:
            findings.append(
                finding(
                    "SELF_CONNECTOR",
                    f"connector '{conn.id}' joins '{nl}' to itself",
                    kref,
                )
            )
            continue
        # Same wiring in different contexts is reuse, not duplication.
        triple = (conn.context, nl, nr, nd)
        if triple in seen_triples:
            findings.append(
                finding(
                    "DUPLICATE_CONNECTOR",
                    f"connector '{conn.id}' duplicates an existing connector in the "
                    f"same context ({nl} / {nr} {nd.value})",
                    kref,
                )
            )
        seen_triples.add(triple)

    return sort_findings(findings)
