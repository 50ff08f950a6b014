"""What a connection annotation references, as it was before
`resolve_connection` alone came to read an annotation's two sides: the
oracle for `archlint.conformance`'s `check_connection_consistency`,
`references` and `usages_by_connector`.

`instance_refs`, `references`, `usages_by_connector`,
`check_connection_consistency` and `syntactic_refs` are the earlier
functions word for word, as are the `ConnectionResolution` (with each
side's `walks`), `resolve_connection`, `connection_instances` and
`side_context` they call, which `archlint` no longer defines that way.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from archlint.annotations import AnnotationInstance, CodeModel
from archlint.conformance import ConnectorUsages
from archlint.errors import EndpointError
from archlint.findings import Finding, finding, sort_findings
from archlint.model import (
    ROOT_CONTEXT,
    ArchitectureModel,
    Direction,
    ElementRef,
    normalize_connector,
    walk_endpoint,
)


def side_context(instance: AnnotationInstance, side: str) -> str:
    """Context component for one endpoint: explicit attr, else first enclosing,
    else the document root."""
    explicit = instance.attrs.get(f"{side}component")
    if explicit is not None:
        return explicit
    if instance.enclosing_components:
        return instance.enclosing_components[0]
    return ROOT_CONTEXT


def syntactic_refs(instance: AnnotationInstance) -> frozenset[ElementRef]:
    """Architecture elements this instance textually references.

    An element annotation references what `CodeModel.element_refs` lists
    for a model of it alone. A connection annotation references its
    enclosing components and its endpoints' elements. Endpoint paths are
    interpreted without the architecture: a one-segment path could be a
    part or a port of the side's context, so both refs are indexed; lookup
    with an architecture model refines this.
    """
    if instance.kind.referent is not None:
        return frozenset(CodeModel((instance,)).element_refs)
    refs = {ElementRef.component(name) for name in instance.enclosing_components}
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


class ConnectionResolution(namedtuple("ConnectionResolution", "triple findings walks matches")):
    """A connection annotation resolved against one architecture.

    `triple` (tuple[str, str, Direction | None] | None) is the canonical
    (left, right, direction), None when a side does not resolve; its
    direction is None when the annotation omits `type`, and the endpoints
    are still ordered canonically. `findings` (list[Finding]) holds an
    UNRESOLVED_ENDPOINT finding per failed side, `walks` each side's
    `walk_endpoint` result (a pair of tuple[ElementRef, ...] | None, None
    when it fails), and `matches` (frozenset[ElementRef]) the declared
    connectors the triple matches.
    """

    __slots__ = ()


def resolve_connection(
    arch: ArchitectureModel, instance: AnnotationInstance
) -> ConnectionResolution:
    """Walk each endpoint of a connection annotation once and match the triple."""
    findings: list[Finding] = []
    walks: list[tuple[ElementRef, ...] | None] = []
    for side in ("left", "right"):
        raw = instance.attrs.get(side, "")
        try:
            walks.append(walk_endpoint(arch, side_context(instance, side), raw))
        except (EndpointError, ValueError) as err:
            walks.append(None)
            findings.append(
                finding(
                    "UNRESOLVED_ENDPOINT",
                    f"@{instance.kind.value} {side} endpoint: {err}",
                    locations=[instance.location],
                )
            )
    left, right = walks
    if left is None or right is None:
        return ConnectionResolution(None, findings, (left, right), frozenset())
    raw_direction = instance.attrs.get("type")
    direction = Direction(raw_direction) if raw_direction is not None else None
    nl, nr, nd = normalize_connector(left[-1], right[-1], direction or Direction.BIDIR)
    triple = (nl.path, nr.path, None if direction is None else nd)
    matches = frozenset(arch.connector_index.matching(triple))
    return ConnectionResolution(triple, findings, (left, right), matches)


def connection_instances(code: CodeModel) -> list[AnnotationInstance]:
    return [i for i in code.instances if i.kind.usage is not None]


def instance_refs(instance: AnnotationInstance, arch: ArchitectureModel) -> frozenset[ElementRef]:
    """Elements an instance references under the architecture.

    An element annotation references its `syntactic_refs`. A connection
    annotation references every element its endpoint walks reach (each
    traversed part counts) and each declared connector its resolution
    matches; a side whose walk fails is read syntactically.
    """
    if instance.kind.usage is None:
        return syntactic_refs(instance)
    resolution = resolve_connection(arch, instance)
    refs = {ElementRef.component(name) for name in instance.enclosing_components}
    for side, walk in zip(("left", "right"), resolution.walks):
        if not instance.attrs.get(side):
            continue
        explicit = instance.attrs.get(f"{side}component")
        if explicit:
            refs.add(ElementRef.component(explicit))
        refs.update(walk if walk is not None else syntactic_refs(instance))
    refs.update(resolution.matches)
    return frozenset(refs)


def references(
    code: CodeModel, refs: Iterable[ElementRef], arch: ArchitectureModel
) -> dict[ElementRef, tuple[AnnotationInstance, ...]]:
    """The annotations referencing each of `refs` under the architecture, in
    location order: what `lookup` prints and each plan step's impact lists.
    Element annotations come from `code.element_refs`; each connection
    annotation is resolved once, through the connector index."""
    index = code.element_refs
    hits = {ref: list(index.get(ref, ())) for ref in refs}
    instances = code.instances
    for position, inst in enumerate(instances):
        if inst.kind.usage is not None:
            found = instance_refs(inst, arch)
            for ref, positions in hits.items():
                if ref in found:
                    positions.append(position)
    return {ref: tuple(instances[p] for p in sorted(positions)) for ref, positions in hits.items()}


def usages_by_connector(
    arch: ArchitectureModel, code: CodeModel
) -> dict[ElementRef, ConnectorUsages]:
    """The usages of every declared connector whose endpoints resolve.

    Each connection instance is resolved once and filed under every
    connector it matches, in code order.
    """
    groups = {
        ElementRef.connector(conn.context, conn.id): {name: [] for name in ConnectorUsages._fields}
        for conn in arch.connector_index.triples
    }
    for inst in connection_instances(code):
        for ref in resolve_connection(arch, inst).matches:
            groups[ref][inst.kind.usage].append(inst)
    return {ref: ConnectorUsages(*map(tuple, group.values())) for ref, group in groups.items()}


def check_connection_consistency(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNDECLARED_CONNECTION per connection annotation without a declared match."""
    findings: list[Finding] = []
    for inst in connection_instances(code):
        for side in ("left", "right"):
            explicit = inst.attrs.get(f"{side}component")
            if (
                explicit is not None
                and inst.enclosing_components
                and explicit not in inst.enclosing_components
            ):
                findings.append(
                    finding(
                        "CONTEXT_OVERRIDE",
                        f"{side}component='{explicit}' overrides the enclosing component "
                        f"({', '.join(inst.enclosing_components)})",
                        locations=[inst.location],
                    )
                )
        resolution = resolve_connection(arch, inst)
        findings.extend(resolution.findings)
        if resolution.triple is not None and not resolution.matches:
            left, right, direction = resolution.triple
            shown = direction.value if direction is not None else "any direction"
            findings.append(
                finding(
                    "UNDECLARED_CONNECTION",
                    f"@{inst.kind.value} wires {left} and {right} ({shown}) "
                    "but the architecture declares no such connector",
                    locations=[inst.location],
                )
            )
    return sort_findings(findings)
