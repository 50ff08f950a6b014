"""The three automatic conformance checks between architecture and code, and
the annotation lookup.

1. Annotation completeness: every component/part/port in the architecture is
   covered by at least one annotation (MISSING_ANNOTATION).
2. Architecture completeness: every annotation's referent exists in the
   architecture (UNKNOWN_ELEMENT).
3. Connection consistency: every connection-shaped annotation matches a
   declared connector after endpoint resolution and canonical normalization
   (UNDECLARED_CONNECTION).

Connection-shaped annotations (@Connects/@Disconnects/@Connector) are checked
only by check 3, so one mistake is reported once.

Checks 1 and 2 compare the (kind, owner, name) keys the model declares
(`ArchitectureModel.declared_keys`) with those the element annotations name
(`CodeModel.element_index`). In Murphy, Notkin & Sullivan's reflexion
models (FSE 1995), check 1 reports the absences and check 2 the
divergences. The lookup reads `CodeModel.element_refs`, derived from the
same index.

Every connector query reads `resolve_connection`: check 3, `references`
(behind `lookup` and plan impact), `connector_usages` and the
connector-lifecycle smell (both through `usages_by_connector`). It walks
each endpoint of a connection annotation once and matches the result
against the model's connector index.
"""

from __future__ import annotations

import hashlib
from collections import Counter, namedtuple
from typing import Iterable

from .adl import serialize_architecture
from .annotations import AnnotationInstance, CodeModel, side_context, syntactic_refs
from .errors import EndpointError, UnknownConnectorError
from .findings import Finding, finding, sort_findings
from .model import (
    ArchitectureModel,
    Direction,
    ElementRef,
    RefKind,
    canonical_triple,
    normalize_connector,
    walk_endpoint,
)


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


# ---------------------------------------------------------------------------
# annotation lookup


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


def lookup(code: CodeModel, ref: ElementRef, arch: ArchitectureModel) -> list[AnnotationInstance]:
    """All instances referencing ref under the architecture, in location order."""
    return list(references(code, (ref,), arch)[ref])


class ConnectorUsages(namedtuple("ConnectorUsages", "connects disconnects stores")):
    """A connector's annotations, each field a tuple[AnnotationInstance, ...];
    a connection kind's `usage` names its field."""

    __slots__ = ()


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


def connector_usages(
    code: CodeModel, ref: ElementRef, arch: ArchitectureModel
) -> ConnectorUsages:
    """Who connects, disconnects, and stores a declared connector.

    Raises UnknownConnectorError when the architecture declares no such
    connector, and the EndpointError of its first unresolved side when the
    connector does not resolve.
    """
    if ref.kind is not RefKind.CONNECTOR:
        raise UnknownConnectorError(f"'{ref.path}' is not a connector reference")
    conn = arch.connector_index.by_ref.get(ref)
    if conn is None:
        raise UnknownConnectorError(f"the architecture declares no connector '{ref.path}'")
    canonical_triple(arch, conn)  # raises when a side does not resolve
    return usages_by_connector(arch, code)[ref]


# ---------------------------------------------------------------------------
# the three checks


def check_annotation_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """MISSING_ANNOTATION per declared component, part and port that no
    annotation whose kind `covers` names (the absences)."""
    declared, index = arch.declared_keys, code.element_index
    absent = (declared - index.named.keys()) | (declared & index.uncovered)
    return sort_findings(
        finding("MISSING_ANNOTATION", f"no annotation covers {ref.kind.value} '{ref.path}'", ref)
        for ref in {ElementRef.member(*key) for key in absent}
    )


def check_architecture_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNKNOWN_ELEMENT per annotation naming an element the architecture
    does not declare (the divergences), and per element annotation that has
    no owner. Connection-shaped annotations are check 3's business.
    """
    index, instances = code.element_index, code.instances
    groups = [(index.ownerless, "has no enclosing component to resolve against", None)]
    for key in index.named.keys() - arch.declared_keys:
        kind, owner, value = key
        if kind is RefKind.COMPONENT:
            says = f"names unknown component '{value}'"
        else:
            where = "unknown component" if arch.component(owner) is None else "component"
            says = f"names {kind.value} '{value}' not declared in {where} '{owner}'"
        groups.append((index.named[key], says, ElementRef.member(*key)))
    return sort_findings(
        finding("UNKNOWN_ELEMENT", f"@{inst.kind.value} {says}", ref, [inst.location])
        for positions, says, ref in groups
        for inst in map(instances.__getitem__, positions)
    )


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


class ConformanceReport(namedtuple("ConformanceReport", "findings counts fingerprint")):
    """The three checks' findings (tuple[Finding, ...]), the count per check
    id (counts, Mapping[str, int]) and the report fingerprint (str)."""

    __slots__ = ()


def report_fingerprint(arch: ArchitectureModel, code: CodeModel) -> str:
    """SHA-256 over the serialized architecture, the compact canonical JSON of
    the code model (the record `extract --format json` prints), and the scan
    configuration's fingerprint."""
    digest = hashlib.sha256()
    digest.update(serialize_architecture(arch).encode("utf-8"))
    digest.update(code.compact_json.encode("utf-8"))
    digest.update(code.config_fingerprint.encode("utf-8"))
    return digest.hexdigest()


def run_all(arch: ArchitectureModel, code: CodeModel) -> ConformanceReport:
    """Model validation, the code model's extraction findings, and the three checks.

    The three checks run only on a well-formed model (their answers would be
    noise otherwise). Target rules are not re-run: the scanner reports their
    findings with the rest of `code.findings`. Every finding is kept, so two
    roots holding the same malformed file report it twice.
    """
    model_findings = arch.validation
    findings: list[Finding] = list(model_findings)
    findings.extend(code.findings)
    if not model_findings:
        findings.extend(check_annotation_completeness(arch, code))
        findings.extend(check_architecture_completeness(arch, code))
        findings.extend(check_connection_consistency(arch, code))
    ordered = tuple(sort_findings(findings))
    counts = Counter(f.check_id for f in ordered)
    return ConformanceReport(ordered, dict(sorted(counts.items())), report_fingerprint(arch, code))
