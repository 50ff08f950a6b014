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
divergences.

Checks 2 and 3 judge one annotation at a time, and check 1 is the declared
keys minus those a covering annotation names, so the work splits by file:
`run_all` is the `fold` of each file's `check_file` part, its findings and
covered keys, and computes check 1 once from the union of those keys. The
result store keeps each file's part for one architecture
(`archlint.scan.check_tree`), so a `check` of unchanged files against an
unchanged `.arch` reuses them instead of checking again.

Two rules say what an annotation references. An element annotation's
refs do not depend on the model: `CodeModel.element_refs`, derived from
the same index. A connection annotation's come from `resolve_connection`,
the only code that reads its two sides: it walks each endpoint once,
matches the result against the model's connector index and lists every
element the annotation references. Check 3 reads its findings and
matches. `references` is the one group-by over both rules, behind
`lookup`, plan impact, `connector_usages` and the connector-lifecycle
smell (through `usages_by_connector`).
"""

from __future__ import annotations

import hashlib
from collections import Counter, namedtuple
from typing import AbstractSet, Iterable, Iterator, Sequence

from .annotations import AnnotationInstance, CodeModel, ElementIndex, index_elements
from .errors import EndpointError, UnknownConnectorError
from .findings import Finding, finding, sort_findings
from .model import (
    ROOT_CONTEXT,
    ArchitectureModel,
    Direction,
    ElementRef,
    RefKind,
    canonical_triple,
    normalize_connector,
    walk_endpoint,
)


class ConnectionResolution(namedtuple("ConnectionResolution", "triple findings refs matches")):
    """A connection annotation resolved against one architecture.

    `triple` (tuple[str, str, Direction | None] | None) is the canonical
    (left, right, direction), None when a side does not resolve; its
    direction is None when the annotation omits `type`, and the endpoints
    are still ordered canonically. `findings` (list[Finding]) holds a
    CONTEXT_OVERRIDE warning per side whose explicit context is not an
    enclosing component and an UNRESOLVED_ENDPOINT finding per failed side.
    `refs` (frozenset[ElementRef]) is every element the annotation
    references, and `matches` (frozenset[ElementRef]) the declared
    connectors the triple matches.
    """

    __slots__ = ()


def resolve_connection(
    arch: ArchitectureModel, instance: AnnotationInstance
) -> ConnectionResolution:
    """Read each side of a connection annotation, walk its endpoint once and
    match the triple: the one rule for what a connection annotation means.

    Its `refs` are its enclosing components, each side's explicit context
    component, every element each endpoint walk reaches (each traversed
    part counts) and each declared connector it matches. When a side with a
    path does not resolve, each side's path is also read without the
    architecture: a first segment in the root context names a component,
    and elsewhere a part of the side's context, or a port when it is the
    whole path.
    """
    attrs, enclosing, location = instance.attrs, instance.enclosing_components, instance.location
    findings: list[Finding] = []
    refs = [*map(ElementRef.component, enclosing)]
    ends: list[ElementRef] = []
    paths: list[tuple[str, str]] = []  # each side's (context, path), when it has a path
    for side in ("left", "right"):
        raw = attrs.get(side, "")
        explicit = attrs.get(f"{side}component")
        if explicit is None:
            context = enclosing[0] if enclosing else ROOT_CONTEXT
        else:
            context = explicit
            if enclosing and explicit not in enclosing:
                findings.append(
                    finding(
                        "CONTEXT_OVERRIDE",
                        f"{side}component='{explicit}' overrides the enclosing component "
                        f"({', '.join(enclosing)})",
                        locations=[location],
                    )
                )
        if raw:
            paths.append((context, raw))
            if explicit:
                refs.append(ElementRef.component(explicit))
        try:
            walk = walk_endpoint(arch, context, raw)
        except (EndpointError, ValueError) as err:
            findings.append(
                finding(
                    "UNRESOLVED_ENDPOINT",
                    f"@{instance.kind.value} {side} endpoint: {err}",
                    locations=[location],
                )
            )
            continue
        refs += walk
        ends.append(walk[-1])
    if len(ends) < len(paths):  # a side with a path failed: no empty path resolves
        for context, path in paths:
            first, *rest = path.split(".")
            if context == ROOT_CONTEXT:
                if rest:
                    refs.append(ElementRef.component(first))
            else:
                refs.append(ElementRef.part(context, first))
                if not rest:
                    refs.append(ElementRef.port(context, first))
    if len(ends) < 2:
        return ConnectionResolution(None, findings, frozenset(refs), frozenset())
    raw_direction = attrs.get("type")
    direction = Direction(raw_direction) if raw_direction is not None else None
    nl, nr, nd = normalize_connector(*ends, direction or Direction.BIDIR)
    triple = (nl.path, nr.path, None if direction is None else nd)
    matches = frozenset(arch.connector_index.matching(triple))
    return ConnectionResolution(triple, findings, matches.union(refs), matches)


# ---------------------------------------------------------------------------
# annotation lookup


def references(
    code: CodeModel, refs: Iterable[ElementRef], arch: ArchitectureModel,
    resolved: Iterable[tuple[int, ConnectionResolution]] | None = None,
) -> dict[ElementRef, tuple[AnnotationInstance, ...]]:
    """The annotations referencing each of `refs` under the architecture, in
    location order: the one group-by behind `lookup`, plan impact and the
    connector usages. Element annotations come from `code.element_refs`;
    each connection annotation is resolved once and filed under each of its
    `resolve_connection` refs that is asked for. A caller that holds every
    connection annotation's resolution under `arch` passes them as
    `resolved`, (position in `code.instances`, resolution) pairs."""
    # No element annotation references a connector, so a query for
    # connectors alone leaves `code.element_refs` unbuilt.
    hits = {
        ref: [] if ref.kind is RefKind.CONNECTOR else list(code.element_refs.get(ref, ()))
        for ref in refs
    }
    instances = code.instances
    if resolved is None:
        resolved = (
            (position, resolve_connection(arch, inst))
            for position, inst in enumerate(instances) if inst.kind.usage is not None
        )
    for position, resolution in resolved:
        for ref in resolution.refs:
            positions = hits.get(ref)
            if positions is not None:
                positions.append(position)
    return {ref: tuple(instances[p] for p in sorted(positions)) for ref, positions in hits.items()}


def lookup(code: CodeModel, ref: ElementRef, arch: ArchitectureModel) -> list[AnnotationInstance]:
    """All instances referencing ref under the architecture, in location order."""
    return list(references(code, (ref,), arch)[ref])


class ConnectorUsages(namedtuple("ConnectorUsages", "connects disconnects stores")):
    """A connector's annotations, each field a tuple[AnnotationInstance, ...];
    a connection kind's `usage` names its field."""

    __slots__ = ()


def _by_usage(instances: Iterable[AnnotationInstance]) -> ConnectorUsages:
    groups: dict[str, list[AnnotationInstance]] = {name: [] for name in ConnectorUsages._fields}
    for inst in instances:
        groups[inst.kind.usage].append(inst)
    return ConnectorUsages(*map(tuple, groups.values()))


def usages_by_connector(
    arch: ArchitectureModel, code: CodeModel
) -> dict[ElementRef, ConnectorUsages]:
    """The usages of every declared connector whose endpoints resolve: its
    `references`, split by each connection kind's `usage`."""
    refs = [ElementRef.connector(conn.context, conn.id) for conn in arch.connector_index.triples]
    return {ref: _by_usage(found) for ref, found in references(code, refs, arch).items()}


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
    return _by_usage(references(code, (ref,), arch)[ref])


# ---------------------------------------------------------------------------
# the three checks


def _missing(
    arch: ArchitectureModel, covered: AbstractSet[tuple[RefKind, str, str]]
) -> list[Finding]:
    return sort_findings(
        finding("MISSING_ANNOTATION", f"no annotation covers {ref.kind.value} '{ref.path}'", ref)
        for ref in {ElementRef.member(*key) for key in arch.declared_keys - covered}
    )


def check_annotation_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """MISSING_ANNOTATION per declared component, part and port that no
    annotation whose kind `covers` names (the absences)."""
    index = code.element_index
    return _missing(arch, index.named.keys() - index.uncovered)


def _unknown_elements(
    arch: ArchitectureModel, instances: Sequence[AnnotationInstance], index: ElementIndex
) -> Iterator[Finding]:
    groups = [(index.ownerless, "has no enclosing component to resolve against", None)]
    for key in index.named.keys() - arch.declared_keys:
        kind, owner, value = key
        if kind is RefKind.COMPONENT:
            says = f"names unknown component '{value}'"
        else:
            where = "unknown component" if arch.component(owner) is None else "component"
            says = f"names {kind.value} '{value}' not declared in {where} '{owner}'"
        groups.append((index.named[key], says, ElementRef.member(*key)))
    return (
        finding("UNKNOWN_ELEMENT", f"@{inst.kind.value} {says}", ref, [inst.location])
        for positions, says, ref in groups
        for inst in map(instances.__getitem__, positions)
    )


def check_architecture_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNKNOWN_ELEMENT per annotation naming an element the architecture
    does not declare (the divergences), and per element annotation that has
    no owner. Connection-shaped annotations are check 3's business.
    """
    return sort_findings(_unknown_elements(arch, code.instances, code.element_index))


def _undeclared_connections(
    arch: ArchitectureModel, instances: Iterable[AnnotationInstance]
) -> list[Finding]:
    findings: list[Finding] = []
    for inst in instances:
        if inst.kind.usage is None:
            continue
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
    return findings


def check_connection_consistency(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNDECLARED_CONNECTION per connection annotation without a declared
    match, after the findings of its resolution."""
    return sort_findings(_undeclared_connections(arch, code.instances))


class FilePart(namedtuple("FilePart", "findings covered")):
    """One file's share of the report under one well-formed architecture: its
    extraction findings with the check 2 and 3 findings of its annotations,
    in report order (list[Finding]), and the (RefKind, owner, name) keys
    its covering element annotations name (a set), from which `fold`
    computes check 1."""

    __slots__ = ()


def check_file(
    arch: ArchitectureModel, instances: Sequence[AnnotationInstance], findings: Iterable[Finding]
) -> FilePart:
    """The part of one file's instances and extraction findings under a
    well-formed architecture. Checks 2 and 3 are per annotation, so the parts
    of a tree's files hold every finding they give for the whole tree."""
    index = index_elements(instances)
    checked = [
        *findings,
        *_unknown_elements(arch, instances, index),
        *_undeclared_connections(arch, instances),
    ]
    return FilePart(sort_findings(checked), index.named.keys() - index.uncovered)


class ConformanceReport(namedtuple("ConformanceReport", "findings counts fingerprint")):
    """The three checks' findings (tuple[Finding, ...]), the count per check
    id (counts, Mapping[str, int]) and the report fingerprint (str)."""

    __slots__ = ()


def _fingerprint(arch: ArchitectureModel, compact_json: str, config_fingerprint: str) -> str:
    digest = hashlib.sha256(arch.canonical_text.encode("utf-8"))
    digest.update(compact_json.encode("utf-8"))
    digest.update(config_fingerprint.encode("utf-8"))
    return digest.hexdigest()


def report_fingerprint(arch: ArchitectureModel, code: CodeModel) -> str:
    """SHA-256 over the serialized architecture (`canonical_text`), the
    compact canonical JSON of the code model (the record `extract --format
    json` prints), and the scan configuration's fingerprint."""
    return _fingerprint(arch, code.compact_json, code.config_fingerprint)


def _report(findings: list[Finding], fingerprint: str) -> ConformanceReport:
    counts = Counter(f.check_id for f in findings)
    return ConformanceReport(tuple(findings), dict(sorted(counts.items())), fingerprint)


def fold(
    arch: ArchitectureModel, parts: Iterable[FilePart], compact_json: str,
    config_fingerprint: str, head: Iterable[Finding] = (),
) -> ConformanceReport:
    """The report under a well-formed architecture of a tree whose files'
    parts come in path order, no two of one path, and whose code model has
    this compact JSON and config fingerprint. Check 1 runs once, on the
    union of the parts' covered keys; its findings and `head`, findings
    without a location, come first, as they sort, and then each part's.
    """
    covered: set[tuple[RefKind, str, str]] = set()
    findings: list[Finding] = []
    for part in parts:
        covered.update(part.covered)
        findings += part.findings
    findings[:0] = sort_findings([*head, *_missing(arch, covered)])
    return _report(findings, _fingerprint(arch, compact_json, config_fingerprint))


def run_all(arch: ArchitectureModel, code: CodeModel) -> ConformanceReport:
    """Model validation, the code model's extraction findings, and the three checks.

    The three checks run only on a well-formed model (their answers would be
    noise otherwise), as the `fold` of each file's `check_file` part. Target
    rules are not re-run: the scanner reports their findings with the rest
    of `code.findings`. Every finding is kept, so two roots holding the same
    malformed file report it twice.
    """
    if arch.validation:
        findings = sort_findings([*arch.validation, *code.findings])
        return _report(findings, report_fingerprint(arch, code))
    files: dict[str, tuple[list[AnnotationInstance], list[Finding]]] = {}
    for inst in code.instances:
        files.setdefault(inst.location.file, ([], []))[0].append(inst)
    head = []
    for f in code.findings:
        if f.locations:
            files.setdefault(f.locations[0].file, ([], []))[1].append(f)
        else:
            head.append(f)
    parts = [check_file(arch, *files[name]) for name in sorted(files)]
    return fold(arch, parts, code.compact_json, code.config_fingerprint, head)
