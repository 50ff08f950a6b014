"""The three automatic conformance checks between architecture and code.

1. Annotation completeness: every component/part/port in the architecture is
   covered by at least one annotation (MISSING_ANNOTATION).
2. Architecture completeness: every annotation's referent exists in the
   architecture (UNKNOWN_ELEMENT).
3. Connection consistency: every connection-shaped annotation matches a
   declared connector after endpoint resolution and canonical normalization
   (UNDECLARED_CONNECTION).

Connection-shaped annotations (@Connects/@Disconnects/@Connector) are checked
only by check 3, so one mistake is reported once.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .adl import serialize_architecture
from .annotations import (
    AnnotationInstance,
    AnnotationKind,
    CodeModel,
    CONNECTION_KINDS,
    code_model_payload,
    side_context,
)
from .errors import EndpointError
from .findings import Finding, finding, sort_findings
from .model import (
    ArchitectureModel,
    Direction,
    ElementRef,
    RefKind,
    list_elements,
    normalize_connector,
    resolve_endpoint,
    validate_model,
)


def instance_direction(instance: AnnotationInstance) -> Direction | None:
    raw = instance.attrs.get("type")
    return Direction(raw) if raw is not None else None


def resolve_connection(
    arch: ArchitectureModel, instance: AnnotationInstance
) -> tuple[tuple[str, str, Direction | None] | None, list[Finding]]:
    """Canonical (left, right, direction) of a connection annotation.

    Direction is None when the annotation omits `type`; the endpoints are
    still ordered canonically. Resolution failures come back as
    UNRESOLVED_ENDPOINT findings and the triple is None.
    """
    findings: list[Finding] = []
    refs: list[ElementRef] = []
    for side in ("left", "right"):
        raw = instance.attrs.get(side, "")
        context = side_context(instance, side)
        try:
            refs.append(resolve_endpoint(arch, context, raw))
        except (EndpointError, ValueError) as err:
            findings.append(
                finding(
                    "UNRESOLVED_ENDPOINT",
                    f"@{instance.kind.value} {side} endpoint: {err}",
                    locations=[instance.location],
                )
            )
    if len(refs) != 2:
        return (None, findings)
    direction = instance_direction(instance)
    nl, nr, nd = normalize_connector(*refs, direction or Direction.BIDIR)
    return ((nl.path, nr.path, None if direction is None else nd), findings)


def connection_instances(code: CodeModel) -> list[AnnotationInstance]:
    return [i for i in code.instances if i.kind in CONNECTION_KINDS]


def check_annotation_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """MISSING_ANNOTATION per component/part/port with no covering instance."""
    components_covered: set[str] = set()
    for inst in code.by_kind[AnnotationKind.COMPONENT]:
        components_covered.update(inst.values)

    parts_covered: set[tuple[str, str]] = set()
    for inst in code.by_kind[AnnotationKind.PART]:
        for context in inst.enclosing_components:
            for value in inst.values:
                parts_covered.add((context, value))
    for inst in code.by_kind[AnnotationKind.ADD_PART]:
        explicit = inst.attrs.get("componentname")
        owners = (explicit,) if explicit else inst.enclosing_components
        for owner in owners:
            for value in inst.values:
                parts_covered.add((owner, value))

    ports_covered: set[tuple[str, str]] = set()
    for inst in code.by_kind[AnnotationKind.PORT]:
        for context in inst.enclosing_components:
            for value in inst.values:
                ports_covered.add((context, value))

    findings: list[Finding] = []
    for ref in list_elements(arch):
        if ref.kind is RefKind.COMPONENT:
            if ref.path not in components_covered:
                findings.append(
                    finding("MISSING_ANNOTATION", f"no annotation covers component '{ref.path}'", ref)
                )
        elif ref.kind is RefKind.PART:
            if tuple(ref.split()) not in parts_covered:
                findings.append(
                    finding("MISSING_ANNOTATION", f"no annotation covers part '{ref.path}'", ref)
                )
        elif ref.kind is RefKind.PORT:
            if tuple(ref.split()) not in ports_covered:
                findings.append(
                    finding("MISSING_ANNOTATION", f"no annotation covers port '{ref.path}'", ref)
                )
    return sort_findings(findings)


def check_architecture_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNKNOWN_ELEMENT per annotation referent absent from the architecture.

    Connection-shaped annotations are check 3's business and skipped here.
    """
    findings: list[Finding] = []

    def missing_member(
        inst: AnnotationInstance, owners: tuple[str, ...], member_kind: str
    ) -> None:
        if not owners:
            findings.append(
                finding(
                    "UNKNOWN_ELEMENT",
                    f"@{inst.kind.value} has no enclosing component to resolve against",
                    locations=[inst.location],
                )
            )
            return
        for owner in owners:
            comp = arch.component(owner)
            for value in inst.values:
                if member_kind == "part":
                    present = comp is not None and comp.part(value) is not None
                    ref = ElementRef.part(owner, value)
                    label = f"part '{value}'"
                else:
                    present = comp is not None and comp.port(value) is not None
                    ref = ElementRef.port(owner, value)
                    label = f"port '{value}'"
                if not present:
                    where = f"component '{owner}'" if comp is not None else f"unknown component '{owner}'"
                    findings.append(
                        finding(
                            "UNKNOWN_ELEMENT",
                            f"@{inst.kind.value} names {label} not declared in {where}",
                            ref,
                            locations=[inst.location],
                        )
                    )

    for inst in code.instances:
        if inst.kind in CONNECTION_KINDS:
            continue
        if inst.kind is AnnotationKind.COMPONENT:
            for value in inst.values:
                if arch.component(value) is None:
                    findings.append(
                        finding(
                            "UNKNOWN_ELEMENT",
                            f"@Component names unknown component '{value}'",
                            ElementRef.component(value),
                            locations=[inst.location],
                        )
                    )
        elif inst.kind is AnnotationKind.PART:
            missing_member(inst, inst.enclosing_components, "part")
        elif inst.kind is AnnotationKind.PORT:
            missing_member(inst, inst.enclosing_components, "port")
        else:  # ADD_PART / REMOVE_PART
            explicit = inst.attrs.get("componentname")
            owners = (explicit,) if explicit else inst.enclosing_components
            missing_member(inst, owners, "part")
    return sort_findings(findings)


def check_connection_consistency(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNDECLARED_CONNECTION per connection annotation without a declared match."""
    index = arch.connector_index
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
        triple, errors = resolve_connection(arch, inst)
        findings.extend(errors)
        if triple is None:
            continue
        if not index.matching(triple):
            left, right, direction = triple
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


@dataclass(frozen=True)
class ConformanceReport:
    findings: tuple[Finding, ...]
    counts: Mapping[str, int]
    fingerprint: str


def report_fingerprint(arch: ArchitectureModel, code: CodeModel) -> str:
    """SHA-256 over the serialized architecture, the compact canonical JSON of
    the code model (the payload `extract --format json` prints), and the scan
    configuration's fingerprint.

    The compact form keeps `json` on its C encoder, which it uses only
    without `indent`.
    """
    model = json.dumps(code_model_payload(code), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(serialize_architecture(arch).encode("utf-8"))
    digest.update(model.encode("utf-8"))
    digest.update(code.config_fingerprint.encode("utf-8"))
    return digest.hexdigest()


def run_all(arch: ArchitectureModel, code: CodeModel) -> ConformanceReport:
    """Model validation, the code model's extraction findings, and the three checks.

    The three checks run only on a well-formed model (their answers would be
    noise otherwise). Target rules are not re-run: the scanner reports their
    findings with the rest of `code.findings`. Every finding is kept, so two
    roots holding the same malformed file report it twice.
    """
    model_findings = validate_model(arch)
    findings: list[Finding] = list(model_findings)
    findings.extend(code.findings)
    if not model_findings:
        findings.extend(check_annotation_completeness(arch, code))
        findings.extend(check_architecture_completeness(arch, code))
        findings.extend(check_connection_consistency(arch, code))
    ordered = tuple(sort_findings(findings))
    counts = Counter(f.check_id for f in ordered)
    return ConformanceReport(ordered, dict(sorted(counts.items())), report_fingerprint(arch, code))
