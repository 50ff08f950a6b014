"""Checks 1 and 2 and `syntactic_refs` as they were before all three came
to read one index of what the code names: the oracles for
`archlint.conformance`'s `check_annotation_completeness` and
`check_architecture_completeness`, and for `CodeModel.element_refs`.

They are the earlier functions word for word, except that the checks call
`by_kind(code)` where they read the code model's `by_kind`. `by_kind` and
`named_elements`, which `archlint.annotations` no longer defines, are
defined here as they were.
"""

from __future__ import annotations

from typing import Mapping

from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, side_context
from archlint.findings import Finding, finding, sort_findings
from archlint.model import ROOT_CONTEXT, ArchitectureModel, ElementRef, RefKind


def by_kind(code: CodeModel) -> Mapping[AnnotationKind, tuple[AnnotationInstance, ...]]:
    out: dict[AnnotationKind, list[AnnotationInstance]] = {k: [] for k in AnnotationKind}
    for inst in code.instances:
        out[inst.kind].append(inst)
    return {k: tuple(v) for k, v in out.items()}


def named_elements(instance: AnnotationInstance) -> tuple[RefKind, tuple[str, ...]] | None:
    """The element kind an annotation names, and the owners it names each
    value in, from its kind's `referent` and `owners`. None for connection
    annotations.
    """
    kind = instance.kind
    if kind.referent is None:
        return None
    return kind.referent, kind.owners(instance)


def check_annotation_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """MISSING_ANNOTATION per component/part/port with no covering instance.

    An annotation whose kind `covers` covers the (owner, value) pairs
    `named_elements` gives.
    """
    components: set[tuple[str, str]] = set()
    parts: set[tuple[str, str]] = set()
    ports: set[tuple[str, str]] = set()
    covered = {RefKind.COMPONENT: components, RefKind.PART: parts, RefKind.PORT: ports}
    for kind, instances in by_kind(code).items():
        if not kind.covers:
            continue
        pairs = covered[kind.referent]
        for inst in instances:
            _, owners = named_elements(inst)
            for owner in owners:
                for value in inst.values:
                    pairs.add((owner, value))

    missing: set[ElementRef] = set()
    for comp in arch.components:
        owner = comp.name
        if ("", owner) not in components:
            missing.add(ElementRef.component(owner))
        for part in comp.parts:
            if (owner, part.role) not in parts:
                missing.add(ElementRef.part(owner, part.role))
        for port in comp.ports:
            if (owner, port.name) not in ports:
                missing.add(ElementRef.port(owner, port.name))
    return sort_findings(
        finding("MISSING_ANNOTATION", f"no annotation covers {ref.kind.value} '{ref.path}'", ref)
        for ref in missing
    )


def check_architecture_completeness(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """UNKNOWN_ELEMENT per element an annotation names (`named_elements`)
    that the architecture does not declare, and per element annotation that
    has no owner. Connection-shaped annotations are check 3's business.
    """
    findings: list[Finding] = []
    for kind, instances in by_kind(code).items():
        if kind.referent is None:
            continue
        for inst in instances:
            ref_kind, owners = named_elements(inst)
            if not owners:
                message = f"@{kind.value} has no enclosing component to resolve against"
                findings.append(finding("UNKNOWN_ELEMENT", message, locations=[inst.location]))
            for owner in owners:
                comp = arch.component(owner)
                for value in inst.values:
                    if ref_kind is RefKind.COMPONENT:
                        if arch.component(value) is not None:
                            continue
                        message = f"@{kind.value} names unknown component '{value}'"
                    else:
                        if comp is None:
                            where = "unknown component"
                        elif (comp.part(value) if ref_kind is RefKind.PART else comp.port(value)) is None:
                            where = "component"
                        else:
                            continue
                        message = (
                            f"@{kind.value} names {ref_kind.value} '{value}' "
                            f"not declared in {where} '{owner}'"
                        )
                    ref = ElementRef.member(ref_kind, owner, value)
                    findings.append(finding("UNKNOWN_ELEMENT", message, ref, locations=[inst.location]))
    return sort_findings(findings)


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
