"""Architectural bad-smell detectors.

Smells are warnings computed from the redundancy between annotations and the
architecture description; they never block a build on their own (severity is
always WARNING) and each one can be disabled in SmellConfig.
"""

from __future__ import annotations

from .annotations import AnnotationKind, CodeModel
from .conformance import usages_by_connector
from .findings import Finding, SourceLocation, finding, sort_findings
from .model import ArchitectureModel, ElementRef
from .scan import SmellConfig

SCATTERED_COMPONENT = "SCATTERED_COMPONENT"
CONNECTOR_LIFECYCLE = "CONNECTOR_LIFECYCLE"


def smell_scattered_component(
    arch: ArchitectureModel, code: CodeModel, cfg: SmellConfig | None = None
) -> list[Finding]:
    """Component classes spread over >= scatter_threshold distinct packages."""
    cfg = cfg or SmellConfig()
    spread: dict[str, tuple[set[str], list[SourceLocation]]] = {}
    for inst in code.by_kind[AnnotationKind.COMPONENT]:
        for name in set(inst.values):
            packages, locations = spread.setdefault(name, (set(), []))
            packages.add(inst.package)
            locations.append(inst.location)
    findings: list[Finding] = []
    for name, (packages, locations) in sorted(spread.items()):
        if len(packages) < cfg.scatter_threshold:
            continue
        locations.sort()
        shown = ", ".join(sorted(p if p else "<root>" for p in packages))
        findings.append(
            finding(
                SCATTERED_COMPONENT,
                f"component '{name}' is scattered over {len(packages)} packages: {shown}",
                ElementRef.component(name),
                locations,
            )
        )
    return sort_findings(findings)


def smell_connector_lifecycle(arch: ArchitectureModel, code: CodeModel) -> list[Finding]:
    """Connectors whose connect or disconnect method count differs from one."""
    findings: list[Finding] = []
    for ref, usages in usages_by_connector(arch, code).items():
        connects, disconnects = usages.connects, usages.disconnects
        problems: list[str] = []
        if len(connects) == 0:
            problems.append("no connecting method")
        elif len(connects) > 1:
            problems.append(f"more than one connecting method ({len(connects)})")
        if len(disconnects) == 0:
            problems.append("no disconnecting method")
        elif len(disconnects) > 1:
            problems.append(f"more than one disconnecting method ({len(disconnects)})")
        if not problems:
            continue
        locations = sorted(inst.location for inst in connects + disconnects)
        findings.append(
            finding(
                CONNECTOR_LIFECYCLE,
                f"connector '{ref.path}' has " + " and ".join(problems),
                ref,
                locations,
            )
        )
    return sort_findings(findings)


def run_smells(
    arch: ArchitectureModel, code: CodeModel, cfg: SmellConfig | None = None
) -> list[Finding]:
    """Union of the enabled smells, in canonical report order."""
    cfg = cfg or SmellConfig()
    findings: list[Finding] = []
    if SCATTERED_COMPONENT in cfg.enabled:
        findings.extend(smell_scattered_component(arch, code, cfg))
    if CONNECTOR_LIFECYCLE in cfg.enabled:
        findings.extend(smell_connector_lifecycle(arch, code))
    return sort_findings(findings)
