"""Architectural bad-smell detectors.

Smells are warnings computed from the redundancy between annotations and the
architecture description; they never block a build on their own (severity is
always WARNING) and each one can be disabled in SmellConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .annotations import AnnotationKind, CodeModel
from .conformance import resolve_connection
from .errors import ConfigError
from .findings import Finding, SMELL_IDS, SourceLocation, finding, sort_findings
from .model import ArchitectureModel, ElementRef

SCATTERED_COMPONENT = "SCATTERED_COMPONENT"
CONNECTOR_LIFECYCLE = "CONNECTOR_LIFECYCLE"


@dataclass(frozen=True)
class SmellConfig:
    scatter_threshold: int = 2
    enabled: frozenset[str] = frozenset(SMELL_IDS)

    def __post_init__(self) -> None:
        if self.scatter_threshold < 2:
            raise ConfigError("scatter_threshold must be >= 2")
        unknown = set(self.enabled) - set(SMELL_IDS)
        if unknown:
            raise ConfigError(f"unknown smell ids: {', '.join(sorted(unknown))}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> SmellConfig:
        threshold = 2
        enabled = frozenset(SMELL_IDS)
        if "scatter_threshold" in mapping:
            try:
                threshold = int(mapping["scatter_threshold"])
            except ValueError as err:
                raise ConfigError(
                    f"scatter_threshold must be an integer: {mapping['scatter_threshold']!r}"
                ) from err
        if "smells" in mapping:
            names = [n.strip().upper() for n in mapping["smells"].split(",") if n.strip()]
            enabled = frozenset(names)
        return cls(threshold, enabled)


def smell_scattered_component(
    arch: ArchitectureModel, code: CodeModel, cfg: SmellConfig | None = None
) -> list[Finding]:
    """Component classes spread over >= scatter_threshold distinct packages."""
    cfg = cfg or SmellConfig()
    findings: list[Finding] = []
    for name in sorted(code.packages_by_component):
        packages = code.packages_by_component[name]
        if len(packages) < cfg.scatter_threshold:
            continue
        locations: list[SourceLocation] = []
        for inst in code.by_kind[AnnotationKind.COMPONENT]:
            if name in inst.values:
                locations.append(inst.location)
        locations.sort(key=lambda loc: loc.sort_key())
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


def _lifecycle_counts(
    arch: ArchitectureModel, code: CodeModel
) -> dict[str, dict[AnnotationKind, list[SourceLocation]]]:
    """Per resolving connector ref path: locations of matching CONNECTS/DISCONNECTS.

    Each instance is resolved once and matched through the connector index.
    """
    index = arch.connector_index
    kinds = (AnnotationKind.CONNECTS, AnnotationKind.DISCONNECTS)
    out: dict[str, dict[AnnotationKind, list[SourceLocation]]] = {
        ElementRef.connector(c.context, c.id).path: {k: [] for k in kinds} for c in index.triples
    }
    for inst in code.instances:
        if inst.kind not in kinds:
            continue
        triple, _ = resolve_connection(arch, inst)
        if triple is None:
            continue
        for ref in index.matching(triple):
            out[ref.path][inst.kind].append(inst.location)
    return out


def smell_connector_lifecycle(
    arch: ArchitectureModel, code: CodeModel, cfg: SmellConfig | None = None
) -> list[Finding]:
    """Connectors whose connect or disconnect method count differs from one."""
    findings: list[Finding] = []
    for ref_path, counts in _lifecycle_counts(arch, code).items():
        connects = counts[AnnotationKind.CONNECTS]
        disconnects = counts[AnnotationKind.DISCONNECTS]
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
        locations = sorted(connects + disconnects, key=lambda loc: loc.sort_key())
        context, _, cid = ref_path.partition("/")
        findings.append(
            finding(
                CONNECTOR_LIFECYCLE,
                f"connector '{ref_path}' has " + " and ".join(problems),
                ElementRef.connector(context, cid),
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
        findings.extend(smell_connector_lifecycle(arch, code, cfg))
    return sort_findings(findings)
