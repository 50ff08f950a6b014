"""`validate_model` as it was before one rule came to decide every repeated
name: the oracle for `archlint.model.validate_model`."""

from __future__ import annotations

from archlint.errors import EndpointError
from archlint.findings import Finding, finding, sort_findings
from archlint.model import ROOT_CONTEXT, ArchitectureModel, Direction, ElementRef


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
