"""The canonical text of an architecture model, in the language `adl`
parses.

`serialize_architecture` writes components in name order, ports before
parts before connectors, each group sorted, so equal models serialize
byte-identically. It is kept apart from the parser, so that writing a
model compiles no grammar: `ArchitectureModel.canonical_text` reads it.
"""

from __future__ import annotations

from .model import ArchitectureModel, Connector, Direction, Multiplicity, ROOT_CONTEXT

HEADER = "// architecture description"

# The arrow of each direction; `adl` reads arrows through it.
ARROWS = {"->": Direction.RIGHT, "<-": Direction.LEFT, "<->": Direction.BIDIR}
_ARROW_TEXT = {v: k for k, v in ARROWS.items()}


def _multiplicity_suffix(mult: Multiplicity) -> str:
    lower, upper = mult.lower, mult.upper
    if (lower, upper) == (1, 1):
        return ""
    if (lower, upper) == (0, None):
        return " [*]"
    if upper is None:
        return f" [{lower}..*]"
    if lower == upper:
        return f" [{lower}]"
    return f" [{lower}..{upper}]"


def _connector_line(conn: Connector) -> str:
    arrow = _ARROW_TEXT[conn.direction]
    return f"connector {conn.id}: {conn.left} {arrow} {conn.right};"


def serialize_architecture(model: ArchitectureModel) -> str:
    """Canonical text for a model; parse(serialize(m)) == m."""
    wired: dict[str, list[Connector]] = {}
    for conn in model.connectors:
        wired.setdefault(conn.context, []).append(conn)
    lines = [HEADER]
    for comp in model.components:
        lines.append("")
        lines.append(f"component {comp.name} {{")
        for port in comp.ports:
            lines.append(f"    port {port.name};")
        for part in comp.parts:
            suffix = _multiplicity_suffix(part.multiplicity)
            lines.append(f"    part {part.role}: {part.type_component}{suffix};")
        for conn in wired.get(comp.name, ()):
            lines.append("    " + _connector_line(conn))
        lines.append("}")
    root = wired.get(ROOT_CONTEXT)
    if root:
        lines.append("")
        for conn in root:
            lines.append(_connector_line(conn))
    return "\n".join(lines) + "\n"
