"""Textual architecture description language: parse and serialize.

Grammar (line comments `//`, statements end with `;`):

    document   := (component | connector)*
    component  := 'component' IDENT '{' (port | part | connector)* '}'
    port       := 'port' IDENT ';'
    part       := 'part' IDENT ':' IDENT mult? ';'
    mult       := '[' (NUMBER | NUMBER '..' NUMBER | NUMBER '..' '*' | '*') ']'
    connector  := 'connector' IDENT ':' path arrow path ';'
    path       := IDENT ('.' IDENT)*
    arrow      := '->' | '<-' | '<->'

Arrows map to RIGHT, LEFT, BIDIR. Connectors at document root take the empty
context and wire top-level components. serialize_architecture emits the
canonical form: components in name order, ports before parts before
connectors, each group sorted, so equal models serialize byte-identically.
"""

from __future__ import annotations

from .errors import AdlParseError
from .lexer import Cursor, Lines, Token, _table, tokenize
from .model import (
    ADL_IDENT,
    ArchitectureModel,
    Component,
    Connector,
    Direction,
    EndpointPath,
    Multiplicity,
    Part,
    Port,
    ROOT_CONTEXT,
    RefKind,
)

HEADER = "// architecture description"

ADL = _table(
    r"[ \t\r\n]",
    r"//[^\n]*",
    ident=ADL_IDENT,
    number=r"\d+",
    punct=r"<->|->|<-|\.\.|[{}\[\]:;.*]",
    error=r".",
)

_ARROWS = {"->": Direction.RIGHT, "<-": Direction.LEFT, "<->": Direction.BIDIR}
_ARROW_TEXT = {v: k for k, v in _ARROWS.items()}


class _Parser(Cursor):
    def __init__(self, text: str) -> None:
        super().__init__(tokenize(ADL, text))
        self.text = text
        self.components: list[Component] = []
        self.connectors: list[Connector] = []
        # the offset of each declaration, in order, by the (kind, owner, name)
        # `ElementRef.member` takes, for semantic diagnostics
        self.positions: dict[tuple[RefKind, str, str], list[int]] = {}

    def declared(self, kind: RefKind, owner: str, name_tok: Token) -> None:
        self.positions.setdefault((kind, owner, name_tok.text), []).append(name_tok.start)

    def error_at(self, message: str, offset: int) -> AdlParseError:
        return AdlParseError(message, *Lines(self.text).at(offset))

    def error(self, message: str) -> AdlParseError:
        return self.error_at(message, self.peek().start)

    def fail(self, expected: str) -> AdlParseError:
        found = self.peek().text
        return self.error(f"expected {expected}" + (f", found {found!r}" if found else ""))

    def parse_document(self) -> None:
        while self.peek().kind != "eof":
            if self.at_ident("component"):
                self.parse_component()
            elif self.at_ident("connector"):
                self.parse_connector(ROOT_CONTEXT)
            else:
                raise self.error("expected 'component' or 'connector' declaration")

    def parse_component(self) -> None:
        self.advance()
        name_tok = self.expect_ident("component name")
        name = name_tok.text
        self.declared(RefKind.COMPONENT, ROOT_CONTEXT, name_tok)
        self.expect_punct("{")
        ports: list[Port] = []
        parts: list[Part] = []
        while not self.at_punct("}"):
            if self.at_ident("port"):
                self.advance()
                port_tok = self.expect_ident("port name")
                self.expect_punct(";")
                ports.append(Port(port_tok.text))
                self.declared(RefKind.PORT, name, port_tok)
            elif self.at_ident("part"):
                self.advance()
                role_tok = self.expect_ident("part role")
                self.expect_punct(":")
                type_tok = self.expect_ident("part type")
                mult = self.parse_multiplicity()
                self.expect_punct(";")
                parts.append(Part(role_tok.text, type_tok.text, mult))
                self.declared(RefKind.PART, name, role_tok)
            elif self.at_ident("connector"):
                self.parse_connector(name)
            else:
                raise self.error("expected 'port', 'part', 'connector', or '}'")
        self.advance()
        self.components.append(Component(name, tuple(ports), tuple(parts)))

    def parse_multiplicity(self) -> Multiplicity:
        if not self.at_punct("["):
            return Multiplicity(1, 1)
        self.advance()
        if self.at_punct("*"):
            self.advance()
            self.expect_punct("]")
            return Multiplicity(0, None)
        lower = self.parse_bound("expected a number or '*' in multiplicity")
        if self.at_punct(".."):
            self.advance()
            if self.at_punct("*"):
                self.advance()
                self.expect_punct("]")
                return Multiplicity(lower, None)
            upper = self.parse_bound("expected a number or '*' after '..'")
            self.expect_punct("]")
            return Multiplicity(lower, upper)
        self.expect_punct("]")
        return Multiplicity(lower, lower)

    def parse_bound(self, expected: str) -> int:
        if self.peek().kind != "number":
            raise self.error(expected)
        try:
            bound = int(self.peek().text)
        except ValueError:  # more digits than `sys.get_int_max_str_digits()`
            raise self.error("multiplicity bound has too many digits") from None
        self.advance()
        return bound

    def parse_connector(self, context: str) -> None:
        self.advance()
        id_tok = self.expect_ident("connector id")
        self.expect_punct(":")
        left = self.parse_path()
        arrow_tok = self.peek()
        if arrow_tok.kind != "punct" or arrow_tok.text not in _ARROWS:
            raise self.error("expected '->', '<-', or '<->'")
        self.advance()
        right = self.parse_path()
        self.expect_punct(";")
        self.connectors.append(
            Connector(id_tok.text, context, left, right, _ARROWS[arrow_tok.text])
        )
        self.declared(RefKind.CONNECTOR, context, id_tok)

    def parse_path(self) -> EndpointPath:
        segments = [self.expect_ident("endpoint path").text]
        while self.at_punct("."):
            self.advance()
            segments.append(self.expect_ident("path segment").text)
        return EndpointPath(tuple(segments))


def parse_architecture(text: str) -> ArchitectureModel:
    """Parse and validate an architecture description.

    Raises AdlParseError on syntax errors (with line/column) and on
    well-formedness violations (duplicate names, unresolved references),
    pointing at the offending declaration where known: a repeated name at
    its first repeat, anything else at its first declaration.
    """
    parser = _Parser(text)
    last = parser.tokens[-1]
    if last.kind == "error":
        raise parser.error_at(f"unexpected character {last.text!r}", last.start)
    parser.parse_document()
    model = ArchitectureModel(tuple(parser.components), tuple(parser.connectors))
    problems = model.validation
    if problems:
        first = problems[0]
        element = first.element
        key = None if element is None else (element.kind, *element.split())
        offsets = parser.positions.get(key, [])
        if first.check_id.startswith("DUPLICATE_"):
            offsets = offsets[1:] or offsets
        if not offsets:
            raise AdlParseError(first.message)
        raise parser.error_at(first.message, offsets[0])
    return model


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
    lines = [HEADER]
    for comp in model.components:
        lines.append("")
        lines.append(f"component {comp.name} {{")
        for port in comp.ports:
            lines.append(f"    port {port.name};")
        for part in comp.parts:
            suffix = _multiplicity_suffix(part.multiplicity)
            lines.append(f"    part {part.role}: {part.type_component}{suffix};")
        for conn in model.connectors:
            if conn.context == comp.name:
                lines.append("    " + _connector_line(conn))
        lines.append("}")
    root = [c for c in model.connectors if c.context == ROOT_CONTEXT]
    if root:
        lines.append("")
        for conn in root:
            lines.append(_connector_line(conn))
    return "\n".join(lines) + "\n"
