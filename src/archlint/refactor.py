"""Architectural refactoring: operations, plans, impact reports.

Operations are pure model transformations; the source code is never touched.
Every operation either returns a new model that validates, or raises
PreconditionError and leaves the input untouched, so plans are atomic by
construction. A handler locates what it edits, checks that a new name is an
identifier and returns only the new model. `apply_op` holds the rule every
operation shares: a step whose input or result fails `validate_model`, or
whose result equals its input, is refused, so no handler repeats a check
that validation makes; a handler refuses only what the gate cannot see.
The elements a step touches are those it creates or deletes,
`model.created_or_deleted` of the two models, so a rename or a move
touches the old element and the new one.
The ImpactReport tells the developer which annotations (by location)
reference each element a step touched, from `conformance.references`, the
function behind the annotation lookup; rewriting the code stays a manual
task.

`OPERATIONS` is the one definition of each operation: its class, its plan
name, how each field is read from and written to plan text, and its
handler. `parse_plan`, `op_text`, `op_name` and `apply_op` read it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Union

from .annotations import CodeModel
from .conformance import references
from .errors import PlanError, PlanParseError, PreconditionError
from .model import (
    ArchitectureModel,
    Component,
    Connector,
    Direction,
    ElementRef,
    EndpointPath,
    Part,
    Port,
    RefKind,
    ROOT_CONTEXT,
    created_or_deleted,
    is_identifier,
    parse_ref,
    walk_endpoint,
)


class _Op(tuple):
    """The base of every operation record. Operations compare by type, then
    fields: AddPort and RemovePort hold the same items, and tuples that do
    are equal. `object.__ne__` inverts `__eq__`, and `__hash__` is set again
    because a class body that sets `__eq__` alone makes instances unhashable."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__


class AddPort(_Op, namedtuple("AddPort", "component port")):
    """Add the port `port` (str) to `component` (str)."""

    __slots__ = ()


class RemovePort(_Op, namedtuple("RemovePort", "component port")):
    """Remove the port `port` (str) from `component` (str)."""

    __slots__ = ()


class AddConnector(_Op, namedtuple("AddConnector", "id context left right direction")):
    """Declare a connector: id and context (str), left and right
    (EndpointPath) and direction (Direction), as a Connector holds them."""

    __slots__ = ()


class RemoveConnector(_Op, namedtuple("RemoveConnector", "id")):
    """Remove the connector `id` (str)."""

    __slots__ = ()


class SplitComponent(_Op, namedtuple("SplitComponent", "target name_a name_b partition")):
    """Split `target` (str) into `name_a` and `name_b` (str); `partition`
    (Mapping[str, str]) maps each part role and port name to one of them."""

    __slots__ = ()


class RenameElement(_Op, namedtuple("RenameElement", "ref new_name")):
    """Rename the element `ref` (ElementRef) to `new_name` (str)."""

    __slots__ = ()


class MovePart(_Op, namedtuple("MovePart", "role from_component to_component")):
    """Move the part `role` (str) from `from_component` to `to_component` (str)."""

    __slots__ = ()


RefactoringOp = Union[
    AddPort, RemovePort, AddConnector, RemoveConnector, SplitComponent, RenameElement, MovePart
]


def _fail(op: RefactoringOp, reason: str, ref: ElementRef | None = None) -> PreconditionError:
    return PreconditionError(op_name(op), reason, ref)


def _require_component(model: ArchitectureModel, name: str, op: RefactoringOp) -> Component:
    comp = model.component(name)
    if comp is None:
        raise _fail(op, f"unknown component '{name}'", ElementRef.component(name))
    return comp


def _swap_component(model: ArchitectureModel, comp: Component) -> tuple[Component, ...]:
    return tuple(comp if c.name == comp.name else c for c in model.components)


def _apply_add_port(model: ArchitectureModel, op: AddPort):
    comp = _require_component(model, op.component, op)
    if not is_identifier(op.port):
        raise _fail(op, f"invalid port name '{op.port}'")
    new_comp = comp._replace(ports=comp.ports + (Port(op.port),))
    return model._replace(components=_swap_component(model, new_comp))


def _apply_remove_port(model: ArchitectureModel, op: RemovePort):
    comp = _require_component(model, op.component, op)
    if comp.port(op.port) is None:
        raise _fail(op, f"no port '{op.port}' in '{op.component}'",
                    ElementRef.port(op.component, op.port))
    new_comp = comp._replace(ports=tuple(p for p in comp.ports if p.name != op.port))
    return model._replace(components=_swap_component(model, new_comp))


def _apply_add_connector(model: ArchitectureModel, op: AddConnector):
    if not is_identifier(op.id):
        raise _fail(op, f"invalid connector id '{op.id}'")
    return model._replace(connectors=model.connectors + (Connector(*op),))


def _apply_remove_connector(model: ArchitectureModel, op: RemoveConnector):
    if model.connector_by_id(op.id) is None:
        raise _fail(op, f"no connector with id '{op.id}'")
    return model._replace(connectors=tuple(c for c in model.connectors if c.id != op.id))


def _renamed_paths(model: ArchitectureModel, op: RenameElement) -> tuple[Connector, ...]:
    """Every connector, each endpoint segment that reaches the renamed element renamed."""

    def rename(conn: Connector, path: EndpointPath) -> EndpointPath:
        return EndpointPath(tuple(
            op.new_name if element == op.ref else segment
            for segment, element in zip(path.segments, walk_endpoint(model, conn.context, path))
        ))

    return tuple(
        conn._replace(left=rename(conn, conn.left), right=rename(conn, conn.right))
        for conn in model.connectors
    )


def _apply_rename(model: ArchitectureModel, op: RenameElement):
    if not is_identifier(op.new_name):
        raise _fail(op, f"invalid name '{op.new_name}'")
    kind = op.ref.kind
    if kind is RefKind.COMPONENT:
        return _rename_component(model, op)
    if kind is RefKind.PART:
        return _rename_part(model, op)
    if kind is RefKind.PORT:
        return _rename_port(model, op)
    return _rename_connector(model, op)


def _rename_component(model: ArchitectureModel, op: RenameElement):
    old = op.ref.path
    new = op.new_name
    _require_component(model, old, op)
    connectors = tuple(
        c._replace(context=new) if c.context == old else c for c in _renamed_paths(model, op)
    )

    def renamed(c: Component) -> Component:
        parts = tuple(
            p._replace(type_component=new) if p.type_component == old else p for p in c.parts
        )
        return c._replace(name=new if c.name == old else c.name, parts=parts)

    # Only the renamed component and those with a part of its type change.
    components = (
        renamed(c) if c.name == old or any(p.type_component == old for p in c.parts) else c
        for c in model.components
    )
    return ArchitectureModel(components, connectors)


def _rename_part(model: ArchitectureModel, op: RenameElement):
    owner_name, role = op.ref.split()
    comp = _require_component(model, owner_name, op)
    part = comp.part(role)
    if part is None:
        raise _fail(op, f"no part '{role}' in '{owner_name}'", op.ref)
    new_comp = comp._replace(
        parts=tuple(p._replace(role=op.new_name) if p.role == role else p for p in comp.parts),
    )
    return ArchitectureModel(_swap_component(model, new_comp), _renamed_paths(model, op))


def _rename_port(model: ArchitectureModel, op: RenameElement):
    owner_name, port_name = op.ref.split()
    comp = _require_component(model, owner_name, op)
    if comp.port(port_name) is None:
        raise _fail(op, f"no port '{port_name}' in '{owner_name}'", op.ref)
    new_comp = comp._replace(
        ports=tuple(Port(op.new_name) if p.name == port_name else p for p in comp.ports),
    )
    return ArchitectureModel(_swap_component(model, new_comp), _renamed_paths(model, op))


def _rename_connector(model: ArchitectureModel, op: RenameElement):
    conn = model.connector_index.by_ref.get(op.ref)
    if conn is None:
        raise _fail(op, f"no connector '{op.ref.path}'", op.ref)
    connectors = tuple(
        c._replace(id=op.new_name) if c is conn else c for c in model.connectors
    )
    return model._replace(connectors=connectors)


def _apply_move_part(model: ArchitectureModel, op: MovePart):
    """The part leaves its owner, then joins the target as the target is
    after that, so a move onto the owner gives back the model unchanged."""
    source = _require_component(model, op.from_component, op)
    _require_component(model, op.to_component, op)
    part = source.part(op.role)
    if part is None:
        raise _fail(op, f"no part '{op.role}' in '{op.from_component}'",
                    ElementRef.part(op.from_component, op.role))
    without = source._replace(parts=tuple(p for p in source.parts if p.role != op.role))
    model = model._replace(components=_swap_component(model, without))
    target = model.component(op.to_component)
    joined = target._replace(parts=target.parts + (part,))
    return model._replace(components=_swap_component(model, joined))


def _apply_split(model: ArchitectureModel, op: SplitComponent):
    target = _require_component(model, op.target, op)
    for name in (op.name_a, op.name_b):
        if not is_identifier(name):
            raise _fail(op, f"invalid component name '{name}'")
        if name == op.target:
            raise _fail(op, f"a half cannot keep the target's name '{name}'",
                        ElementRef.component(name))

    members = {p.role for p in target.parts} | {p.name for p in target.ports}
    side_of = dict(op.partition)
    if set(side_of) != members:
        missing = sorted(members - set(side_of))
        extra = sorted(set(side_of) - members)
        detail = []
        if missing:
            detail.append(f"unassigned: {', '.join(missing)}")
        if extra:
            detail.append(f"not members: {', '.join(extra)}")
        raise _fail(op, "partition must cover exactly the target's parts and ports"
                    + (f" ({'; '.join(detail)})" if detail else ""))
    bad = sorted(v for v in set(side_of.values()) if v not in (op.name_a, op.name_b))
    if bad:
        raise _fail(op, f"partition sides must be '{op.name_a}' or '{op.name_b}', not {', '.join(bad)}")

    new_a = Component(
        op.name_a,
        ports=tuple(p for p in target.ports if side_of[p.name] == op.name_a),
        parts=tuple(p for p in target.parts if side_of[p.role] == op.name_a),
    )
    new_b = Component(
        op.name_b,
        ports=tuple(p for p in target.ports if side_of[p.name] == op.name_b),
        parts=tuple(p for p in target.parts if side_of[p.role] == op.name_b),
    )

    # Replace every target-typed part anywhere with one part per half.
    holders: list[tuple[str, str]] = []  # (owner component, original role)
    components: list[Component] = []
    for comp in [c for c in model.components if c.name != op.target] + [new_a, new_b]:
        if not any(p.type_component == op.target for p in comp.parts):
            components.append(comp)
            continue
        new_parts = [p for p in comp.parts if p.type_component != op.target]
        for part in comp.parts:
            if part.type_component == op.target:
                holders.append((comp.name, part.role))
                new_parts += (Part(f"{part.role}_{side}", side, part.multiplicity)
                              for side in (op.name_a, op.name_b))
        components.append(comp._replace(parts=tuple(new_parts)))

    target_was_top = model.is_top_level(op.target)
    target_ref = ElementRef.component(op.target)
    holder_refs = {
        ElementRef.part(c.name, p.role)
        for c in model.components
        for p in c.parts
        if p.type_component == op.target
    }

    def rewrite_path(conn: Connector, path: EndpointPath) -> EndpointPath:
        """A root path's first segment names the side of its next segment; a
        holder part becomes its replacement on that side."""
        segments = list(path.segments)
        for index, element in enumerate(walk_endpoint(model, conn.context, path)):
            follow = segments[index + 1] if index + 1 < len(segments) else None
            if element == target_ref and follow in side_of:
                segments[index] = side_of[follow]
            elif element in holder_refs and follow in side_of:
                segments[index] = f"{segments[index]}_{side_of[follow]}"
        return EndpointPath(tuple(segments))

    connectors: list[Connector] = []
    for conn in model.connectors:
        if conn.context == op.target:
            # the input is well-formed, so each endpoint starts at a member
            side_left = side_of[conn.left.segments[0]]
            side_right = side_of[conn.right.segments[0]]
            if side_left == side_right:
                connectors.append(conn._replace(context=side_left))
            elif target_was_top:
                left = EndpointPath((side_left,) + conn.left.segments)
                right = EndpointPath((side_right,) + conn.right.segments)
                connectors.append(Connector(conn.id, ROOT_CONTEXT, left, right, conn.direction))
            else:
                for owner, role in holders:
                    cid = conn.id if len(holders) == 1 else f"{conn.id}_{role}"
                    left = EndpointPath((f"{role}_{side_left}",) + conn.left.segments)
                    right = EndpointPath((f"{role}_{side_right}",) + conn.right.segments)
                    connectors.append(Connector(cid, owner, left, right, conn.direction))
        else:
            connectors.append(conn._replace(
                left=rewrite_path(conn, conn.left), right=rewrite_path(conn, conn.right)
            ))
    return ArchitectureModel(tuple(components), tuple(connectors))


# ---------------------------------------------------------------------------
# the operation table


class _Arg(namedtuple("_Arg", "read write rest", defaults=(str, False))):
    """How one field of an operation is read from its plan argument (read,
    Callable[[Any], Any]) and written back (write, the same); a `rest`
    (bool) field reads and writes a list of arguments."""

    __slots__ = ()


def _identifier(arg: str, label: str) -> str:
    if not is_identifier(arg):
        raise ValueError(f"invalid {label} '{arg}'")
    return arg


def _ident(label: str) -> _Arg:
    return _Arg(lambda arg: _identifier(arg, label))


def _read_direction(arg: str) -> Direction:
    direction = Direction.__members__.get(arg)
    if direction is None:
        raise ValueError(f"direction must be LEFT, RIGHT, or BIDIR, not '{arg}'")
    return direction


def _read_members(args: list[str]) -> dict[str, str]:
    partition: dict[str, str] = {}
    for pair in args:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"expected role=Side, got '{pair}'")
        member = _identifier(key.strip(), "member")
        side = _identifier(value.strip(), "side")
        if member in partition:
            raise ValueError(f"duplicate member '{member}'")
        partition[member] = side
    return partition


_COMPONENT = _ident("component")
_NEW_COMPONENT = _ident("component name")
_CONNECTOR_ID = _ident("connector id")
_CONTEXT = _Arg(lambda arg: ROOT_CONTEXT if arg == "/" else _identifier(arg, "context"),
                lambda context: context or "/")
_PATH = _Arg(EndpointPath.parse)
_DIRECTION = _Arg(_read_direction, lambda direction: direction.value)
_REF = _Arg(parse_ref, lambda ref: ref.path)
_MEMBERS = _Arg(
    _read_members, lambda partition: [f"{k}={v}" for k, v in sorted(partition.items())], True
)

class OpRow(namedtuple("OpRow", "cls name args apply usage", defaults=("",))):
    """An operation's class (cls, type), plan name (str), arguments in field
    order (args, tuple[_Arg, ...]) and handler (apply, Callable[
    [ArchitectureModel, Any], ArchitectureModel]). The handler returns only
    the new model, or raises PreconditionError. `usage` (str) words the
    arity error of a row that ends in `rest`."""

    __slots__ = ()


OPERATIONS: tuple[OpRow, ...] = (
    OpRow(AddPort, "add-port", (_COMPONENT, _ident("port")), _apply_add_port),
    OpRow(RemovePort, "remove-port", (_COMPONENT, _ident("port")), _apply_remove_port),
    OpRow(AddConnector, "add-connector", (_CONNECTOR_ID, _CONTEXT, _PATH, _PATH, _DIRECTION),
          _apply_add_connector),
    OpRow(RemoveConnector, "remove-connector", (_CONNECTOR_ID,), _apply_remove_connector),
    OpRow(SplitComponent, "split-component", (_COMPONENT, _NEW_COMPONENT, _NEW_COMPONENT, _MEMBERS),
          _apply_split, "target, two names, then role=Side pairs"),
    OpRow(RenameElement, "rename-element", (_REF, _ident("name")), _apply_rename),
    OpRow(MovePart, "move-part", (_ident("part role"), _COMPONENT, _COMPONENT), _apply_move_part),
)
_ROW_OF = {row.cls: row for row in OPERATIONS}
_ROW_NAMED = {row.name: row for row in OPERATIONS}


def op_name(op: RefactoringOp) -> str:
    return _ROW_OF[type(op)].name


def op_text(op: RefactoringOp) -> str:
    """The plan-file spelling of an operation."""
    row = _ROW_OF[type(op)]
    texts: list[str] = []
    for value, arg in zip(op, row.args):
        text = arg.write(value)
        texts += text if arg.rest else [text]
    return f"{row.name}({', '.join(texts)})"


def _require_well_formed(op: RefactoringOp, which: str, model: ArchitectureModel) -> None:
    problems = model.validation
    if problems:
        raise _fail(op, f"{which} model is not well-formed: {problems[0].message}",
                    problems[0].element)


def apply_op(
    model: ArchitectureModel, op: RefactoringOp
) -> tuple[ArchitectureModel, frozenset[ElementRef]]:
    """Apply one operation; atomic (the input model is never mutated).
    Returns the new model and the elements the step touched: those declared
    in exactly one of the two models.

    The one rule every operation shares: a step is refused when its input
    or its result fails `validate_model`, with the first finding's message
    and element as the reason and ref, or when its result equals its input.
    """
    _require_well_formed(op, "input", model)
    new_model = _ROW_OF[type(op)].apply(model, op)
    if new_model == model:
        raise _fail(op, "the step changes nothing")
    _require_well_formed(op, "resulting", new_model)
    return (new_model, created_or_deleted(model, new_model))


class RefactoringPlan(namedtuple("RefactoringPlan", "name ops")):
    """A named plan: name (str) and ops (tuple[RefactoringOp, ...])."""

    __slots__ = ()


class ImpactEntry(namedtuple("ImpactEntry", "step op touched instances")):
    """One step's impact: step (int, 1-based), op (RefactoringOp), the
    elements it touched (touched, tuple[ElementRef, ...]) and the
    annotations that reference each (instances, Mapping[ElementRef,
    tuple[AnnotationInstance, ...]])."""

    __slots__ = ()


class ImpactReport(namedtuple("ImpactReport", "plan_name entries")):
    """A plan's impact: plan_name (str) and entries (tuple[ImpactEntry, ...])."""

    __slots__ = ()


def apply_plan(
    model: ArchitectureModel, plan: RefactoringPlan, code: CodeModel
) -> tuple[ArchitectureModel, ImpactReport]:
    """Apply ops in order; the first failure raises PlanError (nothing kept).

    Each impact entry lists, for every touched ref, the annotations that
    reference it under the pre-step model (`conformance.references`), the
    architecture in which the touched names still have their old meaning.
    """
    current = model
    entries: list[ImpactEntry] = []
    for step, op in enumerate(plan.ops, start=1):
        try:
            new_model, touched = apply_op(current, op)
        except PreconditionError as err:
            raise PlanError(step, err) from err
        refs = tuple(sorted(touched, key=lambda r: r.sort_key()))
        entries.append(ImpactEntry(step, op, refs, references(code, refs, current)))
        current = new_model
    return (current, ImpactReport(plan.name, tuple(entries)))


# ---------------------------------------------------------------------------
# plan files

_OP_LINE_RE = re.compile(r"^([a-z][a-z-]*)\s*\((.*)\)\s*$")


def _read_op(word: str, args: list[str]) -> RefactoringOp:
    """The operation a plan line spells; raises ValueError with the reason."""
    row = _ROW_NAMED.get(word)
    if row is None:
        raise ValueError(f"unknown operation '{word}'")
    *fixed, last = row.args
    if not last.rest:
        if len(args) != len(row.args):
            raise ValueError(f"{word} takes {len(row.args)} arguments, got {len(args)}")
        return row.cls(*(arg.read(text) for arg, text in zip(row.args, args)))
    if len(args) < len(fixed):
        raise ValueError(f"{word} takes {row.usage}")
    values = [arg.read(text) for arg, text in zip(fixed, args)]
    return row.cls(*values, last.read(args[len(fixed):]))


def parse_plan(text: str, name: str = "plan") -> RefactoringPlan:
    """Line-oriented plan: one `op-name(arg, ...)` per line, `//` comments."""
    ops: list[RefactoringOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        match = _OP_LINE_RE.match(line)
        if match is None:
            raise PlanParseError("expected 'op-name(arguments)'", lineno)
        op_word, arg_text = match.group(1), match.group(2)
        args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
        try:
            ops.append(_read_op(op_word, args))
        except ValueError as err:
            raise PlanParseError(str(err), lineno) from err
    if not ops:
        raise PlanParseError("plan contains no operations")
    return RefactoringPlan(name, tuple(ops))
