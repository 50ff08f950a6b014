"""Architectural refactoring: operations, plans, impact reports.

Operations are pure model transformations; the source code is never touched.
Every operation either returns a new model that validates, or raises
PreconditionError and leaves the input untouched, so plans are atomic by
construction. A handler locates what it changes, checks that a new name is
an identifier and returns only the new model. `_require` alone refuses a
step that names an element the input does not declare. `_apply_rename`
holds the rename rule: every name that denotes the renamed element becomes
the new name. `_rewrite_paths`, which rename and split call, alone walks
endpoint paths, and only those that hold a name the step changes.
`apply_op` holds the rule every operation shares: a step whose input or
result fails `validate_model`, or whose result equals its input, is
refused, so no handler repeats a check that validation makes. A result
carries its input's connector index and validation past what the step
changed (`_carry`), and `apply_plan` resolves again only the connection
annotations that a step can have changed.
The elements a step touches are those it creates or deletes,
`model.created_or_deleted` of the two models, so a rename or a move
touches the old element and the new one.
The ImpactReport tells the developer which annotations (by location)
reference each element a step touched, from `conformance.references`, the
function behind the annotation lookup; rewriting the code stays a manual
task.

`OPERATIONS` is the one definition of each operation: its class (a
`RefactoringOp`), its plan name, how each field is read from and written
to plan text, and its handler. `parse_plan`, `op_text`, `op_name` and
`apply_op` read it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Callable

from .annotations import CodeModel
from .conformance import ConnectionResolution, references, resolve_connection
from .errors import PlanError, PlanParseError, PreconditionError
from .model import (
    ArchitectureModel,
    Component,
    Connector,
    ConnectorIndex,
    Direction,
    ElementRef,
    EndpointPath,
    Part,
    Port,
    Record,
    RefKind,
    ROOT_CONTEXT,
    _member_keys,
    created_or_deleted,
    is_identifier,
    parse_ref,
    validate_model,
    walk_endpoint,
)


class RefactoringOp(Record):
    """The base of every operation record; each operation is a subclass
    with one row in `OPERATIONS`, and compares by type, then fields."""

    __slots__ = ()


class AddPort(RefactoringOp, namedtuple("AddPort", "component port")):
    """Add the port `port` (str) to `component` (str)."""

    __slots__ = ()


class RemovePort(RefactoringOp, namedtuple("RemovePort", "component port")):
    """Remove the port `port` (str) from `component` (str)."""

    __slots__ = ()


class AddConnector(RefactoringOp, namedtuple("AddConnector", "id context left right direction")):
    """Declare a connector: id and context (str), left and right
    (EndpointPath) and direction (Direction), as a Connector holds them."""

    __slots__ = ()


class RemoveConnector(RefactoringOp, namedtuple("RemoveConnector", "id")):
    """Remove the connector `id` (str)."""

    __slots__ = ()


class SplitComponent(RefactoringOp, namedtuple("SplitComponent", "target name_a name_b partition")):
    """Split `target` (str) into `name_a` and `name_b` (str); `partition`
    (Mapping[str, str]) maps each part role and port name to one of them."""

    __slots__ = ()


class RenameElement(RefactoringOp, namedtuple("RenameElement", "ref new_name")):
    """Rename the element `ref` (ElementRef) to `new_name` (str)."""

    __slots__ = ()


class MovePart(RefactoringOp, namedtuple("MovePart", "role from_component to_component")):
    """Move the part `role` (str) from `from_component` to `to_component` (str)."""

    __slots__ = ()


def _fail(op: RefactoringOp, reason: str, ref: ElementRef | None = None) -> PreconditionError:
    return PreconditionError(op_name(op), reason, ref)


def _require(model: ArchitectureModel, ref: ElementRef, op: RefactoringOp):
    """The Component, Part, Port or Connector `ref` names in `model`. The one
    rule that refuses a step for naming an element the input does not
    declare: a member's owner is checked before the member. A connector ref
    without a context, `ElementRef(RefKind.CONNECTOR, id)`, names the
    connector of that id, as `remove-connector` does."""
    kind = ref.kind
    if kind is RefKind.CONNECTOR:
        if "/" not in ref.path:
            found = model.connector_by_id(ref.path)
            if found is None:
                raise _fail(op, f"no connector with id '{ref.path}'")
            return found
        found = model.connector_index.by_ref.get(ref)
        if found is None:
            raise _fail(op, f"no connector '{ref.path}'", ref)
        return found
    owner, name = ref.split()
    component = name if kind is RefKind.COMPONENT else owner
    comp = model.component(component)
    if comp is None:
        raise _fail(op, f"unknown component '{component}'", ElementRef.component(component))
    if kind is RefKind.COMPONENT:
        return comp
    found = comp.part(name) if kind is RefKind.PART else comp.port(name)
    if found is None:
        raise _fail(op, f"no {kind.value} '{name}' in '{owner}'", ref)
    return found


def _swap_component(model: ArchitectureModel, comp: Component) -> tuple[Component, ...]:
    return tuple(comp if c.name == comp.name else c for c in model.components)


def _rewrite_paths(model: ArchitectureModel, names: set[str], rewrite) -> tuple[Connector, ...]:
    """Every connector of `model`, each endpoint path that holds one of
    `names` replaced by `rewrite(segments, walked)`, the new segments given
    the path's segments and the element `walk_endpoint` reaches with each.
    A connector whose paths hold none of `names` is the same object."""

    def rewritten(conn: Connector, path: EndpointPath) -> EndpointPath:
        if names.isdisjoint(path.segments):
            return path
        return EndpointPath(tuple(rewrite(path.segments, walk_endpoint(model, conn.context, path))))

    return tuple(
        conn if names.isdisjoint(conn.left.segments) and names.isdisjoint(conn.right.segments)
        else conn._replace(left=rewritten(conn, conn.left), right=rewritten(conn, conn.right))
        for conn in model.connectors
    )


def _apply_add_port(model: ArchitectureModel, op: AddPort):
    comp = _require(model, ElementRef.component(op.component), op)
    if not is_identifier(op.port):
        raise _fail(op, f"invalid port name '{op.port}'")
    new_comp = comp._replace(ports=comp.ports + (Port(op.port),))
    return model._replace(components=_swap_component(model, new_comp))


def _apply_remove_port(model: ArchitectureModel, op: RemovePort):
    _require(model, ElementRef.port(op.component, op.port), op)
    comp = model.component(op.component)
    new_comp = comp._replace(ports=tuple(p for p in comp.ports if p.name != op.port))
    return model._replace(components=_swap_component(model, new_comp))


def _apply_add_connector(model: ArchitectureModel, op: AddConnector):
    if not is_identifier(op.id):
        raise _fail(op, f"invalid connector id '{op.id}'")
    return model._replace(connectors=model.connectors + (Connector(*op),))


def _apply_remove_connector(model: ArchitectureModel, op: RemoveConnector):
    _require(model, ElementRef(RefKind.CONNECTOR, op.id), op)
    return model._replace(connectors=tuple(c for c in model.connectors if c.id != op.id))


def _apply_rename(model: ArchitectureModel, op: RenameElement):
    """The rename rule: every name that denotes `op.ref` becomes the new
    name. That is the element's own declaration, a part type or connector
    context that names a renamed component, a connector id, and each
    endpoint segment whose walk reaches the element."""
    ref, new = op.ref, op.new_name
    if not is_identifier(new):
        raise _fail(op, f"invalid name '{new}'")
    found = _require(model, ref, op)
    kind, component, part, port = ref.kind, RefKind.COMPONENT, RefKind.PART, RefKind.PORT
    owner, old = ref.split()

    def name(of_kind: RefKind, of_owner: str, text: str) -> str:
        return new if text == old and ElementRef.member(of_kind, of_owner, text) == ref else text

    def rebuilt(comp: Component) -> Component:
        return Component(
            name(component, "", comp.name),
            (Port(name(port, comp.name, p.name)) for p in comp.ports),
            (Part(name(part, comp.name, p.role), name(component, "", p.type_component),
                  p.multiplicity) for p in comp.parts),
        )

    if kind is RefKind.CONNECTOR:  # no component or endpoint segment denotes a connector
        components, moved = model.components, model.connectors
    else:
        components = tuple(  # a renamed member's owner, or a renamed component and its holders
            rebuilt(c) if c.name == owner or kind is component
            and (c.name == old or any(p.type_component == old for p in c.parts)) else c
            for c in model.components
        )
        moved = _rewrite_paths(model, {old}, lambda segments, walked: [
            new if element == ref else segment for segment, element in zip(segments, walked)
        ])
    # Only the id of the connector `ref` names, or a context, can denote `ref`.
    connectors = tuple(
        c._replace(id=name(RefKind.CONNECTOR, c.context, c.id), context=name(component, "", c.context))
        if c is found or c.context == old else c
        for c in moved
    )
    return ArchitectureModel(components, connectors)


def _apply_move_part(model: ArchitectureModel, op: MovePart):
    """The part leaves its owner, then joins the target as the target is
    after that, so a move onto the owner gives back the model unchanged."""
    source = _require(model, ElementRef.component(op.from_component), op)
    _require(model, ElementRef.component(op.to_component), op)
    part = _require(model, ElementRef.part(op.from_component, op.role), op)
    without = source._replace(parts=tuple(p for p in source.parts if p.role != op.role))
    model = model._replace(components=_swap_component(model, without))
    target = model.component(op.to_component)
    joined = target._replace(parts=target.parts + (part,))
    return model._replace(components=_swap_component(model, joined))


def _apply_split(model: ArchitectureModel, op: SplitComponent):
    target = _require(model, ElementRef.component(op.target), op)
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

    # Replace every target-typed part anywhere with one part per half; each
    # holder part is kept by its owner in the result and by its ref in the input.
    holders: list[tuple[str, str]] = []  # (owner component, original role)
    holder_refs: set[ElementRef] = set()
    components: list[Component] = []
    halves = [
        (op.target, Component(side, (p for p in target.ports if side_of[p.name] == side),
                              (p for p in target.parts if side_of[p.role] == side)))
        for side in (op.name_a, op.name_b)
    ]
    for origin, comp in [(c.name, c) for c in model.components if c.name != op.target] + halves:
        if not any(p.type_component == op.target for p in comp.parts):
            components.append(comp)
            continue
        new_parts = [p for p in comp.parts if p.type_component != op.target]
        for part in comp.parts:
            if part.type_component == op.target:
                holders.append((comp.name, part.role))
                holder_refs.add(ElementRef.part(origin, part.role))
                new_parts += (Part(f"{part.role}_{side}", side, part.multiplicity)
                              for side in (op.name_a, op.name_b))
        components.append(comp._replace(parts=tuple(new_parts)))

    target_was_top = model.is_top_level(op.target)
    target_ref = ElementRef.component(op.target)

    def to_sides(segments: tuple[str, ...], walked: tuple[ElementRef, ...]) -> list[str]:
        """A root path's first segment names the side of its next segment; a
        holder part becomes its replacement on that side."""
        out = list(segments)
        for index, (element, follow) in enumerate(zip(walked, segments[1:])):
            if element == target_ref:
                out[index] = side_of[follow]
            elif element in holder_refs:
                out[index] = f"{segments[index]}_{side_of[follow]}"
        return out

    names = {op.target} | {role for _, role in holders}
    connectors: list[Connector] = []
    for conn, moved in zip(model.connectors, _rewrite_paths(model, names, to_sides)):
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
            connectors.append(moved)
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


def _carry(
    old: ArchitectureModel, new: ArchitectureModel
) -> Callable[[ConnectionResolution], bool]:
    """Seed the cached `connector_index` and `validation` of `new`, the
    result of one step on the well-formed `old`, from what the step changed,
    and return whether the step can change a resolution under `old`.

    A component changed when its declaration differs in the two models. A
    connector is walked again only when its context (or a root path's
    first component) is or holds, through part types, a changed one, or
    flipped its top-level status. Validation checks the changed components and
    those connectors, with the names and part types; a finding, or a pair
    that two connectors wire, sends `new` to the full `validate_model`.
    A resolved annotation read only the components its refs name, their
    top-level status and its pair's connectors; one with a side that does
    not resolve may have stopped at any component.
    """
    old_map, new_map = old._component_map, new._component_map
    changed = {
        name for name in old_map.keys() | new_map.keys()
        if old_map.get(name) is not new_map.get(name) and old_map.get(name) != new_map.get(name)
    }
    flipped = (old_map.keys() - old._part_type_uses) ^ (new_map.keys() - new._part_type_uses)
    tainted, stack = set(changed), list(changed & old._part_type_uses)
    if stack:
        holders: dict[str, list[str]] = {}
        for comp in old.components:
            for part in comp.parts:
                holders.setdefault(part.type_component, []).append(comp.name)
        while stack:
            for holder in holders.get(stack.pop(), ()):
                if holder not in tainted:
                    tainted.add(holder)
                    stack.append(holder)

    def walks_changed(conn: Connector) -> bool:
        if conn.context != ROOT_CONTEXT:
            return conn.context in tainted
        starts = {conn.left.segments[0], conn.right.segments[0]}
        return not (starts.isdisjoint(tainted) and starts.isdisjoint(flipped))

    before = old.connector_index
    kept = before.sides
    if tainted or flipped:
        kept = {conn: sides for conn, sides in kept.items() if not walks_changed(conn)}
    index = new.__dict__["connector_index"] = ConnectorIndex(new, kept)
    fresh = [conn for conn in new.connectors if conn not in kept]
    wired = [index.triples[conn] for conn in fresh if conn in index.triples]
    problems = (
        len(new_map) < len(new.components)
        or len(index.by_id) < len(new.connectors)
        or not new._part_type_uses <= new_map.keys()
        or any(len(index.by_pair[triple[:2]]) > 1 for triple in wired)
        or validate_model(new, fresh, [new_map[name] for name in changed if name in new_map])
    )
    new.__dict__["validation"] = tuple(validate_model(new)) if problems else ()
    pairs = {triple[:2] for triple in wired}
    pairs.update(
        triple[:2] for conn, triple in before.triples.items()
        if conn not in kept or conn not in index.sides
    )
    elements = {ElementRef.member(*key) for key in _member_keys(
        old_map[name] for name in changed if name in old_map
    )}
    elements.update(map(ElementRef.component, changed | flipped))

    def changes(resolution: ConnectionResolution) -> bool:
        triple = resolution.triple
        if triple is None:
            return bool(changed)
        return (triple[0], triple[1]) in pairs or not resolution.refs.isdisjoint(elements)

    return changes


def _step(
    model: ArchitectureModel, op: RefactoringOp
) -> tuple[ArchitectureModel, Callable[[ConnectionResolution], bool]]:
    """`apply_op`'s new model, and whether the step can change a resolution
    (`_carry`)."""
    _require_well_formed(op, "input", model)
    new_model = _ROW_OF[type(op)].apply(model, op)
    if new_model == model:
        raise _fail(op, "the step changes nothing")
    changes = _carry(model, new_model)
    _require_well_formed(op, "resulting", new_model)
    return new_model, changes


def apply_op(
    model: ArchitectureModel, op: RefactoringOp
) -> tuple[ArchitectureModel, frozenset[ElementRef]]:
    """Apply one operation; atomic (the input model is never mutated).
    Returns the new model and the elements the step touched: those declared
    in exactly one of the two models.

    The one rule every operation shares: a step is refused when its input
    or its result fails `validate_model`, with the first finding's message
    and element as the reason and ref, or when its result equals its input.
    The result's validation and connector index are carried from the
    input's (`_carry`).
    """
    new_model, _ = _step(model, op)
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
    The first step resolves every connection annotation; a later step
    resolves again only those that the step before can have changed
    (`_carry`) and keeps the rest.
    """
    current = model
    entries: list[ImpactEntry] = []
    connections = [
        (position, inst) for position, inst in enumerate(code.instances) if inst.kind.usage is not None
    ]
    resolved: dict[int, ConnectionResolution] = {}
    changes = None
    for step, op in enumerate(plan.ops, start=1):
        try:
            new_model, next_changes = _step(current, op)
        except PreconditionError as err:
            raise PlanError(step, err) from err
        for position, inst in connections:
            if changes is None or changes(resolved[position]):
                resolved[position] = resolve_connection(current, inst)
        touched = created_or_deleted(current, new_model)
        refs = tuple(sorted(touched, key=lambda r: r.sort_key()))
        impact = references(code, refs, current, resolved.items())
        entries.append(ImpactEntry(step, op, refs, impact))
        current, changes = new_model, next_changes
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
