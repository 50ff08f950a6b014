"""Seeded random generators for architecture models, code models, and ops.

Everything here is driven by an explicit random.Random so failures reproduce
from the seed alone. Generated models are valid by construction (asserted);
generated code models exercise covered, missing, unknown, and connection
cases without ever producing unresolvable endpoints.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, TargetKind
from archlint.errors import EndpointError, PreconditionError
from archlint.findings import SourceLocation
from archlint.model import (
    ArchitectureModel,
    Component,
    Connector,
    Direction,
    ElementRef,
    EndpointPath,
    Multiplicity,
    Part,
    Port,
    RefKind,
    ROOT_CONTEXT,
    flip,
    list_elements,
    resolve_endpoint,
    validate_model,
    walk_endpoint,
)
from archlint.refactor import (
    AddConnector,
    AddPort,
    MovePart,
    RefactoringOp,
    RemoveConnector,
    RemovePort,
    RenameElement,
    SplitComponent,
    apply_op,
)
from archlint.scaffold import scaffold_architecture

MULTS = [
    Multiplicity(1, 1),
    Multiplicity(0, None),
    Multiplicity(1, 3),
    Multiplicity(2, 2),
    Multiplicity(0, 1),
    Multiplicity(2, None),
]


def random_model(
    rng: random.Random, max_components: int = 8, connector_attempts: int = 12
) -> ArchitectureModel:
    """A valid model: part typing forms a DAG, connectors resolve and are unique."""
    n = rng.randint(1, max_components)
    names = [f"C{i}" for i in range(n)]
    ports = {
        names[i]: [f"p{i}_{k}" for k in range(rng.randint(0, 3))] for i in range(n)
    }
    parts: dict[str, list[tuple[str, str]]] = {name: [] for name in names}
    for i in range(n):
        for k in range(rng.randint(0, 3)):
            if i + 1 < n:
                parts[names[i]].append((f"r{i}_{k}", names[rng.randrange(i + 1, n)]))

    def walk(start: str) -> list[str] | None:
        segments: list[str] = []
        current = start
        for depth in range(3):
            choices = []
            if ports[current]:
                choices.append("end_port")
            if parts[current]:
                choices.append("end_part")
                if depth < 2:
                    choices.append("descend")
            if not choices:
                return segments or None
            pick = rng.choice(choices)
            if pick == "end_port":
                segments.append(rng.choice(ports[current]))
                return segments
            role, type_name = rng.choice(parts[current])
            segments.append(role)
            if pick == "end_part":
                return segments
            current = type_name
        return segments or None

    components = tuple(
        Component(
            name,
            ports=tuple(Port(p) for p in ports[name]),
            parts=tuple(Part(role, tc, rng.choice(MULTS)) for role, tc in parts[name]),
        )
        for name in names
    )
    base = ArchitectureModel(components, ())
    part_types = {tc for owned in parts.values() for _, tc in owned}
    top = [name for name in names if name not in part_types]

    seen_pairs: set[tuple[str, str]] = set()
    connectors: list[Connector] = []
    for k in range(connector_attempts):
        if rng.random() < 0.25 and top:
            context = ROOT_CONTEXT
            starts = [rng.choice(top), rng.choice(top)]
        else:
            context = rng.choice(names)
            starts = [context, context]
        raw = [walk(s) for s in starts]
        if raw[0] is None or raw[1] is None:
            continue
        if context == ROOT_CONTEXT:
            raw = [[starts[i]] + raw[i] for i in range(2)]
        left = EndpointPath(tuple(raw[0]))
        right = EndpointPath(tuple(raw[1]))
        try:
            lref = resolve_endpoint(base, context, left)
            rref = resolve_endpoint(base, context, right)
        except EndpointError:
            continue
        if lref.path == rref.path:
            continue
        pair = tuple(sorted((lref.path, rref.path)))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        connectors.append(
            Connector(f"c{k}", context, left, right, rng.choice(list(Direction)))
        )
    model = ArchitectureModel(components, tuple(connectors))
    problems = validate_model(model)
    assert not problems, f"generator produced an invalid model: {problems[0].message}"
    return model


_TARGET_FOR = {
    AnnotationKind.COMPONENT: TargetKind.TYPE,
    AnnotationKind.PART: TargetKind.FIELD,
    AnnotationKind.PORT: TargetKind.METHOD,
    AnnotationKind.ADD_PART: TargetKind.CONSTRUCTOR,
    AnnotationKind.REMOVE_PART: TargetKind.METHOD,
    AnnotationKind.CONNECTS: TargetKind.METHOD,
    AnnotationKind.DISCONNECTS: TargetKind.METHOD,
    AnnotationKind.CONNECTOR: TargetKind.FIELD,
}


class _InstanceSink:
    def __init__(self) -> None:
        self.instances: list[AnnotationInstance] = []

    def add(
        self,
        kind: AnnotationKind,
        values: tuple[str, ...] = (),
        attrs: dict[str, str] | None = None,
        enclosing: tuple[str, ...] = (),
        package: str = "gen",
    ) -> None:
        line = len(self.instances) + 1
        self.instances.append(
            AnnotationInstance(
                kind=kind,
                values=values,
                attrs=attrs or {},
                target=_TARGET_FOR[kind],
                target_name=f"t{line}",
                enclosing_components=enclosing,
                location=SourceLocation(f"gen/F{line % 5}.java", line, 1),
                package=package,
            )
        )


def random_code_for(rng: random.Random, model: ArchitectureModel) -> CodeModel:
    """A code model mixing covered, missing, unknown, and connection instances.

    Connection instances always carry resolvable endpoints; direction attrs
    are sometimes present, sometimes absent, and sometimes deliberately
    flipped so the consistency check has real work to do.
    """
    sink = _InstanceSink()
    for comp in model.components:
        if rng.random() < 0.8:
            sink.add(AnnotationKind.COMPONENT, (comp.name,))
        for part in comp.parts:
            roll = rng.random()
            if roll < 0.55:
                sink.add(AnnotationKind.PART, (part.role,), enclosing=(comp.name,))
            elif roll < 0.75:
                if rng.random() < 0.5:
                    sink.add(
                        AnnotationKind.ADD_PART, (part.role,), enclosing=(comp.name,)
                    )
                else:
                    sink.add(
                        AnnotationKind.ADD_PART,
                        (part.role,),
                        attrs={"componentname": comp.name},
                    )
        for port in comp.ports:
            if rng.random() < 0.7:
                sink.add(AnnotationKind.PORT, (port.name,), enclosing=(comp.name,))
        if rng.random() < 0.2:
            sink.add(
                AnnotationKind.PART,
                (f"ghost{len(sink.instances)}",),
                enclosing=(comp.name,),
            )
    if rng.random() < 0.15:
        sink.add(AnnotationKind.COMPONENT, (f"Ghost{len(sink.instances)}",))

    def connection(conn: Connector, kind: AnnotationKind, flip: bool) -> None:
        attrs = {"left": str(conn.left), "right": str(conn.right)}
        if rng.random() < 0.6:
            direction = conn.direction
            if flip:
                direction = rng.choice(list(Direction))
            attrs["type"] = direction.value
        enclosing = () if conn.context == ROOT_CONTEXT else (conn.context,)
        sink.add(kind, (), attrs=attrs, enclosing=enclosing)

    for conn in model.connectors:
        if rng.random() < 0.55:
            connection(conn, AnnotationKind.CONNECTS, flip=rng.random() < 0.2)
        if rng.random() < 0.2:
            connection(conn, AnnotationKind.DISCONNECTS, flip=rng.random() < 0.2)
    return CodeModel.build(sink.instances, (), "gen")


# Names the ADL cannot declare but annotations can hold.
_ODD_NAMES = ("x.y", "p#q", "é", "Ünï.c#d")
_ELEMENT_KINDS = (
    AnnotationKind.COMPONENT,
    AnnotationKind.PART,
    AnnotationKind.PORT,
    AnnotationKind.ADD_PART,
    AnnotationKind.REMOVE_PART,
)


def with_odd_elements(rng: random.Random, model: ArchitectureModel, code: CodeModel) -> CodeModel:
    """Add element annotations at the edges of the referent rule.

    They include @RemovePart, `componentname` (known or unknown), unknown
    and several enclosing components, no enclosing component, empty values,
    and names holding `.`, `#` or non-ASCII characters.
    """
    owners = [c.name for c in model.components] + ["Nowhere", "a.b"]
    members = [name for c in model.components for name in (
        *(p.role for p in c.parts), *(p.name for p in c.ports)
    )]
    extra = []
    for n in range(rng.randint(1, 10)):
        kind = rng.choice(_ELEMENT_KINDS)
        pool = owners if kind is AnnotationKind.COMPONENT else members
        values = tuple(rng.sample(pool + list(_ODD_NAMES), rng.choice((0, 1, 1, 2))))
        enclosing = tuple(rng.sample(owners, rng.choice((0, 1, 1, 2, 3))))
        attrs = {}
        if kind in (AnnotationKind.ADD_PART, AnnotationKind.REMOVE_PART) and rng.random() < 0.5:
            attrs["componentname"] = rng.choice(owners)
        extra.append(
            AnnotationInstance(
                kind=kind,
                values=values,
                attrs=attrs,
                target=_TARGET_FOR[kind],
                target_name=f"odd{n}",
                enclosing_components=enclosing,
                location=SourceLocation(f"gen/Odd{n % 3}.java", 20_000 + n, 1),
                package="gen",
            )
        )
    return CodeModel.build(code.instances + tuple(extra), code.findings, code.config_fingerprint)


def _fresh(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(10**6)}"


def _random_endpoint(
    rng: random.Random, model: ArchitectureModel, context: str
) -> EndpointPath | None:
    ports = {c.name: [p.name for p in c.ports] for c in model.components}
    parts = {
        c.name: [(p.role, p.type_component) for p in c.parts] for c in model.components
    }
    segments: list[str] = []
    if context == ROOT_CONTEXT:
        top = [c for c in model.components if model.is_top_level(c.name)]
        if not top:
            return None
        start = rng.choice(top).name
        segments.append(start)
        current = start
    else:
        current = context
    for depth in range(3):
        if current not in ports:  # a part typed by an undeclared component
            return None
        choices = []
        if ports[current]:
            choices.append("end_port")
        if parts[current]:
            choices.append("end_part")
            if depth < 2:
                choices.append("descend")
        if not choices:
            break
        pick = rng.choice(choices)
        if pick == "end_port":
            segments.append(rng.choice(ports[current]))
            break
        role, type_name = rng.choice(parts[current])
        segments.append(role)
        if pick == "end_part":
            break
        current = type_name
    minimum = 2 if context == ROOT_CONTEXT else 1
    if len(segments) < minimum:
        return None
    return EndpointPath(tuple(segments))


def _candidate_op(rng: random.Random, model: ArchitectureModel) -> RefactoringOp | None:
    kinds = ["add_port", "remove_port", "add_connector", "remove_connector",
             "rename", "move_part", "split"]
    pick = rng.choice(kinds)
    comps = model.components
    if pick == "add_port":
        return AddPort(rng.choice(comps).name, _fresh(rng, "np"))
    if pick == "remove_port":
        used: set[ElementRef] = set()
        for conn in model.connectors:
            for ep in (conn.left, conn.right):
                try:
                    used.add(resolve_endpoint(model, conn.context, ep))
                except EndpointError:
                    pass
        free = [
            (c.name, p.name)
            for c in comps
            for p in c.ports
            if ElementRef.port(c.name, p.name) not in used
        ]
        if not free:
            return None
        owner, port = rng.choice(free)
        return RemovePort(owner, port)
    if pick == "add_connector":
        for _ in range(6):
            context = ROOT_CONTEXT if rng.random() < 0.2 else rng.choice(comps).name
            left = _random_endpoint(rng, model, context)
            right = _random_endpoint(rng, model, context)
            if left is None or right is None:
                continue
            return AddConnector(
                _fresh(rng, "nc"), context, left, right, rng.choice(list(Direction))
            )
        return None
    if pick == "remove_connector":
        if not model.connectors:
            return None
        return RemoveConnector(rng.choice(model.connectors).id)
    if pick == "rename":
        which = rng.choice(["component", "part", "port", "connector"])
        if which == "component":
            return RenameElement(
                ElementRef.component(rng.choice(comps).name), _fresh(rng, "Rn")
            )
        if which == "part":
            owned = [(c.name, p.role) for c in comps for p in c.parts]
            if not owned:
                return None
            owner, role = rng.choice(owned)
            return RenameElement(ElementRef.part(owner, role), _fresh(rng, "rr"))
        if which == "port":
            owned = [(c.name, p.name) for c in comps for p in c.ports]
            if not owned:
                return None
            owner, port = rng.choice(owned)
            return RenameElement(ElementRef.port(owner, port), _fresh(rng, "pp"))
        if not model.connectors:
            return None
        conn = rng.choice(model.connectors)
        return RenameElement(
            ElementRef.connector(conn.context, conn.id), _fresh(rng, "cc")
        )
    if pick == "move_part":
        traversed: set[ElementRef] = set()
        for conn in model.connectors:
            for ep in (conn.left, conn.right):
                try:
                    traversed.update(walk_endpoint(model, conn.context, ep))
                except EndpointError:
                    pass
        movable = [
            (c.name, p.role)
            for c in comps
            for p in c.parts
            if ElementRef.part(c.name, p.role) not in traversed
        ]
        if not movable or len(comps) < 2:
            return None
        owner, role = rng.choice(movable)
        targets = [c.name for c in comps if c.name != owner and c.part(role) is None]
        if not targets:
            return None
        return MovePart(role, owner, rng.choice(targets))
    target = rng.choice(comps)
    name_a, name_b = _fresh(rng, "Sa"), _fresh(rng, "Sb")
    partition = {
        member: rng.choice([name_a, name_b])
        for member in [p.role for p in target.parts] + [p.name for p in target.ports]
    }
    return SplitComponent(target.name, name_a, name_b, partition)


def random_op_sequence(
    rng: random.Random, model: ArchitectureModel, max_len: int = 4
) -> tuple[list[RefactoringOp], ArchitectureModel]:
    """Ops that are known to apply in order; returns them with the end model."""
    current = model
    ops: list[RefactoringOp] = []
    for _ in range(max_len * 3):
        if len(ops) >= max_len:
            break
        op = _candidate_op(rng, current)
        if op is None:
            continue
        try:
            current, _ = apply_op(current, op)
        except PreconditionError:
            continue
        ops.append(op)
    return ops, current


def inverse_of(op: RefactoringOp, before: ArchitectureModel) -> RefactoringOp | None:
    """The undo of an op, if the op family has one."""
    if isinstance(op, AddPort):
        return RemovePort(op.component, op.port)
    if isinstance(op, RemovePort):
        return AddPort(op.component, op.port)
    if isinstance(op, AddConnector):
        return RemoveConnector(op.id)
    if isinstance(op, RemoveConnector):
        conn = before.connector_by_id(op.id)
        if conn is None:
            return None
        return AddConnector(conn.id, conn.context, conn.left, conn.right, conn.direction)
    if isinstance(op, MovePart):
        return MovePart(op.role, op.to_component, op.from_component)
    if isinstance(op, RenameElement):
        owner, name = op.ref.split()
        return RenameElement(ElementRef.member(op.ref.kind, owner, op.new_name), name)
    return None


def colliding_op(rng: random.Random, model: ArchitectureModel) -> RefactoringOp | None:
    """An op that reuses a name the model declares, so most are refused.

    It draws self-renames and renames onto a sibling or onto a name declared
    elsewhere, `add-port` of an existing port, `remove-port` of an attached
    port, `add-connector` reusing an id or a triple, naming an unknown
    context or using one endpoint twice, `move-part` onto its own owner or
    onto an owner that holds the role, and splits onto an existing name,
    onto the target's own name or onto one name twice.
    """
    comps = model.components
    comp = rng.choice(comps)
    conns = model.connectors
    pick = rng.choice(["rename_self", "rename_taken", "add_port", "remove_port",
                       "add_connector", "move_part", "split"])
    if pick in ("rename_self", "rename_taken"):
        refs = sorted(list_elements(model), key=ElementRef.sort_key)
        ref = rng.choice(refs)
        own = ref.split()[1]
        taken = [r.split()[1] for r in refs if r.kind is ref.kind]
        return RenameElement(ref, own if pick == "rename_self" else rng.choice(taken))
    if pick == "add_port":
        if not comp.ports:
            return None
        return AddPort(comp.name, rng.choice(comp.ports).name)
    if pick == "remove_port":
        attached = sorted(
            {side for sides in model.connector_index.sides.values() for side in sides
             if isinstance(side, ElementRef) and side.kind is RefKind.PORT},
            key=ElementRef.sort_key,
        )
        if not attached:
            return None
        return RemovePort(*rng.choice(attached).split())
    if pick == "add_connector":
        how = rng.choice(["id", "triple", "context", "twice"])
        if how == "triple" and conns:
            conn = rng.choice(conns)
            if rng.random() < 0.5:
                return AddConnector(_fresh(rng, "nc"), conn.context, conn.left, conn.right,
                                    conn.direction)
            return AddConnector(_fresh(rng, "nc"), conn.context, conn.right, conn.left,
                                flip(conn.direction))
        left = _random_endpoint(rng, model, comp.name)
        right = _random_endpoint(rng, model, comp.name)
        if left is None or right is None:
            return None
        cid, context = _fresh(rng, "nc"), comp.name
        if how == "id" and conns:
            cid = rng.choice(conns).id
        elif how == "context":
            context = "Nowhere"
        elif how == "twice":
            right = left
        return AddConnector(cid, context, left, right, rng.choice(list(Direction)))
    if pick == "move_part":
        if rng.random() < 0.5:
            if not comp.parts:
                return None
            return MovePart(rng.choice(comp.parts).role, comp.name, comp.name)
        shared = [
            (role, owner.name, other.name)
            for owner in comps for role in (p.role for p in owner.parts)
            for other in comps if other is not owner and other.part(role) is not None
        ]
        if not shared:
            return None
        return MovePart(*rng.choice(shared))
    how = rng.choice(["taken", "own", "twice"])
    name_a, name_b = _fresh(rng, "Sa"), _fresh(rng, "Sb")
    if how == "taken":
        name_a = rng.choice(comps).name
    elif how == "own":
        name_a = comp.name
    else:
        name_b = name_a
    partition = {
        member: rng.choice([name_a, name_b])
        for member in [p.role for p in comp.parts] + [p.name for p in comp.ports]
    }
    return SplitComponent(comp.name, name_a, name_b, partition)


def shadowing_ops(rng: random.Random, model: ArchitectureModel) -> list[RefactoringOp]:
    """Two steps that give a port a part's name, then take the part away.

    The first is `add-port` of a part's role to the part's owner; the second
    splits the part's type or moves the part to another component. A part
    that a connector endpoint ends at is preferred, so the second step meets
    an endpoint path that, once the part is gone, names the new port.
    """
    ended = sorted(
        {side for sides in model.connector_index.sides.values() for side in sides
         if isinstance(side, ElementRef) and side.kind is RefKind.PART},
        key=ElementRef.sort_key,
    )
    held = ended or sorted(
        (ref for ref in list_elements(model) if ref.kind is RefKind.PART),
        key=ElementRef.sort_key,
    )
    if not held:
        return []
    owner, role = rng.choice(held).split()
    part = model.component(owner).part(role)
    target = model.component(part.type_component)
    if target is None or rng.random() < 0.5:
        others = [c.name for c in model.components
                  if c.name != owner and c.part(role) is None]
        if not others:
            return [AddPort(owner, role)]
        return [AddPort(owner, role), MovePart(role, owner, rng.choice(others))]
    name_a, name_b = _fresh(rng, "Sa"), _fresh(rng, "Sb")
    partition = {
        member: rng.choice([name_a, name_b])
        for member in [p.role for p in target.parts] + [p.name for p in target.ports]
    }
    return [AddPort(owner, role), SplitComponent(target.name, name_a, name_b, partition)]


_PRAGMA = re.compile(r"//@arch (\w+)\((.*)\) @on (\w+) (\w+)")
_JAVA_MEMBER = {"method": "void {}() {{}}", "field": "Object {};"}


def _java_scaffold(text: str) -> str:
    """A scaffold file as Java: its type pragma as an annotated class that
    holds each other pragma as an annotated member."""
    head, members = "class Toplevel {", []
    for kind, args, target, name in _PRAGMA.findall(text):
        annotation = f"@{kind}({args.replace('type=', 'type=Arrow.')})"
        if target == "type":
            head = f"{annotation} class {name} {{"
        else:
            members.append(f"    {annotation} {_JAVA_MEMBER[target].format(name)}")
    return "\n".join([head, *members, "}"]) + "\n"


def write_scaffold_tree(model: ArchitectureModel, root: Path, java: bool) -> None:
    """Write the model's scaffold under `root`: its pragma files, or each
    as a Java class."""
    for name, text in scaffold_architecture(model).items():
        path = root / (Path(name).with_suffix(".java") if java else name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_java_scaffold(text) if java else text, encoding="utf-8")
