"""End-to-end gate: one test per shipped guarantee.

Each test is numbered; the terminal summary prints one PASS/FAIL line per
criterion. Oracles here are deliberately independent reimplementations so
they can disagree with the production code.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from archlint.adl import parse_architecture, serialize_architecture
from archlint.annotations import AnnotationKind, CodeModel, TargetKind
from archlint.cli import main
from archlint.conformance import (
    check_annotation_completeness,
    check_architecture_completeness,
    check_connection_consistency,
    connector_usages,
    lookup,
    run_all,
)
from archlint.errors import PlanError
from archlint.findings import SourceLocation
from archlint.jsontext import dump_code_model
from archlint.model import (
    ArchitectureModel,
    Direction,
    ElementRef,
    RefKind,
    list_elements,
    validate_model,
)
from archlint.refactor import (
    AddPort,
    RefactoringPlan,
    apply_op,
    apply_plan,
    parse_plan,
)
from archlint.scaffold import write_scaffold
from archlint.scan import scan_tree
from archlint.smells import run_smells, smell_connector_lifecycle
from modelgen import (
    inverse_of,
    random_code_for,
    random_model,
    random_op_sequence,
    with_odd_elements,
)

DATA = Path(__file__).parent / "data"


# --- 1. verbatim-source fidelity --------------------------------------------


def test_criterion_1_source_extraction_fidelity(car_solo_code: CodeModel) -> None:
    assert len(car_solo_code.instances) == 5
    shapes = [
        (i.kind, i.values, i.target, i.target_name, i.location.line, i.location.column)
        for i in car_solo_code.instances
    ]
    assert shapes == [
        (AnnotationKind.COMPONENT, ("Car",), TargetKind.TYPE, "Car", 1, 8),
        (AnnotationKind.PART, ("rear",), TargetKind.FIELD, "rear", 2, 13),
        (AnnotationKind.PART, ("e",), TargetKind.FIELD, "e", 4, 13),
        (AnnotationKind.ADD_PART, ("rear", "e"), TargetKind.CONSTRUCTOR, "Car", 6, 12),
        (AnnotationKind.CONNECTS, (), TargetKind.CONSTRUCTOR, "Car", 7, 9),
    ]
    connects = car_solo_code.instances[4]
    assert dict(connects.attrs) == {"left": "rear", "right": "e.p", "type": "LEFT"}
    golden = (DATA / "golden" / "car_solo_extract.golden.json").read_text()
    assert dump_code_model(car_solo_code) == golden


# --- 2. the three conformance checks, one mutation each ---------------------


def _car_report(arch_text: str, mutate_engine=None):
    src = DATA / "car" / "src" / "vehicle"
    files = {name: (src / name).read_text() for name in ("Car.java", "Engine.java", "Wheel.java")}
    if mutate_engine is not None:
        files["Engine.java"] = mutate_engine(files["Engine.java"])
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        for name, text in files.items():
            (root / name).write_text(text)
        return run_all(parse_architecture(arch_text), scan_tree([root]))


def test_criterion_2_conformance_check_catalog(car_arch: ArchitectureModel) -> None:
    arch_text = (DATA / "car" / "car.arch").read_text()

    clean = _car_report(arch_text)
    assert clean.findings == ()

    no_connector = "\n".join(
        line for line in arch_text.splitlines() if "connector c1" not in line
    )
    report = _car_report(no_connector)
    assert [f.check_id for f in report.findings] == ["UNDECLARED_CONNECTION"]

    report = _car_report(
        arch_text,
        mutate_engine=lambda t: t.replace('public @Port("p") void p()', "public void p()"),
    )
    assert [f.check_id for f in report.findings] == ["MISSING_ANNOTATION"]
    assert report.findings[0].element.path == "Engine#p"

    report = _car_report(
        arch_text,
        mutate_engine=lambda t: t.replace(
            'public @Port("p") void p()',
            'public @Port("q") void q() {}\n    public @Port("p") void p()',
        ),
    )
    assert [f.check_id for f in report.findings] == ["UNKNOWN_ELEMENT"]
    assert report.findings[0].element.path == "Engine#q"


# --- 3. randomized equivalence against brute-force oracles ------------------


def _oracle_resolve(model: ArchitectureModel, context: str, path: str):
    """Independent endpoint resolver: returns 'Comp.part'/'Comp#port' or None."""
    segments = path.split(".")
    if any(not s for s in segments):
        return None
    if context == "":
        first = segments[0]
        if model.component(first) is None or not model.is_top_level(first):
            return None
        if len(segments) == 1:
            return None
        current = model.component(first)
        segments = segments[1:]
    else:
        current = model.component(context)
        if current is None:
            return None
    for idx, seg in enumerate(segments):
        part = current.part(seg)
        if idx == len(segments) - 1:
            if part is not None:
                return f"{current.name}.{seg}"
            if current.port(seg) is not None:
                return f"{current.name}#{seg}"
            return None
        if part is None:
            return None
        current = model.component(part.type_component)
        if current is None:
            return None
    return None


def _oracle_normalize(a: str, b: str, d):
    if b < a:
        a, b = b, a
        if d is Direction.LEFT:
            d = Direction.RIGHT
        elif d is Direction.RIGHT:
            d = Direction.LEFT
    return (a, b, d)


def _oracle_missing(model: ArchitectureModel, code: CodeModel) -> set[str]:
    components = set()
    parts = set()
    ports = set()
    for inst in code.instances:
        if inst.kind is AnnotationKind.COMPONENT:
            components.update(inst.values)
        elif inst.kind is AnnotationKind.PART:
            for ctx in inst.enclosing_components:
                parts.update((ctx, v) for v in inst.values)
        elif inst.kind is AnnotationKind.ADD_PART:
            explicit = inst.attrs.get("componentname")
            owners = (explicit,) if explicit else inst.enclosing_components
            for owner in owners:
                parts.update((owner, v) for v in inst.values)
        elif inst.kind is AnnotationKind.PORT:
            for ctx in inst.enclosing_components:
                ports.update((ctx, v) for v in inst.values)
    missing = set()
    for comp in model.components:
        if comp.name not in components:
            missing.add(comp.name)
        for part in comp.parts:
            if (comp.name, part.role) not in parts:
                missing.add(f"{comp.name}.{part.role}")
        for port in comp.ports:
            if (comp.name, port.name) not in ports:
                missing.add(f"{comp.name}#{port.name}")
    return missing


def _oracle_owners(inst) -> list[str]:
    """The components a part/port annotation's values live in."""
    explicit = inst.attrs.get("componentname")
    if explicit and inst.kind in (AnnotationKind.ADD_PART, AnnotationKind.REMOVE_PART):
        return [explicit]
    return list(inst.enclosing_components)


def _oracle_unknown(model: ArchitectureModel, code: CodeModel) -> Counter:
    """Check 2's findings as (check id, element, kind, message, locations)."""
    declared = {c.name: c for c in reversed(model.components)}  # first declaration wins
    out: Counter = Counter()
    for inst in code.instances:
        at = (inst.location,)
        if inst.kind is AnnotationKind.COMPONENT:
            for value in inst.values:
                if value not in declared:
                    message = f"@Component names unknown component '{value}'"
                    out["UNKNOWN_ELEMENT", value, "component", message, at] += 1
            continue
        if inst.kind in _CONNECTION_KINDS:
            continue
        owners = _oracle_owners(inst)
        if not owners:
            message = f"@{inst.kind.value} has no enclosing component to resolve against"
            out["UNKNOWN_ELEMENT", None, None, message, at] += 1
        member, sep = ("port", "#") if inst.kind is AnnotationKind.PORT else ("part", ".")
        for owner in owners:
            comp = declared.get(owner)
            names = []
            if comp is not None:
                names = [p.name for p in comp.ports] if member == "port" else [p.role for p in comp.parts]
            for value in inst.values:
                if value in names:
                    continue
                where = "component" if comp is not None else "unknown component"
                message = f"@{inst.kind.value} names {member} '{value}' not declared in {where} '{owner}'"
                out["UNKNOWN_ELEMENT", f"{owner}{sep}{value}", member, message, at] += 1
    return out


def _oracle_undeclared(model: ArchitectureModel, code: CodeModel) -> Counter:
    triples = set()
    pairs = set()
    for conn in model.connectors:
        left = _oracle_resolve(model, conn.context, str(conn.left))
        right = _oracle_resolve(model, conn.context, str(conn.right))
        if left is None or right is None:
            continue
        nl, nr, nd = _oracle_normalize(left, right, conn.direction)
        triples.add((nl, nr, nd))
        pairs.add((nl, nr))

    flagged: Counter = Counter()
    for inst in code.instances:
        if inst.kind not in (
            AnnotationKind.CONNECTS,
            AnnotationKind.DISCONNECTS,
            AnnotationKind.CONNECTOR,
        ):
            continue
        sides = []
        for side in ("left", "right"):
            explicit = inst.attrs.get(f"{side}component")
            if explicit is not None:
                context = explicit
            elif inst.enclosing_components:
                context = inst.enclosing_components[0]
            else:
                context = ""
            sides.append(_oracle_resolve(model, context, inst.attrs.get(side, "")))
        if sides[0] is None or sides[1] is None:
            continue
        raw = inst.attrs.get("type")
        direction = Direction(raw) if raw is not None else None
        a, b = sorted(sides)
        if direction is None:
            ok = (a, b) in pairs
        else:
            nl, nr, nd = _oracle_normalize(sides[0], sides[1], direction)
            ok = (nl, nr, nd) in triples
        if not ok:
            flagged[inst.location] += 1
    return flagged


def test_criterion_3_oracle_equivalence() -> None:
    rng = random.Random(20260818)
    odd = random.Random(20261018)  # apart, so `rng` draws what it always drew
    pairs = 0
    while pairs < 200:
        model = random_model(rng, max_components=rng.randint(2, 20))
        code = with_odd_elements(odd, model, random_code_for(rng, model))
        pairs += 1

        got_missing = {
            f.element.path for f in check_annotation_completeness(model, code)
        }
        assert got_missing == _oracle_missing(model, code)

        got_unknown = Counter(
            (
                f.check_id,
                f.element.path if f.element is not None else None,
                f.element.kind.value if f.element is not None else None,
                f.message,
                f.locations,
            )
            for f in check_architecture_completeness(model, code)
        )
        assert got_unknown == _oracle_unknown(model, code)

        got_undeclared = Counter(
            f.locations[0]
            for f in check_connection_consistency(model, code)
            if f.check_id == "UNDECLARED_CONNECTION"
        )
        assert got_undeclared == _oracle_undeclared(model, code)
    assert pairs >= 200


_CONNECTION_KINDS = (
    AnnotationKind.CONNECTS,
    AnnotationKind.DISCONNECTS,
    AnnotationKind.CONNECTOR,
)


def _oracle_context(inst, side: str) -> str:
    explicit = inst.attrs.get(f"{side}component")
    if explicit is not None:
        return explicit
    if inst.enclosing_components:
        return inst.enclosing_components[0]
    return ""


def _oracle_walk(model: ArchitectureModel, context: str, path: str):
    """Independent endpoint traversal: every element the path passes, or None."""
    segments = path.split(".")
    if any(not s for s in segments):
        return None
    walked = set()
    if context == "":
        first = segments[0]
        if model.component(first) is None or not model.is_top_level(first) or len(segments) == 1:
            return None
        walked.add(ElementRef.component(first))
        current = model.component(first)
        segments = segments[1:]
    else:
        current = model.component(context)
        if current is None:
            return None
    for idx, seg in enumerate(segments):
        last = idx == len(segments) - 1
        part = current.part(seg)
        if part is not None:
            walked.add(ElementRef.part(current.name, seg))
            if last:
                return walked
            current = model.component(part.type_component)
            if current is None:
                return None
        elif last and current.port(seg) is not None:
            walked.add(ElementRef.port(current.name, seg))
            return walked
        else:
            return None
    return None


def _oracle_connectors(model: ArchitectureModel, inst) -> list[ElementRef]:
    """Declared connectors a connection instance matches: instance x connector scan."""
    sides = [
        _oracle_resolve(model, _oracle_context(inst, side), inst.attrs.get(side, ""))
        for side in ("left", "right")
    ]
    if sides[0] is None or sides[1] is None:
        return []
    raw = inst.attrs.get("type")
    if raw is None:
        a, b = sorted(sides)
        wanted = (a, b, None)
    else:
        wanted = _oracle_normalize(sides[0], sides[1], Direction(raw))
    out = []
    for conn in model.connectors:
        left = _oracle_resolve(model, conn.context, str(conn.left))
        right = _oracle_resolve(model, conn.context, str(conn.right))
        if left is None or right is None:
            continue
        nl, nr, nd = _oracle_normalize(left, right, conn.direction)
        if (nl, nr) == wanted[:2] and wanted[2] in (None, nd):
            out.append(ElementRef.connector(conn.context, conn.id))
    return out


def _oracle_syntactic(inst) -> set[ElementRef]:
    """What an instance names without the architecture.

    Its enclosing components; for an element annotation each component,
    part or port it names and each part owner; for a connection annotation
    each side's explicit context component and a guess at its first step.
    """
    refs = {ElementRef.component(name) for name in inst.enclosing_components}
    if inst.kind is AnnotationKind.COMPONENT:
        return refs | {ElementRef.component(value) for value in inst.values}
    if inst.kind not in _CONNECTION_KINDS:
        for owner in _oracle_owners(inst):
            refs.add(ElementRef.component(owner))
            for value in inst.values:
                if inst.kind is AnnotationKind.PORT:
                    refs.add(ElementRef(RefKind.PORT, f"{owner}#{value}"))
                else:
                    refs.add(ElementRef(RefKind.PART, f"{owner}.{value}"))
        return refs
    for side in ("left", "right"):
        path = inst.attrs.get(side)
        if not path:
            continue
        context = _oracle_context(inst, side)
        if inst.attrs.get(f"{side}component"):
            refs.add(ElementRef.component(context))
        first, *rest = path.split(".")
        if context == "":
            if rest:
                refs.add(ElementRef.component(first))
            continue
        refs.add(ElementRef(RefKind.PART, f"{context}.{first}"))
        if not rest:
            refs.add(ElementRef(RefKind.PORT, f"{context}#{first}"))
    return refs


def _oracle_refs(model: ArchitectureModel, inst) -> set[ElementRef]:
    """Every element an instance references, given the architecture.

    Non-connection instances keep their syntactic refs; a connection
    instance adds each element its endpoint walks pass (the syntactic refs
    when a walk fails) and each declared connector it matches.
    """
    if inst.kind not in _CONNECTION_KINDS:
        return _oracle_syntactic(inst)
    refs = {ElementRef.component(name) for name in inst.enclosing_components}
    for side in ("left", "right"):
        path = inst.attrs.get(side)
        if not path:
            continue
        explicit = inst.attrs.get(f"{side}component")
        if explicit:
            refs.add(ElementRef.component(explicit))
        walked = _oracle_walk(model, _oracle_context(inst, side), path)
        refs |= walked if walked is not None else _oracle_syntactic(inst)
    refs.update(_oracle_connectors(model, inst))
    return refs


def _oracle_lookup(model: ArchitectureModel, code: CodeModel, ref: ElementRef) -> tuple:
    return tuple(inst for inst in code.instances if ref in _oracle_refs(model, inst))


def _with_odd_connections(rng: random.Random, code: CodeModel) -> CodeModel:
    """Add connection instances that fail to resolve or name their context."""
    extra = []
    for inst in code.instances:
        if inst.kind not in _CONNECTION_KINDS or rng.random() < 0.7:
            continue
        line = 10_000 + len(extra)
        if rng.random() < 0.5:
            attrs = {**inst.attrs, "right": "nowhere.x"}
        elif inst.enclosing_components:
            attrs = {**inst.attrs, "leftcomponent": inst.enclosing_components[0]}
        else:
            attrs = {**inst.attrs, "leftcomponent": "NoSuchContext"}
        extra.append(inst._replace(attrs=attrs, location=SourceLocation("gen/odd.java", line, 1)))
    return CodeModel.build(code.instances + tuple(extra), code.findings, code.config_fingerprint)


def test_criterion_3_lookup_impact_oracle() -> None:
    """lookup, connector_usages, lifecycle smells and plan impact vs brute force."""
    rng = random.Random(20261017)
    odd = random.Random(20261018)  # apart, so `rng` draws what it always drew
    plans = 0
    for _ in range(120):
        model = random_model(rng, max_components=rng.randint(2, 12))
        code = _with_odd_connections(rng, random_code_for(rng, model))
        code = with_odd_elements(odd, model, code)
        refs_of = [(inst, _oracle_refs(model, inst)) for inst in code.instances]
        wanted = set(list_elements(model)).union(*(refs for _, refs in refs_of))
        for ref in sorted(wanted, key=lambda r: r.sort_key()):
            expected = [inst for inst, refs in refs_of if ref in refs]
            assert lookup(code, ref, model) == expected, ref

        flagged = {}
        for conn in model.connectors:
            ref = ElementRef.connector(conn.context, conn.id)
            groups = {kind: [] for kind in _CONNECTION_KINDS}
            for inst, refs in refs_of:
                if inst.kind in _CONNECTION_KINDS and ref in refs:
                    groups[inst.kind].append(inst)
            usages = connector_usages(code, ref, model)
            assert list(usages.connects) == groups[AnnotationKind.CONNECTS]
            assert list(usages.disconnects) == groups[AnnotationKind.DISCONNECTS]
            assert list(usages.stores) == groups[AnnotationKind.CONNECTOR]
            lifecycle = groups[AnnotationKind.CONNECTS] + groups[AnnotationKind.DISCONNECTS]
            if len(groups[AnnotationKind.CONNECTS]) != 1 or len(groups[AnnotationKind.DISCONNECTS]) != 1:
                flagged[ref.path] = sorted(inst.location for inst in lifecycle)
        got = {f.element.path: list(f.locations) for f in smell_connector_lifecycle(model, code)}
        assert got == flagged

        ops, _ = random_op_sequence(rng, model, max_len=3)
        if not ops:
            continue
        _, report = apply_plan(model, RefactoringPlan("oracle", tuple(ops)), code)
        before = model
        for entry in report.entries:
            for ref in entry.touched:
                assert entry.instances[ref] == _oracle_lookup(before, code, ref), (entry.op, ref)
            before, _ = apply_op(before, entry.op)
        plans += 1
    assert plans >= 100


# --- 4. smell catalog --------------------------------------------------------


def test_criterion_4_smell_catalog(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    lifecycle = run_smells(car_arch, car_code)
    assert len(lifecycle) == 1
    assert lifecycle[0].check_id == "CONNECTOR_LIFECYCLE"
    assert "no disconnecting method" in lifecycle[0].message

    scatter_arch = parse_architecture((DATA / "scatter" / "scatter.arch").read_text())
    scatter_code = scan_tree([DATA / "scatter" / "src"])
    scattered = run_smells(scatter_arch, scatter_code)
    assert len(scattered) == 1
    assert scattered[0].check_id == "SCATTERED_COMPONENT"

    paired_arch = parse_architecture((DATA / "car_paired" / "car.arch").read_text())
    paired_code = scan_tree([DATA / "car_paired" / "src"])
    assert run_smells(paired_arch, paired_code) == []


# --- 5. the eleven-step plan -------------------------------------------------


def test_criterion_5_refactoring_plan(
    desktop_arch: ArchitectureModel, desktop_code: CodeModel
) -> None:
    plan = parse_plan((DATA / "desktop" / "desktop.plan").read_text(), name="desktop")
    census = Counter(type(op).__name__ for op in plan.ops)
    assert census == Counter(
        {
            "AddPort": 4,
            "AddConnector": 3,
            "RemoveConnector": 1,
            "RemovePort": 2,
            "SplitComponent": 1,
        }
    )

    out, report = apply_plan(desktop_arch, plan, desktop_code)
    assert len([c for c in out.components if out.is_top_level(c.name)]) == 2
    assert validate_model(out) == []

    fresh_code = scan_tree([DATA / "desktop" / "src"])
    current = desktop_arch
    for entry in report.entries:
        assert set(entry.instances.keys()) == set(entry.touched)
        for ref in entry.touched:
            assert entry.instances[ref] == tuple(lookup(fresh_code, ref, current))
        current, _ = apply_op(current, entry.op)
    assert current == out

    poison = AddPort("NoSuchComponentAnywhere", "p")
    before = serialize_architecture(desktop_arch)
    for k in range(1, len(plan.ops) + 1):
        broken = RefactoringPlan("broken", plan.ops[: k - 1] + (poison,))
        with pytest.raises(PlanError) as exc:
            apply_plan(desktop_arch, broken, desktop_code)
        assert exc.value.step == k
        assert serialize_architecture(desktop_arch) == before


# --- 6. operation algebra ----------------------------------------------------


def test_criterion_6_algebraic_properties() -> None:
    rng = random.Random(5151)
    sequences = 0
    inverse_checked = 0

    while inverse_checked < 260:
        model = random_model(rng)
        ops, _ = random_op_sequence(rng, model, max_len=1)
        sequences += 1
        if not ops:
            continue
        inverse = inverse_of(ops[0], model)
        if inverse is None:
            continue
        forward, _ = apply_op(model, ops[0])
        restored, _ = apply_op(forward, inverse)
        assert restored == model
        inverse_checked += 1

    fold_checked = 0
    while fold_checked < 260:
        model = random_model(rng)
        code = random_code_for(rng, model)
        ops, end = random_op_sequence(rng, model, max_len=4)
        sequences += 1
        if not ops:
            continue
        before = serialize_architecture(model)
        planned, report = apply_plan(model, RefactoringPlan("fold", tuple(ops)), code)
        folded = model
        for op in ops:
            folded, _ = apply_op(folded, op)
        assert planned == folded == end
        assert len(report.entries) == len(ops)
        assert serialize_architecture(model) == before
        fold_checked += 1

    assert sequences >= 500
    assert inverse_checked >= 260
    assert fold_checked >= 260


# --- 7. scaffold soundness ---------------------------------------------------


def test_criterion_7_scaffold_round_trip(tmp_path: Path) -> None:
    rng = random.Random(777)
    for case in range(50):
        model = random_model(rng)
        out_dir = tmp_path / f"case{case}"
        write_scaffold(model, out_dir)
        report = run_all(model, scan_tree([out_dir]))
        errors = [f for f in report.findings if f.severity.value == "ERROR"]
        assert errors == []


# --- 8. determinism ----------------------------------------------------------


def test_criterion_8_deterministic_output(capsys, tmp_path: Path) -> None:
    car = [
        "--arch", str(DATA / "car" / "car.arch"),
        "--src", str(DATA / "car" / "src"),
    ]

    def run(*argv: str) -> str:
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    first = run("extract", "--src", str(DATA / "car" / "src"), "--format", "json")
    second = run("extract", "--src", str(DATA / "car" / "src"), "--format", "json")
    assert first == second

    first = run("check", *car, "--format", "json")
    second = run("check", *car, "--format", "json")
    assert first == second

    # The scan merges files by sorting, so splitting one tree over two
    # roots changes neither the code model nor the report.
    vehicle = DATA / "car" / "src" / "vehicle"
    for root, names in (("r1", ("Car.java",)), ("r2", ("Engine.java", "Wheel.java"))):
        (tmp_path / root / "vehicle").mkdir(parents=True)
        for name in names:
            (tmp_path / root / "vehicle" / name).write_text((vehicle / name).read_text())
    roots = [tmp_path / "r2", tmp_path / "r1"]
    split = run(
        "check", "--arch", str(DATA / "car" / "car.arch"),
        "--src", str(roots[0]), "--src", str(roots[1]), "--format", "json",
    )
    assert split == first
    code_whole = scan_tree([DATA / "car" / "src"])
    code_split = scan_tree(roots)
    assert code_whole == code_split
    assert dump_code_model(code_whole) == dump_code_model(code_split)
