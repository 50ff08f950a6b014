import random
from collections import Counter
from pathlib import Path

import pytest

from archlint.adl import parse_architecture
from archlint.canonical import serialize_architecture
from archlint.annotations import CodeModel
from archlint.errors import (
    AdlParseError,
    PlanError,
    PlanParseError,
    PreconditionError,
    UnknownConnectorError,
)
from archlint.model import (
    ArchitectureModel,
    Component,
    Direction,
    ElementRef,
    EndpointPath,
    Part,
    Port,
    RefKind,
    list_elements,
    parse_ref,
    resolve_endpoint,
    validate_model,
)
from archlint.conformance import connector_usages, lookup
from archlint.refactor import (
    OPERATIONS,
    AddConnector,
    AddPort,
    MovePart,
    RefactoringOp,
    RefactoringPlan,
    RemoveConnector,
    RemovePort,
    RenameElement,
    SplitComponent,
    _ROW_OF,
    apply_op,
    apply_plan,
    op_text,
    parse_plan,
)
from archlint.scan import scan_tree
from modelgen import (
    _candidate_op,
    _random_endpoint,
    inverse_of,
    random_model,
    random_op_sequence,
)
import apply_grid
from plan_grid import grid_report

DATA = Path(__file__).parent / "data"


def _ep(text: str) -> EndpointPath:
    return EndpointPath.parse(text)


# --- plan parsing -----------------------------------------------------------


def test_parse_plan_every_op_form() -> None:
    text = """
    // wiring rework
    add-port(Model, sync)
    remove-port(Model, direct)
    add-connector(c9, System, model.sync, query.fetch, BIDIR)
    add-connector(c10, /, Client.out, Server.in, RIGHT)
    remove-connector(c1)
    rename-element(Model, Core)
    rename-element(Model.sub, child)
    rename-element(Query#fetch, pull)
    rename-element(System/c2, c2b)
    move-part(cache, Query, Store)
    split-component(System, Client, Server, ui=Client, store=Server)
    """
    plan = parse_plan(text, name="rework")
    assert plan.name == "rework"
    assert plan.ops == (
        AddPort("Model", "sync"),
        RemovePort("Model", "direct"),
        AddConnector("c9", "System", _ep("model.sync"), _ep("query.fetch"), Direction.BIDIR),
        AddConnector("c10", "", _ep("Client.out"), _ep("Server.in"), Direction.RIGHT),
        RemoveConnector("c1"),
        RenameElement(parse_ref("Model"), "Core"),
        RenameElement(parse_ref("Model.sub"), "child"),
        RenameElement(parse_ref("Query#fetch"), "pull"),
        RenameElement(parse_ref("System/c2"), "c2b"),
        MovePart("cache", "Query", "Store"),
        SplitComponent("System", "Client", "Server", {"ui": "Client", "store": "Server"}),
    )


def test_op_text_round_trips() -> None:
    ops = (
        AddPort("A", "p"),
        RemovePort("A", "p"),
        AddConnector("c", "", _ep("A.p"), _ep("B.q"), Direction.LEFT),
        AddConnector("c", "Sys", _ep("a.p"), _ep("b.q"), Direction.BIDIR),
        RemoveConnector("c"),
        RenameElement(parse_ref("A"), "B"),
        RenameElement(parse_ref("A.x"), "y"),
        RenameElement(parse_ref("A#p"), "q"),
        RenameElement(parse_ref("/c"), "d"),
        MovePart("x", "A", "B"),
        SplitComponent("S", "L", "R", {"a": "L", "b": "R", "p": "L"}),
    )
    rng = random.Random(53)
    drawn = [op for _ in range(500) for op in random_op_sequence(rng, random_model(rng))[0]]
    assert {type(op) for op in drawn} == {row.cls for row in OPERATIONS}
    for op in ops + tuple(drawn):
        assert parse_plan(op_text(op)).ops == (op,)


def test_every_operation_has_one_table_row() -> None:
    assert [row.cls for row in OPERATIONS] == RefactoringOp.__subclasses__()
    assert len({row.name for row in OPERATIONS}) == len(OPERATIONS)
    for row in OPERATIONS:
        rest = [arg.rest for arg in row.args]
        assert rest == [False] * (len(rest) - 1) + [bool(row.usage)]
        assert len(row.args) == len(row.cls._fields)


def test_plan_grid_matches_golden() -> None:
    golden = (DATA / "golden" / "plan_grid.golden.txt").read_text(encoding="utf-8")
    assert grid_report() == golden


def test_apply_grid_matches_golden() -> None:
    """Which steps `apply_op` accepts, what each touches and builds."""
    golden = (DATA / "golden" / "apply_grid.golden.txt").read_text(encoding="utf-8")
    assert apply_grid.grid_report() == golden


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no operations"),
        ("// only comments\n", "no operations"),
        ("warp-core(A)", "warp-core"),
        ("add-port(A)", "add-port"),
        ("add-port(A, p, q)", "add-port"),
        ("add-connector(c, S, a.p, b.q, SIDEWAYS)", "SIDEWAYS"),
        ("rename-element(Car..x, y)", "Car..x"),
        ("split-component(S, L, R, x)", "x"),
        ("split-component(S, L, R, a=L, a=R)", "line 1: duplicate member 'a'"),
        ("split-component(S, L, R, a=L, b=R, a=L)", "line 1: duplicate member 'a'"),
        ("add-port A p", "expected"),
    ],
)
def test_parse_plan_errors(text: str, fragment: str) -> None:
    with pytest.raises(PlanParseError) as exc:
        parse_plan(text)
    assert fragment in str(exc.value)


def test_plan_error_reports_one_based_line() -> None:
    with pytest.raises(PlanParseError) as exc:
        parse_plan("add-port(A, p)\nbogus(1)\n")
    assert "2" in str(exc.value)


# --- individual operations --------------------------------------------------


def test_add_port(car_arch: ArchitectureModel) -> None:
    out, touched = apply_op(car_arch, AddPort("Wheel", "axle"))
    assert out.component("Wheel").port("axle") is not None
    assert car_arch.component("Wheel").port("axle") is None
    assert touched == frozenset({parse_ref("Wheel#axle")})


@pytest.mark.parametrize(
    "op, fragment",
    [
        (AddPort("Nope", "p"), "Nope"),
        pytest.param(AddPort("Engine", "p"), "declared more than once", id="op1-already"),
        (AddPort("Engine", "9p"), "9p"),
    ],
)
def test_add_port_preconditions(car_arch: ArchitectureModel, op, fragment: str) -> None:
    with pytest.raises(PreconditionError) as exc:
        apply_op(car_arch, op)
    assert fragment in str(exc.value)


def test_remove_port(car_arch: ArchitectureModel) -> None:
    grown, _ = apply_op(car_arch, AddPort("Engine", "aux"))
    out, touched = apply_op(grown, RemovePort("Engine", "aux"))
    assert out == car_arch
    assert parse_ref("Engine#aux") in touched


def test_remove_port_refuses_attached(car_arch: ArchitectureModel) -> None:
    with pytest.raises(PreconditionError) as exc:
        apply_op(car_arch, RemovePort("Engine", "p"))
    assert "c1" in str(exc.value)
    with pytest.raises(PreconditionError):
        apply_op(car_arch, RemovePort("Engine", "ghost"))


def test_add_connector(desktop_arch: ArchitectureModel) -> None:
    op = AddConnector("c_new", "System", _ep("model.api"), _ep("store.io"), Direction.RIGHT)
    out, touched = apply_op(desktop_arch, op)
    conn = out.connector_by_id("c_new")
    assert conn is not None and conn.context == "System"
    assert validate_model(out) == []
    assert touched == frozenset({parse_ref("System/c_new")})


def test_add_connector_at_root() -> None:
    model = parse_architecture(
        "component A { port p; }\ncomponent B { port q; }"
    )
    op = AddConnector("link", "", _ep("A.p"), _ep("B.q"), Direction.BIDIR)
    out, _ = apply_op(model, op)
    assert out.connector_by_id("link").context == ""
    assert validate_model(out) == []


@pytest.mark.parametrize(
    "op, fragment",
    [
        pytest.param(
            AddConnector("c_qs", "System", _ep("model.api"), _ep("store.io"), Direction.LEFT),
            "declared more than once",
            id="op0-already exists",
        ),
        (AddConnector("cx", "Ghost", _ep("a"), _ep("b"), Direction.LEFT), "Ghost"),
        (AddConnector("cx", "System", _ep("model.zap"), _ep("store.io"), Direction.LEFT), "zap"),
        pytest.param(
            AddConnector("cx", "System", _ep("model.api"), _ep("model.api"), Direction.LEFT),
            "to itself",
            id="op3-both endpoints resolve",
        ),
        pytest.param(
            AddConnector("cx", "System", _ep("query.fetch"), _ep("store.io"), Direction.RIGHT),
            "duplicates an existing connector",
            id="op4-already declares this connection",
        ),
        (AddConnector("9c", "System", _ep("model.api"), _ep("store.io"), Direction.LEFT), "9c"),
    ],
)
def test_add_connector_preconditions(desktop_arch: ArchitectureModel, op, fragment: str) -> None:
    with pytest.raises(PreconditionError) as exc:
        apply_op(desktop_arch, op)
    assert fragment in str(exc.value)


def test_same_triple_allowed_in_other_context() -> None:
    model = parse_architecture(
        "component Shared { port p; port q; }\n"
        "component H1 { part s: Shared; connector k1: s.p <-> s.q; }\n"
        "component H2 { part s: Shared; }\n"
    )
    op = AddConnector("k2", "H2", _ep("s.p"), _ep("s.q"), Direction.BIDIR)
    out, _ = apply_op(model, op)
    assert validate_model(out) == []


def test_remove_connector(car_arch: ArchitectureModel) -> None:
    out, touched = apply_op(car_arch, RemoveConnector("c1"))
    assert out.connector_by_id("c1") is None
    assert parse_ref("Car/c1") in touched
    with pytest.raises(PreconditionError):
        apply_op(car_arch, RemoveConnector("nope"))


def test_rename_component_rewrites_references(desktop_arch: ArchitectureModel) -> None:
    out, touched = apply_op(desktop_arch, RenameElement(parse_ref("Model"), "Domain"))
    assert out.component("Model") is None
    assert out.component("Domain") is not None
    assert out.component("System").part("model").type_component == "Domain"
    assert validate_model(out) == []
    assert parse_ref("Model") in touched
    assert parse_ref("Domain") in touched


def test_rename_component_rewrites_context_and_root_paths() -> None:
    model = parse_architecture(
        "component A { port p; }\ncomponent B { port q; }\nconnector c: A.p -> B.q;"
    )
    out, _ = apply_op(model, RenameElement(parse_ref("A"), "Alpha"))
    conn = out.connector_by_id("c")
    assert str(conn.left) == "Alpha.p"
    assert validate_model(out) == []

    ctx = parse_architecture(
        "component Inner { port p; port q; }\n"
        "component Holder { part i: Inner; connector c: i.p <-> i.q; }"
    )
    renamed, _ = apply_op(ctx, RenameElement(parse_ref("Holder"), "Keeper"))
    assert renamed.connector_by_id("c").context == "Keeper"
    assert validate_model(renamed) == []


def test_rename_part_rewrites_endpoint_segments(desktop_arch: ArchitectureModel) -> None:
    out, _ = apply_op(desktop_arch, RenameElement(parse_ref("System.model"), "core"))
    system = out.component("System")
    assert system.part("model") is None
    assert system.part("core") is not None
    conn = out.connector_by_id("c_ui")
    assert str(conn.right) == "core.api"
    assert validate_model(out) == []


def test_rename_port_rewrites_paths(desktop_arch: ArchitectureModel) -> None:
    out, _ = apply_op(desktop_arch, RenameElement(parse_ref("Store#io"), "disk"))
    assert out.component("Store").port("disk") is not None
    conn = out.connector_by_id("c_qs")
    assert str(conn.right) == "store.disk"
    assert validate_model(out) == []


def test_rename_connector(desktop_arch: ArchitectureModel) -> None:
    out, _ = apply_op(desktop_arch, RenameElement(parse_ref("System/c_ui"), "c_view"))
    assert out.connector_by_id("c_ui") is None
    assert out.connector_by_id("c_view") is not None
    assert validate_model(out) == []


@pytest.mark.parametrize(
    "ref, new",
    [
        ("Model", "Query"),
        ("System.model", "query"),
        ("Query#fetch", "access"),
        ("System/c_ui", "c_qs"),
        ("Ghost", "X"),
        ("System.ghost", "x"),
        ("Model", "9bad"),
    ],
)
def test_rename_preconditions(desktop_arch: ArchitectureModel, ref: str, new: str) -> None:
    with pytest.raises(PreconditionError):
        apply_op(desktop_arch, RenameElement(parse_ref(ref), new))


def test_move_part() -> None:
    model = parse_architecture(
        "component A { part x: C; }\ncomponent B { }\ncomponent C { }"
    )
    out, touched = apply_op(model, MovePart("x", "A", "B"))
    assert out.component("A").part("x") is None
    moved = out.component("B").part("x")
    assert moved is not None and moved.type_component == "C"
    assert parse_ref("A.x") in touched
    assert parse_ref("B.x") in touched


def test_move_part_preconditions(car_arch: ArchitectureModel) -> None:
    with pytest.raises(PreconditionError):
        apply_op(car_arch, MovePart("ghost", "Car", "Wheel"))
    with pytest.raises(PreconditionError) as exc:
        apply_op(car_arch, MovePart("e", "Car", "Wheel"))
    assert "c1" in str(exc.value)


def test_split_component_desktop(desktop_arch: ArchitectureModel) -> None:
    op = SplitComponent(
        "System",
        "Client",
        "Server",
        {"ui": "Client", "model": "Client", "query": "Server", "store": "Server"},
    )
    out, touched = apply_op(desktop_arch, op)
    assert out.component("System") is None
    assert {c.name for c in out.components if out.is_top_level(c.name)} == {"Client", "Server"}
    assert {p.role for p in out.component("Client").parts} == {"ui", "model"}
    assert {p.role for p in out.component("Server").parts} == {"query", "store"}
    assert out.connector_by_id("c_ui").context == "Client"
    assert out.connector_by_id("c_qs").context == "Server"
    cross = out.connector_by_id("c_direct")
    assert cross.context == ""
    assert str(cross.left) == "Client.model.direct"
    assert str(cross.right) == "Server.query.access"
    assert validate_model(out) == []
    assert parse_ref("System") in touched
    assert parse_ref("Client") in touched
    assert parse_ref("Server") in touched


def test_split_rewrites_holder_parts() -> None:
    model = parse_architecture(
        "component T { port a; port b; }\n"
        "component Outer { part t: T; connector k: t.a -> t.b; }\n"
    )
    op = SplitComponent("T", "Ta", "Tb", {"a": "Ta", "b": "Tb"})
    out, _ = apply_op(model, op)
    outer = out.component("Outer")
    assert {p.role for p in outer.parts} == {"t_Ta", "t_Tb"}
    conn = out.connector_by_id("k")
    assert str(conn.left) == "t_Ta.a"
    assert str(conn.right) == "t_Tb.b"
    assert validate_model(out) == []


def test_split_multi_holder_duplicates_connectors() -> None:
    model = parse_architecture(
        "component T { port a; port b; }\n"
        "component O1 { part t: T; }\n"
        "component O2 { part u: T; }\n"
        "component S { part o1: O1; part o2: O2; }\n"
        "component R { connector k: x.a <-> x.b; part x: T; }\n"
    )
    op = SplitComponent("T", "Ta", "Tb", {"a": "Ta", "b": "Tb"})
    out, _ = apply_op(model, op)
    assert out.component("R").part("x_Ta") is not None
    assert out.connector_by_id("k").context == "R"
    assert validate_model(out) == []


@pytest.mark.parametrize(
    "op, fragment",
    [
        (SplitComponent("Ghost", "A", "B", {}), "Ghost"),
        (SplitComponent("System", "Client", "Server", {"ui": "Client"}), "partition"),
        (
            SplitComponent(
                "System",
                "Client",
                "Server",
                {"ui": "Client", "model": "Client", "query": "Server", "store": "Elsewhere"},
            ),
            "Elsewhere",
        ),
        (
            SplitComponent(
                "System",
                "Model",
                "Server",
                {"ui": "Model", "model": "Model", "query": "Server", "store": "Server"},
            ),
            "Model",
        ),
        pytest.param(
            SplitComponent(
                "System",
                "Same",
                "Same",
                {"ui": "Same", "model": "Same", "query": "Same", "store": "Same"},
            ),
            "declared more than once",
            id="op4-differ",
        ),
    ],
)
def test_split_preconditions(desktop_arch: ArchitectureModel, op, fragment: str) -> None:
    with pytest.raises(PreconditionError) as exc:
        apply_op(desktop_arch, op)
    assert fragment in str(exc.value)


def test_split_rejects_terminal_part_endpoint() -> None:
    model = parse_architecture(
        "component T { port a; }\n"
        "component W { port w; }\n"
        "component Outer { part t: T; part v: W;"
        " connector bad: t <-> v.w; }\n"
    )
    with pytest.raises(PreconditionError) as exc:
        apply_op(model, SplitComponent("T", "Ta", "Tb", {"a": "Ta"}))
    assert "bad" in str(exc.value)


_SHADOWING = (
    "component T { port a; }\n"
    "component W { port w; }\n"
    "component X { }\n"
    "component Outer { part t: T; part v: W; connector c: t <-> v.w; }\n"
)


def _with_port_t(model: ArchitectureModel) -> ArchitectureModel:
    """`model` with a port `t` in `Outer`, beside its part `t`; built by
    hand, as `parse_architecture` refuses it."""
    return model._replace(components=tuple(
        c._replace(ports=(Port("t"),)) if c.name == "Outer" else c for c in model.components
    ))


def test_split_rejects_terminal_part_endpoint_shadowing_a_port() -> None:
    # Once part t is split, the path `t` would resolve to port t, and the
    # result would validate: the gate refuses the ill-formed input instead.
    model = _with_port_t(parse_architecture(_SHADOWING))
    with pytest.raises(PreconditionError) as exc:
        apply_op(model, SplitComponent("T", "Ta", "Tb", {"a": "Ta"}))
    assert exc.value.reason == (
        "input model is not well-formed: part role 't' is also a port name in 'Outer'"
    )
    assert exc.value.ref == parse_ref("Outer.t")


def test_a_part_and_a_port_of_one_name_never_meet_a_step() -> None:
    """A part that leaves a component with a port of its name would hand
    each endpoint that ended at the part to the port. No model holds that
    pair: the parser refuses it, the gate refuses a step that would build
    it, and the gate refuses to move the part out of a model built by hand."""
    with pytest.raises(AdlParseError, match="part role 't' is also a port name in 'Outer'") as exc:
        parse_architecture(_SHADOWING.replace("{ part t", "{ port t; part t"))
    assert (exc.value.line, exc.value.column) == (4, 32)  # the role of part `t`
    model = parse_architecture(_SHADOWING)
    with pytest.raises(PreconditionError) as exc:
        apply_op(model, AddPort("Outer", "t"))
    assert exc.value.reason == (
        "resulting model is not well-formed: part role 't' is also a port name in 'Outer'"
    )
    assert exc.value.ref == parse_ref("Outer.t")
    shadowed = _with_port_t(model)
    move = MovePart("t", "Outer", "X")
    moved = _ROW_OF[MovePart].apply(shadowed, move)
    assert moved.validation == ()  # the result alone shows nothing wrong
    assert resolve_endpoint(moved, "Outer", "t") == parse_ref("Outer#t")
    with pytest.raises(PreconditionError) as exc:
        apply_op(shadowed, move)
    assert exc.value.reason.startswith("input model is not well-formed: part role 't'")
    with pytest.raises(PreconditionError) as exc:
        apply_op(model, move)
    assert exc.value.ref == parse_ref("Outer/c")


@pytest.mark.parametrize(
    "model, op, reason, ref",
    [
        (
            "desktop",
            RenameElement(parse_ref("Model#ghost"), "x"),
            "no port 'ghost' in 'Model'",
            parse_ref("Model#ghost"),
        ),
        (
            "desktop",
            RenameElement(parse_ref("System/ghost"), "x"),
            "no connector 'System/ghost'",
            parse_ref("System/ghost"),
        ),
        pytest.param(
            parse_architecture("component A { part x: C; }\ncomponent B { part x: C; }\ncomponent C { }"),
            MovePart("x", "A", "B"),
            "resulting model is not well-formed: part role 'x' declared more than once in 'B'",
            parse_ref("B.x"),
            id="model2-op2-part 'x' already held by the target",
        ),
        (
            "desktop",
            SplitComponent(
                "System", "9Client", "Server",
                {"ui": "9Client", "model": "9Client", "query": "Server", "store": "Server"},
            ),
            "invalid component name '9Client'",
            None,
        ),
        (
            "desktop",
            SplitComponent(
                "System", "Client", "Server",
                {"ui": "Client", "model": "Client", "query": "Server", "store": "Server",
                 "ghost": "Server"},
            ),
            "partition must cover exactly the target's parts and ports (not members: ghost)",
            None,
        ),
        pytest.param(
            parse_architecture(
                "component T { port a; port b; }\n"
                "component X { }\n"
                "component Outer { part t: T; part t_Ta: X; }\n"
            ),
            SplitComponent("T", "Ta", "Tb", {"a": "Ta", "b": "Tb"}),
            "resulting model is not well-formed: part role 't_Ta' declared more than once in 'Outer'",
            parse_ref("Outer.t_Ta"),
            id="model5-op5-replacement part role collides",
        ),
        # The refusals validation cannot make: each result would validate.
        ("desktop", RenameElement(parse_ref("Model"), "Model"), "the step changes nothing", None),
        ("desktop", MovePart("model", "System", "System"), "the step changes nothing", None),
        (
            "desktop",
            SplitComponent(
                "System", "System", "Server",
                {"ui": "System", "model": "System", "query": "Server", "store": "Server"},
            ),
            "a half cannot keep the target's name 'System'",
            parse_ref("System"),
        ),
    ],
)
def test_unreached_preconditions_give_their_reason_and_ref(
    desktop_arch: ArchitectureModel, model, op, reason: str, ref
) -> None:
    with pytest.raises(PreconditionError) as exc:
        apply_op(desktop_arch if model == "desktop" else model, op)
    assert exc.value.reason == reason
    assert exc.value.ref == ref


# Each operation's refusal of a step that names an element the desktop
# architecture does not declare: (op, reason, ref path or None).
_MISSING = [
    (AddPort("Ghost", "p"), "unknown component 'Ghost'", "Ghost"),
    (RemovePort("Ghost", "api"), "unknown component 'Ghost'", "Ghost"),
    (RemovePort("Model", "ghost"), "no port 'ghost' in 'Model'", "Model#ghost"),
    (
        AddConnector("c9", "Ghost", _ep("a.p"), _ep("b.q"), Direction.LEFT),
        "resulting model is not well-formed: connector 'c9' declared in unknown component 'Ghost'",
        "Ghost/c9",
    ),
    (
        AddConnector("c9", "System", _ep("ghost.api"), _ep("query.access"), Direction.LEFT),
        "resulting model is not well-formed: connector 'c9': cannot resolve 'ghost.api' in "
        "context System: no part 'ghost' in component 'System'",
        "System/c9",
    ),
    (
        AddConnector("c9", "System", _ep("model.ghost"), _ep("query.access"), Direction.LEFT),
        "resulting model is not well-formed: connector 'c9': cannot resolve 'model.ghost' in "
        "context System: no port or part 'ghost' in component 'Model'",
        "System/c9",
    ),
    (RemoveConnector("ghost"), "no connector with id 'ghost'", None),
    (SplitComponent("Ghost", "A", "B", {}), "unknown component 'Ghost'", "Ghost"),
    (RenameElement(parse_ref("Ghost"), "X"), "unknown component 'Ghost'", "Ghost"),
    (RenameElement(parse_ref("Ghost.model"), "x"), "unknown component 'Ghost'", "Ghost"),
    (RenameElement(parse_ref("Ghost#api"), "x"), "unknown component 'Ghost'", "Ghost"),
    (RenameElement(parse_ref("Ghost/c_ui"), "x"), "no connector 'Ghost/c_ui'", "Ghost/c_ui"),
    (RenameElement(parse_ref("System.ghost"), "x"), "no part 'ghost' in 'System'", "System.ghost"),
    (RenameElement(parse_ref("Model#ghost"), "x"), "no port 'ghost' in 'Model'", "Model#ghost"),
    (RenameElement(parse_ref("System/ghost"), "x"), "no connector 'System/ghost'", "System/ghost"),
    (RenameElement(parse_ref("/c_ui"), "x"), "no connector '/c_ui'", "/c_ui"),
    (MovePart("model", "Ghost", "Phantom"), "unknown component 'Ghost'", "Ghost"),
    (MovePart("ghost", "System", "Phantom"), "unknown component 'Phantom'", "Phantom"),
    (MovePart("ghost", "System", "Model"), "no part 'ghost' in 'System'", "System.ghost"),
]


@pytest.mark.parametrize("op, reason, ref", _MISSING, ids=[op_text(case[0]) for case in _MISSING])
def test_a_missing_element_is_refused_with_its_reason_and_ref(
    desktop_arch: ArchitectureModel, op, reason: str, ref: str | None
) -> None:
    """Every operation refuses a step that names an element the input does
    not declare: an unknown component, an unknown owner of a part, port or
    connector, or a missing part, port or connector. A move checks its
    source, then its target, then the part."""
    with pytest.raises(PreconditionError) as exc:
        apply_op(desktop_arch, op)
    assert exc.value.reason == reason
    assert exc.value.ref == (None if ref is None else parse_ref(ref))


def test_post_validation_names_the_breakage(car_arch: ArchitectureModel) -> None:
    with pytest.raises(PreconditionError) as exc:
        apply_op(car_arch, MovePart("e", "Car", "Wheel"))
    msg = str(exc.value)
    assert "not well-formed" in msg
    assert "c1" in msg


def test_apply_op_never_mutates_input(car_arch: ArchitectureModel) -> None:
    before = serialize_architecture(car_arch)
    apply_op(car_arch, AddPort("Wheel", "axle"))
    with pytest.raises(PreconditionError):
        apply_op(car_arch, RemovePort("Engine", "p"))
    assert serialize_architecture(car_arch) == before


# --- plans and impact -------------------------------------------------------


def test_apply_plan_happy_path(
    desktop_arch: ArchitectureModel, desktop_code: CodeModel
) -> None:
    plan = parse_plan((DATA / "desktop" / "desktop.plan").read_text(), name="desktop")
    out, report = apply_plan(desktop_arch, plan, desktop_code)
    assert {c.name for c in out.components if out.is_top_level(c.name)} == {"Client", "Server"}
    assert validate_model(out) == []
    assert report.plan_name == "desktop"
    assert [e.step for e in report.entries] == list(range(1, 12))
    assert [e.op for e in report.entries] == list(plan.ops)


def test_apply_plan_failure_is_atomic(
    desktop_arch: ArchitectureModel, desktop_code: CodeModel
) -> None:
    before = serialize_architecture(desktop_arch)
    plan = RefactoringPlan(
        "bad",
        (
            AddPort("Model", "tmp"),
            RemovePort("Model", "api"),
        ),
    )
    with pytest.raises(PlanError) as exc:
        apply_plan(desktop_arch, plan, desktop_code)
    assert exc.value.step == 2
    assert "step 2" in str(exc.value)
    assert serialize_architecture(desktop_arch) == before


def test_impact_lists_annotations_of_pre_step_model(
    car_arch: ArchitectureModel, car_code: CodeModel
) -> None:
    plan = RefactoringPlan("drop", (RemoveConnector("c1"),))
    _, report = apply_plan(car_arch, plan, car_code)
    entry = report.entries[0]
    ref = parse_ref("Car/c1")
    assert ref in entry.touched
    hits = entry.instances[ref]
    assert len(hits) == 1
    assert hits[0].kind.value == "Connects"


def test_impact_includes_traversal_matches(
    car_arch: ArchitectureModel, car_code: CodeModel
) -> None:
    grown, _ = apply_op(car_arch, AddPort("Wheel", "hub"))
    plan = RefactoringPlan("probe", (RemovePort("Engine", "ghost"),))
    with pytest.raises(PlanError):
        apply_plan(grown, plan, car_code)


_WIRED_ARCH = """\
component Car {
    part e: Engine;
    part w: Wheel;
    connector c1: e.p -> w.h;
}
component Engine { port p; }
component Wheel { port h; }
"""


def _wired_code(tmp_path: Path, *pragmas: str) -> CodeModel:
    (tmp_path / "Car.txt").write_text("".join(f"// @arch {p}\n" for p in pragmas))
    return scan_tree([tmp_path])


def _assert_pre_step_lookups(model: ArchitectureModel, report, code: CodeModel) -> None:
    """Each entry lists, for every touched ref, the lookup against the model
    before that step."""
    for entry in report.entries:
        for ref in entry.touched:
            assert list(entry.instances[ref]) == lookup(code, ref, model), (entry.step, ref)
        model, _ = apply_op(model, entry.op)


def test_impact_of_a_ref_touched_in_two_steps(tmp_path: Path) -> None:
    arch = parse_architecture(_WIRED_ARCH)
    code = _wired_code(
        tmp_path,
        'Port("q") @on method q @in Engine',
        'Port("r") @on method r @in Engine',
        'Connects(left="e.q", right="w.h", type=RIGHT) @on method link @in Car',
    )
    plan = parse_plan("add-port(Engine, q)\nrename-element(Engine#q, r)")
    _, report = apply_plan(arch, plan, code)
    q, r = parse_ref("Engine#q"), parse_ref("Engine#r")
    port_q, port_r, link = code.instances
    # `e.q` walks to Engine#q only once the port exists; before that the
    # syntactic reading of the path names Car.e and Car#e.
    assert report.entries[0].instances[q] == (port_q,)
    assert report.entries[1].instances[q] == (port_q, link)
    assert report.entries[1].instances[r] == (port_r,)
    _assert_pre_step_lookups(arch, report, code)


def test_impact_follows_a_connection_a_rename_redirects(tmp_path: Path) -> None:
    arch = parse_architecture(_WIRED_ARCH)
    code = _wired_code(
        tmp_path,
        'Connects(left="e.p", right="w.h", type=RIGHT) @on method old @in Car',
        'Connects(left="motor.p", right="w.h", type=RIGHT) @on method new @in Car',
    )
    plan = parse_plan("rename-element(Car.e, motor)\nremove-connector(c1)")
    _, report = apply_plan(arch, plan, code)
    old, new = code.instances
    c1 = parse_ref("Car/c1")
    assert lookup(code, c1, arch) == [old]
    # Before the rename, `motor.p` does not walk and is read syntactically.
    assert report.entries[0].instances[parse_ref("Car.e")] == (old,)
    assert report.entries[0].instances[parse_ref("Car.motor")] == (new,)
    # After it, `motor.p` resolves to c1 and `e.p` no longer does.
    assert report.entries[1].instances[c1] == (new,)
    _assert_pre_step_lookups(arch, report, code)


# --- lookup -----------------------------------------------------------------


def test_lookup_part(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    hits = lookup(car_code, parse_ref("Car.rear"), car_arch)
    kinds = sorted(i.kind.value for i in hits)
    assert kinds == ["AddPart", "Connects", "Part"]


def test_lookup_port_via_traversal(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    hits = lookup(car_code, parse_ref("Engine#p"), car_arch)
    kinds = sorted(i.kind.value for i in hits)
    assert kinds == ["Connects", "Port"]


def test_lookup_component(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    hits = lookup(car_code, parse_ref("Engine"), car_arch)
    kinds = sorted(i.kind.value for i in hits)
    assert kinds == ["Component", "Port"]

    car_hits = lookup(car_code, parse_ref("Car"), car_arch)
    assert len(car_hits) == 6


def test_lookup_connector(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    hits = lookup(car_code, parse_ref("Car/c1"), car_arch)
    assert [i.kind.value for i in hits] == ["Connects"]


def test_lookup_unknown_ref_is_empty(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    assert lookup(car_code, parse_ref("Wheel#rim"), car_arch) == []


def test_lookup_preserves_location_order(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    hits = lookup(car_code, parse_ref("Car"), car_arch)
    locations = [i.location for i in hits]
    assert locations == sorted(locations)


# --- connector usages -------------------------------------------------------


def test_connector_usages_car(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    usages = connector_usages(car_code, parse_ref("Car/c1"), car_arch)
    assert len(usages.connects) == 1
    assert usages.disconnects == ()
    assert usages.stores == ()


def test_connector_usages_paired(car_arch: ArchitectureModel) -> None:
    code = scan_tree([DATA / "car_paired" / "src"])
    usages = connector_usages(code, parse_ref("Car/c1"), car_arch)
    assert len(usages.connects) == 1
    assert len(usages.disconnects) == 1


def test_connector_usages_counts_stores(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    (tmp_path / "Car.java").write_text(
        'public @Component("Car") class Car {\n'
        '    private @Connector(left="rear", right="e.p", type="LEFT") Object wire;\n'
        "}\n"
    )
    code = scan_tree([tmp_path])
    usages = connector_usages(code, parse_ref("Car/c1"), car_arch)
    assert len(usages.stores) == 1
    assert usages.connects == ()


def test_connector_usages_rejects_non_connector(
    car_arch: ArchitectureModel, car_code: CodeModel
) -> None:
    with pytest.raises(UnknownConnectorError):
        connector_usages(car_code, parse_ref("Car.rear"), car_arch)
    with pytest.raises(UnknownConnectorError):
        connector_usages(car_code, parse_ref("Car/ghost"), car_arch)


# --- randomized properties --------------------------------------------------


def test_random_ops_preserve_validity() -> None:
    rng = random.Random(97)
    for _ in range(40):
        model = random_model(rng)
        ops, end = random_op_sequence(rng, model)
        assert validate_model(end) == []
        if ops:
            replay = model
            for op in ops:
                replay, _ = apply_op(replay, op)
            assert replay == end


def test_random_endpoint_stops_at_a_part_of_undeclared_type() -> None:
    broken = ArchitectureModel(
        (Component("A", parts=(Part("p", "Undeclared"),)), Component("B", ports=(Port("q"),)))
    )
    drawn = [_random_endpoint(random.Random(seed), broken, "A") for seed in range(40)]
    assert None in drawn
    assert {path.segments for path in drawn if path is not None} == {("p",)}


def test_a_step_touches_what_it_creates_or_deletes() -> None:
    """Every step of 1,000 seeded `random_op_sequence` chains touches
    exactly the elements declared in one of its two models."""
    rng = random.Random(307)
    applied: Counter = Counter()
    for _ in range(1000):
        model = random_model(rng)
        ops, _ = random_op_sequence(rng, model)
        for op in ops:
            new_model, touched = apply_op(model, op)
            assert touched == frozenset(list_elements(model) ^ list_elements(new_model)), op_text(op)
            applied[type(op)] += 1
            model = new_model
    assert min(applied[row.cls] for row in OPERATIONS) >= 100, applied


def test_split_does_not_touch_a_connector_it_reroutes(tmp_path: Path) -> None:
    arch = parse_architecture(
        "component T { port a; port b; }\n"
        "component W { port w; }\n"
        "component Outer { part t: T; part v: W; connector k: t.a -> v.w; }\n"
    )
    code = _wired_code(tmp_path, 'Connects(left="t.a", right="v.w", type=RIGHT) @on method link @in Outer')
    plan = parse_plan("split-component(T, Ta, Tb, a=Ta, b=Tb)")
    out, report = apply_plan(arch, plan, code)
    assert str(out.connector_by_id("k").left) == "t_Ta.a"
    (entry,) = report.entries
    assert parse_ref("Outer/k") not in entry.touched
    assert entry.instances[parse_ref("Outer.t")] == code.instances
    _assert_pre_step_lookups(arch, report, code)


def test_inverse_ops_restore_model() -> None:
    rng = random.Random(131)
    checked = 0
    for _ in range(60):
        model = random_model(rng)
        ops, _ = random_op_sequence(rng, model, max_len=1)
        if not ops:
            continue
        op = ops[0]
        inverse = inverse_of(op, model)
        if inverse is None:
            continue
        forward, _ = apply_op(model, op)
        restored, _ = apply_op(forward, inverse)
        assert restored == model
        checked += 1
    assert checked >= 20


def _image(op: RenameElement | SplitComponent, endpoint: ElementRef) -> ElementRef:
    """The part or port `endpoint` becomes under `op`: the renamed element, a
    member of the renamed component, or a split member on its partition side."""
    owner, member = endpoint.split()
    member_of = ElementRef.part if endpoint.kind is RefKind.PART else ElementRef.port
    if isinstance(op, SplitComponent):
        return member_of(op.partition[member], member) if owner == op.target else endpoint
    if op.ref.kind is RefKind.COMPONENT:
        return member_of(op.new_name, member) if owner == op.ref.path else endpoint
    return member_of(owner, op.new_name) if endpoint == op.ref else endpoint


def test_rename_and_split_keep_every_endpoints_meaning() -> None:
    rng = random.Random(211)
    applied: Counter = Counter()
    for _ in range(300):
        model = random_model(rng)
        for _ in range(6):
            op = _candidate_op(rng, model)
            if not isinstance(op, (RenameElement, SplitComponent)):
                continue
            try:
                new_model, _ = apply_op(model, op)
            except PreconditionError as err:
                # A fresh name always applies. A split refuses a connector it
                # would duplicate, or one with an endpoint that ends at a holder
                # part, since that part is gone and the endpoint resolves to
                # nothing in the result.
                assert isinstance(op, SplitComponent), op_text(op)
                if "duplicates" not in err.reason:
                    assert "cannot resolve" in err.reason, err
                    conn = model.connector_by_id(err.ref.split()[1])
                    ends = [resolve_endpoint(model, conn.context, p) for p in (conn.left, conn.right)]
                    assert any(
                        end.kind is RefKind.PART
                        and model.component(end.split()[0]).part(end.split()[1]).type_component
                        == op.target
                        for end in ends
                    ), err
                continue
            applied[type(op)] += 1
            for conn in model.connectors:
                if isinstance(op, SplitComponent) and conn.context == op.target:
                    continue
                cid = conn.id
                if isinstance(op, RenameElement) and op.ref == ElementRef.connector(conn.context, cid):
                    cid = op.new_name
                new_conn = new_model.connector_by_id(cid)
                assert new_conn.direction is conn.direction
                for old_path, new_path in ((conn.left, new_conn.left), (conn.right, new_conn.right)):
                    before = resolve_endpoint(model, conn.context, old_path)
                    after = resolve_endpoint(new_model, new_conn.context, new_path)
                    assert after == _image(op, before), (op_text(op), conn, new_conn)
    assert applied[RenameElement] >= 100, applied
    assert applied[SplitComponent] >= 50, applied


def test_rename_component_keeps_untouched_components() -> None:
    """Only the renamed component and those with a part of its type are
    rebuilt; every other component is passed through as the same object."""
    rng = random.Random(1818)
    renames = 0
    for _ in range(200):
        model = random_model(rng)
        comp = rng.choice(model.components)
        new_model, _ = apply_op(model, RenameElement(ElementRef.component(comp.name), "Renamed"))
        for old in model.components:
            if old.name == comp.name:
                continue
            new = new_model.component(old.name)
            if any(p.type_component == comp.name for p in old.parts):
                assert new is not old
                assert [p.type_component for p in new.parts] == [
                    "Renamed" if p.type_component == comp.name else p.type_component
                    for p in old.parts
                ]
            else:
                assert new is old, old.name
        renames += 1
    assert renames == 200
