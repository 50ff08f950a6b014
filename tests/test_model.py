import random

import pytest

from archlint.errors import EndpointError
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
    canonical_triple,
    flip,
    is_identifier,
    list_elements,
    normalize_connector,
    parse_ref,
    resolve_endpoint,
    validate_model,
    walk_endpoint,
)
from modelgen import random_model


def test_parse_ref_component() -> None:
    ref = parse_ref("Car")
    assert ref == ElementRef.component("Car")
    assert ref.kind is RefKind.COMPONENT


def test_parse_ref_part() -> None:
    ref = parse_ref("Car.rear")
    assert ref == ElementRef.part("Car", "rear")
    assert ref.kind is RefKind.PART


def test_parse_ref_port() -> None:
    ref = parse_ref("Engine#p")
    assert ref == ElementRef.port("Engine", "p")
    assert ref.kind is RefKind.PORT


def test_parse_ref_connector() -> None:
    ref = parse_ref("Car/c1")
    assert ref == ElementRef.connector("Car", "c1")
    assert ref.kind is RefKind.CONNECTOR


def test_parse_ref_root_connector() -> None:
    ref = parse_ref("/c9")
    assert ref.kind is RefKind.CONNECTOR
    assert ref.path == "/c9"


@pytest.mark.parametrize(
    "bad",
    ["", "Car..x", "9x", "Car.rear.z", "Car#", "#p", "Car.", "a-b", "Car/c1/c2", "Car rear"],
)
def test_parse_ref_rejects_malformed(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_ref(bad)


def test_parse_ref_round_trips_path() -> None:
    for text in ("Car", "Car.rear", "Engine#p", "Car/c1", "/root_conn"):
        assert parse_ref(text).path == text


def test_is_identifier() -> None:
    assert is_identifier("Car")
    assert is_identifier("_x9")
    assert not is_identifier("")
    assert not is_identifier("9x")
    assert not is_identifier("a.b")
    assert not is_identifier("a-b")


def test_multiplicity_validity() -> None:
    assert Multiplicity(1, 1).is_valid()
    assert Multiplicity(0, None).is_valid()
    assert Multiplicity(2, 2).is_valid()
    assert not Multiplicity(3, 2).is_valid()
    assert not Multiplicity(-1, 1).is_valid()


def test_endpoint_path_parse() -> None:
    assert EndpointPath.parse("e.p").segments == ("e", "p")
    assert EndpointPath.parse("rear").segments == ("rear",)
    with pytest.raises(ValueError):
        EndpointPath.parse("e..p")
    with pytest.raises(ValueError):
        EndpointPath.parse("")


def test_endpoint_path_str() -> None:
    assert str(EndpointPath.parse("a.b.c")) == "a.b.c"


def test_resolve_endpoint_part(car_arch: ArchitectureModel) -> None:
    ref = resolve_endpoint(car_arch, "Car", "rear")
    assert ref == ElementRef.part("Car", "rear")


def test_resolve_endpoint_port_through_part(car_arch: ArchitectureModel) -> None:
    ref = resolve_endpoint(car_arch, "Car", "e.p")
    assert ref == ElementRef.port("Engine", "p")


def test_resolve_endpoint_unknown_port(car_arch: ArchitectureModel) -> None:
    with pytest.raises(EndpointError):
        resolve_endpoint(car_arch, "Car", "e.q")


def test_resolve_endpoint_direct_port(car_arch: ArchitectureModel) -> None:
    ref = resolve_endpoint(car_arch, "Engine", "p")
    assert ref == ElementRef.port("Engine", "p")


def test_resolve_endpoint_unknown_context(car_arch: ArchitectureModel) -> None:
    with pytest.raises(EndpointError):
        resolve_endpoint(car_arch, "Boat", "rear")


def test_resolve_endpoint_part_is_terminal(car_arch: ArchitectureModel) -> None:
    with pytest.raises(EndpointError):
        resolve_endpoint(car_arch, "Car", "rear.p")


_CAR = ElementRef.component("Car")


@pytest.mark.parametrize(
    "context, path, walked, reason",
    [
        ("Boat", "rear", (), "unknown context component 'Boat'"),
        ("", "Engine.p", (), "'Engine' is not a top-level component"),
        ("", "Car", (_CAR,), "path ends at a component, not a part or port"),
        ("A", "x.p", (ElementRef.part("A", "x"),), "part 'x' has undeclared type 'Ghost'"),
        ("", "Car.e.q", (_CAR, ElementRef.part("Car", "e")), "no port or part 'q' in component 'Engine'"),
        ("Car", "e.p.q", (ElementRef.part("Car", "e"),), "no part 'p' in component 'Engine'"),
    ],
)
def test_endpoint_error_carries_the_walked_prefix(
    car_arch: ArchitectureModel, context: str, path: str, walked: tuple, reason: str
) -> None:
    ghost = Component("A", parts=(Part("x", "Ghost"),))
    model = ArchitectureModel(car_arch.components + (ghost,), car_arch.connectors)
    with pytest.raises(EndpointError) as caught:
        walk_endpoint(model, context, path)
    assert caught.value.walked == walked
    assert caught.value.reason == reason


def test_walk_endpoint_returns_each_segments_element(car_arch: ArchitectureModel) -> None:
    assert walk_endpoint(car_arch, "", "Car.e.p") == (
        _CAR, ElementRef.part("Car", "e"), ElementRef.port("Engine", "p")
    )


def test_normalize_swap_flips_direction() -> None:
    left = ElementRef.port("Engine", "p")
    right = ElementRef.part("Car", "rear")
    nl, nr, nd = normalize_connector(left, right, Direction.RIGHT)
    assert (nl, nr, nd) == (right, left, Direction.LEFT)


def test_normalize_keeps_sorted_order() -> None:
    left = ElementRef.part("Car", "rear")
    right = ElementRef.port("Engine", "p")
    assert normalize_connector(left, right, Direction.BIDIR) == (left, right, Direction.BIDIR)


def test_normalize_is_idempotent_and_symmetric() -> None:
    rng = random.Random(11)
    makers = [
        lambda c, n: ElementRef.part(c, n),
        lambda c, n: ElementRef.port(c, n),
        lambda c, n: ElementRef.component(c + n),
    ]
    for _ in range(300):
        a = rng.choice(makers)(rng.choice("ABC"), rng.choice("xyz"))
        b = rng.choice(makers)(rng.choice("ABC"), rng.choice("xyz"))
        d = rng.choice(list(Direction))
        once = normalize_connector(a, b, d)
        assert normalize_connector(*once) == once
        assert normalize_connector(b, a, flip(d)) == once


def test_flip() -> None:
    assert flip(Direction.LEFT) is Direction.RIGHT
    assert flip(Direction.RIGHT) is Direction.LEFT
    assert flip(Direction.BIDIR) is Direction.BIDIR


def test_canonical_triple_car(car_arch: ArchitectureModel) -> None:
    conn = car_arch.connector_by_id("c1")
    assert conn is not None
    assert canonical_triple(car_arch, conn) == ("Car.rear", "Engine#p", Direction.LEFT)


def test_list_elements_car(car_arch: ArchitectureModel) -> None:
    got = {ref.path for ref in list_elements(car_arch)}
    assert got == {"Car", "Wheel", "Engine", "Car.rear", "Car.e", "Engine#p", "Car/c1"}


def test_list_elements_empty() -> None:
    assert list_elements(ArchitectureModel()) == set()


def test_list_elements_cardinality() -> None:
    rng = random.Random(23)
    for _ in range(50):
        model = random_model(rng)
        expected = (
            len(model.components)
            + sum(len(c.parts) for c in model.components)
            + sum(len(c.ports) for c in model.components)
            + len(model.connectors)
        )
        assert len(list_elements(model)) == expected


def test_top_level_components(car_arch: ArchitectureModel) -> None:
    assert {c.name for c in car_arch.components if car_arch.is_top_level(c.name)} == {"Car"}
    assert car_arch.is_top_level("Car")
    assert not car_arch.is_top_level("Engine")


def test_validate_clean_car(car_arch: ArchitectureModel) -> None:
    assert validate_model(car_arch) == []


def _conn(id: str, context: str, left: str, right: str, d: Direction = Direction.BIDIR) -> Connector:
    return Connector(id, context, EndpointPath.parse(left), EndpointPath.parse(right), d)


def test_validate_duplicate_component() -> None:
    model = ArchitectureModel(components=(Component("A"), Component("A")))
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["DUPLICATE_COMPONENT"]


def test_validate_duplicate_port() -> None:
    model = ArchitectureModel(components=(Component("A", ports=(Port("p"), Port("p"))),))
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["DUPLICATE_PORT"]


def test_validate_duplicate_part_role() -> None:
    model = ArchitectureModel(
        components=(
            Component("Car", parts=(Part("rear", "Wheel"), Part("rear", "Wheel"))),
            Component("Wheel"),
        )
    )
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["DUPLICATE_PART_ROLE"]


def test_validate_part_and_port_of_one_name() -> None:
    model = ArchitectureModel(
        components=(Component("A", ports=(Port("x"),), parts=(Part("x", "B"),)), Component("B"))
    )
    assert [(f.check_id, f.element) for f in validate_model(model)] == [
        ("DUPLICATE_MEMBER_NAME", ElementRef.part("A", "x"))
    ]


def test_validate_bad_multiplicity() -> None:
    model = ArchitectureModel(
        components=(Component("A", parts=(Part("x", "B", Multiplicity(4, 2)),)), Component("B"))
    )
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["BAD_MULTIPLICITY"]


def test_validate_unresolved_part_type() -> None:
    model = ArchitectureModel(components=(Component("A", parts=(Part("x", "Ghost"),)),))
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["UNRESOLVED_PART_TYPE"]


def test_validate_duplicate_connector_id() -> None:
    model = ArchitectureModel(
        components=(Component("A", ports=(Port("p"), Port("q"))),),
        connectors=(_conn("c", "A", "p", "q"), _conn("c", "A", "q", "p")),
    )
    ids = [f.check_id for f in validate_model(model)]
    assert "DUPLICATE_CONNECTOR_ID" in ids


def test_validate_unknown_context() -> None:
    model = ArchitectureModel(connectors=(_conn("c", "Nowhere", "a", "b"),))
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["UNKNOWN_CONTEXT"]


def test_validate_unresolved_endpoint() -> None:
    model = ArchitectureModel(
        components=(Component("A", ports=(Port("p"),)),),
        connectors=(_conn("c", "A", "ghost.p", "p"),),
    )
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["UNRESOLVED_ENDPOINT"]


def test_validate_self_connector() -> None:
    model = ArchitectureModel(
        components=(Component("A", ports=(Port("p"),)),),
        connectors=(_conn("c", "A", "p", "p"),),
    )
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["SELF_CONNECTOR"]


def test_validate_duplicate_connector_same_context() -> None:
    model = ArchitectureModel(
        components=(Component("A", ports=(Port("p"), Port("q"))),),
        connectors=(
            _conn("c1", "A", "p", "q", Direction.LEFT),
            _conn("c2", "A", "q", "p", Direction.RIGHT),
        ),
    )
    ids = [f.check_id for f in validate_model(model)]
    assert ids == ["DUPLICATE_CONNECTOR"]


def test_validate_same_wiring_other_context_is_fine() -> None:
    shared = Component("Shared", ports=(Port("p"), Port("q")))
    holder_a = Component("HolderA", parts=(Part("s", "Shared"),))
    holder_b = Component("HolderB", parts=(Part("s", "Shared"),))
    model = ArchitectureModel(
        components=(shared, holder_a, holder_b),
        connectors=(
            _conn("c1", "HolderA", "s.p", "s.q"),
            _conn("c2", "HolderB", "s.p", "s.q"),
        ),
    )
    assert validate_model(model) == []


def test_validate_findings_are_errors() -> None:
    model = ArchitectureModel(components=(Component("A", parts=(Part("x", "Ghost"),)),))
    for f in validate_model(model):
        assert f.severity.value == "ERROR"


def test_generated_models_validate() -> None:
    rng = random.Random(7)
    for _ in range(30):
        assert validate_model(random_model(rng)) == []
