import random
from pathlib import Path

import pytest

from archlint.adl import AdlParseError, parse_architecture, serialize_architecture
from archlint.model import ArchitectureModel, Direction, Multiplicity, validate_model
from modelgen import random_model

DATA = Path(__file__).parent / "data"


def test_parse_car_fixture(car_arch: ArchitectureModel) -> None:
    assert {c.name for c in car_arch.components} == {"Car", "Engine", "Wheel"}
    car = car_arch.component("Car")
    assert car is not None
    assert {p.role for p in car.parts} == {"rear", "e"}
    rear = next(p for p in car.parts if p.role == "rear")
    assert rear.type_component == "Wheel"
    assert rear.multiplicity == Multiplicity(0, None)
    assert [c.id for c in car_arch.connectors] == ["c1"]
    conn = car_arch.connectors[0]
    assert conn.context == "Car"
    assert str(conn.left) == "rear"
    assert str(conn.right) == "e.p"
    assert conn.direction is Direction.LEFT


def test_parse_empty_document() -> None:
    assert parse_architecture("") == ArchitectureModel()
    assert parse_architecture("// nothing but comments\n\n") == ArchitectureModel()


def test_serialize_empty_model_is_header_only() -> None:
    text = serialize_architecture(ArchitectureModel())
    assert text == "// architecture description\n"
    assert parse_architecture(text) == ArchitectureModel()


def test_multiplicity_forms() -> None:
    model = parse_architecture(
        "component A { part w: B [1..*]; part x: B [2..4]; part y: B [*]; part z: B [3]; }\n"
        "component B { }"
    )
    mults = {p.role: p.multiplicity for p in model.component("A").parts}
    assert mults == {
        "w": Multiplicity(1, None),
        "x": Multiplicity(2, 4),
        "y": Multiplicity(0, None),
        "z": Multiplicity(3, 3),
    }


def test_default_multiplicity_is_one() -> None:
    model = parse_architecture("component A { part x: B; } component B { }")
    part = model.component("A").parts[0]
    assert part.multiplicity == Multiplicity(1, 1)


def test_root_connector_parses() -> None:
    model = parse_architecture(
        "component A { port p; }\n"
        "component B { port q; }\n"
        "connector c0: A.p -> B.q;"
    )
    assert len(model.connectors) == 1
    conn = model.connectors[0]
    assert conn.context == ""
    assert conn.direction is Direction.RIGHT
    assert validate_model(model) == []


def test_arrow_spellings() -> None:
    model = parse_architecture(
        "component A { port p; port q; port r; port s; port t; port u; }\n"
        "component S { part a: A;\n"
        "  connector r1: a.p -> a.q;\n"
        "  connector r2: a.r <- a.s;\n"
        "  connector r3: a.t <-> a.u;\n"
        "}"
    )
    dirs = {c.id: c.direction for c in model.connectors}
    assert dirs == {"r1": Direction.RIGHT, "r2": Direction.LEFT, "r3": Direction.BIDIR}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("component {", "1:11"),
        ("garbage here", "1:1"),
        ("component A { port ; }", "port"),
        ("component A { part x: B [3..2]; }", "invalid multiplicity"),
        ("component A { connector c: ; }", "c"),
        ("component A { port p ", "expected"),
        ("component A { } component A { }", "A"),
        ("component A { part p: A [²]; }", "1:26: unexpected character '²'"),
    ],
)
def test_parse_errors_carry_position_or_cause(text: str, fragment: str) -> None:
    with pytest.raises(AdlParseError) as exc:
        parse_architecture(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("component A { }\ncomponent A { }\n", "2:11: component 'A' declared more than once"),
        (
            "component A { port p; port q;\n port p; }\n",
            "2:7: port 'p' declared more than once in 'A'",
        ),
        (
            "component W { }\ncomponent B { part w: W;\n  part w: W; }\n",
            "3:8: part role 'w' declared more than once in 'B'",
        ),
        (
            "component A { port p; port q; port r; }\n"
            "connector c: A.p -> A.q;\nconnector c: A.q -> A.r;\n",
            "3:11: connector id 'c' declared more than once",
        ),
    ],
    ids=["component", "port", "part", "root-connector"],
)
def test_a_repeated_declaration_is_reported_at_the_repeat(text: str, expected: str) -> None:
    with pytest.raises(AdlParseError) as exc:
        parse_architecture(text)
    assert str(exc.value) == expected


@pytest.mark.parametrize("form, column", [("[{}]", 26), ("[1..{}]", 29)], ids=["lower", "upper"])
def test_bound_too_long_for_int_is_a_parse_error(form: str, column: int) -> None:
    """A bound with more digits than `int` reads is an error at its token."""
    bound = form.format("9" * 5000)
    with pytest.raises(AdlParseError) as exc:
        parse_architecture(f"component A {{ part p: A {bound}; }}")
    assert str(exc.value) == f"1:{column}: multiplicity bound has too many digits"


def test_error_line_numbers_count_from_one() -> None:
    with pytest.raises(AdlParseError) as exc:
        parse_architecture("// fine\ncomponent A {\n  junk;\n}")
    assert str(exc.value).startswith("3:")


def test_comments_and_blank_lines_ignored(car_arch: ArchitectureModel) -> None:
    noisy = (
        "// heading\n\ncomponent Car { // trailing\n"
        "  part rear: Wheel [*];\n  part e: Engine;\n"
        "  connector c1: rear <- e.p;\n}\n"
        "component Engine { port p; }\ncomponent Wheel { }\n"
    )
    assert parse_architecture(noisy) == car_arch


def test_declaration_order_does_not_matter(car_arch: ArchitectureModel) -> None:
    permuted = (
        "component Wheel { }\n"
        "component Engine { port p; }\n"
        "component Car { part e: Engine; part rear: Wheel [*];\n"
        "  connector c1: rear <- e.p; }\n"
    )
    model = parse_architecture(permuted)
    assert serialize_architecture(model) == serialize_architecture(car_arch)


def test_golden_car_serialization(car_arch: ArchitectureModel) -> None:
    golden = (DATA / "golden" / "car.golden.arch").read_text()
    assert serialize_architecture(car_arch) == golden


def test_round_trip_random_models() -> None:
    rng = random.Random(41)
    for _ in range(200):
        model = random_model(rng)
        text = serialize_architecture(model)
        reparsed = parse_architecture(text)
        assert serialize_architecture(reparsed) == text
        assert {c.name for c in reparsed.components} == {c.name for c in model.components}
        assert {c.id for c in reparsed.connectors} == {c.id for c in model.connectors}


def test_serialization_is_stable() -> None:
    rng = random.Random(43)
    model = random_model(rng)
    assert serialize_architecture(model) == serialize_architecture(model)
