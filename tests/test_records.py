"""The records are named tuples. These tests pin what the record classes
keep: members sorted however a model is built or copied, configs checked
however they are built or copied, the path-only hash of ElementRef, and
model records and operations that compare by type as well as by fields."""

import random

import pytest

from archlint.adl import parse_architecture, serialize_architecture
from archlint.annotations import CodeModel
from archlint.errors import ConfigError
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
    parse_ref,
)
from archlint.refactor import (
    AddConnector,
    AddPort,
    RefactoringPlan,
    RemoveConnector,
    RemovePort,
    apply_op,
    apply_plan,
)
from archlint.scan import ScanConfig, SmellConfig
from modelgen import random_code_for, random_model, random_op_sequence


def test_every_model_a_plan_returns_is_normalized() -> None:
    """Handlers copy models and components with `_replace`, which builds
    through the constructor, so each step's model keeps its members sorted
    and equals the model its own text parses to."""
    rng = random.Random(18)
    kinds: set[type] = set()
    checked = 0
    for _ in range(200):
        model = random_model(rng)
        ops, _ = random_op_sequence(rng, model, max_len=4)
        if not ops:
            continue
        kinds.update(type(op) for op in ops)
        current = model
        for op in ops:
            current, _ = apply_op(current, op)
            assert current == parse_architecture(serialize_architecture(current))
        plan = RefactoringPlan("records", tuple(ops))
        planned, _ = apply_plan(model, plan, random_code_for(rng, model))
        assert planned == current
        checked += 1
    assert checked >= 100
    assert len(kinds) == 7, kinds


@pytest.mark.parametrize(
    "build",
    [
        lambda: ScanConfig(" x"),
        lambda: ScanConfig(sigil="//arch"),
        lambda: ScanConfig.from_mapping({"sigil": "a b"}),
        lambda: ScanConfig()._replace(sigil=""),
        lambda: ScanConfig._make(["#arch", (".java",), ("*",), ()]),
        lambda: SmellConfig(1),
        lambda: SmellConfig()._replace(scatter_threshold=0),
        lambda: SmellConfig.from_mapping({"smells": "NO_SUCH_SMELL"}),
    ],
)
def test_configs_are_checked_on_every_path(build) -> None:
    with pytest.raises(ConfigError):
        build()


def test_config_copies_normalize_extensions() -> None:
    config = ScanConfig()._replace(attribute_extensions=("JAVA", ".Kt"))
    assert config.attribute_extensions == (".java", ".kt")
    assert config == ScanConfig.from_mapping({"attribute_extensions": "JAVA, .Kt"})


def test_equal_refs_hash_equal() -> None:
    for text in ("Car", "Car.rear", "Engine#p", "Car/c1", "/top"):
        ref = parse_ref(text)
        twin = ElementRef(ref.kind, str(ref.path))
        assert ref == twin and hash(ref) == hash(twin)
    assert ElementRef(RefKind.PART, "A.b") != ElementRef(RefKind.PORT, "A.b")


def test_operations_compare_by_type() -> None:
    assert AddPort("A", "p") == AddPort("A", "p")
    assert AddPort("A", "p") != RemovePort("A", "p")
    assert not AddPort("A", "p") == RemovePort("A", "p")
    assert RemoveConnector("c") != ("c",)
    assert hash(AddPort("A", "p")) == hash(AddPort("A", "p"))


def test_model_records_compare_by_type() -> None:
    """A model record equals neither a plain tuple of its items nor a record
    of another type that holds them, whichever side it is on."""
    left, right = EndpointPath(("p",)), EndpointPath(("q", "r"))
    connector = Connector("c", "A", left, right, Direction.RIGHT)
    added = AddConnector("c", "A", left, right, Direction.RIGHT)
    assert connector != added and added != connector
    assert not connector == added and not added == connector
    port = Port("x")
    assert port != ("x",) and ("x",) != port and port != EndpointPath("x")
    assert Multiplicity(1, 1) != (1, 1) and Part("r", "T") != ("r", "T", (1, 1))
    for record in (port, connector, Multiplicity(0, None), Part("r", "T"),
                   Component("A", [port]), ArchitectureModel([Component("A")], [connector])):
        twin = type(record)(*record)
        assert record == twin and not record != twin and hash(record) == hash(twin)
        assert record != tuple(record) and tuple(record) != record


def test_code_model_copies_drop_the_cached_index() -> None:
    code = CodeModel.build([])
    assert code.element_index is code.element_index
    assert "element_index" not in vars(code._replace(config_fingerprint="x"))
