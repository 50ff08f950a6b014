import random
from pathlib import Path
from typing import Callable

import pytest

from archlint.adl import parse_architecture
from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, TargetKind
from archlint.conformance import (
    check_annotation_completeness,
    check_architecture_completeness,
    check_connection_consistency,
    report_fingerprint,
    resolve_connection,
    run_all,
)
from archlint.findings import SourceLocation, finding
from archlint.model import ArchitectureModel, Direction, ElementRef
from archlint.scan import ScanConfig, scan_tree

DATA = Path(__file__).parent / "data"


def _scan_texts(tmp_path: Path, **files: str) -> CodeModel:
    for name, text in files.items():
        dest = tmp_path / name.replace("__", "/")
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text)
    return scan_tree([tmp_path])


def test_clean_car_has_no_findings(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    report = run_all(car_arch, car_code)
    assert report.findings == ()
    assert report.counts == {}


def test_missing_annotation_per_uncovered_element(
    car_arch: ArchitectureModel, car_solo_code: CodeModel
) -> None:
    findings = check_annotation_completeness(car_arch, car_solo_code)
    assert [f.check_id for f in findings] == ["MISSING_ANNOTATION"] * 3
    assert {f.element.path for f in findings} == {"Engine", "Engine#p", "Wheel"}


def test_covered_model_yields_no_missing(
    car_arch: ArchitectureModel, car_code: CodeModel
) -> None:
    assert check_annotation_completeness(car_arch, car_code) == []


def test_add_part_covers_its_part(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    public @AddPart({"rear", "e"}) Car() {}\n'
                "}\n"
            )
        },
    )
    findings = check_annotation_completeness(car_arch, code)
    missing = {f.element.path for f in findings}
    assert "Car.rear" not in missing
    assert "Car.e" not in missing


def test_add_part_componentname_attribute(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Garage.java": (
                'public @Component("Garage") class Garage {\n'
                '    public @AddPart(value="e", componentname="Car") void fit() {}\n'
                "}\n"
            )
        },
    )
    findings = check_annotation_completeness(car_arch, code)
    assert "Car.e" not in {f.element.path for f in findings}


def test_unknown_component_annotation(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path, **{"Chassis.java": 'public @Component("Chassis") class Chassis {}\n'}
    )
    findings = check_architecture_completeness(car_arch, code)
    assert len(findings) == 1
    f = findings[0]
    assert f.check_id == "UNKNOWN_ELEMENT"
    assert f.element.path == "Chassis"
    assert f.locations[0].file == "Chassis.java"


def test_unknown_port_annotation(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Engine.java": (
                'public @Component("Engine") class Engine {\n'
                '    public @Port("q") void q() {}\n'
                "}\n"
            )
        },
    )
    findings = check_architecture_completeness(car_arch, code)
    assert [f.check_id for f in findings] == ["UNKNOWN_ELEMENT"]
    assert findings[0].element.path == "Engine#q"
    assert "port 'q'" in findings[0].message


def test_part_without_enclosing_component(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(tmp_path, **{"loose.txt": '//@arch Part("rear") @on field rear\n'})
    findings = check_architecture_completeness(car_arch, code)
    assert [f.check_id for f in findings] == ["UNKNOWN_ELEMENT"]
    assert findings[0].element is None
    assert "no enclosing component" in findings[0].message


def test_part_in_unknown_component(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Boat.java": (
                'public @Component("Car") class Boat {\n'
                '    private @Part("keel") Keel keel;\n'
                "}\n"
            )
        },
    )
    findings = check_architecture_completeness(car_arch, code)
    assert [f.check_id for f in findings] == ["UNKNOWN_ELEMENT"]
    assert "part 'keel'" in findings[0].message


def test_remove_part_covers_nothing(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    private @Part("e") Engine e;\n'
                '    public @RemovePart("rear") void scrap() {}\n'
                "}\n"
            )
        },
    )
    missing = {f.element.path for f in check_annotation_completeness(car_arch, code)}
    assert "Car.rear" in missing and "Car.e" not in missing
    assert check_architecture_completeness(car_arch, code) == []


def test_remove_part_in_unknown_component(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Boat.java": (
                'public @Component("Boat") class Boat {\n'
                '    public @RemovePart("keel") void scrap() {}\n'
                "}\n"
            )
        },
    )
    findings = check_architecture_completeness(car_arch, code)
    assert [(f.element.path, f.message) for f in findings] == [
        ("Boat", "@Component names unknown component 'Boat'"),
        ("Boat.keel", "@RemovePart names part 'keel' not declared in unknown component 'Boat'"),
    ]


def test_remove_part_componentname_without_enclosing_component(
    car_arch: ArchitectureModel, tmp_path: Path
) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "loose.txt": (
                '//@arch RemovePart(value="e", componentname="Car") @on method drop\n'
                '//@arch RemovePart(value="fin", componentname="Car") @on method trim\n'
            )
        },
    )
    assert all(not inst.enclosing_components for inst in code.instances)
    missing = {f.element.path for f in check_annotation_completeness(car_arch, code)}
    assert "Car.e" in missing
    findings = check_architecture_completeness(car_arch, code)
    assert [(f.element.path, f.message) for f in findings] == [
        ("Car.fin", "@RemovePart names part 'fin' not declared in component 'Car'"),
    ]


def _instance(kind: AnnotationKind, values: tuple[str, ...], enclosing: tuple[str, ...] = ()):
    return AnnotationInstance(
        kind, values, {}, TargetKind.TYPE, "t", enclosing, SourceLocation("F.java", 1, 1), "p"
    )


def test_no_owner_finding_depends_only_on_the_owners(car_arch: ArchitectureModel) -> None:
    # A @Component has the document root as owner, even with nothing around
    # it; an element annotation with no values still needs an owner.
    code = CodeModel.build(
        [
            _instance(AnnotationKind.COMPONENT, ("Car",)),
            _instance(AnnotationKind.PART, (), ("Car",)),
            _instance(AnnotationKind.PORT, ()),
        ]
    )
    findings = check_architecture_completeness(car_arch, code)
    assert [(f.element, f.message) for f in findings] == [
        (None, "@Port has no enclosing component to resolve against"),
    ]


def test_declared_triples_car(car_arch: ArchitectureModel) -> None:
    index = car_arch.connector_index
    triples, pairs = set(index.triples.values()), set(index.by_pair)
    assert triples == {("Car.rear", "Engine#p", Direction.LEFT)}
    assert pairs == {("Car.rear", "Engine#p")}


def test_connector_index_matching_direction_rules(car_arch: ArchitectureModel) -> None:
    matching = car_arch.connector_index.matching
    c1 = ElementRef.connector("Car", "c1")  # declared ("Car.rear", "Engine#p", LEFT)
    assert matching(("Car.rear", "Engine#p", Direction.LEFT)) == [c1]
    assert matching(("Car.rear", "Engine#p", None)) == [c1]
    assert matching(("Car.rear", "Engine#p", Direction.RIGHT)) == []
    assert matching(("Car.rear", "Wheel#q", None)) == []


def test_connection_matches_regardless_of_attr_order(
    car_arch: ArchitectureModel, tmp_path: Path
) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    public @Connects(left="e.p", right="rear", type=Arrow.RIGHT) Car() {}\n'
                "}\n"
            )
        },
    )
    assert check_connection_consistency(car_arch, code) == []


def test_connection_without_type_matches_any_direction(
    car_arch: ArchitectureModel, tmp_path: Path
) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    public @Connects(left="rear", right="e.p") Car() {}\n'
                "}\n"
            )
        },
    )
    assert check_connection_consistency(car_arch, code) == []


def test_undeclared_connection_reported(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    public @Connects(left="rear", right="e.p", type=Arrow.RIGHT) Car() {}\n'
                "}\n"
            )
        },
    )
    findings = check_connection_consistency(car_arch, code)
    assert [f.check_id for f in findings] == ["UNDECLARED_CONNECTION"]
    assert "Car.rear" in findings[0].message
    assert "Engine#p" in findings[0].message


def test_unresolvable_connection_endpoint(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    public @Connects(left="rear", right="e.zap") Car() {}\n'
                "}\n"
            )
        },
    )
    findings = check_connection_consistency(car_arch, code)
    assert [f.check_id for f in findings] == ["UNRESOLVED_ENDPOINT"]


def test_sidecomponent_attribute_resolves_context(
    car_arch: ArchitectureModel, tmp_path: Path
) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Wiring.java": (
                "public class Wiring {\n"
                '    public @Connects(left="rear", right="e.p", leftcomponent="Car",'
                ' rightcomponent="Car", type=Arrow.LEFT) void wire() {}\n'
                "}\n"
            )
        },
    )
    assert check_connection_consistency(car_arch, code) == []


def test_context_override_warns(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Engine.java": (
                'public @Component("Engine") class Engine {\n'
                '    public @Connects(left="rear", right="e.p", leftcomponent="Car",'
                ' rightcomponent="Car", type=Arrow.LEFT) void wire() {}\n'
                "}\n"
            )
        },
    )
    findings = check_connection_consistency(car_arch, code)
    ids = [f.check_id for f in findings]
    assert ids == ["CONTEXT_OVERRIDE", "CONTEXT_OVERRIDE"]
    for f in findings:
        assert f.severity.value == "WARNING"


def test_resolve_connection_orders_endpoints(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{
            "Car.java": (
                'public @Component("Car") class Car {\n'
                '    public @Connects(left="e.p", right="rear") Car() {}\n'
                "}\n"
            )
        },
    )
    inst = code.instances[-1]
    resolution = resolve_connection(car_arch, inst)
    assert resolution.findings == []
    assert resolution.triple == ("Car.rear", "Engine#p", None)
    assert sorted(ref.path for ref in resolution.refs) == [
        "Car", "Car.e", "Car.rear", "Car/c1", "Engine#p"
    ]
    assert resolution.matches == {ElementRef.connector("Car", "c1")}


def test_spec_mutation_combo_yields_exactly_two(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    src = tmp_path / "src"
    src.mkdir()
    for name in ("Car.java", "Engine.java", "Wheel.java"):
        text = (DATA / "car" / "src" / "vehicle" / name).read_text()
        if name == "Engine.java":
            text = text.replace(
                'public @Port("p") void p()',
                'public void p()',
            )
            text = text.replace(
                "}\n",
                '    public @Port("boost") void boost() {}\n}\n',
                1,
            )
        (src / name).write_text(text)
    report = run_all(car_arch, scan_tree([src]))
    ids = sorted(f.check_id for f in report.findings)
    assert ids == ["MISSING_ANNOTATION", "UNKNOWN_ELEMENT"]


def test_run_all_skips_checks_on_invalid_model(car_code: CodeModel) -> None:
    broken = parse_architecture(
        "component Car { part rear: Wheel [*]; part e: Engine;"
        " connector c1: rear <- e.p; } component Engine { port p; } component Wheel { }"
    )
    from archlint.model import Component

    invalid = broken._replace(components=broken.components + (Component("Car"),))
    report = run_all(invalid, car_code)
    assert [f.check_id for f in report.findings] == ["DUPLICATE_COMPONENT"]


def test_run_all_merges_scan_findings(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    code = _scan_texts(
        tmp_path,
        **{"Bad.java": 'class C { public @Connects(left="x") C() {} }\n'},
    )
    report = run_all(car_arch, code)
    ids = {f.check_id for f in report.findings}
    assert "MALFORMED_ANNOTATION" in ids
    assert report.counts["MALFORMED_ANNOTATION"] == 1


def test_run_all_counts_and_order(car_arch: ArchitectureModel, car_solo_code: CodeModel) -> None:
    report = run_all(car_arch, car_solo_code)
    assert report.counts == {"MISSING_ANNOTATION": 3}
    keys = [(f.locations[0].file if f.locations else "", f.check_id) for f in report.findings]
    assert keys == sorted(keys)


def test_run_all_is_pure(car_arch: ArchitectureModel, car_solo_code: CodeModel) -> None:
    first = run_all(car_arch, car_solo_code)
    second = run_all(car_arch, car_solo_code)
    assert first == second


def test_fingerprint_tracks_inputs(
    car_arch: ArchitectureModel, car_code: CodeModel, car_solo_code: CodeModel
) -> None:
    base = run_all(car_arch, car_code).fingerprint
    assert base == run_all(car_arch, car_code).fingerprint
    assert base != run_all(car_arch, car_solo_code).fingerprint


def _with_finding(code: CodeModel, message: str) -> CodeModel:
    extra = finding("IO_ERROR", message, locations=[SourceLocation("notes.txt", 0, 0)])
    return CodeModel.build(code.instances, [extra], code.config_fingerprint)


def _changed(code: CodeModel, kind: AnnotationKind, change: Callable) -> CodeModel:
    """The model with the first instance of `kind` replaced by change(instance)."""
    index = next(i for i, inst in enumerate(code.instances) if inst.kind is kind)
    instances = list(code.instances)
    instances[index] = change(instances[index])
    return CodeModel.build(instances, code.findings, code.config_fingerprint)


def _moved(inst: AnnotationInstance) -> AnnotationInstance:
    loc = inst.location
    return inst._replace(location=SourceLocation(loc.file, loc.line, loc.column + 1))


_CHANGES: dict[str, Callable[[CodeModel], CodeModel]] = {
    "location": lambda code: _changed(code, AnnotationKind.PART, _moved),
    "attr": lambda code: _changed(
        code, AnnotationKind.CONNECTS, lambda i: i._replace(attrs={**i.attrs, "left": "front"})
    ),
    "enclosing": lambda code: _changed(
        code, AnnotationKind.PORT, lambda i: i._replace(enclosing_components=("Car",))
    ),
    "finding_message": lambda code: _with_finding(code, "cannot read file: gone"),
    "sigil": lambda code: CodeModel.build(
        code.instances, code.findings, ScanConfig(sigil="@@x").semantic_fingerprint()
    ),
}


@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_fingerprint_covers_each_model_field(
    car_arch: ArchitectureModel, car_code: CodeModel, change: str
) -> None:
    base = _with_finding(car_code, "cannot read file: locked")
    assert report_fingerprint(car_arch, _CHANGES[change](base)) != report_fingerprint(car_arch, base)


def test_fingerprint_ignores_instance_order_and_is_pinned(
    car_arch: ArchitectureModel, car_code: CodeModel
) -> None:
    shuffled = list(car_code.instances)
    random.Random(7).shuffle(shuffled)
    assert shuffled != list(car_code.instances)
    rebuilt = CodeModel.build(shuffled, car_code.findings, car_code.config_fingerprint)
    assert report_fingerprint(car_arch, rebuilt) == report_fingerprint(car_arch, car_code)
    # The hash covers the compact canonical JSON of the code model; a change
    # to that encoding must update this value on purpose.
    assert run_all(car_arch, car_code).fingerprint == (
        "042fb932590492ba07717c39b06af1a3bbf7c501561268a6691a7e3e4ac48ca6"
    )
