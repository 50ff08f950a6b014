from pathlib import Path

import pytest

from archlint.adl import parse_architecture
from archlint.annotations import CodeModel
from archlint.errors import ConfigError
from archlint.model import ArchitectureModel
from archlint.scan import SmellConfig, scan_tree
from archlint.smells import (
    CONNECTOR_LIFECYCLE,
    SCATTERED_COMPONENT,
    run_smells,
    smell_connector_lifecycle,
    smell_scattered_component,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def scatter_arch() -> ArchitectureModel:
    return parse_architecture((DATA / "scatter" / "scatter.arch").read_text())


@pytest.fixture(scope="module")
def scatter_code() -> CodeModel:
    return scan_tree([DATA / "scatter" / "src"])


def test_missing_disconnect_is_lifecycle_smell(
    car_arch: ArchitectureModel, car_code: CodeModel
) -> None:
    findings = smell_connector_lifecycle(car_arch, car_code)
    assert len(findings) == 1
    f = findings[0]
    assert f.check_id == CONNECTOR_LIFECYCLE
    assert f.severity.value == "WARNING"
    assert f.element.path == "Car/c1"
    assert f.message == "connector 'Car/c1' has no disconnecting method"
    assert f.locations[0].file == "vehicle/Car.java"


def test_paired_lifecycle_is_clean(car_arch: ArchitectureModel) -> None:
    code = scan_tree([DATA / "car_paired" / "src"])
    assert smell_connector_lifecycle(car_arch, code) == []
    assert run_smells(car_arch, code) == []


def test_unused_connector_reports_both_halves(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    (tmp_path / "Car.java").write_text(
        'public @Component("Car") class Car {\n'
        '    private @Part("rear") Wheel[] rear;\n'
        '    private @Part("e") Engine e;\n'
        "}\n"
    )
    code = scan_tree([tmp_path])
    findings = smell_connector_lifecycle(car_arch, code)
    assert len(findings) == 1
    assert (
        findings[0].message
        == "connector 'Car/c1' has no connecting method and no disconnecting method"
    )


def test_duplicate_connect_counts(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    (tmp_path / "Car.java").write_text(
        'public @Component("Car") class Car {\n'
        '    public @Connects(left="rear", right="e.p", type=Arrow.LEFT) Car() {}\n'
        '    public @Connects(left="rear", right="e.p", type=Arrow.LEFT) void rewire() {}\n'
        '    public @Disconnects(left="rear", right="e.p", type=Arrow.LEFT) void detach() {}\n'
        "}\n"
    )
    code = scan_tree([tmp_path])
    findings = smell_connector_lifecycle(car_arch, code)
    assert len(findings) == 1
    assert "more than one connecting method (2)" in findings[0].message
    assert len(findings[0].locations) == 3


def test_connector_annotation_does_not_count_as_lifecycle(
    car_arch: ArchitectureModel, tmp_path: Path
) -> None:
    (tmp_path / "Car.java").write_text(
        'public @Component("Car") class Car {\n'
        '    private @Connector(left="rear", right="e.p", type="LEFT") Object wire;\n'
        "}\n"
    )
    code = scan_tree([tmp_path])
    findings = smell_connector_lifecycle(car_arch, code)
    assert len(findings) == 1
    assert "no connecting method" in findings[0].message


def test_scattered_component_two_packages(
    scatter_arch: ArchitectureModel, scatter_code: CodeModel
) -> None:
    findings = smell_scattered_component(scatter_arch, scatter_code)
    assert len(findings) == 1
    f = findings[0]
    assert f.check_id == SCATTERED_COMPONENT
    assert f.severity.value == "WARNING"
    assert f.element.path == "App"
    assert f.message == "component 'App' is scattered over 2 packages: core, util"
    assert [loc.file for loc in f.locations] == ["core/App.java", "util/AppHelper.java"]


def test_single_package_component_is_clean(car_arch: ArchitectureModel, car_code: CodeModel) -> None:
    assert smell_scattered_component(car_arch, car_code) == []


def test_scatter_threshold_raises_bar(
    scatter_arch: ArchitectureModel, scatter_code: CodeModel
) -> None:
    cfg = SmellConfig(scatter_threshold=3)
    assert smell_scattered_component(scatter_arch, scatter_code, cfg) == []
    assert run_smells(scatter_arch, scatter_code, cfg) == []


def test_disabled_smells_are_skipped(
    car_arch: ArchitectureModel,
    car_code: CodeModel,
    scatter_arch: ArchitectureModel,
    scatter_code: CodeModel,
) -> None:
    only_scatter = SmellConfig(enabled=frozenset({SCATTERED_COMPONENT}))
    assert run_smells(car_arch, car_code, only_scatter) == []
    assert len(run_smells(scatter_arch, scatter_code, only_scatter)) == 1

    only_lifecycle = SmellConfig(enabled=frozenset({CONNECTOR_LIFECYCLE}))
    assert run_smells(scatter_arch, scatter_code, only_lifecycle) == []
    assert len(run_smells(car_arch, car_code, only_lifecycle)) == 1


def test_run_smells_combines_catalog(car_arch: ArchitectureModel, tmp_path: Path) -> None:
    pkg_a = tmp_path / "a"
    pkg_b = tmp_path / "b"
    pkg_a.mkdir()
    pkg_b.mkdir()
    (pkg_a / "Car.java").write_text('public @Component("Car") class Car {}\n')
    (pkg_b / "CarExtra.java").write_text('public @Component("Car") class CarExtra {}\n')
    code = scan_tree([tmp_path])
    findings = run_smells(car_arch, code)
    assert [f.check_id for f in findings] == [CONNECTOR_LIFECYCLE, SCATTERED_COMPONENT]


def test_smell_config_validation() -> None:
    with pytest.raises(ConfigError):
        SmellConfig(scatter_threshold=1)
    with pytest.raises(ConfigError):
        SmellConfig(enabled=frozenset({"NOT_A_SMELL"}))
    with pytest.raises(ConfigError):
        SmellConfig.from_mapping({"scatter_threshold": "many"})


def test_smell_config_from_mapping() -> None:
    cfg = SmellConfig.from_mapping({"scatter_threshold": "5", "smells": "connector_lifecycle"})
    assert cfg.scatter_threshold == 5
    assert cfg.enabled == frozenset({CONNECTOR_LIFECYCLE})
