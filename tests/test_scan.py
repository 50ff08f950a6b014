import fnmatch
import os
from collections import Counter
from pathlib import Path

import pytest

from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel
from archlint.errors import ConfigError
from archlint.scan import ScanConfig, _collect_files, load_config_file, scan_tree

DATA = Path(__file__).parent / "data"


def _shape(inst: AnnotationInstance) -> tuple:
    return (
        inst.kind,
        inst.values,
        tuple(sorted(inst.attrs.items())),
        inst.target,
        inst.target_name,
        inst.enclosing_components,
        inst.package,
    )


def test_scan_car_tree(car_code: CodeModel) -> None:
    assert len(car_code.instances) == 9
    kinds = Counter(i.kind for i in car_code.instances)
    assert kinds == Counter(
        {
            AnnotationKind.COMPONENT: 3,
            AnnotationKind.PART: 2,
            AnnotationKind.ADD_PART: 2,
            AnnotationKind.CONNECTS: 1,
            AnnotationKind.PORT: 1,
        }
    )
    assert car_code.findings == ()
    files = {i.location.file for i in car_code.instances}
    assert files == {"vehicle/Car.java", "vehicle/Engine.java", "vehicle/Wheel.java"}


def test_pragma_tree_matches_attribute_tree(car_code: CodeModel) -> None:
    pragma_code = scan_tree([DATA / "car_pragma" / "src"])
    assert Counter(map(_shape, pragma_code.instances)) == Counter(
        map(_shape, car_code.instances)
    )


def test_scan_missing_root_raises(tmp_path: Path) -> None:
    with pytest.raises(FileNotFoundError):
        scan_tree([tmp_path / "nope"])


def test_scan_empty_tree(tmp_path: Path) -> None:
    code = scan_tree([tmp_path])
    assert code.instances == ()
    assert code.findings == ()


def test_scan_routes_by_extension(tmp_path: Path) -> None:
    (tmp_path / "A.java").write_text('public @Component("A") class A {}\n')
    (tmp_path / "b.py").write_text('#@arch Component("B") @on type B\n')
    (tmp_path / "notes.txt").write_text('//@arch Component("C") @on type C\n')
    code = scan_tree([tmp_path])
    assert sorted(i.values[0] for i in code.instances) == ["A", "B", "C"]


def test_scan_extension_config_is_exclusive(tmp_path: Path) -> None:
    (tmp_path / "A.java").write_text('public @Component("A") class A {}\n')
    (tmp_path / "b.py").write_text('#@arch Component("B") @on type B\n')
    cfg = ScanConfig(attribute_extensions=(".java",), pragma_extensions=(".py",))
    code = scan_tree([tmp_path], cfg)
    assert sorted(i.values[0] for i in code.instances) == ["A", "B"]

    only_java = ScanConfig(attribute_extensions=(".java",), pragma_extensions=())
    code = scan_tree([tmp_path], only_java)
    assert [i.values[0] for i in code.instances] == ["A"]


def test_scan_exclude_globs(tmp_path: Path) -> None:
    (tmp_path / "gen").mkdir()
    (tmp_path / "gen" / "G.java").write_text('public @Component("G") class G {}\n')
    (tmp_path / "A.java").write_text('public @Component("A") class A {}\n')
    cfg = ScanConfig(exclude=("gen/*",))
    code = scan_tree([tmp_path], cfg)
    assert [i.values[0] for i in code.instances] == ["A"]


def test_scan_merges_multiple_roots(tmp_path: Path) -> None:
    for name in ("r1", "r2"):
        (tmp_path / name).mkdir()
    (tmp_path / "r1" / "A.java").write_text('public @Component("A") class A {}\n')
    (tmp_path / "r2" / "B.java").write_text('public @Component("B") class B {}\n')
    code = scan_tree([tmp_path / "r1", tmp_path / "r2"])
    assert sorted(i.values[0] for i in code.instances) == ["A", "B"]


def _walk_tree(root: Path) -> None:
    for rel in (
        "A.py", "B.txt", ".hidden.py",
        "vendor/V.py", "vendor/deep/W.txt", "vendorish/K.txt",
        "gen/G.txt", "x/gen/H.txt", "x/gen/y/I.py", "x/y/gen/J.txt",
        "abc/L.txt", "aXc/M.txt", "abcd/N.txt", "q/abc/O.txt",
    ):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(rel)
    os.symlink(root / "B.txt", root / "x" / "link.txt")
    os.symlink(root / "vendor", root / "x" / "linkdir")
    os.symlink(root / "missing.txt", root / "x" / "dangling.txt")


@pytest.mark.parametrize(
    "exclude",
    [
        (),
        ("vendor/*",),
        ("*/gen/*",),
        ("gen/*", "x/gen/*"),
        ("a?c/*",),
        ("*.py",),
        ("x/*", "vendor/deep/*"),
        ("vendor/deep/*", "vendor/*"),
        ("*",),
        ("x/link*",),
    ],
)
def test_collect_files_matches_per_file_filter(tmp_path: Path, exclude: tuple[str, ...]) -> None:
    _walk_tree(tmp_path)
    expected = sorted(
        (path.relative_to(tmp_path).as_posix(), str(path))
        for path in tmp_path.rglob("*")
        if path.is_file()
        and not any(fnmatch.fnmatch(path.relative_to(tmp_path).as_posix(), p) for p in exclude)
    )
    got = _collect_files([tmp_path], ScanConfig(exclude=exclude))
    assert [(rel, path) for rel, _, path, _ in got] == expected
    assert all(position == 0 and stat == os.stat(path) for _, position, path, stat in got)
    if not exclude:
        rels = [rel for rel, _, _, _ in got]
        assert "x/link.txt" in rels and "x/dangling.txt" not in rels
        assert not any(rel.startswith("x/linkdir/") for rel in rels)


def test_walk_prunes_fully_excluded_directories(tmp_path: Path, monkeypatch) -> None:
    _walk_tree(tmp_path)
    walked: list[str] = []
    real_walk = os.walk

    def recording_walk(top, *args, **kwargs):
        for entry in real_walk(top, *args, **kwargs):
            walked.append(Path(entry[0]).relative_to(tmp_path).as_posix())
            yield entry

    monkeypatch.setattr(os, "walk", recording_walk)
    _collect_files([tmp_path], ScanConfig(exclude=("vendor/*", "*/gen/*", "*.py")))
    assert sorted(walked) == [".", "aXc", "abc", "abcd", "gen", "q", "q/abc", "vendorish", "x", "x/y"]


def test_scan_same_relative_path_in_two_roots(tmp_path: Path) -> None:
    for root, name in (("r1", "A"), ("r2", "B")):
        (tmp_path / root).mkdir()
        (tmp_path / root / "X.txt").write_text(f'// @arch Component("{name}") @on type {name}\n')
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert [i.values[0] for i in scan_tree([r1, r2]).instances] == ["A", "B"]
    assert [i.values[0] for i in scan_tree([r2, r1]).instances] == ["B", "A"]
    again = scan_tree([r1, r2, tmp_path / "r2" / ".." / "r1"])
    assert [i.values[0] for i in again.instances] == ["A", "B"]


def test_scan_collects_extraction_findings(tmp_path: Path) -> None:
    (tmp_path / "Bad.java").write_text('class C { public @Connects(left="a") C() {} }\n')
    code = scan_tree([tmp_path])
    assert [f.check_id for f in code.findings] == ["MALFORMED_ANNOTATION"]


def test_scan_reports_target_rule_violations(tmp_path: Path) -> None:
    (tmp_path / "notes.txt").write_text('//@arch Component("X") @on field x\n')
    code = scan_tree([tmp_path])
    assert [f.check_id for f in code.findings] == ["TARGET_RULE_VIOLATION"]


def test_scan_unreadable_file_becomes_io_finding(tmp_path: Path, monkeypatch) -> None:
    target = tmp_path / "Locked.java"
    target.write_text('public @Component("L") class L {}\n')
    (tmp_path / "Open.java").write_text('public @Component("O") class O {}\n')

    real_read_text = Path.read_text

    def flaky(self: Path, *args, **kwargs):
        if self.name == "Locked.java":
            raise OSError("permission denied")
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", flaky)
    code = scan_tree([tmp_path])
    assert [i.values[0] for i in code.instances] == ["O"]
    assert [f.check_id for f in code.findings] == ["IO_ERROR"]
    assert code.findings[0].locations[0].file == "Locked.java"


def test_load_config_file(tmp_path: Path) -> None:
    cfg_path = tmp_path / "archlint.conf"
    cfg_path.write_text(
        "# comment\n"
        "sigil = @@arch\n"
        "attribute_extensions = .java, .cs\n"
        "pragma_extensions = *\n"
        "exclude = gen/*, */build/*\n"
        "scatter_threshold = 4\n"
        "smells = SCATTERED_COMPONENT\n"
    )
    mapping = load_config_file(cfg_path)
    cfg = ScanConfig.from_mapping(mapping)
    assert cfg.sigil == "@@arch"
    assert cfg.attribute_extensions == (".java", ".cs")
    assert cfg.exclude == ("gen/*", "*/build/*")
    assert ScanConfig().semantic_fingerprint() != ScanConfig(sigil="@@x").semantic_fingerprint()
    assert mapping["scatter_threshold"] == "4"


def test_load_config_rejects_unknown_key(tmp_path: Path) -> None:
    # `workers` was a scan option once; it is now unknown like any other key.
    for key in ("sygil", "workers"):
        cfg_path = tmp_path / "bad.conf"
        cfg_path.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config_file(cfg_path)
        assert key in str(exc.value)


def test_load_config_rejects_bare_line(tmp_path: Path) -> None:
    cfg_path = tmp_path / "bad.conf"
    cfg_path.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg_path)


def test_config_extension_normalization() -> None:
    cfg = ScanConfig.from_mapping({"attribute_extensions": "java, .cs"})
    assert cfg.attribute_extensions == (".java", ".cs")


@pytest.mark.parametrize(
    "setting, name, text",
    [
        pytest.param(
            "attribute_extensions = .JAVA", "Car.java", '@Component("Car") class Car {}\n',
            id="attribute_extensions",
        ),
        pytest.param(
            "pragma_extensions = .TXT", "car.txt", '//@arch Component("Car") @on type Car\n',
            id="pragma_extensions",
        ),
    ],
)
def test_config_extensions_ignore_case(tmp_path: Path, setting: str, name: str, text: str) -> None:
    # File suffixes are matched lowercased, so the configured ones are too.
    cfg_path = tmp_path / "archlint.conf"
    cfg_path.write_text(setting + "\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / name).write_text(text)
    code = scan_tree([src], ScanConfig.from_mapping(load_config_file(cfg_path)))
    assert [(i.kind, i.values) for i in code.instances] == [(AnnotationKind.COMPONENT, ("Car",))]
    assert code.findings == ()


@pytest.mark.parametrize("extensions", [(".JAVA",), ("java",)])
def test_built_config_normalizes_extensions(tmp_path: Path, extensions: tuple[str, ...]) -> None:
    # A ScanConfig built in code claims the files one read from a file does.
    (tmp_path / "Car.java").write_text('@Component("Car") class Car {}\n')
    config = ScanConfig(attribute_extensions=extensions)
    assert config == ScanConfig()
    code = scan_tree([tmp_path], config)
    assert [(i.kind, i.values) for i in code.instances] == [(AnnotationKind.COMPONENT, ("Car",))]
    assert code.findings == ()


def test_config_file_fingerprint_is_pinned() -> None:
    # Normalizing in the constructor keeps the fingerprint of file configs.
    cfg = ScanConfig.from_mapping({"attribute_extensions": "JAVA, .Cs", "pragma_extensions": "TXT, *"})
    assert (cfg.attribute_extensions, cfg.pragma_extensions) == ((".java", ".cs"), (".txt", "*"))
    assert cfg.semantic_fingerprint() == (
        "2da3cc707033afd16321dfd08a662ac11341de96cd7269055f033ce83eb9e7a6"
    )


@pytest.mark.parametrize(
    "mapping",
    [
        {"sigil": "tab\there"},
        {"sigil": "#arch", "exclude": "gen/*"},
        {"sigil": ""},
        {"sigil": "has space"},
    ],
)
def test_config_value_validation(mapping: dict) -> None:
    with pytest.raises(ConfigError) as loaded:
        ScanConfig.from_mapping(mapping)
    with pytest.raises(ConfigError) as built:
        ScanConfig(sigil=mapping["sigil"])
    assert str(built.value) == str(loaded.value)


@pytest.mark.parametrize("sigil", [";arch", "*arch", "!arch"])
def test_config_rejects_sigil_starting_with_comment_leader(tmp_path: Path, sigil: str) -> None:
    # Pragma lines are stripped of comment characters before the sigil is
    # matched, so such a sigil would silently find nothing.
    cfg_path = tmp_path / "archlint.conf"
    cfg_path.write_text(f"sigil = {sigil}\n")
    with pytest.raises(ConfigError) as loaded:
        ScanConfig.from_mapping(load_config_file(cfg_path))
    assert repr(sigil[0]) in str(loaded.value)
    with pytest.raises(ConfigError) as built:
        ScanConfig(sigil=sigil)
    assert str(built.value) == str(loaded.value)
