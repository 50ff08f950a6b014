import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import archlint
from archlint.cli import build_parser, main

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report-schema.json").read_text())

CAR = [
    "--arch", str(DATA / "car" / "car.arch"),
    "--src", str(DATA / "car" / "src"),
]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _finding_multiset_from_text(text: str) -> Counter:
    rows = []
    for line in text.splitlines():
        if line and ":" in line.split(" ")[0]:
            loc, severity, check_id, element, *_ = line.split(" ")
            rows.append((loc, severity, check_id, element))
    return Counter(rows)


def _finding_multiset_from_json(payload: dict) -> Counter:
    rows = []
    for f in payload["findings"]:
        loc = f["locations"][0] if f["locations"] else {"file": "-", "line": 0, "column": 0}
        rows.append(
            (
                f"{loc['file']}:{loc['line']}:{loc['column']}",
                f["severity"],
                f["check_id"],
                f["element"] if f["element"] is not None else "-",
            )
        )
    return Counter(rows)


# --- check ------------------------------------------------------------------


def test_check_clean_tree(capsys) -> None:
    code, out, err = run(capsys, "check", *CAR)
    assert code == 0
    assert out == "0 error(s), 0 warning(s)\n"
    assert err == ""


def test_check_validates_the_model_once(capsys, monkeypatch) -> None:
    # Every archlint module that binds validate_model gets the counting one.
    original = archlint.model.validate_model
    calls = []

    def counting(model):
        calls.append(model)
        return original(model)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("archlint") and hasattr(module, "validate_model"):
            if getattr(module, "validate_model") is original:
                monkeypatch.setattr(module, "validate_model", counting)
    code, _, _ = run(capsys, "check", *CAR)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_report_matches_golden(capsys, fmt: str) -> None:
    """Every message shape of checks 1 and 2, byte for byte."""
    tree = DATA / "referents"
    code, out, err = run(
        capsys, "check", "--arch", str(tree / "referents.arch"), "--src", str(tree / "src"),
        "--format", fmt,
    )
    assert (code, err) == (1, "")
    suffix = "json" if fmt == "json" else "txt"
    assert out == (DATA / "golden" / f"referents_check.golden.{suffix}").read_text(encoding="utf-8")


def test_check_json_is_schema_valid(capsys) -> None:
    code, out, _ = run(capsys, "check", *CAR, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["findings"] == []
    assert payload["counts"] == {}


def test_check_reports_conformance_errors(capsys, tmp_path: Path) -> None:
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(DATA / "car_solo" / "Car.java", src / "Car.java")
    code, out, _ = run(capsys, "check", "--arch", str(DATA / "car" / "car.arch"), "--src", str(src))
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "3 error(s), 0 warning(s)"
    assert sum("MISSING_ANNOTATION" in line for line in lines) == 3
    assert any(line.startswith("-:0:0 ERROR MISSING_ANNOTATION Engine ") for line in lines)


def test_check_json_matches_text_multiset(capsys, tmp_path: Path) -> None:
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(DATA / "car_solo" / "Car.java", src / "Car.java")
    args = ("check", "--arch", str(DATA / "car" / "car.arch"), "--src", str(src))
    _, text_out, _ = run(capsys, *args)
    _, json_out, _ = run(capsys, *args, "--format", "json")
    payload = json.loads(json_out)
    jsonschema.validate(payload, SCHEMA)
    assert _finding_multiset_from_text(text_out) == _finding_multiset_from_json(payload)


def test_check_fail_on_warning(capsys, tmp_path: Path) -> None:
    src = tmp_path / "src"
    src.mkdir()
    (src / "Engine.java").write_text(
        'public @Component("Engine") class Engine {\n'
        '    public @Connects(left="rear", right="e.p", leftcomponent="Car",'
        ' rightcomponent="Car", type=Arrow.LEFT) @Port("p") void p() {}\n'
        "}\n"
    )
    (src / "Car.java").write_text(
        (DATA / "car" / "src" / "vehicle" / "Car.java").read_text()
    )
    (src / "Wheel.java").write_text(
        (DATA / "car" / "src" / "vehicle" / "Wheel.java").read_text()
    )
    args = ("check", "--arch", str(DATA / "car" / "car.arch"), "--src", str(src))
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "CONTEXT_OVERRIDE" in out
    code, _, _ = run(capsys, *args, "--fail-on", "warning")
    assert code == 1


def test_check_multiple_roots(capsys, tmp_path: Path) -> None:
    r1 = tmp_path / "r1"
    r2 = tmp_path / "r2"
    r1.mkdir()
    r2.mkdir()
    vehicle = DATA / "car" / "src" / "vehicle"
    shutil.copy(vehicle / "Car.java", r1 / "Car.java")
    shutil.copy(vehicle / "Engine.java", r2 / "Engine.java")
    shutil.copy(vehicle / "Wheel.java", r2 / "Wheel.java")
    code, _, _ = run(
        capsys, "check", "--arch", str(DATA / "car" / "car.arch"), "--src", str(r1), "--src", str(r2)
    )
    assert code == 0


def test_check_reports_each_roots_copy_of_a_finding(capsys, tmp_path: Path) -> None:
    # Locations are root-relative, so the two findings print alike; both count.
    roots = []
    for root in ("r1", "r2"):
        (tmp_path / root).mkdir()
        (tmp_path / root / "X.txt").write_text('// @arch Bogus("A") @on type A\n')
        roots += ["--src", str(tmp_path / root)]
    code, out, _ = run(capsys, "extract", *roots)
    extracted = [line for line in out.splitlines() if "MALFORMED_PRAGMA" in line]
    assert len(extracted) == 2
    arch = tmp_path / "empty.arch"
    arch.write_text("")
    code, out, _ = run(capsys, "check", "--arch", str(arch), *roots)
    assert code == 1
    assert [line for line in out.splitlines() if "MALFORMED_PRAGMA" in line] == extracted
    assert out.splitlines()[-1] == "2 error(s), 0 warning(s)"


def test_check_with_config(capsys, tmp_path: Path) -> None:
    cfg = tmp_path / "archlint.conf"
    cfg.write_text("exclude = vehicle/*\n")
    code, out, _ = run(capsys, "check", *CAR, "--config", str(cfg))
    assert code == 1
    assert "MISSING_ANNOTATION" in out


# --- extract ----------------------------------------------------------------


def test_check_rejects_sigil_that_pragma_lines_strip(capsys, tmp_path: Path) -> None:
    (tmp_path / "car.arch").write_text("component Car {\n}\n")
    (tmp_path / "archlint.conf").write_text("sigil = ;arch\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "car.py").write_text("# ;arch Component(Car) @on type\n")
    code, out, err = run(
        capsys, "check", "--arch", str(tmp_path / "car.arch"), "--src", str(src),
        "--config", str(tmp_path / "archlint.conf"),
    )
    assert code == 2
    assert out == ""
    assert "';'" in err


def test_extract_text(capsys) -> None:
    code, out, _ = run(capsys, "extract", "--src", str(DATA / "car" / "src"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == 'vehicle/Car.java:3:8 @Component("Car") on type Car'
    assert any("@Connects" in line and "in Car" in line for line in lines)


def test_extract_json_matches_golden(capsys, tmp_path: Path) -> None:
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(DATA / "car_solo" / "Car.java", src / "Car.java")
    code, out, _ = run(capsys, "extract", "--src", str(src), "--format", "json")
    assert code == 0
    assert out == (DATA / "golden" / "car_solo_extract.golden.json").read_text()


def test_extract_text_escapes_quotes_and_backslashes(capsys, tmp_path: Path) -> None:
    (tmp_path / "a.txt").write_text(
        '// @arch Component("A\\", right=\\"B") @on type A\n'
        '// @arch Connects(left="b\\\\q", right="p") @on method m @in C\n'
    )
    code, out, _ = run(capsys, "extract", "--src", str(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        'a.txt:1:4 @Component("A\\", right=\\"B") on type A',
        'a.txt:2:4 @Connects(left="b\\\\q", right="p") on method m in C',
    ]


def test_extract_scans_same_relative_path_in_every_root(capsys, tmp_path: Path) -> None:
    for root, name in (("r1", "A"), ("r2", "B")):
        (tmp_path / root).mkdir()
        (tmp_path / root / "X.txt").write_text(f'// @arch Component("{name}") @on type {name}\n')
    r1, r2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    code, out, _ = run(capsys, "extract", "--src", r1, "--src", r2)
    assert code == 0
    assert out.splitlines() == [
        'X.txt:1:4 @Component("A") on type A',
        'X.txt:1:4 @Component("B") on type B',
    ]
    code, out, _ = run(capsys, "extract", "--src", r1, "--src", str(tmp_path / "r1" / "."))
    assert out.splitlines() == ['X.txt:1:4 @Component("A") on type A']


def test_extract_empty_tree(capsys, tmp_path: Path) -> None:
    code, out, _ = run(capsys, "extract", "--src", str(tmp_path))
    assert code == 0
    assert out == ""


def test_extract_exit_zero_even_with_findings(capsys, tmp_path: Path) -> None:
    (tmp_path / "Bad.java").write_text('class C { public @Connects(left="x") C() {} }\n')
    code, out, _ = run(capsys, "extract", "--src", str(tmp_path))
    assert code == 0
    assert "MALFORMED_ANNOTATION" in out


# --- smells -----------------------------------------------------------------


def test_smells_text(capsys) -> None:
    code, out, _ = run(capsys, "smells", *CAR)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "vehicle/Car.java:9:9 WARNING CONNECTOR_LIFECYCLE Car/c1"
        " connector 'Car/c1' has no disconnecting method"
    )
    assert lines[-1] == "0 error(s), 1 warning(s)"


def test_smells_fail_on_warning(capsys) -> None:
    code, _, _ = run(capsys, "smells", *CAR, "--fail-on", "warning")
    assert code == 1


def test_smells_clean_pair(capsys) -> None:
    code, out, _ = run(
        capsys,
        "smells",
        "--arch", str(DATA / "car_paired" / "car.arch"),
        "--src", str(DATA / "car_paired" / "src"),
    )
    assert code == 0
    assert out == "0 error(s), 0 warning(s)\n"


def test_smells_json_schema(capsys) -> None:
    code, out, _ = run(capsys, "smells", *CAR, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["counts"] == {"CONNECTOR_LIFECYCLE": 1}


def test_smells_config_threshold(capsys, tmp_path: Path) -> None:
    cfg = tmp_path / "archlint.conf"
    cfg.write_text("scatter_threshold = 3\n")
    code, out, _ = run(
        capsys,
        "smells",
        "--arch", str(DATA / "scatter" / "scatter.arch"),
        "--src", str(DATA / "scatter" / "src"),
        "--config", str(cfg),
    )
    assert code == 0
    assert "SCATTERED_COMPONENT" not in out


def test_smells_json_matches_golden(capsys) -> None:
    tree = DATA / "scatter"
    code, out, err = run(
        capsys, "smells", "--arch", str(tree / "scatter.arch"), "--src", str(tree / "src"),
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert out == (DATA / "golden" / "scatter_smells.golden.json").read_text(encoding="utf-8")


# --- lookup -----------------------------------------------------------------


def test_lookup_part(capsys) -> None:
    code, out, _ = run(capsys, "lookup", *CAR, "Car.rear")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Car.rear: 3 annotation(s)"
    assert len(lines) == 4
    assert all("vehicle/Car.java" in line for line in lines[1:])
    assert '@Part("rear") on field rear in Car' in lines[1]


def test_lookup_connector_grouping(capsys) -> None:
    code, out, _ = run(capsys, "lookup", *CAR, "Car/c1")
    assert code == 0
    assert out.splitlines()[0] == "connector Car/c1"
    assert "connects (1)" in out
    assert "disconnects (0)" in out
    assert "stores (0)" in out


@pytest.mark.parametrize("element", ["Car", "Car.rear", "Engine#p", "Car/c1"])
def test_lookup_json_matches_golden(capsys, element: str) -> None:
    code, out, err = run(capsys, "lookup", *CAR, "--format", "json", element)
    assert (code, err) == (0, "")
    name = re.sub(r"[./#]", "_", element)
    assert out == (DATA / "golden" / f"car_lookup_{name}.golden.json").read_text(encoding="utf-8")


def test_lookup_unknown_element(capsys) -> None:
    code, out, err = run(capsys, "lookup", *CAR, "Nope")
    assert code == 2
    assert out == ""
    assert "unknown element 'Nope'" in err


def test_lookup_malformed_ref(capsys) -> None:
    code, _, err = run(capsys, "lookup", *CAR, "Car..x")
    assert code == 2
    assert "Car..x" in err


# --- refactor ---------------------------------------------------------------


@pytest.fixture()
def desktop_copy(tmp_path: Path) -> Path:
    dest = tmp_path / "desktop"
    shutil.copytree(DATA / "desktop", dest)
    return dest


def test_refactor_writes_sibling_file(capsys, desktop_copy: Path) -> None:
    arch = desktop_copy / "desktop.arch"
    before = arch.read_text()
    code, out, err = run(
        capsys,
        "refactor",
        "--arch", str(arch),
        "--src", str(desktop_copy / "src"),
        "--plan", str(desktop_copy / "desktop.plan"),
    )
    assert code == 0
    dest = desktop_copy / "desktop.refactored.arch"
    assert dest.exists()
    assert str(dest) in err
    assert arch.read_text() == before
    assert dest.read_text() == (DATA / "golden" / "desktop.refactored.golden.arch").read_text()
    lines = out.splitlines()
    assert lines[0] == "plan desktop: 11 step(s)"
    assert lines[1] == "step 1: add-port(Model, queryOut)"


def test_refactor_in_place(capsys, desktop_copy: Path) -> None:
    arch = desktop_copy / "desktop.arch"
    code, _, _ = run(
        capsys,
        "refactor",
        "--arch", str(arch),
        "--src", str(desktop_copy / "src"),
        "--plan", str(desktop_copy / "desktop.plan"),
        "--in-place",
    )
    assert code == 0
    assert arch.read_text() == (DATA / "golden" / "desktop.refactored.golden.arch").read_text()
    assert not (desktop_copy / "desktop.refactored.arch").exists()


def test_refactor_json_impact(capsys, desktop_copy: Path) -> None:
    code, out, _ = run(
        capsys,
        "refactor",
        "--arch", str(desktop_copy / "desktop.arch"),
        "--src", str(desktop_copy / "src"),
        "--plan", str(desktop_copy / "desktop.plan"),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["plan"] == "desktop"
    assert [s["step"] for s in payload["steps"]] == list(range(1, 12))
    step8 = payload["steps"][7]
    assert step8["op"] == "remove-connector(c_direct)"
    touched_refs = {t["ref"] for t in step8["touched"]}
    assert "System/c_direct" in touched_refs


def test_refactor_json_matches_golden(capsys, desktop_copy: Path) -> None:
    code, out, _ = run(
        capsys,
        "refactor",
        "--arch", str(desktop_copy / "desktop.arch"),
        "--src", str(desktop_copy / "src"),
        "--plan", str(desktop_copy / "desktop.plan"),
        "--format", "json",
    )
    assert code == 0
    assert out == (DATA / "golden" / "desktop_refactor.golden.json").read_text(encoding="utf-8")


def test_refactor_failing_plan_writes_nothing(capsys, desktop_copy: Path) -> None:
    plan = desktop_copy / "bad.plan"
    plan.write_text("add-port(Model, tmp)\nremove-port(Model, api)\n")
    arch = desktop_copy / "desktop.arch"
    before = arch.read_text()
    code, out, err = run(
        capsys,
        "refactor",
        "--arch", str(arch),
        "--src", str(desktop_copy / "src"),
        "--plan", str(plan),
    )
    assert code == 1
    assert out == ""
    assert "PLAN_FAILED" in err
    assert "step 2" in err
    assert arch.read_text() == before
    assert not (desktop_copy / "desktop.refactored.arch").exists()


def test_refactor_empty_plan_is_usage_error(capsys, desktop_copy: Path) -> None:
    plan = desktop_copy / "empty.plan"
    plan.write_text("// nothing\n")
    code, _, err = run(
        capsys,
        "refactor",
        "--arch", str(desktop_copy / "desktop.arch"),
        "--src", str(desktop_copy / "src"),
        "--plan", str(plan),
    )
    assert code == 2
    assert "no operations" in err


# --- scaffold ---------------------------------------------------------------


def test_scaffold_car(capsys, tmp_path: Path) -> None:
    out_dir = tmp_path / "skeleton"
    code, out, _ = run(
        capsys,
        "scaffold",
        "--arch", str(DATA / "car" / "car.arch"),
        "--out", str(out_dir),
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["Car.txt", "Engine.txt", "Wheel.txt"]
    assert len(out.splitlines()) == 3

    check_code, _, _ = run(
        capsys, "check", "--arch", str(DATA / "car" / "car.arch"), "--src", str(out_dir)
    )
    assert check_code == 0


def test_scaffold_empty_architecture(capsys, tmp_path: Path) -> None:
    arch = tmp_path / "empty.arch"
    arch.write_text("// architecture description\n")
    out_dir = tmp_path / "skeleton"
    code, out, _ = run(capsys, "scaffold", "--arch", str(arch), "--out", str(out_dir))
    assert code == 0
    assert out == ""
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "option", [["--format", "json"], ["--config", "archlint.conf"]], ids=["format", "config"]
)
def test_scaffold_takes_only_arch_and_out(capsys, tmp_path: Path, option: list[str]) -> None:
    out_dir = tmp_path / "skeleton"
    argv = ["scaffold", "--arch", str(DATA / "car" / "car.arch"), "--out", str(out_dir)]
    code, _, err = run(capsys, *argv, *option)
    assert code == 2
    assert f"unrecognized arguments: {option[0]}" in err
    assert not out_dir.exists()


# --- shared plumbing --------------------------------------------------------


def test_version_flag(capsys) -> None:
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("archlint ")


def test_no_subcommand_is_usage_error(capsys) -> None:
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys) -> None:
    code, _, _ = run(capsys, "check", *CAR, "--wat")
    assert code == 2


def test_missing_arch_file(capsys, tmp_path: Path) -> None:
    code, _, err = run(
        capsys, "check", "--arch", str(tmp_path / "nope.arch"), "--src", str(tmp_path)
    )
    assert code == 2
    assert "nope.arch" in err


def test_missing_src_root(capsys, tmp_path: Path) -> None:
    code, _, err = run(
        capsys,
        "check",
        "--arch", str(DATA / "car" / "car.arch"),
        "--src", str(tmp_path / "nothing"),
    )
    assert code == 2
    assert "nothing" in err


def test_malformed_arch_file(capsys, tmp_path: Path) -> None:
    bad = tmp_path / "bad.arch"
    bad.write_text("component {\n")
    code, _, err = run(capsys, "check", "--arch", str(bad), "--src", str(tmp_path))
    assert code == 2
    assert "1:11" in err


def test_arch_file_with_non_decimal_digit(capsys, tmp_path: Path) -> None:
    bad = tmp_path / "bad.arch"
    bad.write_text("component A { part p: A [²]; }\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "--arch", str(bad), "--src", str(tmp_path))
    assert code == 2
    assert "unexpected character '²'" in err


def test_bad_config_key(capsys, tmp_path: Path) -> None:
    cfg = tmp_path / "bad.conf"
    cfg.write_text("wat = 1\n")
    code, _, err = run(capsys, "check", *CAR, "--config", str(cfg))
    assert code == 2
    assert "wat" in err


def test_module_entry_point(tmp_path: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "archlint", "check", *CAR],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 error(s), 0 warning(s)\n"


def _car_argv(tmp_path: Path, command: str, element: str = "Car.rear") -> list[str]:
    """`command` on a copy of tests/data/car's architecture and its sources."""
    arch = tmp_path / "car.arch"
    shutil.copyfile(DATA / "car" / "car.arch", arch)
    (tmp_path / "car.plan").write_text("add-port(Engine, q)\n")
    common = ["--arch", str(arch), "--src", str(DATA / "car" / "src")]
    return {
        "check": ["check", *common],
        "smells": ["smells", *common],
        "extract": ["extract", "--src", str(DATA / "car" / "src")],
        "lookup": ["lookup", *common, element],
        "refactor": ["refactor", *common, "--plan", str(tmp_path / "car.plan")],
        "scaffold": ["scaffold", "--arch", str(arch), "--out", str(tmp_path / "out")],
    }[command]


@pytest.mark.parametrize("command", ["check", "smells", "extract", "lookup", "refactor"])
def test_every_command_checks_the_smell_config(capsys, tmp_path: Path, command: str) -> None:
    cfg = tmp_path / "archlint.conf"
    cfg.write_text("scatter_threshold = 1\n")
    code, out, err = run(capsys, *_car_argv(tmp_path, command), "--config", str(cfg))
    assert (code, out, err) == (2, "", "archlint: scatter_threshold must be >= 2\n")
    assert not (tmp_path / "car.refactored.arch").exists()


@pytest.mark.parametrize("kind", ["arch", "plan", "conf"])
def test_non_utf8_input_file_is_a_file_problem(tmp_path: Path, kind: str) -> None:
    """An input file that is not UTF-8 is a file problem: exit 2, no traceback."""
    argv = _car_argv(tmp_path, "refactor")
    cfg = tmp_path / "car.conf"
    cfg.write_text("")
    (tmp_path / f"car.{kind}").write_bytes(b"component \xff {}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "archlint", *argv, "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("archlint: cannot read "), proc.stderr
    assert f"car.{kind}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "car.refactored.arch").exists()


def test_commands_call_public_functions_rebound_in_loaded_modules(
    capsys, monkeypatch, tmp_path: Path
) -> None:
    """A tracer that rebinds a public function in every loaded `archlint.*`
    module (as bench/tracing.py does after `getattr(archlint, name)`) must see
    each command's call, including through imports made inside a command."""
    calls: Counter[str] = Counter()
    for name in ("lookup", "connector_usages", "run_all", "run_smells", "apply_plan"):
        original = getattr(archlint, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "archlint" or module_name.startswith("archlint."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    for command, element, name in [
        ("lookup", "Car.rear", "lookup"),
        ("lookup", "Car/c1", "connector_usages"),
        ("check", "", "run_all"),
        ("smells", "", "run_smells"),
        ("refactor", "", "apply_plan"),
    ]:
        before = calls[name]
        code, _, _ = run(capsys, *_car_argv(tmp_path, command, element))
        assert code == 0, command
        assert calls[name] == before + 1, (command, element)


# argv: the store directory ("" for none), then the command line.
_LOADED_MODULES = """
import contextlib, io, sys
from archlint.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:], store=sys.argv[1] or None)
print(code, "dataclasses" in sys.modules, *sorted(m for m in sys.modules if m.startswith("archlint.")))
"""


@pytest.mark.parametrize(
    "command", ["check", "smells", "extract", "lookup", "refactor", "scaffold"]
)
def test_each_command_loads_only_its_modules(tmp_path: Path, command: str) -> None:
    """Only `refactor` imports the refactoring module, only `smells` the smell
    detectors, and only `scaffold` the scaffolder. A scan imports only the
    front-ends of the files it extracts: the Java one for tests/data/car,
    the pragma one for tests/data/car_pragma, and neither when every file
    hits the store, nor then the ADL module, unless it refactors. No command imports `dataclasses` (with `inspect`,
    `ast`, `dis` and `tokenize` behind it) unless the interpreter loads it
    at start-up."""
    argv = _car_argv(tmp_path, command)
    env = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}

    def loaded(argv: list[str], store: str = "") -> tuple[str, list[str]]:
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, store, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        code, dataclasses_loaded, *modules = proc.stdout.split()
        assert code == "0", proc.stderr
        return dataclasses_loaded, modules

    dataclasses_loaded, modules = loaded(argv)
    assert "archlint.cli" in modules
    for module in ("refactor", "smells", "scaffold"):
        assert (f"archlint.{module}" in modules) == (command == module), modules
    front_ends = {m for m in modules if m in ("archlint.java", "archlint.pragma")}
    assert front_ends == (set() if command == "scaffold" else {"archlint.java"}), modules
    if command != "scaffold":
        pragma_argv = [str(DATA / "car_pragma" / "src") if arg == str(DATA / "car" / "src")
                       else arg for arg in argv]
        assert {"archlint.pragma"} == {
            m for m in loaded(pragma_argv)[1] if m in ("archlint.java", "archlint.pragma")
        }
        store = str(tmp_path / "store")
        for src_argv in (argv, pragma_argv):
            loaded(src_argv, store)
            warm = loaded(src_argv, store)[1]
            assert "archlint.java" not in warm and "archlint.pragma" not in warm, warm
            # The store holds the `.arch` and its canonical text: only a
            # refactoring, which writes a new `.arch`, loads the ADL module.
            assert ("archlint.adl" in warm) == (command == "refactor"), warm
    at_start = subprocess.run(
        [sys.executable, "-c", 'import sys; print("dataclasses" in sys.modules)'],
        capture_output=True, text=True, env=env,
    ).stdout.strip()
    if at_start != "True":
        assert dataclasses_loaded == "False", command


def _lowest_declared_python() -> str | None:
    """A working interpreter of the oldest version pyproject.toml declares:
    `pythonX.Y` on PATH, else one that pyenv has installed, since PATH may
    hold only pyenv's shim, which fails when no such version is selected."""
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    lowest = re.search(r'requires-python = ">=(\d+\.\d+)"', pyproject)[1]
    candidates = [shutil.which(f"python{lowest}")]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            candidates += sorted(Path(root).glob(f"versions/{lowest}.*/bin/python{lowest}"))
    is_lowest = f"import sys; sys.exit(sys.version_info[:2] != {tuple(map(int, lowest.split('.')))})"
    for python in candidates:
        if python is not None and not subprocess.run(
            [python, "-c", is_lowest], capture_output=True
        ).returncode:
            return str(python)
    return None


@pytest.mark.parametrize("command", ["check", "smells"])
@pytest.mark.parametrize(
    "arch, src",
    [
        pytest.param("car/car.arch", "car/src", id="car"),
        pytest.param("desktop/desktop.arch", "desktop/src", id="desktop"),
        pytest.param("car/car.arch", "car_pragma/src", id="car_pragma"),
    ],
)
def test_oldest_declared_python_gives_the_same_report(
    command: str, arch: str, src: str, tmp_path: Path
) -> None:
    """Each interpreter runs twice in a working directory of its own: cold,
    and warm from the store the cold run left there."""
    python = _lowest_declared_python()
    if python is None:
        pytest.skip("the oldest declared Python is not on PATH")
    argv = ["-m", "archlint", command, "--arch", str(DATA / arch), "--src", str(DATA / src)]
    env = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}
    runs = []
    for n, exe in enumerate((python, sys.executable)):
        cwd = tmp_path / str(n)
        cwd.mkdir()
        for _ in range(2):
            proc = subprocess.run(
                [exe, *argv, "--format", "json"], capture_output=True, text=True, env=env, cwd=cwd
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert any((cwd / ".archlint_cache").iterdir())
    assert runs[1:] == runs[:1] * 3


# --- README -----------------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"


def _readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_synopsis_lists_every_option() -> None:
    block = _readme_section("Commands").split("```")[1]
    synopsis = {line.split()[1]: line for line in block.splitlines() if line.startswith("archlint ")}
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(synopsis) == set(commands)
    for name, command in commands.items():
        shown = set(re.findall(r"--[a-z-]+|\b[A-Z]+\b", synopsis[name]))
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            words = action.option_strings or [action.dest.upper()]
            assert shown & set(words), (name, words)


def test_readme_lists_every_plan_operation() -> None:
    from archlint.refactor import OPERATIONS

    section = _readme_section("Refactoring plans")
    for row in OPERATIONS:
        assert f"\n| `{row.name}` | " in section, row.name


def _readme_table(section: str, caption: str) -> list[list[str]]:
    """The cells of each body row of the table after `caption`."""
    lines = section.split(caption, 1)[1].strip().splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_readme_annotation_tables_match_the_kind_rows() -> None:
    from archlint.annotations import (
        AnnotationKind,
        _componentname_or_enclosing,
        _enclosing,
        _root,
    )

    rows = _readme_table(
        _readme_section("Source annotations"), "The eight annotations and their legal targets:"
    )
    assert len(rows) == len(AnnotationKind)
    for (annotation, targets, _), kind in zip(rows, AnnotationKind):
        assert annotation.startswith(f"`@{kind.value}("), annotation
        assert set(targets.split(", ")) == {t.value for t in kind.targets}, kind
        assert all(f"{key}=" in annotation for key in kind.required), kind
        assert ('"' in annotation) == kind.value_required, kind

    owner_words = {
        _root: "the document root",
        _enclosing: "each enclosing component",
        _componentname_or_enclosing: "`componentname`, else each enclosing component",
    }
    checks = _readme_section("Conformance checks")
    shown = {
        name: (names, owners)
        for annotations, names, owners in _readme_table(checks, "what each value names:")
        for name in annotations.split(", ")
    }
    assert shown == {
        f"`@{kind.value}`": (f"a {kind.referent.value}", owner_words[kind.owners])
        for kind in AnnotationKind
        if kind.referent is not None
    }
    for kind in AnnotationKind:
        if kind.referent is not None and not kind.covers:
            assert f"except `@{kind.value}`, which covers nothing" in " ".join(checks.split())


def test_text_output_keeps_each_record_on_one_line(capsys, tmp_path: Path) -> None:
    """A line break inside a value or a file name is escaped, so `extract`
    prints one line per instance and finding, and `check` one per finding
    and the summary."""
    java = tmp_path / "java"
    java.mkdir()
    (java / "A.java").write_text(
        '@Component("""\n    A\n    B\n    """) class A {}\n', encoding="utf-8"
    )
    odd = tmp_path / "pragma" / "odd\ndir\u2028"
    odd.mkdir(parents=True)
    (odd / "a\x85b\rc.txt").write_text(
        '// @arch Component("A") @on type A\n// @arch Bogus() @on type B\n', encoding="utf-8"
    )
    arch = tmp_path / "app.arch"
    arch.write_text("component A {\n}\ncomponent C {\n}\n", encoding="utf-8")
    for src, records in ((java, 1), (tmp_path / "pragma", 2)):
        _, dump, _ = run(capsys, "extract", "--src", str(src), "--format", "json")
        model = json.loads(dump)
        _, out, _ = run(capsys, "extract", "--src", str(src))
        assert len(out.splitlines()) == len(model["instances"]) + len(model["findings"]) == records
        _, report, _ = run(capsys, "check", "--arch", str(arch), "--src", str(src), "--format", "json")
        _, out, _ = run(capsys, "check", "--arch", str(arch), "--src", str(src))
        assert len(out.splitlines()) == len(json.loads(report)["findings"]) + 1
        assert "\\n" in out
    assert "odd\\ndir\\u2028/a\\x85b\\rc.txt:2:4 ERROR MALFORMED_PRAGMA" in out
