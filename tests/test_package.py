"""The package surface: `archlint.__all__` names resolve on first use."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import archlint

ENV = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}


def test_public_names_are_their_defining_modules_objects() -> None:
    for name in archlint.__all__:
        value = getattr(archlint, name)
        module = importlib.import_module(f"archlint.{archlint._MODULE_OF[name]}")
        assert getattr(module, name) is value, name
        if hasattr(value, "__module__"):
            assert value.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_public_name() -> None:
    namespace: dict = {}
    exec("from archlint import *", namespace)
    assert set(archlint.__all__) <= set(namespace)
    for name in archlint.__all__:
        assert namespace[name] is getattr(archlint, name)
    assert set(archlint.__all__) <= set(dir(archlint))
    assert "__version__" in dir(archlint)


def test_unknown_name_is_an_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        archlint.no_such_name
    with pytest.raises(ImportError):
        exec("from archlint import no_such_name", {})


def test_import_loads_a_submodule_on_first_use() -> None:
    script = (
        "import sys, archlint\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('archlint.'))\n"
        "print(*loaded(), sep=',')\n"
        "archlint.lookup\n"
        "print(*loaded(), sep=',')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == ""
    assert "archlint.conformance" in after.split(",")
    assert "archlint.refactor" not in after.split(",")


def test_version_is_unchanged() -> None:
    assert archlint.__version__ == "0.1.0"
    proc = subprocess.run(
        [sys.executable, "-m", "archlint", "--version"], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0
    assert proc.stdout == "archlint 0.1.0\n"


def test_json_text_comes_only_from_the_record_templates() -> None:
    """`archlint.jsontext` is the one definition of each record's JSON shape."""
    defines_payload = re.compile(r"^\s*def (\w*_payload|canonical_json)\b", re.MULTILINE)
    modules = sorted(Path(archlint.__file__).parent.glob("*.py"))
    assert modules
    for module in modules:
        text = module.read_text(encoding="utf-8")
        assert "json.dumps" not in text, module.name
        assert defines_payload.search(text) is None, module.name


def test_only_the_lexer_defines_the_token_cursor() -> None:
    """`lexer.Cursor` is the one token reader; parsers subclass it."""
    defines_cursor = re.compile(r"^\s*def (peek|advance|expect_punct|expect_ident)\b", re.MULTILINE)
    modules = sorted(Path(archlint.__file__).parent.glob("*.py"))
    assert [m.name for m in modules if defines_cursor.search(m.read_text(encoding="utf-8"))] == [
        "lexer.py"
    ]


def test_only_the_lexer_turns_an_offset_into_a_line() -> None:
    """`lexer.Lines` is the one position rule: no other module counts the
    newlines before an offset or finds the last one."""
    counts_lines = re.compile(r"""\.(count|rindex|rfind)\(\s*["']\\n["']""")
    modules = sorted(Path(archlint.__file__).parent.glob("*.py"))
    assert [m.name for m in modules if counts_lines.search(m.read_text(encoding="utf-8"))] == [
        "lexer.py"
    ]


def test_only_the_store_reads_a_file_stat() -> None:
    """`store._record` is the one stat rule: no other module reads the
    fields a stored stat is made of."""
    reads_stat = re.compile(r"\.st_(size|mtime_ns|ctime_ns|ino|dev)\b")
    modules = sorted(Path(archlint.__file__).parent.glob("*.py"))
    assert [m.name for m in modules if reads_stat.search(m.read_text(encoding="utf-8"))] == [
        "store.py"
    ]


def test_only_the_model_writes_an_element_path() -> None:
    """`model._SEPARATORS` is the one path rule: no other module joins two
    f-string fields with a port's `#` or a connector's `/`."""
    joins = set()
    for module in sorted(Path(archlint.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.JoinedStr):
                continue
            for before, between, after in zip(node.values, node.values[1:], node.values[2:]):
                if (
                    isinstance(before, ast.FormattedValue)
                    and isinstance(between, ast.Constant)
                    and between.value in ("#", "/")
                    and isinstance(after, ast.FormattedValue)
                ):
                    joins.add(module.name)
    assert joins == {"model.py"}


def _scopes():
    """(module file name, scope name, scope node) for each top-level statement
    of each `archlint` module, and each statement of a top-level class: a
    method counts as itself, a nested function as the one it is in."""
    for module in sorted(Path(archlint.__file__).parent.glob("*.py")):
        for top in ast.parse(module.read_text(encoding="utf-8")).body:
            for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
                where = getattr(top, "name", "<module>")
                if scope is not top:
                    where += f".{getattr(scope, 'name', '')}"
                yield module.name, where, scope


def test_one_rule_for_what_an_element_annotation_names() -> None:
    """`annotations.index_elements` is the only function that reads a kind's
    `owners`, the owners of an annotation's values."""
    readers = set()
    for module, where, scope in _scopes():
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr == "owners" and isinstance(node.ctx, ast.Load):
                readers.add((module, where))
    assert readers == {("annotations.py", "index_elements")}


def test_one_reading_of_a_connection_annotations_sides() -> None:
    """`conformance.resolve_connection` is the only function that spells the
    two sides `("left", "right")` or reads a side's `f"{side}component"`
    attribute."""
    readers = set()
    for module, where, scope in _scopes():
        for node in ast.walk(scope):
            if isinstance(node, ast.Tuple):
                sides = [getattr(e, "value", None) for e in node.elts] == ["left", "right"]
            elif isinstance(node, ast.JoinedStr) and len(node.values) == 2:
                side, rest = node.values
                sides = isinstance(side, ast.FormattedValue) and getattr(rest, "value", None) == "component"
            else:
                continue
            if sides:
                readers.add((module, where))
    assert readers == {("conformance.py", "resolve_connection")}


def test_one_existence_rule_and_one_path_rewriter_in_refactor() -> None:
    """`refactor._require` is the only function that words a missing
    element, and `refactor._rewrite_paths` the only one that names
    `walk_endpoint`; a nested function counts as the one it is in."""
    missing = re.compile(r"unknown component|no (part|port|connector|\{\})")
    tree = ast.parse((Path(archlint.__file__).parent / "refactor.py").read_text(encoding="utf-8"))
    words, walks = set(), set()
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "walk_endpoint" and isinstance(node.ctx, ast.Load):
                walks.add(where)
            if isinstance(node, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if missing.match(text):
                words.add(where)
    assert words == {"_require"}
    assert walks == {"_rewrite_paths"}


def test_each_token_table_is_compiled_in_its_own_module() -> None:
    """`lexer.py` defines no table and names no language: `JAVA` and
    `JAVA_SKIM` are compiled only in `java.py`, `PRAGMA` only in
    `pragma.py` and `ADL` only in `adl.py`."""
    tables = {"JAVA": "java.py", "JAVA_SKIM": "java.py", "PRAGMA": "pragma.py", "ADL": "adl.py"}
    defined: dict[str, list[str]] = {}
    built: dict[str, list[str]] = {}
    for module in sorted(Path(archlint.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_table":
                built.setdefault(module.name, []).append(node)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id in tables:
                    defined.setdefault(target.id, []).append(module.name)
    assert defined == {name: [home] for name, home in tables.items()}
    assert sorted(built) == ["adl.py", "java.py", "pragma.py"]
    lexer = (Path(archlint.__file__).parent / "lexer.py").read_text(encoding="utf-8")
    assert re.findall(r"java|pragma|\badl\b", lexer, re.IGNORECASE) == []


def test_every_import_is_read() -> None:
    """Each name a module imports is read somewhere in that module."""
    for module in sorted(Path(archlint.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - read) == [], module.name


# Caches keyed by constants of the program or of one run's configuration,
# so they cannot grow with the input.
_CONSTANT_KEYED_CACHES = {
    "pragma._sigil_and_tail",
    "jsontext._array_parts",
}


def test_every_input_keyed_cache_is_bounded() -> None:
    """Each `functools` cache in `archlint` is a decorator with a finite
    `maxsize`, or is one of the caches whose keys are constants."""
    found = set()
    for module in sorted(Path(archlint.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        uses = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")
            or isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
        ]
        decorated = 0
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in func.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                target = call.func if call else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name not in ("cache", "lru_cache"):
                    continue
                decorated += 1
                where = f"{module.stem}.{func.name}"
                found.add(where)
                given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
                # `lru_cache` without a size keeps 128 entries; `cache` keeps all.
                size = None if name == "cache" else ast.literal_eval(given[0]) if given else 128
                assert isinstance(size, int) or where in _CONSTANT_KEYED_CACHES, (
                    f"{where}: an unbounded cache not keyed by constants"
                )
        assert len(uses) == decorated, f"{module.name}: a cache made other than as a decorator"
    assert found >= _CONSTANT_KEYED_CACHES
