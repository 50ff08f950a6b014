"""Positions and robustness of the three front-ends that share one lexer."""

import importlib
import inspect
import pkgutil
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parser_grid import grid_report

import archlint
from archlint.adl import AdlParseError, parse_architecture
from archlint.annotations import PRAGMA_LEADERS, resolve_context
from archlint.java import extract_attributes
from archlint.lexer import Lines
from archlint.pragma import extract_pragmas

GOLDEN = Path(__file__).parent / "data" / "golden"


def _position(front_end: str, text: str) -> tuple[int, int]:
    """(line, column) of the last extracted instance, or of the ADL error."""
    if front_end == "adl":
        with pytest.raises(AdlParseError) as exc:
            parse_architecture(text)
        return (exc.value.line, exc.value.column)
    extract = extract_attributes if front_end == "java" else extract_pragmas
    instances, findings = extract(text, "f")
    assert findings == []
    return (instances[-1].location.line, instances[-1].location.column)


@pytest.mark.parametrize(
    "front_end, text, expected",
    [
        ("java", 'class A {\r\n\t@Part("p") B p;\r\n}\r\n', (2, 2)),
        ("java", '/* one\n * two */ @Component("A") class A {}\n', (2, 11)),
        ("java", 'class A {\n  String s = "x\\"y"; @Part("p") B p;\n}\n', (2, 22)),
        ("pragma", 'x = 1\r\n  # @arch Component("A") @on type A\r\n', (2, 5)),
        ("pragma", '\t//@arch Component("A") @on type A\n', (1, 4)),
        ("adl", "component A {\r\n\tport ;\r\n}\r\n", (2, 7)),
        ("adl", "// head\ncomponent A { part p: A [²]; }", (2, 26)),
        ("adl", "component A { port p; // no newline", (1, 36)),
        ("pragma", 'x\x0cy\n# @arch Component("A") @on type A\n', (2, 3)),
        ("pragma", 'x\u2028y\n# @arch Component("A") @on type A\n', (2, 3)),
        ("pragma", 'x = 1\x0c# @arch Component("A") @on type A\n', (1, 9)),
    ],
)
def test_token_positions(front_end: str, text: str, expected: tuple[int, int]) -> None:
    assert _position(front_end, text) == expected


def _brute_position(text: str, offset: int) -> tuple[int, int]:
    return (text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lines_matches_brute_force(data: st.DataObject) -> None:
    """In increasing order `Lines.at` counts on from its last answer; in
    shuffled order it restarts whenever an offset is earlier."""
    pieces = st.sampled_from(["\n", "\r\n", "\r", " ", "\x0c", "\t", "a", "é"])
    text = data.draw(st.lists(pieces).map("".join))
    offsets = data.draw(st.lists(st.integers(0, len(text))))
    for order in (sorted(offsets), data.draw(st.permutations(offsets))):
        lines = Lines(text)
        assert [lines.at(o) for o in order] == [_brute_position(text, o) for o in order]


_SOURCE_LIKE = st.text(alphabet='@"\'\\/*(){}[]=;,.:<->\t\r\n 0²Az_$PartComponentarch')
_TEXT = st.one_of(st.text(), _SOURCE_LIKE)


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_extract_attributes_never_raises(text: str) -> None:
    extract_attributes(text, "F.java")


@settings(max_examples=200, deadline=None)
@given(_TEXT, st.sampled_from(["@arch", "@@model"]))
def test_extract_pragmas_never_raises(text: str, sigil: str) -> None:
    extract_pragmas(text, "f.txt", sigil)
    extract_pragmas(f"// {sigil} {text}", "f.txt", sigil)


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_parse_architecture_raises_only_parse_errors(text: str) -> None:
    try:
        parse_architecture(text)
    except AdlParseError:
        pass


def _pragma_outcomes(text: str, sigil: str) -> tuple[list[tuple], list[tuple]]:
    """Instances and findings of extract_pragmas, locations aside."""
    return _outcomes(*extract_pragmas(text, "d/f.txt", sigil))


def _outcomes(instances: list, findings: list) -> tuple[list[tuple], list[tuple]]:
    return (
        [
            (i.kind, i.values, dict(i.attrs), i.target, i.target_name, i.enclosing_components, i.package)
            for i in instances
        ],
        [(f.check_id, f.message) for f in findings],
    )


_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_$")


def _per_line_pragmas(text: str, sigil: str) -> tuple[list[tuple], list[tuple]]:
    """Reference: each `str.splitlines` line that starts with leaders and the
    sigil, not followed by a word character, extracted on its own; then each
    instance takes the context `resolve_context` gives it."""
    instances: list = []
    findings: list = []
    for line in text.splitlines():
        stripped = line.lstrip(PRAGMA_LEADERS)
        rest = stripped[len(sigil) :]
        if not stripped.startswith(sigil) or rest[:1] in _WORD_CHARS:
            continue
        one_instances, one_findings = extract_pragmas(sigil + rest, "d/f.txt", sigil)
        assert len(one_instances) + len(one_findings) == 1
        instances += one_instances
        findings += one_findings
    return _outcomes(resolve_context(instances), findings)


_PRAGMA_LINE = st.tuples(
    st.sampled_from(["", " ", "\t", "//", "# ", ";", "*", "<!-- ", "x", "é"]),
    st.sampled_from(["@arch", "@@model", "arch", "@archx", "@arc"]),
    st.sampled_from(
        [
            "", " bogus(", '"', ' Component("A") @on type A', ' Part("p") @on field p @in B',
            'Port("q") @on method q', ' Connects(left="a", right="b", type=LEFT) @on method m',
        ]
    ),
    st.sampled_from(
        ["", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", " x\n"]
    ),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.lists(_PRAGMA_LINE, max_size=8).map("".join), _TEXT),
    st.sampled_from(["@arch", "@@model", "arch", "#arch", "@a\nb"]),
)
def test_extract_pragmas_matches_per_line_oracle(text: str, sigil: str) -> None:
    assert _pragma_outcomes(text, sigil) == _per_line_pragmas(text, sigil)


def _opcodes(parsed: object):
    """The opcode names in a parsed regular expression, nested ones too."""
    if isinstance(parsed, (list, tuple)) or type(parsed).__name__ == "SubPattern":
        for item in parsed:
            if isinstance(item, tuple) and len(item) == 2 and hasattr(item[0], "name"):
                yield item[0].name
                yield from _opcodes(item[1])
            else:
                yield from _opcodes(item)


def test_patterns_use_no_syntax_newer_than_python_3_10() -> None:
    """pyproject.toml declares Python 3.10, whose `re` has no possessive
    repeats and no atomic groups: a module-level pattern using one would
    fail to compile there, and `import archlint` with it. A pattern built
    on first use by a cached function without parameters would fail at
    its first use; those are checked too."""
    parser = getattr(re, "_parser", None)
    if parser is None:
        pytest.skip("the running Python is older than 3.11 and compiled every pattern")
    patterns = {}
    for info in pkgutil.iter_modules(archlint.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"archlint.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and not inspect.signature(value).parameters:
                name, value = f"{name}()", value()
            if isinstance(value, re.Pattern):
                patterns[f"{info.name}.{name}"] = value
    assert "java.JAVA_SKIM" in patterns
    newer = {
        name: sorted(ops)
        for name, pattern in patterns.items()
        if (ops := {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}.intersection(
            _opcodes(parser.parse(pattern.pattern, pattern.flags))
        ))
    }
    assert newer == {}


def test_parser_grid_matches_golden() -> None:
    golden = (GOLDEN / "parser_grid.golden.txt").read_text(encoding="utf-8")
    assert grid_report() == golden
