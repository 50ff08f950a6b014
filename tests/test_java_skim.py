"""The Java skim against the whole-file oracle (`java_oracle`).

`extract_attributes` builds full tokens only in windows around annotations
and type declarations. These tests hold it to the extractor that lexes every
token: equal instances and findings on generated Java-like text, equal code
models on every tree under `tests/data` and on the benchmark's generated
trees, and a token count that does not grow with plain members.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import java_oracle
from archlint import annotations
from archlint.annotations import extract_attributes
from archlint.jsontext import dump_code_model
from archlint.lexer import JAVA
from archlint.scan import ScanConfig, load_config_file, scan_tree

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).parent.parent / "bench"

_FRAGMENTS = [
    # declarations and their parts
    "package a.b;", "package x.record.y;", "class", "class A", "interface I", "enum E",
    "record R(int x)", "@interface Ann", "@interface", "public", "static", "final", "void",
    "int", "B", "b", "m()", "m(int a)", "new Object() {", "-> {", "(", ")", "{", "}", ";",
    "=", ",", ".", "<", ">", "return x;", "if (a) {", "x.y.z",
    "class A {", "class A;", "A() {}", "void m() {", "X x = new X() {", "1.class X {",
    "1.class A {", "Foo.class X {", "x.record R {", "record R {", "class A extends B<C> {",
    "enum E { P, Q; }", '@Port("q") A() {}', '@Part("p") B b;',
    '@Connector(left="l", right="r") C c;',
    # the eight annotations, others, and broken ones
    '@Component("A")', '@Component({"A", "B"})', '@Component("Ä")', '@Part("p")', '@Port("q")',
    '@AddPart(value="p", componentName="A")', "@RemovePart({})",
    '@Connects(left="a.b", right="c", type=Arrow.LEFT)', '@Disconnects(left="a", right="b")',
    '@Connector(left="x", right="y", type="BIDIR")', '@Connector(type=LEFT, left="x")',
    "@Override", '@SuppressWarnings({"a", "b"})', '@SuppressWarnings({"{"})', "@Part", "@Part(",
    '@Part("x"', "@", "@ Part", '@Part("""\n    text\n    """)', "@Deprecated(since = 1.class)",
    # strings, chars, comments and text blocks that hide structure
    '"@Part(\\"x\\")"', '"{"', '"}"', '"class A {"', '"\\"@Port"', "'{'", "'}'", "'@'", "'\\''",
    '"""\n @Part("q") { class X \n"""', '"unterminated', "'x", "// @Part(\"x\") {",
    "/* class X { */", "/* unterminated", "//", "/**/", "/*/", "*/",
    # keywords used as names, in numbers and after dots
    "record = 1;", "int record;", "record.x", "x.record", "Foo.class", "int.class", "1.class",
    "1.record", "0x1F.enum", "1..class", "1e5class", "classy", "myclass", "$class", "_record",
    # Unicode identifiers
    "Ä", "ñame", "x́class", "١.class", "²", "$x", "_y", "x1",
]

_SEPARATORS = st.sampled_from(["", " ", "\n", "\t", "\r\n"])

_JAVA_LIKE = st.lists(st.tuples(st.sampled_from(_FRAGMENTS), _SEPARATORS), max_size=40).map(
    lambda parts: "".join(fragment + sep for fragment, sep in parts)
)


_SOURCE_LIKE = st.text(alphabet="@\"'\\/*(){}[]=;,.:<->\t\r\n 0Az_$classPartrecord1Ä")


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_JAVA_LIKE, _SOURCE_LIKE))
def test_skim_matches_the_whole_file_oracle(text: str) -> None:
    assert extract_attributes(text, "p/F.java") == java_oracle.extract_attributes(text, "p/F.java")


@pytest.mark.parametrize(
    "text",
    [
        # braces inside annotation arguments
        '@Component("A") class A { @SuppressWarnings({"a"}) @Part("p") B b; }',
        # `1.class` is one number; `int.class` and `Foo.class` end in a keyword token
        'class A { 1.class X { @Part("p") B b; } }',
        'class A { int.class X { @Part("p") B b; } }',
        '@Component("A") class A { Object o = Foo.class; @Port("q") A() {} }',
        # a `;` drops a type that has not opened its body
        '@Component("A") class A; { @Port("q") A() {} }',
        '@Component("A") class A } ; { @Port("q") A() {} }',
        # `record` as a name
        '@Component("A") class A { int record; @Part("p") B b; record = 1; @Port("q") void q() {} }',
        # lambdas, anonymous and nested classes, text blocks
        '@Component("A") class A { Runnable r = () -> { @Part("p") B b; }; '
        'Object o = new Object() { @Port("q") void q() {} }; class N { @Port("n") N() {} } }',
        '@Component("A") class A { String s = """\n  @Part("x") class Z {\n  """; @Part("p") B b; }',
        # a Unicode type name keeps its component context
        '@Component("A") class Ä { @Part("p") B b; }',
        # an unbalanced `(` ends the arguments at a `;`, a body's `{` or a type keyword
        '@Component("A") class A { @Part(("x") B b; @Port("p") void p() {} @Part("y") C c; }',
        '@Componen(("Car") public class Car { @Part("rear") Wheel rear; }',
        '@Component("A") class A { @Part(("x" void m() { @Port("p") void p() {} } }',
    ],
)
def test_skim_traps_match_the_oracle(text: str) -> None:
    assert extract_attributes(text, "F.java") == java_oracle.extract_attributes(text, "F.java")


def _dumps(root: Path, config: ScanConfig, monkeypatch) -> tuple[str, str]:
    skimmed = dump_code_model(scan_tree([root], config))
    with monkeypatch.context() as patched:
        patched.setattr("archlint.scan.extract_attributes", java_oracle.extract_attributes)
        oracle = dump_code_model(scan_tree([root], config))
    return skimmed, oracle


@pytest.mark.parametrize("tree", sorted(p.name for p in DATA.iterdir() if p.is_dir()))
def test_data_trees_dump_as_the_oracle_does(tree: str, monkeypatch) -> None:
    skimmed, oracle = _dumps(DATA / tree, ScanConfig(), monkeypatch)
    assert skimmed == oracle


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize(
    "workload, size", [("java-scan", 24), ("pragma-drift", 640), ("connector-dense", 100)]
)
def test_bench_trees_dump_as_the_oracle_does(
    workload: str, size: int, seed: int, tmp_path: Path, monkeypatch
) -> None:
    monkeypatch.syspath_prepend(str(BENCH))
    import gen

    built = gen.build(workload, seed, size)
    built.write(tmp_path)
    (tmp_path / "archlint.conf").write_text(built.config, encoding="utf-8")
    config = ScanConfig.from_mapping(load_config_file(tmp_path / "archlint.conf"))
    skimmed, oracle = _dumps(tmp_path / "src", config, monkeypatch)
    assert skimmed == oracle
    assert '"instances": []' not in skimmed


def _java_file(members: int) -> str:
    """An annotated component with `members` plain fields and as many plain methods."""
    lines = ["package app.m1;", "", "import java.util.List;", "", "/** A service. */"]
    lines.append('@Component("Svc") public class Svc {')
    lines.append('    @Part("core") Core core;')
    for k in range(members):
        lines.append(f'    private String f{k} = "@Part(\\"fake{k}\\") {{";')
        lines.append(f"    /* field {k} */ protected final java.util.List<String> g{k} = null;")
    for k in range(members):
        lines.append(f"    // method {k} @Port(\"no\")")
        lines.append(f"    public int m{k}(int a, String b) {{")
        lines.append(f"        char c = '{{'; if (a > {k}) {{ a -= 1; }}")
        lines.append("        return a;")
        lines.append("    }")
    lines.append('    @Port("io") public int io(int a) { return a; }')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_plain_members_build_no_full_tokens(monkeypatch) -> None:
    built = [0]
    original = annotations.lex

    def counting(table, *args):
        lexed = original(table, *args)
        if table is JAVA:
            built[0] += len(lexed[0])
        return lexed

    monkeypatch.setattr(annotations, "lex", counting)
    counts = []
    for members in (40, 80):
        built[0] = 0
        instances, findings = extract_attributes(_java_file(members), "Svc.java")
        assert [i.kind.value for i in instances] == ["Component", "Part", "Port"] and not findings
        counts.append(built[0])
    assert counts[0] == counts[1] > 0
