import random
from pathlib import Path

import pytest
from annotation_grid import grid_report

from archlint.annotations import (
    AnnotationInstance,
    AnnotationKind,
    CodeModel,
    SourceLocation,
    TargetKind,
    resolve_context,
    validate_targets,
)
from archlint.conformance import ConnectorUsages
from archlint.java import extract_attributes
from archlint.jsontext import dump_code_model
from archlint.pragma import extract_pragmas

DATA = Path(__file__).parent / "data"

CAR_SOLO = (DATA / "car_solo" / "Car.java").read_text()


def _attrs(text: str, path: str = "Car.java") -> list[AnnotationInstance]:
    instances, findings = extract_attributes(text, path)
    assert findings == []
    return instances


def test_attribute_extraction_full_example() -> None:
    instances = _attrs(CAR_SOLO)
    assert len(instances) == 5
    comp, rear, e, add, conn = instances

    assert comp.kind is AnnotationKind.COMPONENT
    assert comp.values == ("Car",)
    assert comp.target is TargetKind.TYPE
    assert comp.target_name == "Car"
    assert comp.location == SourceLocation("Car.java", 1, 8)

    assert rear.kind is AnnotationKind.PART
    assert rear.values == ("rear",)
    assert rear.target is TargetKind.FIELD
    assert rear.target_name == "rear"
    assert rear.enclosing_components == ("Car",)
    assert rear.location == SourceLocation("Car.java", 2, 13)

    assert e.kind is AnnotationKind.PART
    assert e.values == ("e",)
    assert e.location == SourceLocation("Car.java", 4, 13)

    assert add.kind is AnnotationKind.ADD_PART
    assert add.values == ("rear", "e")
    assert add.target is TargetKind.CONSTRUCTOR
    assert add.target_name == "Car"
    assert add.location == SourceLocation("Car.java", 6, 12)

    assert conn.kind is AnnotationKind.CONNECTS
    assert conn.values == ()
    assert dict(conn.attrs) == {"left": "rear", "right": "e.p", "type": "LEFT"}
    assert conn.target is TargetKind.CONSTRUCTOR
    assert conn.target_name == "Car"
    assert conn.enclosing_components == ("Car",)
    assert conn.location == SourceLocation("Car.java", 7, 9)


def test_attribute_array_values_preserve_order() -> None:
    text = 'class X { public @AddPart({"b", "a", "c"}) X() {} }'
    instances = _attrs(text, "X.java")
    assert instances[0].values == ("b", "a", "c")


def test_foreign_annotations_ignored() -> None:
    text = (
        "public @Component(\"Car\") class Car {\n"
        "    @Override\n"
        "    @Deprecated\n"
        "    public String toString() { return \"car\"; }\n"
        "}\n"
    )
    instances = _attrs(text)
    assert [i.kind for i in instances] == [AnnotationKind.COMPONENT]


def test_enclosing_component_tracks_braces() -> None:
    text = (
        'public @Component("A") class A {\n'
        '    private @Part("x") B x;\n'
        "}\n"
        'public @Component("B") class B {\n'
        '    public @Port("q") void q() {}\n'
        "}\n"
    )
    instances = _attrs(text, "AB.java")
    by_name = {i.target_name: i.enclosing_components for i in instances}
    assert by_name["x"] == ("A",)
    assert by_name["q"] == ("B",)


def test_arrow_enum_reference_keeps_last_segment() -> None:
    text = 'class C { public @Connects(left="a", right="b", type=Arrow.BIDIR) C() {} }'
    instances = _attrs(text, "C.java")
    assert instances[0].attrs["type"] == "BIDIR"


def test_port_on_constructor_and_type() -> None:
    text = (
        'public @Component("S") @Port("boot") class S {\n'
        '    public @Port("init") S() {}\n'
        "}\n"
    )
    instances = _attrs(text, "S.java")
    ports = [i for i in instances if i.kind is AnnotationKind.PORT]
    assert {(p.target, p.target_name) for p in ports} == {
        (TargetKind.TYPE, "S"),
        (TargetKind.CONSTRUCTOR, "S"),
    }


def test_connector_on_local_variable() -> None:
    text = (
        'public @Component("Hub") class Hub {\n'
        "    public void wire() {\n"
        '        @Connector(left="a", right="b.p") Link link = new Link();\n'
        "    }\n"
        "}\n"
    )
    instances = _attrs(text, "Hub.java")
    conn = [i for i in instances if i.kind is AnnotationKind.CONNECTOR][0]
    assert conn.target is TargetKind.LOCAL
    assert conn.target_name == "link"
    assert conn.enclosing_components == ("Hub",)


def test_connector_on_field_and_type() -> None:
    text = (
        'public @Connector(left="a", right="b") class Pipe {\n'
        '    private @Connector(left="a", right="b") Pipe next;\n'
        "}\n"
    )
    instances = _attrs(text, "Pipe.java")
    assert [(i.target, i.target_name) for i in instances] == [
        (TargetKind.TYPE, "Pipe"),
        (TargetKind.FIELD, "next"),
    ]


def test_connector_rejects_unknown_attr() -> None:
    text = 'class C { @Connector(left="a", right="b", componentname="X") C c; }'
    instances, findings = extract_attributes(text, "C.java")
    assert instances == []
    assert [f.check_id for f in findings] == ["MALFORMED_ANNOTATION"]
    assert "componentname" in findings[0].message


def test_malformed_annotation_missing_required_attr() -> None:
    text = 'class C { public @Connects(left="a") C() {} }'
    instances, findings = extract_attributes(text, "C.java")
    assert instances == []
    assert len(findings) == 1
    assert findings[0].check_id == "MALFORMED_ANNOTATION"
    assert "right" in findings[0].message


def test_malformed_annotation_missing_value() -> None:
    instances, findings = extract_attributes("class C { @Part C c; }", "C.java")
    assert instances == []
    assert [f.check_id for f in findings] == ["MALFORMED_ANNOTATION"]


def test_unbalanced_paren_ends_the_arguments_at_the_statement() -> None:
    text = (
        '@Component("A") class A {\n'
        '    @Part(("x") B b;\n'
        '    @Port("p") void p() {}\n'
        '    @Part("y") C c;\n'
        "}\n"
    )
    instances, findings = extract_attributes(text, "A.java")
    assert [(f.check_id, f.message, f.locations[0].line) for f in findings] == [
        ("MALFORMED_ANNOTATION", "expected a value or attribute", 2)
    ]
    assert [(i.kind, i.values, i.target_name) for i in instances] == [
        (AnnotationKind.COMPONENT, ("A",), "A"),
        (AnnotationKind.PORT, ("p",), "p"),
        (AnnotationKind.PART, ("y",), "c"),
    ]


def test_unbalanced_paren_of_a_foreign_annotation_ends_at_a_type_keyword() -> None:
    text = '@Componen(("Car") public class Car { @Part("rear") Wheel rear; }'
    instances, findings = extract_attributes(text, "Car.java")
    assert findings == []
    assert [(i.kind, i.values, i.target, i.target_name) for i in instances] == [
        (AnnotationKind.PART, ("rear",), TargetKind.FIELD, "rear")
    ]


def test_text_block_does_not_hide_following_annotation() -> None:
    text = (
        'public @Component("Car") class Car {\n'
        '    String s = """\n'
        '        say "hi\n'
        '        """;\n'
        '    @Part("w") Wheel w;\n'
        "}\n"
    )
    instances = _attrs(text)
    assert [(i.kind, i.target, i.target_name, i.location.line) for i in instances] == [
        (AnnotationKind.COMPONENT, TargetKind.TYPE, "Car", 1),
        (AnnotationKind.PART, TargetKind.FIELD, "w", 5),
    ]


@pytest.mark.parametrize("end", ["", "\\"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_unclosed_string_ends_at_its_line(end: str, newline: str) -> None:
    # A Java string cannot hold a line terminator, not even after a
    # backslash: a stray quote hides nothing on the lines after it.
    lines = ["class A {", f'  String s = "a;{end}', '  @Port("p") void p() {}', '  @Part("y") C c;', "}"]
    instances = _attrs(newline.join(lines) + newline, "A.java")
    assert [(i.kind, i.values, i.target_name, i.location.line) for i in instances] == [
        (AnnotationKind.PORT, ("p",), "p", 3),
        (AnnotationKind.PART, ("y",), "c", 4),
    ]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_unclosed_char_ends_at_its_line(newline: str) -> None:
    # As a string does: a stray `'` hides nothing on the lines after it.
    lines = ["class A {", "  char s = 'a;", '  @Port("p") void p() {}', '  @Part("y") C c;', "}"]
    instances, findings = extract_attributes(newline.join(lines) + newline, "A.java")
    assert findings == []
    assert [(i.kind, i.target_name, i.location.line) for i in instances] == [
        (AnnotationKind.PORT, "p", 3),
        (AnnotationKind.PART, "c", 4),
    ]


@pytest.mark.xfail(strict=True, reason="an unclosed construct still hides what follows it")
@pytest.mark.parametrize(
    "construct", ['String s = """\n    x;', "/* x;"], ids=["text block", "block comment"]
)
def test_unclosed_construct_does_not_silently_hide_what_follows(construct: str) -> None:
    # With `int k;` in place of the construct both annotations come back.
    # After an unclosed one they must come back too, or a finding must say
    # what was lost; today the file gives no instance and no finding.
    text = f'class A {{\n  {construct}\n  @Port("p") void p() {{}}\n  @Part("y") C c;\n}}\n'
    instances, findings = extract_attributes(text, "A.java")
    assert len(instances) == 2 or findings


def test_string_cut_at_its_line_break_ends_the_argument_list() -> None:
    # The second cut string swallows the `;` of its line, so without the
    # rule the list would run on and take the next statement's annotation.
    text = 'class Car {\n  @Part("r\nar") Wheel rear;\n  @Port("io") void io() {}\n}\n'
    instances, findings = extract_attributes(text, "Car.java")
    assert [(f.check_id, f.message, f.locations[0].line) for f in findings] == [
        ("MALFORMED_ANNOTATION", "expected ')'", 2)
    ]
    assert [(i.kind, i.target_name, i.location.line) for i in instances] == [
        (AnnotationKind.PORT, "io", 4)
    ]


def test_line_break_in_a_string_value_is_malformed() -> None:
    instances, findings = extract_attributes('@Part("a\nb") B b;', "B.java")
    assert [(f.check_id, f.locations[0].line) for f in findings] == [("MALFORMED_ANNOTATION", 1)]
    assert instances == []


def test_text_block_argument_is_a_string() -> None:
    instances, findings = extract_attributes('@Part("""\n    w""") B w;', "B.java")
    assert findings == []
    assert [(i.kind, i.values) for i in instances] == [(AnnotationKind.PART, ("w",))]
    # Incidental indentation counts the closing line; trailing blanks and
    # escapes follow JLS 3.10.6.
    text = '@Component("""  \r\n\t    a\\"b  \n\n\t      c\n\t  """) class A {}'
    instances, findings = extract_attributes(text, "A.java")
    assert findings == []
    assert instances[0].values == ('  a"b\n\n    c\n',)
    # Content on the opening line makes it no text block.
    _, findings = extract_attributes('@Part("""w""") B w;', "B.java")
    assert [f.message for f in findings] == ["expected a value or attribute"]


@pytest.mark.parametrize("char", ["\u00a0", "\u2007", "\u202f", "\x85"])
def test_text_block_keeps_what_java_does_not_call_white_space(char: str) -> None:
    # `String.stripIndent` strips only `Character.isWhitespace` characters,
    # which exclude the no-break spaces and U+0085.
    def value(content: str) -> str:
        return _attrs(f'@Component("""\n{content}""") class A {{}}', "A.java")[0].values[0]

    assert value(f"    a{char}\n    ") == f"a{char}\n"
    assert value(f"{char}   a\n    ") == f"{char}   a\n"
    assert value(f"    a{char}\u2003\x1c\n    ") == f"a{char}\n"
    assert value(f"\u2003\x1c  a\n    ") == "a\n"


@pytest.mark.parametrize(
    "literal, value",
    [
        (r'"a\tb\u0041"', "a\tbA"),
        (r'"\b\s\t\n\f\r\"\'\\"', "\b \t\n\f\r\"'\\"),
        # Octal escapes take at most three digits, and only up to \377.
        (r'"\0\7\77\377\400"', "\0\7?\xff 0"),
        # A Unicode escape may repeat its `u`; after an escaped backslash
        # `u0041` is plain text.
        (r'"\uuu00e9\\u0041"', "é\\u0041"),
        # Escapes are decoded after a text block's indentation is stripped;
        # `\<line break>` joins two lines and `\s` keeps a trailing space.
        ('"""\n    a\\\n    b\\s \n    """', "ab \n"),
    ],
)
def test_java_string_escapes_are_decoded(literal: str, value: str) -> None:
    assert _attrs(f"@Component({literal}) class A {{}}", "A.java")[0].values == (value,)


def test_pragma_string_escapes_keep_the_next_character() -> None:
    # A pragma string drops each backslash and keeps the character after it.
    text = r'// @arch Component("tab\there\u0041") @on type A'
    instances, findings = extract_pragmas(text, "a.txt")
    assert findings == []
    assert instances[0].values == ("tabthereu0041",)


def test_unicode_identifiers_are_names() -> None:
    # JLS 3.8: identifiers are Unicode letters and digits, `_` and `$`.
    text = '@Component("A") class Ä { @Part("p") Bäume bäume; @Port("q") void señal() {} }'
    instances = _attrs(text, "x.java")
    assert [(i.kind, i.target_name, i.enclosing_components) for i in instances] == [
        (AnnotationKind.COMPONENT, "Ä", ()),
        (AnnotationKind.PART, "bäume", ("A",)),
        (AnnotationKind.PORT, "señal", ("A",)),
    ]


def test_unclassifiable_target_reported() -> None:
    instances, findings = extract_attributes('@Part("x")', "C.java")
    assert instances == []
    assert [f.check_id for f in findings] == ["UNCLASSIFIABLE_TARGET"]


def test_package_detected_from_declaration() -> None:
    text = 'package com.acme.vehicle;\npublic @Component("Car") class Car {}\n'
    instances = _attrs(text)
    assert instances[0].package == "com/acme/vehicle"


def test_package_falls_back_to_directory() -> None:
    instances = _attrs('public @Component("Car") class Car {}\n', "src/vehicle/Car.java")
    assert instances[0].package == "src/vehicle"


def test_pragma_extraction_basic() -> None:
    text = (
        "//@arch Component(\"Car\") @on type Car\n"
        "//@arch Part(\"rear\") @on field rear @in Car\n"
        "//@arch Connects(left=\"rear\", right=\"e.p\", type=LEFT) @on constructor Car @in Car\n"
    )
    instances, findings = extract_pragmas(text, "car.txt")
    assert findings == []
    assert [i.kind for i in instances] == [
        AnnotationKind.COMPONENT,
        AnnotationKind.PART,
        AnnotationKind.CONNECTS,
    ]
    assert instances[1].enclosing_components == ("Car",)
    assert instances[2].attrs["type"] == "LEFT"
    assert instances[2].target is TargetKind.CONSTRUCTOR


def test_pragma_line_numbers() -> None:
    text = "x = 1\n#@arch Component(\"App\") @on type App\n"
    instances, findings = extract_pragmas(text, "app.py")
    assert findings == []
    assert instances[0].location.line == 2


def test_pragma_custom_sigil() -> None:
    text = "//@@model Component(\"App\") @on type App\n"
    instances, findings = extract_pragmas(text, "app.cc", sigil="@@model")
    assert findings == []
    assert instances[0].kind is AnnotationKind.COMPONENT
    default_instances, _ = extract_pragmas(text, "app.cc")
    assert default_instances == []


def test_pragma_array_values() -> None:
    text = "//@arch AddPart({\"rear\", \"e\"}) @on constructor Car @in Car\n"
    instances, findings = extract_pragmas(text, "car.txt")
    assert findings == []
    assert instances[0].values == ("rear", "e")


def test_malformed_pragma_reported_not_fatal() -> None:
    text = (
        "//@arch Component(\"Ok\") @on type Ok\n"
        "//@arch Part( @on field x\n"
    )
    instances, findings = extract_pragmas(text, "f.txt")
    assert [i.kind for i in instances] == [AnnotationKind.COMPONENT]
    assert [f.check_id for f in findings] == ["MALFORMED_PRAGMA"]
    assert findings[0].locations[0].line == 2


def test_pragma_unknown_annotation_name() -> None:
    instances, findings = extract_pragmas("//@arch Wat(\"x\") @on type X\n", "f.txt")
    assert instances == []
    assert [f.check_id for f in findings] == ["MALFORMED_PRAGMA"]


def _messages(findings: list) -> list[tuple[str, str]]:
    return [(f.check_id, f.message) for f in findings]


def test_pragma_duplicate_attribute() -> None:
    text = '//@arch Connects(left="a", right="b", type=LEFT, type=RIGHT) @on method m\n'
    instances, findings = extract_pragmas(text, "f.txt")
    assert instances == []
    assert _messages(findings) == [("MALFORMED_PRAGMA", "duplicate attribute 'type'")]


def test_pragma_duplicate_value() -> None:
    instances, findings = extract_pragmas('//@arch Part("a", value="b") @on field a\n', "f.txt")
    assert instances == []
    assert _messages(findings) == [("MALFORMED_PRAGMA", "duplicate value argument")]


def test_annotation_duplicate_attribute() -> None:
    text = 'class C { @Connects(left="a", right="b", type=LEFT, type=Direction.RIGHT) C() {} }'
    instances, findings = extract_attributes(text, "C.java")
    assert instances == []
    assert _messages(findings) == [("MALFORMED_ANNOTATION", "duplicate attribute 'type'")]


def test_annotation_duplicate_value() -> None:
    instances, findings = extract_attributes('class C { @Part(value={"a"}, value="b") C c; }', "C.java")
    assert instances == []
    assert _messages(findings) == [("MALFORMED_ANNOTATION", "duplicate value argument")]


@pytest.mark.parametrize(
    "args, message",
    [
        ('left="a", right="b", "x"', "positional value must be the first argument"),
        ('"x", value={"y"}, left="a", right="b"', "duplicate value argument"),
        ('left="a", right="b", componentname="C"', "@Connects does not take attribute 'componentname'"),
        ('left="a", right="b", left="c"', "duplicate attribute 'left'"),
        ('left="a", right="b", type=Dir.UP', "direction must be LEFT, RIGHT, or BIDIR, not 'Dir.UP'"),
        ('left="a", right="b", type="up"', "direction must be LEFT, RIGHT, or BIDIR, not 'up'"),
        ('left=a.b, right="b"', "attribute 'left' must be a quoted string"),
        ('left="a", right={"b"}', "attribute 'right' must be a quoted string"),
    ],
)
def test_front_ends_give_one_argument_message(args: str, message: str) -> None:
    """One argument list breaks the same rule with the same message as a
    pragma tail and as a Java-style annotation."""
    _, pragma = extract_pragmas(f"//@arch Connects({args}) @on method m\n", "f.txt")
    _, java = extract_attributes(f"class C {{ @Connects({args}) void m() {{}} }}\n", "C.java")
    assert _messages(pragma) == [("MALFORMED_PRAGMA", message)]
    assert _messages(java) == [("MALFORMED_ANNOTATION", message)]


def test_validate_targets_rules() -> None:
    loc = SourceLocation("f", 1, 1)

    def inst(kind: AnnotationKind, target: TargetKind) -> AnnotationInstance:
        return AnnotationInstance(
            kind=kind,
            values=("x",),
            attrs={},
            target=target,
            target_name="x",
            enclosing_components=(),
            location=loc,
            package="",
        )

    assert validate_targets(inst(AnnotationKind.PART, TargetKind.FIELD)) == []
    assert validate_targets(inst(AnnotationKind.CONNECTOR, TargetKind.LOCAL)) == []
    assert validate_targets(inst(AnnotationKind.PORT, TargetKind.METHOD)) == []
    assert validate_targets(inst(AnnotationKind.ADD_PART, TargetKind.CONSTRUCTOR)) == []

    bad = validate_targets(inst(AnnotationKind.COMPONENT, TargetKind.METHOD))
    assert [f.check_id for f in bad] == ["TARGET_RULE_VIOLATION"]
    assert "type" in bad[0].message

    assert validate_targets(inst(AnnotationKind.PART, TargetKind.METHOD)) != []
    assert validate_targets(inst(AnnotationKind.CONNECTS, TargetKind.FIELD)) != []


def _loose_instance(
    kind: AnnotationKind,
    line: int,
    *,
    values: tuple[str, ...] = (),
    enclosing: tuple[str, ...] = (),
    target: TargetKind = TargetKind.METHOD,
    name: str = "m",
) -> AnnotationInstance:
    return AnnotationInstance(
        kind=kind,
        values=values,
        attrs={},
        target=target,
        target_name=name,
        enclosing_components=enclosing,
        location=SourceLocation("f.txt", line, 1),
        package="",
    )


def test_resolve_context_inherits_preceding_component() -> None:
    comp = _loose_instance(
        AnnotationKind.COMPONENT, 1, values=("Car",), target=TargetKind.TYPE, name="Car"
    )
    port = _loose_instance(AnnotationKind.PORT, 2, values=("p",), name="p")
    resolved = resolve_context([comp, port])
    assert resolved[1].enclosing_components == ("Car",)


def test_resolve_context_keeps_explicit_context() -> None:
    comp = _loose_instance(
        AnnotationKind.COMPONENT, 1, values=("Car",), target=TargetKind.TYPE, name="Car"
    )
    port = _loose_instance(
        AnnotationKind.PORT, 2, values=("p",), enclosing=("Engine",), name="p"
    )
    resolved = resolve_context([comp, port])
    assert resolved[1].enclosing_components == ("Engine",)


def test_resolve_context_restarts_at_each_file() -> None:
    a = extract_pragmas('//@arch Component("A") @on type A\n', "a.txt")[0]
    b = extract_pragmas('//@arch Port("p") @on method p\n', "b.txt")[0]
    for instances in (a + b, b + a):
        resolved = resolve_context(instances)
        assert [(i.location.file, i.enclosing_components) for i in resolved] == [
            ("a.txt", ()),
            ("b.txt", ()),
        ]


_PRAGMA_LINES = (
    '//@arch Component("A") @on type A',
    '//@arch Component("B", "C") @on type B',
    '//@arch Component("M") @on method m',
    '//@arch Port("p") @on method p',
    '//@arch Port("q") @on method q @in Z',
    '//@arch Part("x") @on field x',
    '//@arch Connects(left="a", right="b") @on method w',
    '//@arch Part( @on field y',
    "plain text",
)


def test_filled_pragma_contexts_are_what_resolve_context_gives() -> None:
    """`extract_pragmas` builds each instance once, with the context
    `resolve_context` gives it; that pass then keeps every instance. Each
    line read alone, at its own line number, has only its explicit `@in`."""
    rng = random.Random(18)
    for _ in range(300):
        lines = [rng.choice(_PRAGMA_LINES) for _ in range(rng.randint(0, 12))]
        plain, plain_findings = [], []
        for number, line in enumerate(lines):
            instances, line_findings = extract_pragmas("\n" * number + line, "d/f.txt")
            plain += instances
            plain_findings += line_findings
        filled, findings = extract_pragmas("\n".join(lines), "d/f.txt")
        assert findings == plain_findings
        assert filled == resolve_context(plain)
        assert all(a is b for a, b in zip(resolve_context(filled), filled, strict=True))


def test_unbalanced_paren_before_a_closing_brace_keeps_the_next_member() -> None:
    """The `}` that closes `B` ends `@Part`'s argument list, so `@Port`
    after it is extracted in `A`'s context."""
    text = (
        '@Component("A") class A {\n'
        '  @Component("B") class B { @Part(("x") }\n'
        '  @Port("p") void p() {}\n'
        "}"
    )
    instances, findings = extract_attributes(text, "A.java")
    assert [(i.kind, i.values, i.enclosing_components, str(i.location)) for i in instances] == [
        (AnnotationKind.COMPONENT, ("A",), (), "A.java:1:1"),
        (AnnotationKind.COMPONENT, ("B",), (), "A.java:2:3"),
        (AnnotationKind.PORT, ("p",), ("A",), "A.java:3:3"),
    ]
    assert [(f.check_id, str(f.locations[0])) for f in findings] == [
        ("MALFORMED_ANNOTATION", "A.java:2:29")
    ]


def test_code_model_build_sorts_by_location() -> None:
    def inst(line: int, file: str) -> AnnotationInstance:
        return AnnotationInstance(
            kind=AnnotationKind.COMPONENT,
            values=("X",),
            attrs={},
            target=TargetKind.TYPE,
            target_name="X",
            enclosing_components=(),
            location=SourceLocation(file, line, 1),
            package="",
        )

    code = CodeModel.build([inst(9, "b.java"), inst(2, "a.java"), inst(1, "b.java")])
    keys = [(i.location.file, i.location.line) for i in code.instances]
    assert keys == [("a.java", 2), ("b.java", 1), ("b.java", 9)]


def test_dump_code_model_stable(car_solo_code: CodeModel) -> None:
    first = dump_code_model(car_solo_code)
    second = dump_code_model(car_solo_code)
    assert first == second
    assert first.endswith("\n")


def test_dump_matches_golden(car_solo_code: CodeModel) -> None:
    golden = (DATA / "golden" / "car_solo_extract.golden.json").read_text()
    assert dump_code_model(car_solo_code) == golden


def test_annotation_grid_matches_golden() -> None:
    golden = (DATA / "golden" / "annotation_grid.golden.txt").read_text(encoding="utf-8")
    assert grid_report() == golden


def test_kind_rows_keep_names_and_fill_every_usage_group() -> None:
    assert [(k.name, k.value) for k in AnnotationKind] == [
        ("COMPONENT", "Component"),
        ("PART", "Part"),
        ("PORT", "Port"),
        ("ADD_PART", "AddPart"),
        ("REMOVE_PART", "RemovePart"),
        ("CONNECTS", "Connects"),
        ("DISCONNECTS", "Disconnects"),
        ("CONNECTOR", "Connector"),
    ]
    usages = [k.usage for k in AnnotationKind if k.usage is not None]
    assert sorted(usages) == sorted(ConnectorUsages._fields)
    for kind in AnnotationKind:
        # A kind names elements or fills a usage group, never both.
        assert (kind.referent is None) == (kind.usage is not None) == (kind.owners is None)
        assert not kind.covers or kind.referent is not None
