"""Positions and robustness of the three front-ends that share one lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlint.adl import AdlParseError, parse_architecture
from archlint.annotations import extract_attributes, extract_pragmas


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
    ],
)
def test_token_positions(front_end: str, text: str, expected: tuple[int, int]) -> None:
    assert _position(front_end, text) == expected


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
