"""The pragma-tail parser and its memo.

`_parse_pragma_tail` parses a tail with the token parser and remembers the
outcome of each distinct tail, an annotation or the message of its first
deviation; `extract_pragmas` places it on every line that holds the tail.
`_parse_pragma_tail.__wrapped__` is the same parser without the memo.
"""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlint import annotations
from archlint.annotations import (
    _LONGEST_REMEMBERED_TAIL,
    ANNOTATION_NAMES,
    _parse_pragma_tail,
    extract_pragmas,
)

_BLANKS = ["", " ", "\t", "  ", " \t "]
_GAPS = [" ", "\t", "  "]
_IDENTS = ["a", "Zq", "_1", "$x", "on", "in", "type", "LEFT", "value"]
_STRING_CHARS = list("aZ_ \t,)}{@.=é") + ['\\"', "\\\\", "\\n"]
_TARGETS = ["type", "field", "method", "constructor", "local"]
_MUTANTS = list('(){}@=,."\\ \tab_$1é') + ["on", "in", "type"]


# Each breaks one rule the token parser checks after the grammar: an unknown
# name or target, a positional value after another argument, a duplicate, an
# attribute the kind does not take, a bad direction.
_RULES = ["name", "target", "order", "duplicate", "attribute", "direction"]

# Argument shapes the grammar rejects: a path where a value goes, an array
# for `type`, and an attribute other than `type` that is not a quoted string.
_SHAPES = ["positional path", "value path", "type array", "unquoted attribute"]

# The messages of `_finish_instance`, which a tail of the grammar can still
# get: `value={}` names no value.
_UNFINISHED_MESSAGE = re.compile(r"@[A-Za-z]+ requires (?:at least one value|attributes: .+)")


def _tail(rng: random.Random, rule: str | None = None) -> str:
    """A tail of the pragma grammar, with blanks drawn wherever the lexer
    skips them, that breaks `rule`, has the argument shape `rule` or, when
    `rule` is None, is well-formed."""

    def blank() -> str:
        return rng.choice(_BLANKS)

    def joined(items: list[str], sep: str = ",") -> str:
        return "".join((blank() + sep + blank() if i else "") + item for i, item in enumerate(items))

    def string() -> str:
        return '"' + "".join(rng.choices(_STRING_CHARS, k=rng.randint(0, 6))) + '"'

    def array() -> str:
        items = [string() for _ in range(rng.randint(0, 3))]
        return "{" + blank() + joined(items) + (blank() if items else "") + "}"

    def path() -> str:
        return joined(rng.choices(_IDENTS, k=rng.randint(1, 3)), ".")

    def direction() -> str:
        last = rng.choice(["UP", "Dir.up"] if rule == "direction" else ["LEFT", "RIGHT", "BIDIR"])
        segments = rng.choices(_IDENTS, k=rng.randint(0, 2)) + [last]
        return joined(segments, ".") if rng.random() < 0.7 else '"' + ".".join(segments) + '"'

    names = sorted(ANNOTATION_NAMES)
    if rule in ("direction", "type array"):
        names = [n for n in names if "type" in ANNOTATION_NAMES[n].accepted]
    elif rule == "unquoted attribute":
        names = [n for n in names if ANNOTATION_NAMES[n].accepted - {"type"}]
    name = rng.choice(names)
    kind = ANNOTATION_NAMES[name]
    args = []
    if rule in ("positional path", "value path"):
        args.append(path() if rule == "positional path" else f"value{blank()}={blank()}{path()}")
    elif kind.usage is None or rng.random() < 0.3:
        value = string() if rng.random() < 0.5 else array()
        args.append(value if rng.random() < 0.7 else f"value{blank()}={blank()}{value}")
    unquoted = rng.choice(sorted(kind.accepted - {"type"})) if rule == "unquoted attribute" else None
    needed = {"left", "right", unquoted, "type" if rule in ("direction", "type array") else None}
    named = [key for key in sorted(kind.accepted) if key in needed or rng.random() < 0.5]
    if rule == "attribute":
        named.append("componentname" if kind.usage is not None else "left")
    rng.shuffle(named)

    def attribute(key: str) -> str:
        if key == "type":
            return array() if rule == "type array" else direction()
        if key == unquoted:
            return array() if rng.random() < 0.5 else path()
        return string()

    args += [f"{key}{blank()}={blank()}{attribute(key)}" for key in named]
    if rule == "duplicate":
        args.append(rng.choice(args))
    elif rule == "order":
        args.append(string())
    name = "Widget" if rule == "name" else name
    tail = blank() + name + blank() + "(" + blank() + (joined(args) + blank() if args else "")
    tail += ")" + blank() + "@" + blank() + "on" + rng.choice(_GAPS)
    tail += "thing" if rule == "target" else rng.choice(_TARGETS)
    if rng.random() < 0.5:
        tail += rng.choice(_GAPS) + rng.choice(_IDENTS)
    if rng.random() < 0.5:
        within = joined(rng.choices(_IDENTS, k=rng.randint(1, 3)))
        tail += blank() + "@" + blank() + "in" + rng.choice(_GAPS) + within
    return tail + blank()


def _mutant(rng: random.Random, tail: str) -> str:
    """`tail` with one character deleted, replaced, or inserted."""
    at = rng.randint(0, len(tail))
    how = rng.choice(["delete", "replace", "insert"])
    new = "" if how == "delete" else rng.choice(_MUTANTS)
    return tail[:at] + new + tail[at + (how != "insert") :]


@settings(max_examples=2000, deadline=None)
@given(st.randoms(use_true_random=True), st.sampled_from([None, "mutant", *_RULES, *_SHAPES]))
def test_every_tail_gives_an_annotation_or_a_message(rng: random.Random, how: str | None) -> None:
    """A well-formed tail gives an annotation, or a message only when
    `_finish_instance` refuses it; a tail that breaks a rule or has a shape
    the grammar rejects gives a message; a mutant gives one or the other
    without raising; and the memo gives what the parser gives."""
    tail = _tail(rng, how if how != "mutant" else None)
    if how == "mutant":
        tail = _mutant(rng, tail)
    parsed = _parse_pragma_tail.__wrapped__(tail)
    if how is None:
        assert isinstance(parsed, tuple) or _UNFINISHED_MESSAGE.fullmatch(parsed), (tail, parsed)
    elif how in _RULES or how in _SHAPES:
        assert isinstance(parsed, str), tail
    assert isinstance(parsed, (tuple, str)), tail
    assert _parse_pragma_tail(tail) == parsed, tail


def _hostile(kind: str, n: int) -> str:
    """A pragma line whose tail is about `n` characters long."""
    if kind == "type path":
        return f'Connects(left="a", right="b", type={"ab." * (n // 3)}LEFT) @on method m'
    if kind == "string array":
        return 'AddPart({' + ", ".join(['"ab"'] * (n // 6)) + "}) @on method m"
    if kind == "unterminated string":
        return 'Component("' + "ab" * (n // 2)
    return 'Component("A") @on type A @in ' + ", ".join(["Ab"] * (n // 4))


def _timed_extract(kind: str, n: int) -> tuple[list, list, float]:
    """The instances and findings of a hostile line, and its best time of three."""
    line = "// @arch " + _hostile(kind, n)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        instances, findings = extract_pragmas(line, "f.txt")
        best = min(best, time.perf_counter() - start)
    return instances, findings, best


def test_hostile_tails_give_one_outcome_in_linear_time() -> None:
    """Each 200k-character tail gives one instance or one finding, and the
    same tail at 400k characters takes less than 8 times as long.

    Linear work doubles; the token list (about 22 MB at 200k characters)
    outgrowing the CPU caches, and the cyclic collector's passes over the
    tokens built so far, have been seen to add up to 2x on top. A parser
    that rescans its input grows as n^2 or worse, which at these sizes
    takes minutes, so the 2 s cap on the 200k tail is the real bound.
    """
    for kind in ("type path", "string array", "unterminated string", "in list"):
        instances, findings, small = _timed_extract(kind, 200_000)
        if kind == "unterminated string":
            assert instances == [] and [f.message for f in findings] == ["unterminated string"]
        else:
            assert len(instances) == 1 and findings == [], kind
        *_, large = _timed_extract(kind, 400_000)
        assert small < 2.0 and large < 8 * small, (kind, small, large)


# Tails of the grammar that `_finish_instance` refuses.
_UNFINISHED = ['Component() @on type A', 'Connects(left="a") @on method m']


def _recurring_files(rng: random.Random) -> dict[str, str]:
    """Two files in different packages, each holding every tail of one pool
    on several lines, the lines shuffled among `Component(...) @on type`
    pragmas that change the inherited context."""
    tails = [_tail(rng, rng.choice([None, None, *_RULES, *_SHAPES])) for _ in range(30)]
    tails += [_mutant(rng, _tail(rng)) for _ in range(30)] + _UNFINISHED
    files = {}
    for path in ("p/q/First.txt", "r/Second.txt"):
        lines = [tail for tail in tails for _ in range(rng.randint(2, 4))]
        lines += [f'Component("C{n}") @on type T{n}' for n in range(8)]
        rng.shuffle(lines)
        files[path] = "".join(f"// @arch {line}\n" for line in lines)
    return files


def _extract_all(files: dict[str, str]) -> tuple[list, list]:
    instances, findings = [], []
    for path, text in files.items():
        found = extract_pragmas(text, path)
        instances += found[0]
        findings += found[1]
    return instances, findings


@pytest.mark.parametrize("seed", range(6))
def test_memo_gives_what_the_token_parser_gives_on_every_line(seed: int, monkeypatch) -> None:
    """A cleared memo and a warm one give the instances and findings that
    the parser without the memo gives when it runs on every line, and no
    two instances share an attrs dict."""
    files = _recurring_files(random.Random(seed))
    _parse_pragma_tail.cache_clear()
    cleared = _extract_all(files)
    distinct = _parse_pragma_tail.cache_info().currsize
    warm = _extract_all(files)
    assert _parse_pragma_tail.cache_info().misses == distinct

    parsed_lines = []
    parse = _parse_pragma_tail.__wrapped__

    def every_line(tail: str):
        parsed_lines.append(tail)
        return parse(tail)

    monkeypatch.setattr(annotations, "_parse_pragma_tail", every_line)
    reference = _extract_all(files)

    assert len(parsed_lines) == len(reference[0]) + len(reference[1]) > distinct
    assert cleared == reference and warm == reference
    assert {f.message for f in reference[1]} >= {
        "@Component requires at least one value",
        "@Connects requires attributes: right",
    }
    instances = cleared[0] + warm[0] + reference[0]
    assert len({id(i.attrs) for i in instances}) == len(instances)
    line_at = {
        (path, number): line
        for path, text in files.items()
        for number, line in enumerate(text.split("\n"), 1)
    }
    placings: dict[str, set] = {}
    for i in reference[0]:
        placing = (i.enclosing_components, i.package)
        placings.setdefault(line_at[i.location.file, i.location.line], set()).add(placing)
    assert any(
        len({context for context, _ in placed}) > 1 and len({package for _, package in placed}) > 1
        for placed in placings.values()
    ), "no tail recurs under two contexts and in two packages"


def test_memo_is_bounded_in_entries_and_in_tail_length() -> None:
    """After more distinct tails than its size the memo holds its size, and
    a tail longer than the bound is parsed but never stored."""
    size = _parse_pragma_tail.cache_parameters()["maxsize"]
    _parse_pragma_tail.cache_clear()
    text = "".join(f'// @arch Part("p{n}") @on field f\n' for n in range(size + 50))
    instances, findings = extract_pragmas(text, "f.txt")
    assert len(instances) == size + 50 and findings == []
    assert _parse_pragma_tail.cache_info().currsize == size

    _parse_pragma_tail.cache_clear()
    for length in (_LONGEST_REMEMBERED_TAIL + 1, 4 * _LONGEST_REMEMBERED_TAIL):
        value = "v" * (length - len(' Part("") @on field f'))
        line = f'// @arch Part("{value}") @on field f\n'
        instances, findings = extract_pragmas(line + line, "f.txt")
        assert [i.values for i in instances] == [(value,), (value,)] and findings == []
        assert _parse_pragma_tail.cache_info().currsize == 0
    value = "v" * (_LONGEST_REMEMBERED_TAIL - len(' Part("") @on field f'))
    instances, _ = extract_pragmas(f'// @arch Part("{value}") @on field f\n', "f.txt")
    assert [i.values for i in instances] == [(value,)]
    assert _parse_pragma_tail.cache_info().currsize == 1
