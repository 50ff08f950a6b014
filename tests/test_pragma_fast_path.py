"""The pragma fast path against the token parser, its oracle.

`_match_pragma_tail` builds an instance from one regex match, raises the
token parser's message when a matched tail breaks an argument rule, and
declines a tail only when its regex does not match or an argument has a
shape the token grammar rejects; `_parse_pragma_tokens` parses every tail
and gives every message.
"""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from archlint.annotations import (
    ANNOTATION_NAMES,
    _ArgProblem,
    _match_pragma_tail,
    _parse_pragma_tail,
    _parse_pragma_tokens,
    _pragma_arg_pattern,
    _pragma_tail_pattern,
    extract_pragmas,
)
from archlint.findings import SourceLocation

LOCATION = SourceLocation("d/f.txt", 3, 5)


def _outcome(parse, tail: str):
    """The instance, the _ArgProblem message, or None when declined."""
    try:
        return parse(tail, LOCATION, "d")
    except _ArgProblem as problem:
        return problem.message


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

# Argument shapes the tail regex takes. The token grammar rejects the first
# three, so the fast path declines them; the last breaks the rule that an
# attribute other than `type` is a quoted string.
_DECLINED = ["positional path", "value path", "type array"]
_SHAPES = [*_DECLINED, "unquoted attribute"]


def _declinable(tail: str) -> bool:
    """Whether the fast path may decline `tail`: the tail regex misses it, or
    one of its arguments has a shape in `_DECLINED`."""
    match = _pragma_tail_pattern().fullmatch(tail)
    if match is None:
        return True
    args = _pragma_arg_pattern().finditer(tail, *match.span("args")) if match["args"] else ()
    return any(
        arg["path"] is not None and arg["key"] in (None, "value")
        or arg["array"] is not None and arg["key"] == "type"
        for arg in args
    )


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
def test_fast_path_agrees_with_token_parser(rng: random.Random, how: str | None) -> None:
    """The fast path takes every well-formed tail and gives what the token
    parser gives; on a tail that breaks a rule it gives the token parser's
    message; it declines each shape the token grammar rejects, and on a
    mutant it gives the same or declines only where it may."""
    tail = _tail(rng, how if how != "mutant" else None)
    if how == "mutant":
        tail = _mutant(rng, tail)
    expected = _outcome(_parse_pragma_tokens, tail)
    fast = _outcome(_match_pragma_tail, tail)
    if how is None:
        assert fast is not None, f"the fast path declined {tail!r}"
    elif how in _DECLINED:
        assert fast is None and isinstance(expected, str), tail
    elif how in _RULES or how in _SHAPES:
        assert fast == expected and isinstance(expected, str), tail
    assert fast == expected or fast is None and _declinable(tail), tail
    assert _outcome(_parse_pragma_tail, tail) == expected, tail


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

    Linear work doubles; the regex engine's backtracking stack (about 25 MB
    at 200k characters) outgrowing the CPU caches has been seen to add up to
    3x on top. Unbounded backtracking grows as n^2 or worse, which at these
    sizes takes minutes, so the 2 s cap on the 200k tail is the real bound.
    """
    for kind in ("type path", "string array", "unterminated string", "in list"):
        instances, findings, small = _timed_extract(kind, 200_000)
        if kind == "unterminated string":
            assert instances == [] and [f.message for f in findings] == ["unterminated string"]
        else:
            assert len(instances) == 1 and findings == [], kind
        *_, large = _timed_extract(kind, 400_000)
        assert small < 2.0 and large < 8 * small, (kind, small, large)
