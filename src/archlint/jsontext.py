"""JSON text of every document archlint prints, and of the code model the
report fingerprint hashes.

Each record shape is the tuple of its keys in sorted order, defined once
below. `template(keys, depth)` turns a shape into a `%`-format string with
one `%s` per key: the compact layout (separators `,` and `:`, no
whitespace) when `depth` is None, else the indent-2 layout for an object
that opens `depth` levels deep. Strings are quoted by `json`'s C
`encode_basestring_ascii`, so the text is ASCII and equal byte for byte to
what the `json` module writes for the same record with sorted keys.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from .annotations import AnnotationInstance, CodeModel
    from .findings import Finding, SourceLocation
    from .refactor import ImpactReport

VERSION = "1"

LOCATION = ("column", "file", "line")
FINDING = ("check_id", "element", "element_kind", "locations", "message", "severity")
INSTANCE = (
    "attrs",
    "enclosing_components",
    "kind",
    "location",
    "package",
    "target",
    "target_name",
    "values",
)
CODE_MODEL = ("findings", "instances", "version")
REPORT = ("counts", "findings", "fingerprint", "version")  # check, smells
IMPACT = ("plan", "steps", "version")  # refactor
STEP = ("op", "step", "touched")
TOUCHED = ("instances", "kind", "ref")
# lookup prints `element`, `version` and one instance list per group:
# `instances`, or a connector's `connects`, `disconnects` and `stores`.


@lru_cache(maxsize=512)  # bounded: `mapping` passes keys read from the input
def template(keys: tuple[str, ...], depth: int | None) -> str:
    """A JSON object with these keys in this order, each value a `%s`."""
    if not keys:
        return "{}"
    names = [_quote(key).replace("%", "%%") for key in keys]
    if depth is None:
        return "{" + ",".join(f"{name}:%s" for name in names) + "}"
    pad = "\n" + "  " * (depth + 1)
    return "{" + ",".join(f"{pad}{name}: %s" for name in names) + "\n" + "  " * depth + "}"


@cache
def _array_parts(depth: int | None) -> tuple[str, str, str]:
    if depth is None:
        return "[", ",", "]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad, "," + pad, "\n" + "  " * depth + "]"


def _deeper(depth: int | None) -> int | None:
    return None if depth is None else depth + 1


def array(items: Sequence[str], depth: int | None) -> str:
    """A JSON array of items already written one level deeper than `depth`."""
    if not items:
        return "[]"
    head, sep, tail = _array_parts(depth)
    return head + sep.join(items) + tail


def mapping(items: Mapping[str, str], depth: int | None) -> str:
    """A JSON object with these keys, sorted, and values already written."""
    keys = tuple(sorted(items))
    return template(keys, depth) % tuple(items[key] for key in keys)


def _strings(texts: Iterable[str], depth: int | None) -> str:
    return array(list(map(_quote, texts)), depth)


def location(loc: SourceLocation, depth: int | None) -> str:
    return template(LOCATION, depth) % (loc.column, _quote(loc.file), loc.line)


# The record writers read an enum member's `_name_` and `_value_`, plain
# attributes; `.name` and `.value` go through a descriptor that takes about
# five times as long on Python 3.11.


def finding(f: Finding, depth: int | None) -> str:
    inner = _deeper(depth)
    element = f.element
    return template(FINDING, depth) % (
        _quote(f.check_id),
        "null" if element is None else _quote(element.path),
        "null" if element is None else _quote(element.kind._value_),
        array([location(loc, _deeper(inner)) for loc in f.locations], inner),
        _quote(f.message),
        _quote(f.severity._value_),
    )


def instance(inst: AnnotationInstance, depth: int | None) -> str:
    inner = _deeper(depth)
    attrs = inst.attrs
    return template(INSTANCE, depth) % (
        mapping({key: _quote(value) for key, value in attrs.items()}, inner) if attrs else "{}",
        _strings(inst.enclosing_components, inner),
        _quote(inst.kind._name_),
        location(inst.location, inner),
        "null" if inst.package is None else _quote(inst.package),
        _quote(inst.target._value_),
        _quote(inst.target_name),
        _strings(inst.values, inner),
    )


def code_model(code: CodeModel, depth: int | None) -> str:
    """What `extract --format json` prints (at depth 0) and the fingerprint
    hashes (compact)."""
    inner = _deeper(depth)
    record = _deeper(inner)
    return template(CODE_MODEL, depth) % (
        array([finding(f, record) for f in code.findings], inner),
        array([instance(i, record) for i in code.instances], inner),
        _quote(VERSION),
    )


def compact_code_model(findings: Sequence[str], instances: Sequence[str]) -> str:
    """The compact code model of findings and instances already written
    compact and in the model's order, each item one or more records joined
    by commas."""
    return template(CODE_MODEL, None) % (
        array(findings, None), array(instances, None), _quote(VERSION)
    )


def dump_code_model(code: CodeModel) -> str:
    """The indented code model document; byte-identical for equal models."""
    return code_model(code, 0) + "\n"


def report(findings: Sequence[Finding], fingerprint: str) -> str:
    """The `check` and `smells` document."""
    counts = Counter(f.check_id for f in findings)
    return (template(REPORT, 0) + "\n") % (
        mapping({check_id: str(n) for check_id, n in counts.items()}, 1),
        array([finding(f, 2) for f in findings], 1),
        _quote(fingerprint),
        _quote(VERSION),
    )


def lookup(element: str, groups: Mapping[str, Sequence[AnnotationInstance]]) -> str:
    """The `lookup` document: the element and one instance list per group."""
    fields = {label: array([instance(i, 2) for i in group], 1) for label, group in groups.items()}
    fields["element"] = _quote(element)
    fields["version"] = _quote(VERSION)
    return mapping(fields, 0) + "\n"


def impact(plan_impact: ImpactReport) -> str:
    """The `refactor` document: each step's operation and the annotations of
    each element it touches."""
    from .refactor import op_text

    def touched(entry, ref) -> str:
        return template(TOUCHED, 4) % (
            array([instance(i, 6) for i in entry.instances[ref]], 5),
            _quote(ref.kind.value),
            _quote(ref.path),
        )

    steps = [
        template(STEP, 2)
        % (
            _quote(op_text(entry.op)),
            entry.step,
            array([touched(entry, ref) for ref in entry.touched], 3),
        )
        for entry in plan_impact.entries
    ]
    return (template(IMPACT, 0) + "\n") % (
        _quote(plan_impact.plan_name),
        array(steps, 1),
        _quote(VERSION),
    )
