"""A grid of annotations and what each front-end makes of them.

Every annotation name is tried on every target kind with every argument
list below, once as a comment pragma and once as Java-style source, so each
kind meets each target rule, each attribute (taken or refused), a missing
value and a missing endpoint. `grid_report` gives one line per case: the
input, then each extracted instance with the elements it names, or each
finding's check id and message. An element annotation names its
`CodeModel.element_refs`, and a connection annotation the refs
`resolve_connection` gives it against an empty architecture. The golden
`tests/data/golden/annotation_grid.golden.txt` holds its output.

The grid is written out by hand, not read from the kind rows, so it checks
them.
"""

from __future__ import annotations

import json

from payload_oracle import instance_payload

from archlint.annotations import CodeModel, resolve_context, validate_targets
from archlint.conformance import resolve_connection
from archlint.java import extract_attributes
from archlint.model import ArchitectureModel
from archlint.pragma import extract_pragmas

NAMES = (
    "Component",
    "Part",
    "Port",
    "AddPart",
    "RemovePart",
    "Connects",
    "Disconnects",
    "Connector",
)

TARGETS = ("type", "field", "method", "constructor", "local")

# Each argument list in pragma form and in Java form (they differ only in
# how `type` is written).
ARG_LISTS = (
    ("", ""),
    ('"v"', '"v"'),
    ('{"a", "b"}', '{"a", "b"}'),
    ('value="v"', 'value="v"'),
    ('left="a"', 'left="a"'),
    ('right="b"', 'right="b"'),
    ('left="a", right="b"', 'left="a", right="b"'),
    ('"v", componentname="C"', '"v", componentname="C"'),
    ('componentname="C"', 'componentname="C"'),
    ('"v", left="a", right="b"', '"v", left="a", right="b"'),
    ('left="a.p", right="b", leftcomponent="L"', 'left="a.p", right="b", leftcomponent="L"'),
    ('left="a", right="b.q", rightcomponent="R"', 'left="a", right="b.q", rightcomponent="R"'),
    ('left="a", right="b", type=RIGHT', 'left="a", right="b", type=Direction.RIGHT'),
    ('"v", left="a", right="b", bogus="x"', '"v", left="a", right="b", bogus="x"'),
    ('"v", bogus="x"', '"v", bogus="x"'),
)

# The Java declaration of each target kind, inside `@Component("Outer")
# class Outer`; `{a}` is where the annotation goes.
_JAVA_MEMBERS = {
    "type": "{a} class T {{}}",
    "field": "{a} int f;",
    "method": "{a} void m() {{}}",
    "constructor": "{a} Outer() {{}}",
    "local": "void m() {{ {a} int x = 1; }}",
}


def _pragma_source(name: str, target: str, args: str) -> str:
    return f'//@arch Component("Outer") @on type Outer\n//@arch {name}({args}) @on {target} t\n'


def _java_source(name: str, target: str, args: str) -> str:
    member = _JAVA_MEMBERS[target].format(a=f"@{name}({args})")
    return f'@Component("Outer") class Outer {{\n    {member}\n}}\n'


# Against no architecture every endpoint walk fails, so a connection
# annotation's refs are what its text alone names.
_NO_ARCHITECTURE = ArchitectureModel()


def _outcome(instances, findings) -> str:
    parts = []
    for inst in instances[1:]:  # the first is the enclosing @Component("Outer")
        if inst.kind.usage is None:
            names = CodeModel((inst,)).element_refs
        else:
            names = resolve_connection(_NO_ARCHITECTURE, inst).refs
        refs = sorted(ref.path for ref in names)
        payload = json.dumps(instance_payload(inst), sort_keys=True, separators=(",", ":"))
        parts.append(f"{payload} names {refs}")
        findings = findings + validate_targets(inst)
    parts += [f"{f.check_id}: {f.message}" for f in findings]
    return " ; ".join(parts)


def grid_cases() -> list[tuple[str, str]]:
    """(front-end, source) per case."""
    cases = []
    for name in NAMES:
        for target in TARGETS:
            for pragma_args, java_args in ARG_LISTS:
                cases.append(("pragma", _pragma_source(name, target, pragma_args)))
                cases.append(("java", _java_source(name, target, java_args)))
    return cases


def grid_report() -> str:
    lines = []
    for front_end, source in grid_cases():
        if front_end == "pragma":
            instances, findings = extract_pragmas(source, "g/grid.txt")
            instances = resolve_context(instances)
        else:
            instances, findings = extract_attributes(source, "g/Grid.java")
        lines.append(f"{json.dumps(source)}\t{_outcome(instances, findings)}\n")
    return "".join(lines)
