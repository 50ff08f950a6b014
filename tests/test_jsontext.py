"""The JSON writers against `json.dumps` of the payload oracle, on random records."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from payload_oracle import (
    code_model_payload,
    compact,
    finding_payload,
    impact_payload,
    indented,
    instance_payload,
    lookup_payload,
    report_payload,
)

from archlint import jsontext
from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, TargetKind
from archlint.findings import CATALOG, Finding, Severity, SourceLocation
from archlint.model import ElementRef, RefKind
from archlint.refactor import AddPort, ImpactEntry, ImpactReport, RenameElement

# Characters JSON must escape or that the ASCII quoting writes as \uXXXX:
# quotes, backslashes, control characters, `%` (the template's own
# metacharacter), non-ASCII, U+FFFD, line separators and lone surrogates.
_AWKWARD = '"\\%/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x85\xe9\u20ac\u2028\u2029\ufffd\ud800\udfff\U0001f600'
TEXT = st.one_of(
    st.text(alphabet=_AWKWARD + "aZ0 ._#", max_size=8),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=8),
)
LOCATIONS = st.builds(SourceLocation, TEXT, st.integers(0, 10**6), st.integers(0, 10**6))
REFS = st.builds(ElementRef, st.sampled_from(RefKind), TEXT)
FINDINGS = st.builds(
    Finding,
    st.one_of(st.sampled_from(sorted(CATALOG)), TEXT),
    st.sampled_from(Severity),
    TEXT,
    st.none() | REFS,
    st.lists(LOCATIONS, max_size=3).map(tuple),
)
INSTANCES = st.builds(
    AnnotationInstance,
    st.sampled_from(AnnotationKind),
    st.lists(TEXT, max_size=3).map(tuple),
    st.dictionaries(TEXT, TEXT, max_size=3),
    st.sampled_from(TargetKind),
    TEXT,
    st.lists(TEXT, max_size=3).map(tuple),
    LOCATIONS,
    st.none() | TEXT,
)
CODE_MODELS = st.builds(
    CodeModel,
    st.lists(INSTANCES, max_size=3).map(tuple),
    st.lists(FINDINGS, max_size=3).map(tuple),
)
ENTRIES = st.builds(
    lambda step, op, refs, groups: ImpactEntry(step, op, tuple(refs), dict(zip(refs, groups))),
    st.integers(1, 99),
    st.one_of(st.builds(AddPort, TEXT, TEXT), st.builds(RenameElement, REFS, TEXT)),
    st.lists(REFS, max_size=3, unique=True),
    st.lists(st.lists(INSTANCES, max_size=2).map(tuple), min_size=3, max_size=3),
)

WRITERS = [
    (jsontext.location, lambda loc: {"file": loc.file, "line": loc.line, "column": loc.column}),
    (jsontext.finding, finding_payload),
    (jsontext.instance, instance_payload),
    (jsontext.code_model, code_model_payload),
]


def _check_writer(write, payload, record) -> None:
    expected = indented(payload(record))
    assert write(record, None) == compact(payload(record))
    assert write(record, 0) == expected
    # one level deeper, every line after the first moves two spaces right
    for depth in (1, 3):
        assert write(record, depth) == expected.replace("\n", "\n" + "  " * depth)


@settings(max_examples=300, deadline=None)
@given(LOCATIONS, FINDINGS, INSTANCES, CODE_MODELS)
def test_each_writer_matches_json_dumps_of_its_payload(location, f, inst, code) -> None:
    for (write, payload), record in zip(WRITERS, (location, f, inst, code)):
        _check_writer(write, payload, record)


def test_boundary_records_match_json_dumps() -> None:
    loc = SourceLocation('a"\\\ud800.txt', 1, 4)
    no_element = Finding("IO_ERROR", Severity.ERROR, "\xe9\ufffd\x00", None, ())
    one = Finding("UNKNOWN_ELEMENT", Severity.ERROR, "m", ElementRef(RefKind.PORT, "A#p"), (loc,))
    several = Finding("SCATTERED_COMPONENT", Severity.WARNING, "s", None, (loc, loc, loc))
    bare = AnnotationInstance(
        AnnotationKind.COMPONENT, (), {}, TargetKind.TYPE, "T ", (), loc, None
    )
    cases = [
        (jsontext.finding, finding_payload, f) for f in (no_element, one, several)
    ] + [
        (jsontext.instance, instance_payload, bare),
        (jsontext.code_model, code_model_payload, CodeModel()),
        (jsontext.code_model, code_model_payload, CodeModel((bare,), (no_element, several))),
    ]
    for write, payload, record in cases:
        _check_writer(write, payload, record)
    assert jsontext.dump_code_model(CodeModel()) == indented(code_model_payload(CodeModel())) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.lists(FINDINGS, max_size=4), TEXT)
def test_report_document_matches_json_dumps(findings, fingerprint) -> None:
    expected = indented(report_payload(findings, fingerprint)) + "\n"
    assert jsontext.report(findings, fingerprint) == expected


@settings(max_examples=150, deadline=None)
@given(TEXT, st.lists(INSTANCES, max_size=3), st.lists(INSTANCES, max_size=2))
def test_lookup_document_matches_json_dumps(element, first, second) -> None:
    for groups in (
        {"instances": first},
        {"connects": first, "disconnects": second, "stores": ()},
    ):
        expected = indented(lookup_payload(element, groups)) + "\n"
        assert jsontext.lookup(element, groups) == expected


@settings(max_examples=100, deadline=None)
@given(TEXT, st.lists(ENTRIES, max_size=3).map(tuple))
def test_impact_document_matches_json_dumps(plan_name, entries) -> None:
    impact = ImpactReport(plan_name, entries)
    assert jsontext.impact(impact) == indented(impact_payload(impact)) + "\n"
