"""The JSON records archlint writes, as dicts for `json` to dump: the oracle
for `archlint.jsontext`.

`instance_payload`, `finding_payload` and `code_model_payload` are the
definitions the writers replaced; the envelope payloads are the `check`,
`smells`, `lookup` and `refactor` documents built the same way.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Mapping, Sequence

from archlint.annotations import AnnotationInstance, CodeModel
from archlint.findings import Finding
from archlint.refactor import ImpactReport, op_text

VERSION = "1"


def instance_payload(inst: AnnotationInstance) -> dict:
    return {
        "kind": inst.kind.name,
        "values": list(inst.values),
        "attrs": dict(sorted(inst.attrs.items())),
        "target": inst.target.value,
        "target_name": inst.target_name,
        "enclosing_components": list(inst.enclosing_components),
        "location": {
            "file": inst.location.file,
            "line": inst.location.line,
            "column": inst.location.column,
        },
        "package": inst.package,
    }


def finding_payload(f: Finding) -> dict:
    return {
        "check_id": f.check_id,
        "severity": f.severity.value,
        "message": f.message,
        "element": f.element.path if f.element is not None else None,
        "element_kind": f.element.kind.value if f.element is not None else None,
        "locations": [
            {"file": loc.file, "line": loc.line, "column": loc.column} for loc in f.locations
        ],
    }


def code_model_payload(code: CodeModel) -> dict:
    """The JSON form of a CodeModel: what `extract --format json` prints and
    what the report fingerprint hashes."""
    return {
        "version": "1",
        "instances": [instance_payload(i) for i in code.instances],
        "findings": [finding_payload(f) for f in code.findings],
    }




def report_payload(findings: Sequence[Finding], fingerprint: str) -> dict:
    counts = Counter(f.check_id for f in findings)
    return {
        "version": VERSION,
        "fingerprint": fingerprint,
        "counts": dict(sorted(counts.items())),
        "findings": [finding_payload(f) for f in findings],
    }


def lookup_payload(element: str, groups: Mapping[str, Sequence[AnnotationInstance]]) -> dict:
    payload: dict = {"version": VERSION, "element": element}
    for label, group in groups.items():
        payload[label] = [instance_payload(i) for i in group]
    return payload


def impact_payload(impact: ImpactReport) -> dict:
    return {
        "version": VERSION,
        "plan": impact.plan_name,
        "steps": [
            {
                "step": entry.step,
                "op": op_text(entry.op),
                "touched": [
                    {
                        "ref": ref.path,
                        "kind": ref.kind.value,
                        "instances": [instance_payload(i) for i in entry.instances[ref]],
                    }
                    for ref in entry.touched
                ],
            }
            for entry in impact.entries
        ],
    }


def indented(payload: dict) -> str:
    """The indent-2 form of a record, as a document prints it at top level."""
    return json.dumps(payload, indent=2, sort_keys=True)


def compact(payload: dict) -> str:
    """The compact form of a record, as the fingerprint hashes it."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
