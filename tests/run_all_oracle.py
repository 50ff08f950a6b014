"""`run_all` and `report_fingerprint` as they were before `run_all` became a
fold over each file's part: the oracle for `archlint.conformance.run_all`
and for a `check` that reads parts from the result store.

They are the earlier functions word for word. The three checks they call
are `archlint.conformance`'s, each over the whole code model.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from archlint.canonical import serialize_architecture
from archlint.annotations import CodeModel
from archlint.conformance import (
    ConformanceReport,
    check_annotation_completeness,
    check_architecture_completeness,
    check_connection_consistency,
)
from archlint.findings import Finding, sort_findings
from archlint.model import ArchitectureModel


def report_fingerprint(arch: ArchitectureModel, code: CodeModel) -> str:
    """SHA-256 over the serialized architecture, the compact canonical JSON of
    the code model (the record `extract --format json` prints), and the scan
    configuration's fingerprint."""
    digest = hashlib.sha256()
    digest.update(serialize_architecture(arch).encode("utf-8"))
    digest.update(code.compact_json.encode("utf-8"))
    digest.update(code.config_fingerprint.encode("utf-8"))
    return digest.hexdigest()


def run_all(arch: ArchitectureModel, code: CodeModel) -> ConformanceReport:
    """Model validation, the code model's extraction findings, and the three checks.

    The three checks run only on a well-formed model (their answers would be
    noise otherwise). Target rules are not re-run: the scanner reports their
    findings with the rest of `code.findings`. Every finding is kept, so two
    roots holding the same malformed file report it twice.
    """
    model_findings = arch.validation
    findings: list[Finding] = list(model_findings)
    findings.extend(code.findings)
    if not model_findings:
        findings.extend(check_annotation_completeness(arch, code))
        findings.extend(check_architecture_completeness(arch, code))
        findings.extend(check_connection_consistency(arch, code))
    ordered = tuple(sort_findings(findings))
    counts = Counter(f.check_id for f in ordered)
    return ConformanceReport(ordered, dict(sorted(counts.items())), report_fingerprint(arch, code))
