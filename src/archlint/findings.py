"""Diagnostics: source locations, severities, and the finding catalog.

Every diagnostic the package emits (model validation, extraction problems,
conformance checks, smells) is a Finding with a check id drawn from the
catalog below, so renderers and exit-code logic never meet an unknown id.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .model import ElementRef


class Severity(enum.Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"


class SourceLocation(namedtuple("SourceLocation", "file line column")):
    """1-based position inside a scanned file: file (str, root-relative),
    line and column (int). As a tuple it sorts in that order."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


# Check ids with their fixed severity. Validator and extraction ids are
# ERROR like the conformance checks; smells are always WARNING.
CATALOG: dict[str, Severity] = {
    # model well-formedness
    "DUPLICATE_COMPONENT": Severity.ERROR,
    "DUPLICATE_PORT": Severity.ERROR,
    "DUPLICATE_PART_ROLE": Severity.ERROR,
    "DUPLICATE_MEMBER_NAME": Severity.ERROR,
    "BAD_MULTIPLICITY": Severity.ERROR,
    "UNRESOLVED_PART_TYPE": Severity.ERROR,
    "UNKNOWN_CONTEXT": Severity.ERROR,
    "UNRESOLVED_ENDPOINT": Severity.ERROR,
    "SELF_CONNECTOR": Severity.ERROR,
    "DUPLICATE_CONNECTOR_ID": Severity.ERROR,
    "DUPLICATE_CONNECTOR": Severity.ERROR,
    # extraction
    "MALFORMED_PRAGMA": Severity.ERROR,
    "MALFORMED_ANNOTATION": Severity.ERROR,
    "UNCLASSIFIABLE_TARGET": Severity.ERROR,
    "TARGET_RULE_VIOLATION": Severity.ERROR,
    "IO_ERROR": Severity.ERROR,
    # conformance
    "MISSING_ANNOTATION": Severity.ERROR,
    "UNKNOWN_ELEMENT": Severity.ERROR,
    "UNDECLARED_CONNECTION": Severity.ERROR,
    "CONTEXT_OVERRIDE": Severity.WARNING,
    # smells
    "SCATTERED_COMPONENT": Severity.WARNING,
    "CONNECTOR_LIFECYCLE": Severity.WARNING,
}

SMELL_IDS = frozenset({"SCATTERED_COMPONENT", "CONNECTOR_LIFECYCLE"})


class Finding(
    namedtuple("Finding", "check_id severity message element locations", defaults=(None, ()))
):
    """A diagnostic: check_id (str, a CATALOG key), severity (Severity),
    message (str), element (ElementRef | None) and locations
    (tuple[SourceLocation, ...])."""

    __slots__ = ()


def finding(
    check_id: str,
    message: str,
    element: ElementRef | None = None,
    locations: Iterable[SourceLocation] = (),
) -> Finding:
    """Build a Finding with the catalog severity for check_id."""
    severity = CATALOG[check_id]
    return Finding(check_id, severity, message, element, tuple(locations))


def finding_sort_key(f: Finding) -> tuple:
    return (
        *(f.locations[0] if f.locations else ("", 0, 0)),  # file, line, column
        f.check_id,
        f.element.path if f.element is not None else "",
        f.message,
    )


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Canonical report order: (file, line, column, check id, element, message)."""
    return sorted(findings, key=finding_sort_key)
