"""Span tracing around archlint's public functions, for the traced run.

A Tracer replaces each traced function (a name in `archlint.__all__`) in
every loaded `archlint.*` module with a wrapper that records a span: the
operation id, its own id, its parent span, its name, start and end times,
and an optional count taken from the call. Spans stay in memory until the
run writes them out. Nothing inside archlint is changed on disk.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable

# archlint public name -> span name (<module>.<what>)
TRACED = {
    "scan_tree": "scan.scan_tree",
    "extract_attributes": "annotations.extract_attributes",
    "extract_pragmas": "annotations.extract_pragmas",
    "resolve_context": "annotations.resolve_context",
    "validate_targets": "annotations.validate_targets",
    "parse_architecture": "adl.parse",
    "serialize_architecture": "adl.serialize",
    "validate_model": "model.validate",
    "check_annotation_completeness": "conformance.annotation_completeness",
    "check_architecture_completeness": "conformance.architecture_completeness",
    "check_connection_consistency": "conformance.connection_consistency",
    "run_all": "conformance.run_all",
    "run_smells": "smells.run_smells",
    "smell_scattered_component": "smells.scattered",
    "smell_connector_lifecycle": "smells.lifecycle",
    "lookup": "refactor.lookup",
    "connector_usages": "refactor.connector_usages",
    "parse_plan": "refactor.parse_plan",
    "apply_plan": "refactor.apply_plan",
}


def _note(name: str, args: tuple, result) -> dict | None:
    """Counts recorded with a span, read from the call's public inputs and result."""
    if name.startswith("annotations.extract_"):
        return {"chars": len(args[0])}
    if name == "scan.scan_tree":
        return {"instances": len(result.instances), "findings": len(result.findings)}
    if name == "conformance.run_all":
        return {"findings": len(result.findings)}
    if name in ("smells.scattered", "smells.lifecycle"):
        return {"findings": len(result)}
    if name == "refactor.apply_plan":
        return {"touched": sum(len(entry.touched) for entry in result[1].entries)}
    return None


class Tracer:
    def __init__(self) -> None:
        # [op, id, parent, name, start, end, note]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [self.op, len(self.spans), parent, name, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span[1])
        span[4] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[6] = _note(name, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Rebind every traced public function in all loaded archlint modules."""
        wrappers = {}
        for public, span_name in TRACED.items():
            fn = getattr(package, public)
            wrappers[id(fn)] = (fn, self.wrap(span_name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def operation(self, name: str, fn: Callable, *args):
        """Run one top-level operation as a root span with a fresh operation id."""
        self.op += 1
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)


def write(spans: list[list], path: Path) -> None:
    """One JSON object per span and line."""
    keys = ("op", "id", "parent", "name", "start", "end", "note")
    with path.open("w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


class Profile:
    """Totals, self times and counts over a slice of spans (one pass)."""

    def __init__(self, spans: list[list]) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.spans = spans
        by_id = {span[1]: span for span in spans}
        child_time: dict[int, float] = {}
        for span in spans:
            if span[2] in by_id:
                child_time[span[2]] = child_time.get(span[2], 0.0) + span[5] - span[4]
        for span in spans:
            name, duration = span[3], span[5] - span[4]
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - child_time.get(span[1], 0.0)
            )

    def note_sum(self, name: str, key: str, op: int | None = None) -> int:
        return sum(
            s[6][key] for s in self.spans
            if s[3] == name and s[6] is not None and (op is None or s[0] == op)
        )

    def calls_in(self, prefix: str, op: int) -> int:
        return sum(1 for s in self.spans if s[0] == op and s[3].startswith(prefix))


def growth(full: float, half: float) -> float:
    """log2 of the full-size to half-size time ratio: 1 is linear, 2 quadratic."""
    return math.log2(full / half)
