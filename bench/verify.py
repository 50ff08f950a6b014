"""Correctness gate: compare archlint outputs with a workload's known answers.

Every operation's exit code and output are checked. `check` and `smells`
reports are also validated against docs/report-schema.json. An output that
is byte-identical to an earlier verified output of the same operation is
accepted without parsing it again; one that differs is an error, because
archlint's reports are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema


@dataclass(frozen=True)
class Op:
    command: str  # check | smells | lookup | refactor
    argv: tuple[str, ...]
    ref: str = ""

    @property
    def key(self) -> str:
        return f"{self.command} {self.ref}".strip()


class Verifier:
    def __init__(self, answers: dict, schema_path: Path) -> None:
        self.answers = answers
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)
        self.seen: dict[str, tuple[int, str, str]] = {}

    def verify(self, op: Op, exit_code: int, stdout: str, refactored: str = "") -> list[str]:
        """Problems with one operation's result; empty when it is correct."""
        result = (exit_code, stdout, refactored)
        earlier = self.seen.get(op.key)
        if earlier is not None:
            return [] if earlier == result else [f"{op.key}: output differs from an earlier run"]
        problems = self._check(op, exit_code, stdout, refactored)
        if not problems:
            self.seen[op.key] = result
        return problems

    def _check(self, op: Op, exit_code: int, stdout: str, refactored: str) -> list[str]:
        if op.command == "lookup":
            answer = self.answers["lookup"][op.ref]
        else:
            answer = self.answers[op.command]
        want_exit = answer.get("exit", 0)
        if exit_code != want_exit:
            return [f"{op.key}: exit code {exit_code}, expected {want_exit}"]
        try:
            payload = json.loads(stdout)
        except ValueError as err:
            return [f"{op.key}: output is not JSON: {err}"]
        if op.command in ("check", "smells"):
            return self._report(op, payload, answer)
        if op.command == "lookup":
            return _lookup(op, payload, answer)
        return _refactor(op, payload, refactored, answer)

    def _report(self, op: Op, payload: dict, answer: dict) -> list[str]:
        problems = [
            f"{op.key}: schema: {err.message}" for err in self.validator.iter_errors(payload)
        ]
        if problems:
            return problems[:3]
        if payload["counts"] != answer["counts"]:
            problems.append(f"{op.key}: counts {payload['counts']}, expected {answer['counts']}")
        if sum(payload["counts"].values()) != len(payload["findings"]):
            problems.append(f"{op.key}: counts do not add up to the findings")
        if "missing" in answer:
            missing = sorted(
                f["element"] for f in payload["findings"] if f["check_id"] == "MISSING_ANNOTATION"
            )
            if missing != answer["missing"]:
                problems.append(f"{op.key}: missing {missing}, expected {answer['missing']}")
        return problems


def _lookup(op: Op, payload: dict, answer: dict) -> list[str]:
    got = {label: len(payload.get(label, ())) for label in answer}
    if payload.get("element") != op.ref or got != answer:
        return [f"{op.key}: found {got}, expected {answer}"]
    return []


def _refactor(op: Op, payload: dict, refactored: str, answer: dict) -> list[str]:
    problems = []
    got = [
        {"op": s["op"], "touched": [[t["ref"], len(t["instances"])] for t in s["touched"]]}
        for s in payload["steps"]
    ]
    want = [{"op": s["op"], "touched": [list(t) for t in s["touched"]]} for s in answer["steps"]]
    if got != want:
        problems.append(f"{op.key}: impact {got}, expected {want}")
    if refactored != answer["arch"]:
        problems.append(f"{op.key}: the refactored architecture differs from the expected one")
    return problems
