"""The benchmark's correctness gate, run in-process on small workloads.

Each workload of `bench/gen.py` is built at two sizes and three seeds, and
every operation `bench/run.py` times on it (check, smells, each lookup and
the refactoring plan) runs through `cli.main`. `bench/verify.py` checks
each output against the answers the generator planted, lookup hits and
plan impact included.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from archlint import cli

BENCH = Path(__file__).parent.parent / "bench"


@pytest.mark.parametrize("workload", ["java-scan", "pragma-drift", "connector-dense"])
def test_bench_gate_passes_in_process(workload: str, tmp_path: Path, monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(BENCH))  # undone at teardown, with what `run` adds
    import run

    problems: list[str] = []
    attempted = 0
    for seed in range(3):
        for size in (4, 12):
            root = tmp_path / f"{seed}-{size}"
            _, operations, verifier = run.setup(workload, seed, size, root)
            for op in operations:
                if op.command == "refactor":
                    run.fresh_refactor_input(root)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(op.argv))
                refactored = run.refactored_text(root) if op.command == "refactor" else ""
                problems += verifier.verify(op, code, out.getvalue(), refactored)
                attempted += 1
    assert problems == []
    assert attempted == 30
