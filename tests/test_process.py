"""The `archlint` process: one entry for both launchers, and the cyclic
collector it turns off.

`archlint.__main__.run` disables the cyclic collector before it imports the
command line and freezes the heap before exit. That is safe only while a
command's cyclic garbage does not grow with its input, and only the process
entry may touch the collector: `cli.main` and library use keep it as the
caller set it.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import re
import runpy
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import archlint
from archlint import cli

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
BENCH = ROOT / "bench"


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(root: Path, ref: str) -> dict[str, list[str]]:
    common = ["--src", str(root / "src"), "--config", str(root / "archlint.conf"), "--format", "json"]
    arch = ["--arch", str(root / "app.arch")]
    return {
        "check": ["check", *arch, *common],
        "smells": ["smells", *arch, *common],
        "lookup": ["lookup", *arch, *common, ref],
        "refactor": ["refactor", *arch, *common, "--plan", str(root / "app.plan")],
    }


def _cyclic_garbage(argv: list[str]) -> int:
    """The objects that only the cyclic collector would free after a second
    `cli.main(argv)`; the first fills caches and compiles what is lazy.
    Neither call may switch the collector on or off, or freeze the heap."""
    enabled = gc.isenabled()
    _in_process(argv)
    assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _in_process(argv)
        assert not gc.isenabled() and gc.get_freeze_count() == 0
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "workload, sizes", [("java-scan", (8, 16)), ("pragma-drift", (40, 80)), ("connector-dense", (40, 80))]
)
def test_cyclic_garbage_does_not_grow_with_the_tree(
    workload: str, sizes: tuple[int, int], tmp_path: Path, monkeypatch
) -> None:
    monkeypatch.syspath_prepend(str(BENCH))
    import gen

    found: dict[str, list[int]] = {}
    for size in sizes:
        root = tmp_path / str(size)
        built = gen.build(workload, 7, size)
        built.write(root)
        for command, argv in _commands(root, built.lookups[0]).items():
            found.setdefault(command, []).append(_cyclic_garbage(argv))
    assert all(small == large for small, large in found.values()), found


def test_both_launchers_run_one_entry(monkeypatch) -> None:
    """`python -m archlint` and the `archlint` script (pyproject.toml's
    `[project.scripts]`) call `cli.main` from the same function, which turns
    the collector off before and freezes the heap after, and which alone
    opens the per-file result store."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, function = re.search(r'^archlint = "([\w.]+):(\w+)"$', scripts, re.M).groups()

    calls: list[object] = []

    def main(store: str | None = None) -> int:
        caller = sys._getframe(1).f_code
        calls.append((caller.co_filename, caller.co_name, store))
        return 3

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))

    def launch(start) -> list[object]:
        calls.clear()
        with pytest.raises(SystemExit) as exit_info:
            start()
        assert exit_info.value.code == 3
        return list(calls)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # `archlint.__main__` may be imported already
        as_module = launch(lambda: runpy.run_module("archlint", run_name="__main__"))
    as_script = launch(lambda: getattr(importlib.import_module(module), function)())
    entry = (str(Path(archlint.__file__).parent / "__main__.py"), function, ".archlint_cache")
    assert as_module == as_script == ["disable", entry, "freeze"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--arch", "car/car.arch", "--src", "car/src"], 0),
        (["check", "--arch", "car/car.arch", "--src", "car_solo", "--format", "json"], 1),
        (["check", "--src", "car/src"], 2),
    ],
    ids=["clean", "findings", "usage"],
)
def test_the_process_writes_what_cli_main_writes(
    argv: list[str], code: int, tmp_path: Path, monkeypatch
) -> None:
    for tree in ("car", "car_solo"):
        shutil.copytree(DATA / tree, tmp_path / tree)
    monkeypatch.chdir(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "archlint", *argv], capture_output=True, env=env)
    in_code, out, err = _in_process(argv)
    assert proc.returncode == in_code == code
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr == err.encode("utf-8")
