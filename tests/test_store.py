"""The per-file result store (`archlint.store`) against a cold run.

`python -m archlint` keeps each scanned file's result under `.archlint_cache/`
in its working directory; `cli.main` and `scan_tree` keep none unless given a
store directory. Whatever the store holds (the results of earlier trees and
configs, another archlint's, a truncated file, bytes of any kind, entries of
another shape), every command must print what it prints without a store, and
after each run the store holds one entry for each file a front-end claimed
and could read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import marshal
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import archlint
from annotation_grid import grid_cases
from archlint import cli, java, pragma, store
from archlint.adl import serialize_architecture
from archlint.scaffold import write_scaffold
from archlint.scan import ScanConfig, _collect_files, _front_end, load_config_file, scan_tree
from java_oracle import FRAGMENTS
from modelgen import random_model
from parser_grid import JAVA_CLASS, PRAGMA_TAILS, mutants

ENV = {**os.environ, "PYTHONPATH": str(Path(archlint.__file__).parent.parent)}


def _write(path: Path, text: str, newline: str = "\n") -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))


def _tree(base: Path, seed: int) -> list[list[str]]:
    """Two source roots, an architecture, a plan and an empty config under
    `base`; returns each command's argv, as the store tests run them.

    The first root holds the scaffold of a random model, a sample of the
    annotation grid, parser-grid mutants of a Java class and of pragma
    tails, and Java fragments, with LF, CRLF and lone-CR line breaks and
    one file that is not UTF-8. The second root holds two of the first's
    relative paths with other text.
    """
    rng = random.Random(seed)
    model = random_model(rng)
    _write(base / "app.arch", serialize_architecture(model))
    _write(base / "app.plan", "add-port(C0, zz_store)\n")
    _write(base / "archlint.conf", "")
    one, two = base / "one", base / "two"
    write_scaffold(model, one / "scaffold")
    newlines = itertools.cycle(["\n", "\r\n", "\r"])
    for n, (front_end, source) in enumerate(rng.sample(grid_cases(), 12)):
        suffix = ".java" if front_end == "java" else ".txt"
        _write(one / "grid" / f"g{n}{suffix}", source, next(newlines))
    for n, (_, mutant) in enumerate(mutants(JAVA_CLASS, seed, 6)):
        _write(one / "mutants" / f"M{n}.java", mutant, next(newlines))
    for n, (_, tail) in enumerate(mutants(rng.choice(PRAGMA_TAILS), seed, 6)):
        _write(one / "mutants" / f"p{n}.py", f"x = 1\n# @arch {tail}\n", next(newlines))
    for n in range(4):
        text = " ".join(rng.choice(FRAGMENTS) for _ in range(30))
        _write(one / "fragments" / f"F{n}.java", text, next(newlines))
    (one / "bytes.txt").write_bytes(b'//@arch Component("\xff") @on type X\r\n')
    _write(two / "grid" / "g0.java", '@Component("Two") class Two {\n  @Port("q") void q() {}\n}\n')
    _write(two / "scaffold" / "C0.txt", '//@arch Component("C0") @on type C0\n')
    common = ["--src", str(one), "--src", str(two), "--config", str(base / "archlint.conf")]
    arch = ["--arch", str(base / "app.arch")]
    return [
        ["check", *arch, *common],
        ["smells", *arch, *common],
        ["extract", *common],
        ["extract", *common, "--format", "json"],
        ["lookup", *arch, *common, "C0"],
        ["refactor", *arch, *common, "--plan", str(base / "app.plan")],
    ]


def _run(argv: list[str], directory: Path | None = None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv, store=directory)
    return code, out.getvalue(), err.getvalue()


def _roots_and_config(base: Path) -> tuple[list[Path], ScanConfig]:
    config = ScanConfig.from_mapping(load_config_file(base / "archlint.conf"))
    return [base / "one", base / "two"], config


def _claimed(base: Path) -> list[tuple[str, str, bytes]]:
    """(relative path, front-end, sha256 of the decoded text) of each file a
    front-end claims."""
    roots, config = _roots_and_config(base)
    keys = []
    for rel, path in _collect_files(roots, config):
        front_end = _front_end(config, path.suffix)
        if front_end is not None:
            text = path.read_text(encoding="utf-8", errors="replace")
            keys.append((rel, front_end, hashlib.sha256(text.encode()).digest()))
    return keys


def _stored(base: Path, directory: Path) -> store.ResultStore:
    roots, config = _roots_and_config(base)
    return store.ResultStore(directory, roots, config.semantic_fingerprint())


def _assert_as_cold(base: Path, argv: list[str], directory: Path, monkeypatch) -> list[str]:
    """Run `argv` with the store and without: the same code, stdout and
    stderr, and a store that holds one entry per claimed file. Returns the
    relative path of each file the run with the store extracted."""
    extracted: list[str] = []
    with monkeypatch.context() as patched:
        for module, name in ((java, "extract_attributes"), (pragma, "extract_pragmas")):
            def counted(text: str, path: str, *rest, _original=getattr(module, name)):
                extracted.append(path)
                return _original(text, path, *rest)

            patched.setattr(module, name, counted)
        with_store = _run(argv, directory)
    assert with_store == _run(argv), argv
    claimed = _claimed(base)
    assert len(set(claimed)) == len(claimed)
    assert set(_stored(base, directory).entries) == set(claimed)
    names = {p.name for p in directory.iterdir()}
    assert ".gitignore" in names and all(len(n) == 64 for n in names - {".gitignore"}), names
    return sorted(extracted)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_command_prints_with_the_store_what_it_prints_cold(
    tmp_path: Path, seed: int, monkeypatch
) -> None:
    """Cold, warm, and after a file is edited, added, deleted or renamed, or
    the sigil, an extension or an exclude pattern changes; each run extracts
    only the files the store does not hold."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    commands = _tree(base, seed)
    one = base / "one"

    def every_file() -> list[str]:
        return sorted(rel for rel, _, _ in _claimed(base))

    for argv in commands:  # cold: an empty store
        shutil.rmtree(directory, ignore_errors=True)
        assert _assert_as_cold(base, argv, directory, monkeypatch) == every_file()
    for argv in commands:  # warm
        assert _assert_as_cold(base, argv, directory, monkeypatch) == []

    def edit(change, extracted) -> None:
        change()
        for argv in commands:
            assert _assert_as_cold(base, argv, directory, monkeypatch) == (
                every_file() if extracted == "all" else extracted
            )
            extracted = []

    scaffold = sorted((one / "scaffold").iterdir())
    port = '//@arch Port("zz") @on method zz\n'
    edit(lambda: scaffold[0].write_text(scaffold[0].read_text() + port),
         [f"scaffold/{scaffold[0].name}"])
    edit(lambda: _write(one / "added" / "A.java", '@Component("C0") class A { @Part("z") B b; }\n'),
         ["added/A.java"])
    edit(lambda: (one / "bytes.txt").unlink(), [])
    edit(lambda: scaffold[-1].rename(one / "renamed.txt"), ["renamed.txt"])
    edit(lambda: (one / "fragments" / "F0.java").rename(one / "fragments" / "F0.jav"),
         ["fragments/F0.jav"])
    for config in ("sigil = @arc", "attribute_extensions = .java, .txt", "pragma_extensions = .py",
                   "exclude = grid/*, scaffold/C0*"):
        edit(lambda: _write(base / "archlint.conf", f"{config}\n"), "all")
    edit(lambda: _write(base / "archlint.conf", ""), [])  # the first config's store again


def test_a_store_written_by_another_archlint_is_a_miss(tmp_path: Path, monkeypatch) -> None:
    """A store whose header names other source is not read: here its entries
    say that no file holds anything, and under this archlint's header the
    same entries would change what `extract` prints."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    commands = _tree(base, 4)
    _run(commands[0], directory)
    lying = _stored(base, directory)
    lying.kept = {key: ((), ()) for key in lying.entries}
    lying.added = True
    lying.save()
    assert _run(commands[2], directory) != _run(commands[2])
    lying.header = lying.header[:-32] + hashlib.sha256(b"another archlint").digest()
    lying.save()
    for argv in commands:
        _assert_as_cold(base, argv, directory, monkeypatch)


def test_a_warm_run_does_not_rewrite_the_store(tmp_path: Path) -> None:
    base, directory = tmp_path / "tree", tmp_path / "store"
    check = _tree(base, 5)[0]
    _run(check, directory)
    path = _stored(base, directory).path
    written = path.stat().st_ino
    _run(check, directory)
    assert path.stat().st_ino == written
    (base / "one" / "bytes.txt").unlink()
    _run(check, directory)
    assert path.stat().st_ino != written
    assert (directory / ".gitignore").read_text() == "*\n"


def test_a_store_directory_keeps_the_most_recently_written_files(
    tmp_path: Path, monkeypatch
) -> None:
    """With more configs than `store._KEPT_FILES`, each write keeps its own
    store file and the most recently written others, even when those carry
    a later time; a config whose file was dropped is a miss, not an error."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    check = _tree(base, 12)[0]
    written: list[str] = []

    def kept() -> list[str]:
        return sorted(p.name for p in directory.iterdir() if p.name != ".gitignore")

    for n in range(store._KEPT_FILES + 3):
        _write(base / "archlint.conf", f"exclude = nothing{n}\n")
        _run(check, directory)
        path = _stored(base, directory).path
        os.utime(path, ns=(n * 10**9, n * 10**9))  # the write order, whatever the clock
        written.append(path.name)
        assert kept() == sorted(written[-store._KEPT_FILES:])
    for name in kept():
        os.utime(directory / name, ns=(2**62, 2**62))
    _write(base / "archlint.conf", "exclude = nothing0\n")
    every_file = sorted(rel for rel, _, _ in _claimed(base))
    assert _assert_as_cold(base, check, directory, monkeypatch) == every_file
    newest = _stored(base, directory).path.name
    assert newest == written[0] and newest in kept()
    assert len(kept()) == store._KEPT_FILES


def test_an_unreadable_file_is_never_stored(tmp_path: Path, monkeypatch) -> None:
    base, directory = tmp_path / "tree", tmp_path / "store"
    check = _tree(base, 6)[0]
    _run(check, directory)
    unreadable = base / "one" / "bytes.txt"
    read_text = Path.read_text

    def failing(path: Path, *args, **kwargs) -> str:
        if path == unreadable:
            raise OSError("unreadable")
        return read_text(path, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "read_text", failing)
        cold = _run(check)
        assert "IO_ERROR" in cold[1]
        assert _run(check, directory) == cold
        assert not [key for key in _stored(base, directory).entries if key[0] == "bytes.txt"]
    assert _assert_as_cold(base, check, directory, monkeypatch) == ["bytes.txt"]


def test_cli_main_and_scan_tree_write_nothing_in_the_working_directory(
    tmp_path: Path, monkeypatch
) -> None:
    commands = _tree(tmp_path / "tree", 7)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for argv in commands:
        _run(argv)
    scan_tree([tmp_path / "tree" / "one"])
    assert list(cwd.iterdir()) == []


# --- a hostile store ----------------------------------------------------------


@pytest.fixture(scope="module")
def hostile(tmp_path_factory) -> tuple[Path, list[Path], ScanConfig, object, bytes]:
    """A tree, its roots and config, its cold code model, and the store file
    a run leaves."""
    base = tmp_path_factory.mktemp("hostile")
    _tree(base, 8)
    roots, config = _roots_and_config(base)
    directory = base / "store"
    cold = scan_tree(roots, config)
    assert scan_tree(roots, config, store=directory) == cold
    return directory, roots, config, cold, _stored(base, directory).path.read_bytes()


# The module-scoped tree is shared by every example.
_HYPOTHESIS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _scan_with(hostile, data: bytes) -> None:
    """Scan over a store file holding `data`: the cold model, nothing on stderr."""
    directory, roots, config, cold, _ = hostile
    path = store.ResultStore(directory, roots, config.semantic_fingerprint()).path
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert scan_tree(roots, config, store=directory) == cold
    assert err.getvalue() == ""


def _with_payload(header_and_digest: bytes, payload: bytes) -> bytes:
    """A store file of this archlint whose payload, with a matching sha256,
    is `payload`."""
    header = header_and_digest[: len(store._MAGIC) + 32]
    return header + hashlib.sha256(payload).digest() + payload


@_HYPOTHESIS
@given(data=st.binary(max_size=4096), behind_the_header=st.booleans())
def test_arbitrary_bytes_are_a_miss(hostile, data: bytes, behind_the_header: bool) -> None:
    """Bytes of any kind, alone or behind this archlint's header. (A payload
    reaches `marshal` only when its sha256 matches: `marshal.loads` of
    arbitrary bytes can ask for gigabytes.)"""
    if behind_the_header:
        data = hostile[4][: len(store._MAGIC) + 32] + data
    _scan_with(hostile, data)


@_HYPOTHESIS
@given(cut=st.integers(min_value=0))
def test_a_truncated_store_is_a_miss(hostile, cut: int) -> None:
    good = hostile[4]
    _scan_with(hostile, good[: cut % len(good)])


# Values of another type, or of the right type with contents of another
# type, for a field of each type.
_ODD = {
    str: (0, None, (), b"x"),
    tuple: ([], "x", ("x", 0), ((1, "2"),), None),
    dict: ([], {"k": 0}, {0: "v"}, None),
    int: ("1", 1.5, True, None),
}


def _wrong_shapes(entries: dict) -> list[object]:
    """Payloads of the wrong shape: not a dict of entries, or one entry
    whose whole, or whose first instance or first finding, has a field
    replaced by a value of another type or by an unknown name, a field
    taken away or added, or a list in place of a tuple."""

    def variants(record: tuple, named: tuple[int, ...]):
        for i, field in enumerate(record):
            for value in _ODD[type(field)] + (("Nothing",) if i in named else ()):
                yield (*record[:i], value, *record[i + 1 :])
            yield record[:i]
        yield (*record, 0)
        yield list(record)

    shapes: list[object] = [[], (), None, 0, "", list(entries.items()), {"x": ((), ())}]
    for side, named in ((0, (0, 3)), (1, (0,))):  # kind and target; check id
        key, entry = next((k, v) for k, v in entries.items() if v[side])
        records = entry[side]
        for bad in variants(records[0], named):
            changed = list(entry)
            changed[side] = (bad, *records[1:])
            shapes.append({**entries, key: tuple(changed)})
        for bad in variants(entry, ()):
            shapes.append({**entries, key: bad})
    return shapes


def test_a_payload_of_the_wrong_shape_is_a_miss(hostile) -> None:
    good = hostile[4]
    entries = marshal.loads(good[len(store._MAGIC) + 64 :])
    shapes = _wrong_shapes(entries)
    assert len(shapes) > 100
    for shape in shapes:
        _scan_with(hostile, _with_payload(good, marshal.dumps(shape)))


# --- the process ----------------------------------------------------------------


def _process(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "archlint", *argv], capture_output=True, text=True, env=ENV, cwd=cwd
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_the_process_keeps_its_store_in_the_working_directory(tmp_path: Path) -> None:
    base, cwd = tmp_path / "tree", tmp_path / "cwd"
    commands = _tree(base, 9)
    cwd.mkdir()
    directory = cwd / ".archlint_cache"
    for argv in commands:
        shutil.rmtree(directory, ignore_errors=True)
        assert _process(argv, cwd) == _run(argv), argv
        assert set(_stored(base, directory).entries) == set(_claimed(base))
    for argv in commands:
        assert _process(argv, cwd) == _run(argv), argv
    assert (directory / ".gitignore").read_text() == "*\n"


def test_a_store_inside_a_source_root_is_not_scanned(tmp_path: Path) -> None:
    """`--src .` from the root of the sources: the store is never a source,
    so a warm run neither reads it as one nor rewrites it."""
    base = tmp_path / "tree"
    _tree(base, 12)
    argv = ["extract", "--src", ".", "--format", "json"]
    cold = _process(argv, base / "one")
    assert cold[0] == 0 and '"instances": []' not in cold[1]
    directory = base / "one" / ".archlint_cache"
    assert _process(argv, base / "one") == cold
    written = next(p for p in directory.iterdir() if p.name != ".gitignore").stat().st_ino
    assert _process(argv, base / "one") == cold
    stored = store.ResultStore(directory, [base / "one"], ScanConfig().semantic_fingerprint())
    assert stored.path.stat().st_ino == written
    assert not [key for key in stored.entries if key[0].startswith(".archlint_cache")]


def test_a_blocked_store_directory_is_a_miss(tmp_path: Path) -> None:
    base, cwd = tmp_path / "tree", tmp_path / "cwd"
    check = _tree(base, 10)[0]
    cwd.mkdir()
    (cwd / ".archlint_cache").write_text("not a directory\n")
    assert _process(check, cwd) == _run(check)
    assert (cwd / ".archlint_cache").read_text() == "not a directory\n"


def test_runs_at_once_each_print_the_cold_output(tmp_path: Path) -> None:
    """Three processes on one store at once: each reads a whole store file
    or none, and the last rename wins."""
    base, cwd = tmp_path / "tree", tmp_path / "cwd"
    commands = _tree(base, 11)
    cwd.mkdir()
    for argv in (commands[0], commands[3]):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "archlint", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV, cwd=cwd,
            )
            for _ in range(3)
        ]
        cold = _run(argv)
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, out, err) == cold
        assert set(_stored(base, cwd / ".archlint_cache").entries) == set(_claimed(base))
