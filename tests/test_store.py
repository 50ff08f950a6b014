"""The result store (`archlint.store`) against a cold run.

`python -m archlint` keeps each scanned file's result, and the parsed `.arch`,
under `.archlint_cache/` in its working directory; `cli.main` and `scan_tree`
keep none unless given a store directory. Whatever the store holds (the
results of earlier trees, configs and `.arch` texts, another archlint's, a
truncated file, bytes of any kind, entries of another shape, stats that a
same-size edit or a racy write left equal), every command must print what it
prints without a store, and after each run the store holds one entry for
each file a front-end claimed and could read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import marshal
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import archlint
from annotation_grid import grid_cases
from archlint import adl, cli, java, jsontext, pragma, store
from archlint.canonical import serialize_architecture
from archlint.conformance import FilePart, report_fingerprint, run_all
from archlint.model import ArchitectureModel
from archlint.scaffold import write_scaffold
from archlint.scan import (
    ScanConfig, _collect_files, _front_end, check_tree, load_config_file, scan_tree,
)
from java_oracle import FRAGMENTS
from modelgen import random_model, write_scaffold_tree
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


def _claimed(base: Path) -> list[tuple[str, int]]:
    """(relative path, position of its root) of each file a front-end claims."""
    roots, config = _roots_and_config(base)
    return [
        (rel, position) for rel, position, path, _ in _collect_files(roots, config)
        if _front_end(config, os.path.splitext(path)[1]) is not None
    ]


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
        return sorted(rel for rel, _ in _claimed(base))

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
    lying.kept = {key: ((), (), "", "", *entry[4:]) for key, entry in lying.entries.items()}
    lying.changed = True
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
    a later time; a config whose file was dropped is a miss, not an error.
    (`extract` reads no `.arch`, so every store file here holds results.)"""
    base, directory = tmp_path / "tree", tmp_path / "store"
    extract = _tree(base, 12)[2]
    written: list[str] = []

    def kept() -> list[str]:
        return sorted(p.name for p in directory.iterdir() if p.name != ".gitignore")

    for n in range(store._KEPT_FILES + 3):
        _write(base / "archlint.conf", f"exclude = nothing{n}\n")
        _run(extract, directory)
        path = _stored(base, directory).path
        os.utime(path, ns=(n * 10**9, n * 10**9))  # the write order, whatever the clock
        written.append(path.name)
        assert kept() == sorted(written[-store._KEPT_FILES:])
    for name in kept():
        os.utime(directory / name, ns=(2**62, 2**62))
    _write(base / "archlint.conf", "exclude = nothing0\n")
    every_file = sorted(rel for rel, _ in _claimed(base))
    assert _assert_as_cold(base, extract, directory, monkeypatch) == every_file
    newest = _stored(base, directory).path.name
    assert newest == written[0] and newest in kept()
    assert len(kept()) == store._KEPT_FILES


def test_the_store_cap_drops_the_least_recently_used_file(tmp_path: Path, monkeypatch) -> None:
    """A run whose every file hits writes nothing but still counts as a use:
    a store used before each of `_KEPT_FILES` writes under other configs
    outlives them all."""
    roots, directory = [Path(__file__).parent / "data" / "car" / "src"], tmp_path / "store"
    used = ScanConfig()
    extracted: list[str] = []
    for module, name in ((java, "extract_attributes"), (pragma, "extract_pragmas")):
        def counted(text: str, path: str, *rest, _original=getattr(module, name)):
            extracted.append(path)
            return _original(text, path, *rest)

        monkeypatch.setattr(module, name, counted)
    scan_tree(roots, used, directory)
    assert extracted
    path = store.ResultStore(directory, roots, used.semantic_fingerprint()).path
    os.utime(path, ns=(10**9, 10**9))  # the write order, whatever the clock
    for n in range(store._KEPT_FILES):
        scan_tree(roots, used, directory)
        other = ScanConfig(exclude=[f"nothing{n}"])
        scan_tree(roots, other, directory)
        written = store.ResultStore(directory, roots, other.semantic_fingerprint()).path
        os.utime(written, ns=((n + 2) * 10**9, (n + 2) * 10**9))
    extracted.clear()
    scan_tree(roots, used, directory)
    assert extracted == []


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

    # Taking read access away changes the file's ctime, so its stat no longer
    # matches its entry. (Root reads a file whatever its mode, hence `failing`.)
    unreadable.chmod(0o200)
    with monkeypatch.context() as patched:
        patched.setattr(Path, "read_text", failing)
        cold = _run(check)
        assert "IO_ERROR" in cold[1]
        assert _run(check, directory) == cold
        assert not [key for key in _stored(base, directory).entries if key[0] == "bytes.txt"]
    unreadable.chmod(0o644)
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


# --- the architecture, the stat rule and the fingerprint -----------------------


def _counting_parsers(monkeypatch) -> list[str]:
    """Record each `.arch` text the ADL parser lexes from now on."""
    parsed: list[str] = []
    init = adl._Parser.__init__

    def counted(self, text: str) -> None:
        parsed.append(text)
        init(self, text)

    monkeypatch.setattr(adl._Parser, "__init__", counted)
    return parsed


def _store_reads(base: Path, argv: list[str], directory: Path, monkeypatch) -> list[str]:
    """The source files a run with the store reads; asserts that it prints
    what a run without the store prints."""
    reads: list[str] = []
    read_text = Path.read_text

    def counted(path: Path, *args, **kwargs) -> str:
        if path.is_relative_to(base / "one") or path.is_relative_to(base / "two"):
            reads.append(str(path))
        return read_text(path, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "read_text", counted)
        with_store = _run(argv, directory)
    assert with_store == _run(argv), argv
    return reads


def test_an_edited_and_restored_architecture_prints_what_it_prints_cold(
    tmp_path: Path, monkeypatch
) -> None:
    """Each command reads its `.arch` from the store once it has been parsed:
    after an edit the first run parses and stores the new text, and after
    the edit is undone the first text's entry is read again."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    commands = [argv for argv in _tree(base, 13) if argv[0] != "extract"]
    arch = base / "app.arch"
    first = arch.read_text()
    edited = first + "\ncomponent Zz_edit {\n    port p;\n}\n"
    parsed = _counting_parsers(monkeypatch)
    for text, stored in ((first, False), (edited, False), (first, True)):
        _write(arch, text)
        for n, argv in enumerate(commands):
            parsed.clear()
            with_store = _run(argv, directory)
            assert parsed == ([] if stored or n else [text]), argv
            assert with_store == _run(argv), argv
        assert store.ArchitectureStore(directory, text).get() is not None


@pytest.mark.parametrize("bad", ["component A { port p; port p; }\n", "component A { port }\n"])
def test_an_architecture_that_fails_to_parse_stores_nothing(tmp_path: Path, bad: str) -> None:
    base, directory = tmp_path / "tree", tmp_path / "store"
    check = _tree(base, 14)[0]
    _write(base / "app.arch", bad)
    cold = _run(check)
    assert cold[0] == 2
    assert _run(check, directory) == cold
    assert not directory.exists()


# A component with a port, a part of each multiplicity shape and a
# connector, so that each field of the stored model has a value to replace.
_WIRED = """
component Zz_wired {
    port p;
    part q: Zz_wired_t;
    part s: Zz_wired_t [*];
    connector c: p -> q.r;
}

component Zz_wired_t {
    port r;
}
"""


def _arch_shapes(packed: tuple) -> list[object]:
    """Payloads of the wrong shape: not a tuple of the text's digest, the
    model's canonical text, its components and its connectors, or one whose
    canonical text is not a str, or whose `Zz_wired` component, its first
    port or part, or its connector has a field of another type, a field too
    few, or a name the model declares twice."""
    digest, text, components, connectors = packed
    odd = {str: (0, None, b"x"), tuple: ([], "x", None, (0,)), int: ("1", 1.5, True),
           type(None): ("*",)}

    def component(record: tuple) -> tuple:
        at = next(i for i, c in enumerate(components) if c[0] == "Zz_wired")
        return (digest, text, (*components[:at], record, *components[at + 1 :]), connectors)

    def connector(record: tuple) -> tuple:
        at = next(i for i, c in enumerate(connectors) if c[0] == "c")
        return (digest, text, components, (*connectors[:at], record, *connectors[at + 1 :]))

    def variants(record: tuple):
        for i, field in enumerate(record):
            for value in odd[type(field)]:
                yield (*record[:i], value, *record[i + 1 :])
        yield record[:-1]

    shapes: list[object] = [None, [], (), packed[:3], (*packed, 0), list(packed),
                            (hashlib.sha256(b"another text").digest(), *packed[1:])]
    shapes += [(digest, bad, components, connectors) for bad in odd[str]]
    wired = next(c for c in components if c[0] == "Zz_wired")
    name, ports, parts = wired
    shapes += [component(bad) for bad in variants(wired)]
    shapes += [component((name, bad, parts)) for bad in ((0,), ("p", 0), ["p"], (ports[0],) * 2)]
    for part in parts:
        shapes += [component((name, ports, (bad, *parts[1:]))) for bad in variants(part)]
    wire = next(c for c in connectors if c[0] == "c")
    shapes += [connector(bad) for bad in variants(wire)]
    shapes += [connector((*wire[:2], (0,), *wire[3:])), connector((*wire[:4], "LEFTWARD"))]
    return shapes


def test_a_hostile_foreign_or_truncated_architecture_entry_is_a_miss(
    tmp_path: Path, monkeypatch
) -> None:
    """Each is parsed again, and prints what a run without the store prints."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    check = _tree(base, 15)[0]
    _write(base / "app.arch", (base / "app.arch").read_text() + _WIRED)
    cold = _run(check)
    assert cold[0] != 2
    _run(check, directory)
    entry = store.ArchitectureStore(directory, (base / "app.arch").read_text())
    good = entry.path.read_bytes()
    start = len(entry.header) + 32
    foreign = store._ARCH_MAGIC + hashlib.sha256(b"another archlint").digest()
    shapes = _arch_shapes(marshal.loads(good[start:]))
    assert len(shapes) > 40
    variants = [b"", b"\0" * start, foreign + good[len(foreign) :]]
    variants += [good[:cut] for cut in range(0, len(good), max(1, len(good) // 20))]
    variants += [entry.header + hashlib.sha256(p).digest() + p for p in map(marshal.dumps, shapes)]
    parsed = _counting_parsers(monkeypatch)
    for data in variants:
        entry.path.write_bytes(data)
        parsed.clear()
        assert _run(check, directory) == cold
        assert len(parsed) == 1
        assert entry.get() is not None  # the miss stored the parse again
    parsed.clear()
    assert _run(check, directory) == cold
    assert parsed == []


def test_a_same_size_edit_that_puts_the_mtime_back_is_seen(tmp_path: Path, monkeypatch) -> None:
    """An edit that keeps a file's size and restores its mtime with `os.utime`
    still moves its ctime, so the file is read, hashed and extracted again;
    an unchanged file is not even read, though another root hold a file of
    its relative path."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    commands = _tree(base, 16)
    target = sorted((base / "one" / "scaffold").iterdir())[-1]
    time.sleep(0.05)  # so that each file's ctime is older than the store's clock
    for argv in commands:
        _assert_as_cold(base, argv, directory, monkeypatch)
    for argv in commands:
        assert _store_reads(base, argv, directory, monkeypatch) == []
    before = target.stat()
    text = target.read_text()
    edited = text.replace("skeleton", "skeletoN", 1)
    assert edited != text and len(edited) == len(text)
    target.write_text(edited)
    os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = target.stat()
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino
    )
    assert _store_reads(base, commands[0], directory, monkeypatch) == [str(target)]
    _write(target, text)
    os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert _assert_as_cold(base, commands[0], directory, monkeypatch) == [f"scaffold/{target.name}"]


def test_a_racy_entry_is_read_and_hashed_again(tmp_path: Path, monkeypatch) -> None:
    """A file changed no earlier than the store's clock, as read before the
    run that stored it, could change again within the same clock tick and
    keep its stat; so its entry is trusted only by its digest, until a run
    whose clock is later than the change records it again."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    check = _tree(base, 17)[0]
    roots, _ = _roots_and_config(base)
    files = [p for root in roots for p in root.rglob("*") if p.is_file()]
    changed = {str(p): max(p.stat().st_mtime_ns, p.stat().st_ctime_ns) for p in files}
    clock = max(changed.values())
    racy = sorted(path for path, at in changed.items() if at >= clock)
    assert racy
    with monkeypatch.context() as patched:
        patched.setattr(store, "_clock", lambda directory: clock)
        _assert_as_cold(base, check, directory, monkeypatch)
        written = _stored(base, directory).path.stat().st_ino
        for _ in range(2):  # still racy at the same clock: re-hashed, not rewritten
            assert sorted(_store_reads(base, check, directory, monkeypatch)) == racy
        assert _stored(base, directory).path.stat().st_ino == written
    time.sleep(0.05)  # so that the real clock is later than every change
    assert sorted(_store_reads(base, check, directory, monkeypatch)) == racy
    assert _store_reads(base, check, directory, monkeypatch) == []


def _assert_fragments_give_the_fingerprint(roots: list[Path], directory: Path) -> None:
    """A scan with the store, cold and warm, has the compact JSON and report
    fingerprint that `jsontext.code_model` gives for a scan without it."""
    arch = ArchitectureModel()
    cold = scan_tree(roots)
    digest = hashlib.sha256(serialize_architecture(arch).encode())
    digest.update(jsontext.code_model(cold, None).encode())
    digest.update(cold.config_fingerprint.encode())
    shutil.rmtree(directory, ignore_errors=True)
    for _ in range(2):
        code = scan_tree(roots, store=directory)
        assert code == cold
        assert code.compact_json == jsontext.code_model(cold, None)
        assert report_fingerprint(arch, code) == digest.hexdigest()


@pytest.mark.parametrize(
    "tree", sorted(p.name for p in (Path(__file__).parent / "data").iterdir() if p.name != "golden")
)
def test_the_fragments_give_the_fingerprint_of_each_data_tree(tmp_path: Path, tree: str) -> None:
    data = Path(__file__).parent / "data" / tree
    _assert_fragments_give_the_fingerprint([data], tmp_path / "store")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), java=st.booleans())
def test_the_fragments_give_the_fingerprint_of_a_scaffold(seed: int, java: bool) -> None:
    """A random model's scaffold, as pragma files or as Java classes."""
    model = random_model(random.Random(seed))
    with tempfile.TemporaryDirectory() as temp:
        root = Path(temp) / "src"
        write_scaffold_tree(model, root, java)
        _assert_fragments_give_the_fingerprint([root], Path(temp) / "store")


def test_two_roots_that_share_a_relative_path_fall_back_to_the_whole_model(
    tmp_path: Path, monkeypatch
) -> None:
    """Their files' instances interleave in the model's order, so the
    fingerprint is hashed from `jsontext.code_model`; with one root it is
    joined from the stored fragments."""
    base, directory = tmp_path / "tree", tmp_path / "store"
    _tree(base, 18)
    roots, config = _roots_and_config(base)
    assert {file[0] for file in _collect_files(roots[:1], config)} & {
        file[0] for file in _collect_files(roots[1:], config)
    }
    whole: list[object] = []
    code_model = jsontext.code_model

    def counted(code, depth):
        whole.append(depth)
        return code_model(code, depth)

    monkeypatch.setattr(jsontext, "code_model", counted)
    for used, expected in ((roots, [None]), (roots[:1], [])):
        for _ in range(2):
            code = scan_tree(used, config, store=directory)
            whole.clear()
            assert code.compact_json == code_model(scan_tree(used, config), None)
            assert whole == expected


# --- the store against random edits --------------------------------------------


def _source(rel: str, n: int) -> str:
    """An annotated component `Q<n>` (n < 10), so that two of them differ in
    text but not in size."""
    if rel.endswith(".java"):
        return f'@Component("Q{n}") class Q{n} {{\n  @Port("p") void p() {{}}\n}}\n'
    return f'//@arch Component("Q{n}") @on type Q{n}\n//@arch Port("p") @on method p\n'


_EDITS = ["touch", "same-size", "rename", "delete", "add", "copy", "swap"]


def _edit(base: Path, roots: list[Path], step: int, edit: str, n: int) -> None:
    """One step of `test_the_store_follows_random_edits_of_two_roots`: edit
    `n` of kind `edit`; any other kind edits nothing."""
    paths = sorted(p for root in roots for p in root.rglob("*") if p.is_file())
    path = paths[n % len(paths)] if paths else None
    if edit == "add" or path is None:
        rel = f"n{step}.java" if n % 3 == 0 else f"sub/n{step}.txt"
        _write(roots[n % 2] / rel, _source(rel, n % 10))
    elif edit == "touch":
        os.utime(path)
    elif edit == "same-size":
        before = path.stat()
        text = path.read_text()
        q = int(re.search(r"Q(\d)", text)[1])
        path.write_text(text.replace(f"Q{q}", f"Q{(q + 1) % 10}"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    elif edit == "rename":
        path.rename(path.with_name(f"r{step}{path.suffix}"))
    elif edit == "delete":
        path.unlink()
    elif edit == "copy":
        root = next(r for r in roots if path.is_relative_to(r))
        other = next(r for r in roots if r != root) / path.relative_to(root)
        other.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(path, other)
    elif edit == "swap":
        swapped = paths[(n // len(paths)) % len(paths)]
        if swapped != path:
            path.rename(base / "swap")
            swapped.rename(path)
            (base / "swap").rename(swapped)


def _two_roots(base: Path) -> list[Path]:
    roots = [base / "one", base / "two"]
    for root in roots:
        for n, rel in enumerate(["a.txt", "b.java", "sub/c.txt"]):
            _write(root / rel, _source(rel, n))
    _write(roots[1] / "d.txt", _source("d.txt", 3))
    return roots


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, 2**16)), max_size=10))
def test_the_store_follows_random_edits_of_two_roots(steps: list[tuple[str, int]]) -> None:
    """Two roots that share relative paths, edited step by step: a file is
    touched, edited to the same size with its mtime put back, renamed,
    deleted, added, copied (with its mtime) to the other root's same path,
    or swapped with another. After each step a scan with the store gives
    the model and compact JSON of a scan without it, and leaves a store
    that holds exactly the claimed files."""
    config = ScanConfig()
    with tempfile.TemporaryDirectory() as temp:
        base = Path(temp)
        roots, directory = _two_roots(base), base / "store"
        for step, (edit, n) in enumerate([("none", 0), *steps]):
            _edit(base, roots, step, edit, n)
            cold = scan_tree(roots, config)
            warm = scan_tree(roots, config, store=directory)
            assert warm == cold, (step, edit)
            assert warm.compact_json == jsontext.code_model(cold, None), (step, edit)
            claimed = {
                (rel, position) for rel, position, path, _ in _collect_files(roots, config)
                if _front_end(config, os.path.splitext(path)[1]) is not None
            }
            stored = store.ResultStore(directory, roots, config.semantic_fingerprint())
            assert set(stored.entries) == claimed, (step, edit)


# Architectures for the sources `_source` writes: Q0 to Q9 each with port p,
# and with fewer or other components, ports and connectors.
_QS = "".join(f"component Q{n} {{ port p; }}\n" for n in range(10))
_ARCHS = [
    _QS,
    _QS + "component Top { part a: Q0; part b: Q1; connector c: a.p -> b.p; }\n",
    "".join(f"component Q{n} {{ port p; port r; }}\n" for n in range(0, 10, 2)),
    _QS.replace("port p", "port p2", 3),
    "// the same model, written otherwise\n" + _QS.replace("; }", ";\n}"),
    _QS + "component Q10 { port p; port p; }\n",  # ill-formed: the checks do not run
]


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from([*_EDITS, "arch", "undo"]), st.integers(0, 2**16)), max_size=10,
))
def test_a_check_with_the_store_follows_edits_of_sources_and_architecture(
    steps: list[tuple[str, int]]
) -> None:
    """The edits of `test_the_store_follows_random_edits_of_two_roots`, and
    an edit of the `.arch` to another architecture or the undo of the last
    one. After each step `check` over both roots (which share relative
    paths) and over the first alone prints with the store what it prints
    without, in text and in JSON, with the exit code of `--fail-on warning`."""
    with tempfile.TemporaryDirectory() as temp:
        base = Path(temp)
        roots, directory = _two_roots(base), base / "store"
        arch = base / "app.arch"
        texts = [_ARCHS[0]]
        for step, (edit, n) in enumerate([("none", 0), *steps]):
            if edit == "arch":
                texts.append(_ARCHS[n % len(_ARCHS)])
            elif edit == "undo" and len(texts) > 1:
                texts.pop()
            _edit(base, roots, step, edit, n)
            _write(arch, texts[-1])
            for sources in (roots, roots[:1]):
                for fmt in ("text", "json"):
                    argv = ["check", "--arch", str(arch), "--format", fmt, "--fail-on", "warning"]
                    argv += [f"--src={root}" for root in sources]
                    assert _run(argv, directory) == _run(argv), (step, edit, fmt)


# --- a hostile store ----------------------------------------------------------


class _Stored(NamedTuple):
    """A store file as a run left it, and the steps of that run, each of
    which asserts what it gives without the store."""

    path: Path
    good: bytes
    steps: tuple[Callable[[], None], ...]


@pytest.fixture(scope="module")
def hostile(tmp_path_factory) -> tuple[_Stored, _Stored]:
    """Two store files of one tree. The first is a scan's over the tree's
    two roots, which share two relative paths, so its entries are keyed by
    both root positions and a `check` over them folds no stored part; its
    steps are a scan and a `check`. The second is a `check`'s over the
    first root alone, so its entries hold each file's check part; its steps
    are a `check` and a scan."""
    base = tmp_path_factory.mktemp("hostile")
    _tree(base, 8)
    roots, config = _roots_and_config(base)
    arch = adl.parse_architecture((base / "app.arch").read_text())
    assert not arch.validation
    directory = base / "store"

    def stored(roots: list[Path], scan_first: bool) -> _Stored:
        code = scan_tree(roots, config)
        report = run_all(arch, code)

        def scan() -> None:
            assert scan_tree(roots, config, store=directory) == code

        def check() -> None:
            assert check_tree(arch, roots, config, store=directory) == report

        steps = (scan, check) if scan_first else (check, scan)
        steps[0]()
        path = store.ResultStore(directory, roots, config.semantic_fingerprint()).path
        return _Stored(path, path.read_bytes(), steps)

    return stored(roots, True), stored(roots[:1], False)


# The module-scoped tree is shared by every example.
_HYPOTHESIS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _scan_with(stored: _Stored, data: bytes) -> None:
    """Each step of the run over the store file holding `data`: as without
    the store, and nothing on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        for step in stored.steps:
            stored.path.write_bytes(data)
            step()
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
    for stored in hostile:
        header = stored.good[: len(store._MAGIC) + 32] if behind_the_header else b""
        _scan_with(stored, header + data)


@_HYPOTHESIS
@given(cut=st.integers(min_value=0))
def test_a_truncated_store_is_a_miss(hostile, cut: int) -> None:
    for stored in hostile:
        _scan_with(stored, stored.good[: cut % len(stored.good)])


# Values of another type, or of the right type with contents of another
# type, for a field of each type.
_ODD = {
    str: (0, None, (), b"x"),
    bytes: ("x", None, ()),
    tuple: ([], "x", ("x", 0), ((1, "2"),), None),
    dict: ([], {"k": 0}, {0: "v"}, None),
    int: ("1", 1.5, True, None),
}


def _variants(record: tuple, named: tuple[int, ...]):
    """`record` with a field replaced by a value of another type or, for a
    field at `named`, by an unknown name; with a field taken away or added;
    or as a list."""
    for i, field in enumerate(record):
        for value in _ODD[type(field)] + (("Nothing",) if i in named else ()):
            yield (*record[:i], value, *record[i + 1 :])
        yield record[:i]
    yield (*record, 0)
    yield list(record)


def _wrong_shapes(entries: dict) -> list[object]:
    """Payloads of the wrong shape: not a dict of entries, or one entry
    whose whole (its JSON fragments, digest, stat and check part among its
    fields), whose first instance or first finding, or, where entries hold
    check parts, whose check part (not `marshal` bytes of a part, or a part
    whose first finding, first finding about an element or covered keys are
    of another shape) has a field replaced by a value of another type or by
    an unknown name, a field taken away or added, or a list in place of a
    tuple."""
    shapes: list[object] = [[], (), None, 0, "", list(entries.items()), {"x": ((), ())}]

    def changed(key, at: int, value: object) -> dict:
        entry = entries[key]
        return {**entries, key: (*entry[:at], value, *entry[at + 1 :])}

    for side, named in ((0, (0, 3)), (1, (0,))):  # kind and target; check id
        key, entry = next((k, v) for k, v in entries.items() if v[side])
        records = entry[side]
        shapes += [changed(key, side, (bad, *records[1:])) for bad in _variants(records[0], named)]
        shapes += [{**entries, key: bad} for bad in _variants(entry, ())]
    parts = {key: marshal.loads(entry[7]) for key, entry in entries.items() if entry[7]}
    if not parts:
        return shapes
    for width, named in ((4, (0,)), (6, (0, 4))):  # check id; check id and element kind
        key, (covered, findings) = next(
            (k, v) for k, v in parts.items() if v[1] and len(v[1][0]) == width
        )
        # (Without its last two fields, a finding about an element is a
        # finding of the right shape about none.)
        variants = [bad for bad in _variants(findings[0], named) if bad != findings[0][:4]]
        shapes += [
            changed(key, 7, marshal.dumps((covered, (bad, *findings[1:])))) for bad in variants
        ]
    key, ((kinds, owners, names), findings) = next((k, v) for k, v in parts.items() if v[0][0])
    for bad in (
        (kinds[:-1], owners, names), (kinds, owners, names, names), (kinds, (0, *owners[1:]), names),
        (kinds, owners, (None, *names[1:])), (("Nothing", *kinds[1:]), owners, names), kinds,
    ):
        shapes.append(changed(key, 7, marshal.dumps((bad, findings))))
    shapes += [changed(key, 7, bad) for bad in (b"x", marshal.dumps(("x",)), marshal.dumps(()))]
    return shapes


def test_a_payload_of_the_wrong_shape_is_a_miss(hostile) -> None:
    for stored in hostile:
        entries = marshal.loads(stored.good[len(store._MAGIC) + 64 :])
        shapes = _wrong_shapes(entries)
        assert len(shapes) > 100
        for shape in shapes:
            _scan_with(stored, _with_payload(stored.good, marshal.dumps(shape)))


def test_a_check_part_stored_for_another_architecture_is_recomputed(hostile) -> None:
    """Each file's part emptied, under another architecture's digest: a
    `check` that trusted them would report no finding."""
    good = hostile[1].good
    entries = marshal.loads(good[len(store._MAGIC) + 64 :])
    assert all(entry[6] for entry in entries.values())
    empty = store._pack_part(FilePart([], frozenset()))
    other = hashlib.sha256(b"another architecture").digest()
    forged = {key: (*entry[:6], other, empty) for key, entry in entries.items()}
    _scan_with(hostile[1], _with_payload(good, marshal.dumps(forged)))


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


_ALL_HIT = """
import contextlib, io, sys
from pathlib import Path
from archlint import adl, cli, java, jsontext, pragma, store
sources = [Path(p).resolve() for p in sys.argv[1].split(",")]
argv = sys.argv[2:]
counts = {"parsers": 0, "instances": 0, "sources": 0, "built": 0}
parser, instance, open_ = adl._Parser.__init__, jsontext.instance, io.open

def counted_parser(self, text):
    counts["parsers"] += 1
    parser(self, text)

def counted_instance(inst, depth):
    counts["instances"] += 1
    return instance(inst, depth)

def counted_open(file, *args, **kwargs):
    if isinstance(file, (str, Path)) and any(Path(file).resolve().is_relative_to(s) for s in sources):
        counts["sources"] += 1
    return open_(file, *args, **kwargs)

def built(module, name):
    function = getattr(module, name)

    def counted(*args):
        result = function(*args)
        counts["built"] += len(result[0])
        return result

    setattr(module, name, counted)

adl._Parser.__init__, jsontext.instance, io.open = counted_parser, counted_instance, counted_open
for module, name in ((store, "_unpack"), (java, "extract_attributes"), (pragma, "extract_pragmas")):
    built(module, name)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv, store=".archlint_cache")
print(code, counts["parsers"], counts["instances"], counts["sources"], counts["built"])
"""


def _probe(tmp_path: Path, sources: list[str], argv: list[str]) -> tuple[int, ...]:
    """(exit code, ADL parsers built, instance JSON records written, source
    files opened, annotation instances built) of `argv` run in a process on
    the store in `tmp_path`."""
    probe = subprocess.run(
        [sys.executable, "-c", _ALL_HIT, ",".join(sources), *argv],
        capture_output=True, text=True, env=ENV, cwd=tmp_path,
    )
    assert probe.returncode == 0, probe.stderr
    return tuple(map(int, probe.stdout.split()))


@pytest.mark.parametrize("tree", ["car", "car_pragma", "car,car_paired"])
def test_an_all_hit_check_parses_renders_and_opens_nothing_it_stored(
    tmp_path: Path, tree: str
) -> None:
    """After one run, a `check` builds no ADL parser and opens no source
    file, not even of two roots that share every relative path; with one
    root, it writes no instance JSON for the fingerprint and builds no
    annotation instance either, while two such roots fall back to the whole
    model. After an edit of the `.arch`, the first `check` builds every
    instance again, and the next none. `smells` and `lookup` build every
    instance. (The sources are the checkout's, changed long before the
    store's clock.)"""
    data = Path(__file__).parent / "data"
    arch = tmp_path / "car.arch"
    shutil.copyfile(data / "car" / "car.arch", arch)
    sources = [str(data / name / "src") for name in tree.split(",")]
    common = ["--arch", str(arch), *(f"--src={src}" for src in sources)]
    argv = ["check", *common, "--format", "json"]
    total = len(scan_tree(sources).instances)
    assert total > 0
    first = _process(argv, tmp_path)
    assert first == _run(argv)
    code, parsers, instances, opened, built = _probe(tmp_path, sources, argv)
    assert (code, parsers, opened) == (first[0], 0, 0)
    assert (instances == 0) == (built == 0) == (len(sources) == 1)
    assert built in (0, total)
    _write(arch, arch.read_text() + "\ncomponent Zz_edit {\n    port p;\n}\n")
    edited = _run(argv)[0]
    for parsed, rebuilt in ((1, total), (0, built)):
        code, parsers, _, _, built_now = _probe(tmp_path, sources, argv)
        assert (code, parsers, built_now) == (edited, parsed, rebuilt)
    for other in (["smells", *common], ["lookup", *common, "Car"]):
        assert _probe(tmp_path, sources, other)[4] == total, other
