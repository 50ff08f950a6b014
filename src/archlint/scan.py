"""Source-tree scanning: front-end dispatch, exclusion, deterministic merge.

A file is claimed by the Java front-end (`archlint.java`) or the pragma
front-end (`archlint.pragma`), and each is imported only when a file it
claims must be extracted: a scan whose files all hit the result store
loads neither.

The scan result is a pure function of (relative paths, root order, file
bytes, config): files are processed independently and merged by a stable
sort on relative path, so traversal order never changes the output. The
per-file result store (`archlint.store`) relies on exactly this: a file's
result depends on nothing but its relative path, its text and the config,
so a stored result stands in for extracting it again.

This module also owns the configuration file: `load_config_file` reads it,
and `ScanConfig` and `SmellConfig` check and hold its settings.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path
from stat import S_ISREG
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping
import errno
import fnmatch
import hashlib
import os

from . import jsontext
from .annotations import PRAGMA_LEADERS, AnnotationInstance, CodeModel, validate_targets
from .errors import ConfigError
from .findings import SMELL_IDS, Finding, SourceLocation, finding

if TYPE_CHECKING:
    from .conformance import ConformanceReport
    from .model import ArchitectureModel
    from .store import Result, ResultStore

_CONFIG_KEYS = frozenset(
    {
        "sigil",
        "attribute_extensions",
        "pragma_extensions",
        "exclude",
        "scatter_threshold",
        "smells",
    }
)


def load_config_file(path: Path) -> dict[str, str]:
    """key = value lines; `#` comments; unknown keys are errors."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        out[key] = value.strip()
    return out


def _split_list(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


class ScanConfig(namedtuple("ScanConfig", "sigil attribute_extensions pragma_extensions exclude")):
    """Which files each front-end reads.

    attribute_extensions claims files for the Java-style front-end;
    pragma_extensions claims the rest ("*" means every other file).
    Extensions are kept lowercased, with a leading dot, as `_front_end`
    compares them with a file's lowercased suffix.
    """

    __slots__ = ()

    def __new__(
        cls, sigil: str = "@arch", attribute_extensions: Iterable[str] = (".java",),
        pragma_extensions: Iterable[str] = ("*",), exclude: Iterable[str] = (),
    ) -> ScanConfig:
        extensions = [
            tuple(e if e == "*" or e.startswith(".") else f".{e}" for e in map(str.lower, exts))
            for exts in (attribute_extensions, pragma_extensions)
        ]
        if not sigil or any(ch.isspace() for ch in sigil):
            raise ConfigError(f"invalid sigil {sigil!r}")
        if sigil[0] in PRAGMA_LEADERS:
            raise ConfigError(
                f"invalid sigil {sigil!r}: pragma lines strip a leading {sigil[0]!r}"
            )
        return super().__new__(cls, sigil, *extensions, exclude)

    # `_replace` builds through `_make`: through the constructor, checked too.
    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> ScanConfig:
        return cls(**{
            key: mapping[key] if key == "sigil" else _split_list(mapping[key])
            for key in cls._fields
            if key in mapping
        })

    def semantic_fingerprint(self) -> str:
        """Hash of everything that can change scan output."""
        payload = "\x1f".join((self.sigil, *(",".join(items) for items in self[1:])))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SmellConfig(namedtuple("SmellConfig", "scatter_threshold enabled")):
    """Which smell detectors run, and the scattered-component threshold."""

    __slots__ = ()

    def __new__(
        cls, scatter_threshold: int = 2, enabled: frozenset[str] = frozenset(SMELL_IDS)
    ) -> SmellConfig:
        if scatter_threshold < 2:
            raise ConfigError("scatter_threshold must be >= 2")
        unknown = set(enabled) - set(SMELL_IDS)
        if unknown:
            raise ConfigError(f"unknown smell ids: {', '.join(sorted(unknown))}")
        return super().__new__(cls, scatter_threshold, enabled)

    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> SmellConfig:
        threshold = 2
        enabled = frozenset(SMELL_IDS)
        if "scatter_threshold" in mapping:
            try:
                threshold = int(mapping["scatter_threshold"])
            except ValueError as err:
                raise ConfigError(
                    f"scatter_threshold must be an integer: {mapping['scatter_threshold']!r}"
                ) from err
        if "smells" in mapping:
            names = [n.strip().upper() for n in mapping["smells"].split(",") if n.strip()]
            enabled = frozenset(names)
        return cls(threshold, enabled)


def _front_end(config: ScanConfig, suffix: str) -> str | None:
    suffix = suffix.lower()
    if suffix in config.attribute_extensions or "*" in config.attribute_extensions:
        return "attribute"
    if suffix in config.pragma_extensions or "*" in config.pragma_extensions:
        return "pragma"
    return None


# The errors after which `Path.is_file` says False: the file is gone.
_GONE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _excluded(relpath: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(relpath, pat) for pat in patterns)


def _walk_root(
    root: Path, position: int, exclude: tuple[str, ...], skip: str = ""
) -> Iterator[tuple[str, int, str, os.stat_result]]:
    """(relative posix path, `position`, path as a string, stat) of every
    file under root that no exclude pattern matches.

    Symlinked files are kept, symlinked directories are not entered, and
    unreadable directories are skipped. A directory is not entered when a
    pattern ending in `*`, with that `*` removed, matches `dir/`: every path
    under it then matches the whole pattern. Nor is the directory whose
    relative path is `skip`.
    """
    prune = tuple(pat[:-1] for pat in exclude if pat.endswith("*"))
    top = os.path.join(root, "")
    for dirpath, dirnames, filenames in os.walk(top, followlinks=False):
        rel_dir = dirpath[len(top) :].replace(os.sep, "/")
        prefix = f"{rel_dir}/" if rel_dir else ""
        if prune or skip:
            dirnames[:] = [
                d for d in dirnames
                if f"{prefix}{d}" != skip and not _excluded(f"{prefix}{d}/", prune)
            ]
        for name in filenames:
            rel = prefix + name
            if _excluded(rel, exclude):
                continue
            path = os.path.join(dirpath, name)
            try:
                stat = os.stat(path)
            except OSError as err:
                if err.errno in _GONE:
                    continue
                raise
            if S_ISREG(stat.st_mode):
                yield rel, position, path, stat


def _collect_files(
    roots: Iterable[Path], config: ScanConfig, store: Path | None = None
) -> list[tuple[str, int, str, os.stat_result]]:
    """(relative posix path, root position, path as a string, stat) of every
    file of every root, sorted by relative path and then root order; a directory given
    twice is walked once, and the resolved `store` directory not at all."""
    out: list[tuple[str, int, str, os.stat_result]] = []
    seen: set[Path] = set()
    for position, root in enumerate(roots):
        root = Path(root)
        if not root.is_dir():
            raise FileNotFoundError(f"source root is not a directory: {root}")
        resolved = root.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        skip = ""
        if store is not None and store != resolved and store.is_relative_to(resolved):
            skip = store.relative_to(resolved).as_posix()
        out.extend(_walk_root(root, position, config.exclude, skip))
    out.sort(key=lambda file: file[0])
    return out


def _scan_file(
    rel: str, position: int, path: str, st: os.stat_result, front_end: str, config: ScanConfig,
    results: ResultStore | None, digest: bytes | None = None,
) -> Result:
    """A file's instances and findings, with `results` their JSON fragments
    (`store.fragments`; empty without `results`), and the check part the
    store holds for it under `digest`, the sha256 of an architecture's
    canonical text, else None; such a part stands in for the instances and
    findings, which are then None."""
    key = (rel, position)
    stored = None if results is None else results.get(key, st, digest=digest)
    if stored is None:
        try:
            # As a Path, which an IO_ERROR message quotes as it prints.
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            message = f"cannot read file: {err}"
            findings = [finding("IO_ERROR", message, locations=[SourceLocation(rel, 0, 0)])]
            json = ("", "")
            if results is not None:
                from .store import fragments

                json = fragments([], findings)
            stored = ([], findings, *json, None)
        else:
            if results is not None:
                stored = results.get(key, st, text, digest)
            if stored is None:
                stored = _extract(rel, text, front_end, config)
                if results is not None:
                    stored = results.put(key, st, text, *stored[:2])
    return stored


def _extract(rel: str, text: str, front_end: str, config: ScanConfig) -> Result:
    # A front-end's function is looked up on its module at each call, so
    # that a function rebound there after the import is the one called.
    if front_end == "attribute":
        from . import java

        instances, findings = java.extract_attributes(text, rel)
    else:
        from . import pragma

        instances, findings = pragma.extract_pragmas(text, rel, config.sigil)
    for inst in instances:
        findings.extend(validate_targets(inst))
    return (instances, findings, "", "", None)


def _open(
    roots: Iterable[Path | str], config: ScanConfig, store: Path | str | None
) -> tuple[list[tuple], ResultStore | None, bool]:
    """Each file a front-end claims, as (relative path, root position, path,
    stat, front-end), the result store, and whether two roots share a
    relative path."""
    root_paths = [Path(r) for r in roots]
    skipped = None if store is None else Path(store).resolve()
    files = [
        (*file, front_end)
        for file in _collect_files(root_paths, config, skipped)
        if (front_end := _front_end(config, os.path.splitext(file[2])[1])) is not None
    ]
    results = None
    if store is not None:
        from .store import ResultStore

        results = ResultStore(store, root_paths, config.semantic_fingerprint())
    return files, results, any(a[0] == b[0] for a, b in zip(files, files[1:]))


def _model(scanned: list[Result], config: ScanConfig, compact: bool) -> CodeModel:
    """The code model of each file's result; with `compact`, its compact
    JSON is joined from their fragments."""
    instances: list[AnnotationInstance] = []
    findings: list[Finding] = []
    for file_instances, file_findings, *_ in scanned:
        instances.extend(file_instances)
        findings.extend(file_findings)
    return CodeModel.build(
        instances, findings, config.semantic_fingerprint(), _compact(scanned) if compact else None
    )


def _compact(scanned: list[Result]) -> str:
    findings, instances = [s[3] for s in scanned if s[3]], [s[2] for s in scanned if s[2]]
    return jsontext.compact_code_model(findings, instances)


def scan_tree(
    roots: Iterable[Path | str], config: ScanConfig | None = None, store: Path | str | None = None
) -> CodeModel:
    """Scan source roots into a CodeModel; unreadable files become IO_ERROR findings.

    With `store`, a directory, each file's result is kept there, under the
    file's relative path and the position of its root, and an unchanged
    file is not extracted again (`archlint.store`), nor read when its stat
    shows it unchanged. The model is the one a scan without it gives,
    except that the store directory is never scanned, even when it lies
    under a root. Its `compact_json` is then joined from each file's
    fragments, unless two roots share a scanned file's relative path: their
    files' instances interleave in the model's order.
    """
    config = config or ScanConfig()
    files, results, shared = _open(roots, config, store)
    scanned = [_scan_file(*file, config, results) for file in files]
    if results is not None:
        results.save()
    return _model(scanned, config, results is not None and not shared)


def check_tree(
    arch: ArchitectureModel, roots: Iterable[Path | str], config: ScanConfig | None = None,
    store: Path | str | None = None,
) -> ConformanceReport:
    """`run_all(arch, scan_tree(roots, config, store))`.

    With `store`, each file's `FilePart` under a well-formed `arch` is kept
    with its result, and the report is their `fold`: a file whose part is
    stored for `arch`'s canonical text is not read, nor are its instances
    built. Two roots that share a relative path fall back to `run_all` on
    the whole model, as `scan_tree` does for its compact JSON.
    """
    from .conformance import check_file, fold, run_all

    config = config or ScanConfig()
    if store is None or arch.validation:
        return run_all(arch, scan_tree(roots, config, store))
    files, results, shared = _open(roots, config, store)
    digest = None if shared else hashlib.sha256(arch.canonical_text.encode()).digest()
    scanned = [_scan_file(*file, config, results, digest) for file in files]
    if shared:
        results.save()
        return run_all(arch, _model(scanned, config, False))
    parts = []
    for (rel, position, *_), (instances, findings, _, _, part) in zip(files, scanned):
        if part is None:
            part = check_file(arch, instances, findings)
            results.put_part((rel, position), digest, part)
        parts.append(part)
    results.save()
    return fold(arch, parts, _compact(scanned), config.semantic_fingerprint())
