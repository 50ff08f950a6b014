"""Source-tree scanning: front-end dispatch, exclusion, deterministic merge.

The scan result is a pure function of (relative paths, root order, file
bytes, config): files are processed independently and merged by a stable
sort on relative path, so traversal order never changes the output.

This module also owns the configuration file: `load_config_file` reads it,
and `ScanConfig` and `SmellConfig` check and hold its settings.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path
from typing import Iterable, Iterator, Mapping
import fnmatch
import hashlib
import os

from .annotations import (
    PRAGMA_LEADERS,
    AnnotationInstance,
    CodeModel,
    extract_attributes,
    extract_pragmas,
    validate_targets,
)
from .errors import ConfigError
from .findings import SMELL_IDS, Finding, SourceLocation, finding

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


def _excluded(relpath: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(relpath, pat) for pat in patterns)


def _walk_root(root: Path, exclude: tuple[str, ...]) -> Iterator[tuple[str, Path]]:
    """(relative posix path, path) of every file under root that no exclude
    pattern matches.

    Symlinked files are kept, symlinked directories are not entered, and
    unreadable directories are skipped. A directory is not entered when a
    pattern ending in `*`, with that `*` removed, matches `dir/`: every path
    under it then matches the whole pattern.
    """
    prune = tuple(pat[:-1] for pat in exclude if pat.endswith("*"))
    top = os.path.join(root, "")
    for dirpath, dirnames, filenames in os.walk(top, followlinks=False):
        rel_dir = dirpath[len(top) :].replace(os.sep, "/")
        prefix = f"{rel_dir}/" if rel_dir else ""
        if prune:
            dirnames[:] = [d for d in dirnames if not _excluded(f"{prefix}{d}/", prune)]
        for name in filenames:
            rel = prefix + name
            path = Path(dirpath, name)
            if path.is_file() and not _excluded(rel, exclude):
                yield rel, path


def _collect_files(roots: Iterable[Path], config: ScanConfig) -> list[tuple[str, Path]]:
    """(relative posix path, path) pairs of every root, sorted by relative
    path and then root order; a directory given twice is walked once."""
    out: list[tuple[str, Path]] = []
    seen: set[Path] = set()
    for root in roots:
        root = Path(root)
        if not root.is_dir():
            raise FileNotFoundError(f"source root is not a directory: {root}")
        resolved = root.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        out.extend(_walk_root(root, config.exclude))
    out.sort(key=lambda pair: pair[0])
    return out


def _scan_file(
    rel: str, path: Path, config: ScanConfig
) -> tuple[list[AnnotationInstance], list[Finding]]:
    front_end = _front_end(config, path.suffix)
    if front_end is None:
        return ([], [])
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return (
            [],
            [finding("IO_ERROR", f"cannot read file: {err}", locations=[SourceLocation(rel, 0, 0)])],
        )
    if front_end == "attribute":
        instances, findings = extract_attributes(text, rel)
    else:
        instances, findings = extract_pragmas(text, rel, config.sigil)
    for inst in instances:
        findings.extend(validate_targets(inst))
    return (instances, findings)


def scan_tree(roots: Iterable[Path | str], config: ScanConfig | None = None) -> CodeModel:
    """Scan source roots into a CodeModel; unreadable files become IO_ERROR findings."""
    config = config or ScanConfig()
    files = _collect_files([Path(r) for r in roots], config)
    instances: list[AnnotationInstance] = []
    findings: list[Finding] = []
    for rel, path in files:
        file_instances, file_findings = _scan_file(rel, path, config)
        instances.extend(file_instances)
        findings.extend(file_findings)
    return CodeModel.build(instances, findings, config.semantic_fingerprint())
