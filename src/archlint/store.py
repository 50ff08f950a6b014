"""The per-file result store of the `archlint` process.

A scan is a pure function of paths, root order, file bytes and config (see
`archlint.scan`), and each file's part of it, its instances and extraction
findings, depends only on its root-relative path, its front-end, its
decoded text and the config. So a file whose text is unchanged since the
last run need not be extracted again: `scan_tree(..., store=directory)`
keeps each file's result in one file of `directory` per (resolved roots,
`ScanConfig.semantic_fingerprint()`), keyed by (root-relative path,
front-end, sha256 of the decoded text).

A store file is a header, the sha256 of the payload, and the payload, the
entries written by `marshal`. The header holds a digest of archlint's own
source and of `sys.version`, so another archlint or another interpreter
finds every file a miss. A file that cannot be read, does not carry this
header, fails its sha256 or holds entries of another shape is a miss,
never an error. The payload reaches `marshal.loads` only when its sha256
matches, because `marshal.loads` of arbitrary bytes can ask for gigabytes;
past that check the store is trusted like the working directory it lives
in. The file is rewritten, through a temporary file and `os.replace`, only
when an entry was added or dropped, and it keeps only the files of the run
that wrote it; a run that rewrites nothing touches it. A directory keeps at
most `_KEPT_FILES` store files: each write deletes the least recently used
beyond that, never its own.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .annotations import ANNOTATION_NAMES, AnnotationInstance, TargetKind
from .findings import Finding, SourceLocation, finding

_MAGIC = b"archlint per-file results 1\n"
_KEPT_FILES = 8
_TARGETS = {t.value: t for t in TargetKind}
# The type of each field of an instance as `_pack` packs it.
_INSTANCE_TYPES = (str, tuple, dict, str, str, tuple, int, int, str)

Result = tuple[list[AnnotationInstance], list[Finding]]


def _source_digest() -> bytes:
    """sha256 of the interpreter's version and of archlint's source files."""
    digest = hashlib.sha256(sys.version.encode())
    package = Path(__file__).parent
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(f"\0{name}\0".encode())
            digest.update((package / name).read_bytes())
    return digest.digest()


def _pack(instances: Iterable[AnnotationInstance], findings: Iterable[Finding]) -> tuple:
    """One file's result as `marshal` writes it; every location is in that file
    and no extraction finding names an element. (`_value_`, as `value` is a
    Python-level property.)"""
    return (
        tuple(
            (i.kind._value_, i.values, i.attrs, i.target._value_, i.target_name,
             i.enclosing_components, i.location.line, i.location.column, i.package)
            for i in instances
        ),
        tuple(
            (f.check_id, f.message, tuple((loc.line, loc.column) for loc in f.locations))
            for f in findings
        ),
    )


def _location(rel: str, place: tuple[int, int]) -> SourceLocation:
    if type(place) is not tuple or tuple(map(type, place)) != (int, int):
        raise TypeError("not a line and column")
    return tuple.__new__(SourceLocation, (rel, *place))


def _unpack(rel: str, packed: tuple) -> Result:
    """The result `_pack` packed for the file `rel`; raises TypeError,
    ValueError or KeyError when `packed` has another shape."""
    if type(packed) is not tuple or tuple(map(type, packed)) != (tuple, tuple):
        raise TypeError("not an entry")
    packed_instances, packed_findings = packed
    instances = []
    for fields in packed_instances:
        if tuple(map(type, fields)) != _INSTANCE_TYPES:
            raise TypeError("not an instance")
        kind, values, attrs, target, name, enclosing, line, column, package = fields
        "".join((*values, *enclosing, *attrs, *attrs.values()))  # each a str, or TypeError
        # As the namedtuples' own `__new__` build them, without those Python frames.
        location = tuple.__new__(SourceLocation, (rel, line, column))
        instances.append(tuple.__new__(AnnotationInstance, (
            ANNOTATION_NAMES[kind], values, dict(attrs), _TARGETS[target], name, enclosing,
            location, package,
        )))
    findings = []
    for fields in packed_findings:
        if tuple(map(type, fields)) != (str, str, tuple):
            raise TypeError("not a finding")
        check_id, message, places = fields
        findings.append(finding(check_id, message, locations=[_location(rel, p) for p in places]))
    return instances, findings


class ResultStore:
    """The stored results of one set of roots under one config, read when
    made; `save` writes what `get` and `put` kept."""

    def __init__(self, directory: Path | str, roots: Sequence[Path], config_fingerprint: str):
        self.directory = Path(directory)
        name = "\0".join([*(str(root.resolve()) for root in roots), config_fingerprint])
        self.path = self.directory / hashlib.sha256(name.encode(errors="surrogatepass")).hexdigest()
        self.header = _MAGIC + _source_digest()
        self.entries = self._read()
        self.kept: dict[tuple[str, str, bytes], tuple] = {}
        self.added = False

    def _read(self) -> dict:
        try:
            data = self.path.read_bytes()
        except OSError:
            return {}
        start = len(self.header) + 32
        payload = data[start:]
        if data[:start] != self.header + hashlib.sha256(payload).digest():
            return {}
        try:
            entries = marshal.loads(payload)
        except (EOFError, ValueError, TypeError):
            return {}
        return entries if type(entries) is dict else {}

    def get(self, key: tuple[str, str, bytes]) -> Result | None:
        """The stored result of the file `key` names, or None."""
        packed = self.entries.get(key)
        if packed is None:
            return None
        try:
            result = _unpack(key[0], packed)
        except (TypeError, ValueError, KeyError):
            return None
        self.kept[key] = packed
        return result

    def put(self, key: tuple[str, str, bytes], result: Result) -> None:
        self.kept[key] = _pack(*result)
        self.added = True

    def save(self) -> None:
        """Write the kept entries if they are not the ones read, or else touch
        the file, so that the cap orders store files by use; a store that
        cannot be written is left as it is."""
        if not self.added and len(self.kept) == len(self.entries):
            try:
                os.utime(self.path)
            except OSError:
                pass
            return
        payload = marshal.dumps(self.kept)
        temp = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        try:
            self.directory.mkdir(exist_ok=True)
            ignore = self.directory / ".gitignore"
            if not ignore.exists():
                ignore.write_text("*\n", encoding="utf-8")
            temp.write_bytes(self.header + hashlib.sha256(payload).digest() + payload)
            os.replace(temp, self.path)
            others = sorted(
                ((path.stat().st_mtime_ns, path) for path in self.directory.iterdir()
                 if len(path.name) == 64 and path != self.path),
                reverse=True,
            )
            for _, path in others[_KEPT_FILES - 1:]:
                path.unlink(missing_ok=True)
        except OSError:
            try:
                temp.unlink(missing_ok=True)
            except OSError:
                pass
