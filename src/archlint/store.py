"""The result store of the `archlint` process: per-file scan results and the
parsed `.arch`.

A scan is a pure function of paths, root order, file bytes and config (see
`archlint.scan`), and each file's part of it, its instances and extraction
findings, depends only on its root-relative path, its front-end, its
decoded text and the config. So a file whose text is unchanged since the
last run need not be extracted again: `scan_tree(..., store=directory)`
keeps each file's result in one file of `directory` per (resolved roots,
`ScanConfig.semantic_fingerprint()`), keyed by (root-relative path,
front-end, sha256 of the decoded text). An entry also keeps the file's
compact instance and finding JSON, which the report fingerprint hashes
(`CodeModel.compact_json`), and the file's stat.

A file is not read at all when its stat (size, mtime, ctime, inode and
device) equals the stat its entry recorded, and the recorded mtime and
ctime are older than the file system's clock as read before the recording
run read any file: any later change, even one that puts the mtime back with
`os.utime`, then gives the file a newer ctime. This is git's rule for a
racily clean index. A file whose stat differs, or that was changed as late
as that clock, is read and hashed as before. (So is a file whose stat does
not change when it turns unreadable, on a failing disk say: its stored
result stands.)

Likewise `ArchitectureStore` keeps the parsed model of one well-formed
`.arch` text in a store file named by the text's sha256, so that an
unchanged `.arch` is not parsed again.

A store file is a header, the sha256 of the payload, and the payload,
written by `marshal`. The header holds a digest of archlint's own source
and of `sys.version`, so another archlint or another interpreter finds
every file a miss. A file that cannot be read, does not carry this header,
fails its sha256 or holds entries of another shape is a miss, never an
error. The payload reaches `marshal.loads` only when its sha256 matches,
because `marshal.loads` of arbitrary bytes can ask for gigabytes; past that
check the store is trusted like the working directory it lives in. A
result file is rewritten, through a temporary file and `os.replace`, only
when an entry was added or dropped or a file's stat changed, or when a file
read again only because it changed as late as the clock can now be
trusted by its stat; it keeps only the files of the run that wrote it, and
a run that rewrites nothing touches it. A directory keeps at most
`_KEPT_FILES` store files of either kind: each write deletes the least
recently used beyond that, never its own.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from . import jsontext
from .annotations import ANNOTATION_NAMES, AnnotationInstance, TargetKind
from .findings import Finding, SourceLocation, finding, sort_findings
from .model import (
    ArchitectureModel,
    Component,
    Connector,
    Direction,
    EndpointPath,
    Multiplicity,
    Part,
    Port,
)

_MAGIC = b"archlint per-file results 1\n"
_ARCH_MAGIC = b"archlint architecture 1\n"
_KEPT_FILES = 8
_TARGETS = {t.value: t for t in TargetKind}
# The type of each field of an instance as `_pack` packs it.
_INSTANCE_TYPES = (str, tuple, dict, str, str, tuple, int, int, str)
# An entry: instances, findings, their JSON fragments, and the file's stat.
_ENTRY_TYPES = (tuple, tuple, str, str, tuple)
# (size, mtime_ns, ctime_ns, inode, device) of a file, and the file
# system's clock as read before the run that recorded it read any file.
_STAT_TYPES = (int,) * 6
_NO_STAT = (0,) * 6  # never trusted: its mtime is not older than its clock
_PART_TYPES = ((str, str, int, int), (str, str, int, type(None)))

Stat = tuple[int, int, int, int, int]
# A file's instances and findings, and their JSON fragments.
Result = tuple[list[AnnotationInstance], list[Finding], str, str]


@lru_cache(maxsize=1)
def _source_digest() -> bytes:
    """sha256 of the interpreter's version and of archlint's source files."""
    digest = hashlib.sha256(sys.version.encode())
    package = Path(__file__).parent
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(f"\0{name}\0".encode())
            digest.update((package / name).read_bytes())
    return digest.digest()


def _read(path: Path, header: bytes) -> object:
    """What the store file `path` holds under `header`, or None."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    start = len(header) + 32
    payload = data[start:]
    if data[:start] != header + hashlib.sha256(payload).digest():
        return None
    try:
        return marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None


def _touch(path: Path) -> None:
    """Mark a store file used, so that the cap orders store files by use."""
    try:
        os.utime(path)
    except OSError:
        pass


def _write(path: Path, header: bytes, value: object) -> None:
    """Write `value` to the store file `path` and drop the least recently used
    store files beyond `_KEPT_FILES`; a store that cannot be written is left
    as it is."""
    payload = marshal.dumps(value)
    directory = path.parent
    temp = path.with_name(f"{path.name}.{os.getpid()}")
    try:
        directory.mkdir(exist_ok=True)
        ignore = directory / ".gitignore"
        if not ignore.exists():
            ignore.write_text("*\n", encoding="utf-8")
        temp.write_bytes(header + hashlib.sha256(payload).digest() + payload)
        os.replace(temp, path)
        others = sorted(
            ((other.stat().st_mtime_ns, other) for other in directory.iterdir()
             if len(other.name) == 64 and other != path),
            reverse=True,
        )
        for _, other in others[_KEPT_FILES - 1:]:
            other.unlink(missing_ok=True)
    except OSError:
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass


def _clock(directory: Path) -> int:
    """The file system's clock at `directory`, in nanoseconds, as the mtime a
    write there gets now; 0, which trusts no stat, when it cannot be set."""
    try:
        directory.mkdir(exist_ok=True)
        os.utime(directory)
        return os.stat(directory).st_mtime_ns
    except OSError:
        return 0


def _trusted(record: tuple) -> bool:
    """Whether a recorded stat shows the file as it was read: its mtime and
    ctime are older than the clock recorded with it."""
    return max(record[1], record[2]) < record[5]


def fragments(
    instances: Iterable[AnnotationInstance], findings: Iterable[Finding]
) -> tuple[str, str]:
    """A file's compact instance and finding JSON in code-model order, each
    record joined to the next by a comma, as `jsontext.code_model` writes
    them at depth None."""
    ordered = sorted(instances, key=AnnotationInstance.sort_key)
    return (
        ",".join(jsontext.instance(i, None) for i in ordered),
        ",".join(jsontext.finding(f, None) for f in sort_findings(findings)),
    )


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
    """The result `_pack` and `fragments` packed for the file `rel`; raises
    TypeError, ValueError or KeyError when `packed` has another shape."""
    if type(packed) is not tuple or tuple(map(type, packed)) != _ENTRY_TYPES:
        raise TypeError("not an entry")
    packed_instances, packed_findings, instances_json, findings_json, stat = packed
    if tuple(map(type, stat)) != _STAT_TYPES:
        raise TypeError("not a stat")
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
    return instances, findings, instances_json, findings_json


class ResultStore:
    """The stored results of one set of roots under one config, read when
    made; `save` writes what `unchanged`, `get` and `put` kept.

    A `stat` argument is a file's (size, mtime_ns, ctime_ns, inode, device),
    or None for a file whose entry records no stat: one of several files
    that share a relative path, and so an entry.
    """

    def __init__(self, directory: Path | str, roots: Sequence[Path], config_fingerprint: str):
        self.directory = Path(directory)
        name = "\0".join([*(str(root.resolve()) for root in roots), config_fingerprint])
        self.path = self.directory / hashlib.sha256(name.encode(errors="surrogatepass")).hexdigest()
        self.header = _MAGIC + _source_digest()
        entries = _read(self.path, self.header)
        self.entries: dict = entries if type(entries) is dict else {}
        self.by_path = {
            key[:2]: key for key in self.entries if type(key) is tuple and len(key) == 3
        }
        self.clock = _clock(self.directory)
        self.kept: dict[tuple[str, str, bytes], tuple] = {}
        self.changed = False

    def get(self, key: tuple[str, str, bytes], stat: Stat | None) -> Result | None:
        """The stored result of the file `key` names, or None; keeps it, with
        `stat` as the file's stat when given."""
        packed = self.entries.get(key)
        if packed is None:
            return None
        try:
            result = _unpack(key[0], packed)
        except (TypeError, ValueError, KeyError):
            return None
        if stat is not None:
            record = (*stat, self.clock)
            # A changed stat is kept, and so is a racy entry that the new
            # clock lets the next run trust.
            if stat != packed[4][:5] or (_trusted(record) and not _trusted(packed[4])):
                self.changed = True
            packed = (*packed[:4], record)
        self.kept[key] = packed
        return result

    def unchanged(self, rel: str, front_end: str, stat: Stat) -> Result | None:
        """The stored result of the file `rel` if its stat says that it has not
        changed since that result was stored, or None."""
        key = self.by_path.get((rel, front_end))
        if key is None:
            return None
        try:
            recorded = self.entries[key][4]
            if recorded[:5] != stat or not _trusted(recorded):
                return None
        except (TypeError, IndexError, KeyError):
            return None
        return self.get(key, None)

    def put(
        self, key: tuple[str, str, bytes], stat: Stat | None,
        instances: list[AnnotationInstance], findings: list[Finding],
    ) -> Result:
        json = fragments(instances, findings)
        record = _NO_STAT if stat is None else (*stat, self.clock)
        self.kept[key] = (*_pack(instances, findings), *json, record)
        self.changed = True
        return (instances, findings, *json)

    def save(self) -> None:
        """Write the kept entries if they are not the ones read, or else touch
        the file."""
        if not self.changed and len(self.kept) == len(self.entries):
            _touch(self.path)
        else:
            _write(self.path, self.header, self.kept)


# --- the architecture ----------------------------------------------------------


def _pack_architecture(model: ArchitectureModel) -> tuple:
    return (
        tuple(
            (c.name, tuple(p.name for p in c.ports),
             tuple((p.role, p.type_component, *p.multiplicity) for p in c.parts))
            for c in model.components
        ),
        tuple(
            (c.id, c.context, c.left.segments, c.right.segments, c.direction._value_)
            for c in model.connectors
        ),
    )


def _strings(values: tuple) -> tuple[str, ...]:
    if type(values) is not tuple:
        raise TypeError("not a tuple")
    "".join(values)  # each a str, or TypeError
    return values


def _unpack_architecture(packed: tuple) -> ArchitectureModel:
    """The model `_pack_architecture` packed, its records built as their
    own `__new__` would build them from a sorted model; raises TypeError or
    ValueError when `packed` has another shape."""
    components, connectors = packed
    new = tuple.__new__
    built = []
    for name, ports, parts in components:
        if type(name) is not str or any(tuple(map(type, p)) not in _PART_TYPES for p in parts):
            raise TypeError("not a component")
        built.append(new(Component, (
            name,
            tuple([new(Port, (port,)) for port in _strings(ports)]),
            tuple([new(Part, (role, type_component, new(Multiplicity, (lower, upper))))
                   for role, type_component, lower, upper in parts]),
        )))
    wired = []
    for cid, context, left, right, direction in connectors:
        _strings((cid, context, *_strings(left), *_strings(right)))
        wired.append(new(Connector, (
            cid, context, new(EndpointPath, (left,)), new(EndpointPath, (right,)),
            Direction(direction),
        )))
    return new(ArchitectureModel, (tuple(built), tuple(wired)))


class ArchitectureStore:
    """The stored model of one `.arch` text, in a store file of `directory`
    named by the text's sha256. Only a well-formed model is kept, and a
    stored model that is not well-formed is a miss."""

    def __init__(self, directory: Path | str, text: str):
        self.digest = hashlib.sha256(text.encode(errors="surrogatepass")).digest()
        self.path = Path(directory) / hashlib.sha256(_ARCH_MAGIC + self.digest).hexdigest()
        self.header = _ARCH_MAGIC + _source_digest()

    def get(self) -> ArchitectureModel | None:
        packed = _read(self.path, self.header)
        if type(packed) is not tuple or len(packed) != 3 or packed[0] != self.digest:
            return None
        try:
            model = _unpack_architecture(packed[1:])
        except (TypeError, ValueError):
            return None
        if model.validation:
            return None
        _touch(self.path)
        return model

    def put(self, model: ArchitectureModel) -> None:
        _write(self.path, self.header, (self.digest, *_pack_architecture(model)))
