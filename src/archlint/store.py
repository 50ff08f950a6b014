"""The result store of the `archlint` process: per-file scan results and the
parsed `.arch`.

A scan is a pure function of paths, root order, file bytes and config (see
`archlint.scan`), and each file's part of it, its instances and extraction
findings, depends only on its root-relative path, its decoded text and the
config. So `scan_tree(..., store=directory)` keeps each file's result in
one file of `directory` per (resolved roots,
`ScanConfig.semantic_fingerprint()`), keyed by the file: (root-relative
path, position of its root). Next to the result, an entry holds the file's
compact instance and finding JSON, which the report fingerprint hashes
(`CodeModel.compact_json`), and as its checks the sha256 of the file's
decoded text and its stat.

An entry also holds the file's check part (`conformance.FilePart`: its
findings in report order and the keys its covering annotations name) under
one well-formed architecture, tagged with the sha256 of that model's
canonical text. `check_tree` uses a part whose tag is the current model's
and builds no instance of that file; any other file is checked from its
instances and its entry's part is replaced. `scan_tree` reads no part, and
a file extracted again has none until the next `check`. The part is kept
as `marshal` bytes within the entry, decoded only by a `check` that uses
it.

A file is not read at all when its stat (size, mtime, ctime, inode and
device) equals the stat its entry recorded, and the recorded mtime and
ctime are older than the file system's clock as read before the recording
run read any file: any later change, even one that puts the mtime back with
`os.utime`, then gives the file a newer ctime. This is git's rule for a
racily clean index. A file whose stat differs, or that was changed as late
as that clock, is read, and its stored result stands only if the sha256 of
its text is the one recorded. (A file whose stat does not change when it
turns unreadable, on a failing disk say, keeps its stored result.)

Likewise `ArchitectureStore` keeps the parsed model of one well-formed
`.arch` text, and the model's canonical text, which the report
fingerprint hashes, in a store file named by the text's sha256, so that an
unchanged `.arch` is neither parsed nor serialized again.

A store file is a header, the sha256 of the payload, and the payload,
written by `marshal`. The header holds a digest of archlint's own source
and of `sys.version`, so another archlint or another interpreter finds
every file a miss. A file that cannot be read, does not carry this header,
fails its sha256 or holds entries of another shape is a miss, never an
error. The payload reaches `marshal.loads` only when its sha256 matches,
because `marshal.loads` of arbitrary bytes can ask for gigabytes. Past that
check, one rule says what is checked: what costs a small share of the work
an entry saves is, and an entry that fails it is a miss (each field's type
and shape, a kind or check id that exists, a model's well-formedness,
which costs about a fifteenth of a parse); what could be checked only by
redoing that work is trusted as the `put` that wrote it (a model's
canonical text, which only serializing the model checks, and a part and
its tag, which only checking the file does). A result file is rewritten,
through a temporary file and `os.replace`, only when an entry was added
or dropped, a part was kept or a file's stat changed, or when a file read
again only because it changed as late as the clock can now be trusted by
its stat; it keeps only the files of the run that wrote it, and a run that
rewrites nothing touches it.
A directory keeps at most `_KEPT_FILES` store files of either kind: each
write deletes the least recently used beyond that, never its own.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from . import jsontext
from .annotations import ANNOTATION_NAMES, AnnotationInstance, TargetKind
from .conformance import FilePart
from .findings import CATALOG, Finding, SourceLocation, sort_findings
from .model import (
    ArchitectureModel,
    Component,
    Connector,
    Direction,
    ElementRef,
    EndpointPath,
    Multiplicity,
    Part,
    Port,
    RefKind,
)

_MAGIC = b"archlint per-file results 1\n"
_ARCH_MAGIC = b"archlint architecture 1\n"
_KEPT_FILES = 8
_TARGETS = {t.value: t for t in TargetKind}
_REF_KINDS = {k.value: k for k in RefKind}
# The type of each field of an instance, and of a finding, as `_pack` packs it.
_INSTANCE_TYPES = (str, tuple, dict, str, str, tuple, int, int, str)
_FINDING_TYPES = (str, str, int, int)
_ELEMENT_FINDING_TYPES = (*_FINDING_TYPES, str, str)
# An entry: the file's instances and findings (`_pack`), their JSON
# fragments, the sha256 of its decoded text, its stat record, and its check
# part: the sha256 of the canonical text of the architecture it holds under
# and the part as `marshal` bytes (`_pack_part`), decoded only by a `check`
# under that architecture; or two empty bytes.
_ENTRY_TYPES = (tuple, tuple, str, str, bytes, tuple, bytes, bytes)
# A stat record: (size, mtime_ns, ctime_ns, inode, device) of a file, and
# the file system's clock as read before the run that recorded it read any file.
_STAT_TYPES = (int,) * 6
_PART_TYPES = ((str, str, int, int), (str, str, int, type(None)))

# A file's instances and findings, their JSON fragments, and its check part
# when one is asked for, else None. The instances and findings are None when
# a stored part stands in for them.
Result = tuple[list[AnnotationInstance] | None, list[Finding] | None, str, str, FilePart | None]


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


def _record(st: os.stat_result, clock: int) -> tuple:
    return (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev, clock)


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


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
    ordered = sorted(instances, key=attrgetter("location"))
    return (
        ",".join(jsontext.instance(i, None) for i in ordered),
        ",".join(jsontext.finding(f, None) for f in sort_findings(findings)),
    )


def _pack_findings(findings: Iterable[Finding]) -> tuple:
    """Findings of one file, each located once in it: check id, message,
    line and column, and, for a finding about an element, its kind and path."""
    packed = []
    for f in findings:
        ((_, line, column),) = f.locations
        element = () if f.element is None else (f.element.kind._value_, f.element.path)
        packed.append((f.check_id, f.message, line, column, *element))
    return tuple(packed)


def _pack(instances: Iterable[AnnotationInstance], findings: Iterable[Finding]) -> tuple:
    """One file's result as `marshal` writes it; every location is in that
    file. (`_value_`, as `value` is a Python-level property.)"""
    return (
        tuple(
            (i.kind._value_, i.values, i.attrs, i.target._value_, i.target_name,
             i.enclosing_components, i.location.line, i.location.column, i.package)
            for i in instances
        ),
        _pack_findings(findings),
    )


def _pack_part(part: FilePart) -> bytes:
    """A check part: the kinds, owners and names of its covered keys, as
    three tuples of strings, and its findings."""
    kinds, owners, names = zip(*part.covered) if part.covered else ((), (), ())
    covered = (tuple(map(attrgetter("_value_"), kinds)), owners, names)
    return marshal.dumps((covered, _pack_findings(part.findings)))


# As the namedtuples' own `__new__` build them, without those Python frames.
_new = tuple.__new__


def _unpack_findings(rel: str, packed: tuple) -> list[Finding]:
    findings = []
    for fields in packed:
        types = tuple(map(type, fields))
        if types == _FINDING_TYPES:
            check_id, message, line, column = fields
            element = None
        elif types == _ELEMENT_FINDING_TYPES:
            check_id, message, line, column, kind, path = fields
            element = _new(ElementRef, (_REF_KINDS[kind], path))
        else:
            raise TypeError("not a finding")
        location = _new(SourceLocation, (rel, line, column))
        findings.append(_new(Finding, (check_id, CATALOG[check_id], message, element, (location,))))
    return findings


def _unpack(rel: str, packed: tuple) -> tuple[list[AnnotationInstance], list[Finding]]:
    """The instances and findings `_pack` packed for the file `rel`; raises
    TypeError, ValueError or KeyError when they have another shape."""
    instances = []
    for fields in packed[0]:
        if tuple(map(type, fields)) != _INSTANCE_TYPES:
            raise TypeError("not an instance")
        kind, values, attrs, target, name, enclosing, line, column, package = fields
        "".join((*values, *enclosing, *attrs, *attrs.values()))  # each a str, or TypeError
        location = _new(SourceLocation, (rel, line, column))
        instances.append(_new(AnnotationInstance, (
            ANNOTATION_NAMES[kind], values, dict(attrs), _TARGETS[target], name, enclosing,
            location, package,
        )))
    return instances, _unpack_findings(rel, packed[1])


def _unpack_part(rel: str, packed: bytes) -> FilePart:
    """The part `_pack_part` packed for the file `rel`; raises as `_unpack`,
    or EOFError."""
    (kinds, owners, names), findings = marshal.loads(packed)
    if not len(kinds) == len(owners) == len(names):
        raise ValueError("not (kind, owner, name) keys")
    "".join((*owners, *names))  # each a str, or TypeError
    covered = frozenset(zip(map(_REF_KINDS.__getitem__, kinds), owners, names))
    return _new(FilePart, (_unpack_findings(rel, findings), covered))


class ResultStore:
    """The stored results of one set of roots under one config, read when
    made; `save` writes what `get` and `put` kept.

    A key is a file's (root-relative path, position of its root among the
    roots), and an `st` argument its `os.stat_result`.
    """

    def __init__(self, directory: Path | str, roots: Sequence[Path], config_fingerprint: str):
        self.directory = Path(directory)
        name = "\0".join([*(str(root.resolve()) for root in roots), config_fingerprint])
        self.path = self.directory / hashlib.sha256(name.encode(errors="surrogatepass")).hexdigest()
        self.header = _MAGIC + _source_digest()
        entries = _read(self.path, self.header)
        self.entries: dict = entries if type(entries) is dict else {}
        self.clock = _clock(self.directory)
        self.kept: dict[tuple[str, int], tuple] = {}
        self.changed = False

    def get(
        self, key: tuple[str, int], st: os.stat_result, text: str | None = None,
        digest: bytes | None = None,
    ) -> Result | None:
        """The stored result of the file `key` names if `st` shows the file
        unchanged since it was stored, or with `text` if its digest matches;
        else None. Its instances and findings are built only when it holds
        no check part stored under `digest`, the sha256 of an architecture's
        canonical text. A hit is kept, with `st` as the file's stat."""
        packed = self.entries.get(key)
        if packed is None:
            return None
        record = _record(st, self.clock)
        try:
            if type(packed) is not tuple or tuple(map(type, packed)) != _ENTRY_TYPES:
                return None
            recorded = packed[5]
            if tuple(map(type, recorded)) != _STAT_TYPES:
                return None
            if text is None and (record[:5] != recorded[:5] or not _trusted(recorded)):
                return None
            if text is not None and packed[4] != _digest(text):
                return None
            if digest is not None and packed[6] == digest:
                result = (None, None, packed[2], packed[3], _unpack_part(key[0], packed[7]))
            else:
                result = (*_unpack(key[0], packed), packed[2], packed[3], None)
        except (TypeError, ValueError, KeyError, IndexError, EOFError):
            return None
        # A changed stat is kept, and so is a racy entry that the new clock
        # lets the next run trust.
        if record[:5] != recorded[:5] or (_trusted(record) and not _trusted(recorded)):
            self.changed = True
            packed = (*packed[:5], record, *packed[6:])
        self.kept[key] = packed
        return result

    def put(
        self, key: tuple[str, int], st: os.stat_result, text: str,
        instances: list[AnnotationInstance], findings: list[Finding],
    ) -> Result:
        json = fragments(instances, findings)
        self.kept[key] = (
            *_pack(instances, findings), *json, _digest(text), _record(st, self.clock), b"", b"",
        )
        self.changed = True
        return (instances, findings, *json, None)

    def put_part(self, key: tuple[str, int], digest: bytes, part: FilePart) -> None:
        """Keep `part`, the check part under the architecture whose canonical
        text has sha256 `digest`, with the kept entry of the file `key` names."""
        packed = self.kept.get(key)
        if packed is not None:
            self.kept[key] = (*packed[:6], digest, _pack_part(part))
            self.changed = True

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
    """The stored model of one `.arch` text, with its canonical text, in a
    store file of `directory` named by the text's sha256. Only a well-formed
    model is kept, and a stored model that is not well-formed is a miss; the
    canonical text is trusted as the model's (see above)."""

    def __init__(self, directory: Path | str, text: str):
        self.digest = hashlib.sha256(text.encode(errors="surrogatepass")).digest()
        self.path = Path(directory) / hashlib.sha256(_ARCH_MAGIC + self.digest).hexdigest()
        self.header = _ARCH_MAGIC + _source_digest()

    def get(self) -> ArchitectureModel | None:
        packed = _read(self.path, self.header)
        if type(packed) is not tuple or len(packed) != 4 or packed[0] != self.digest:
            return None
        try:
            model = _unpack_architecture(packed[2:])
        except (TypeError, ValueError):
            return None
        if model.validation or type(packed[1]) is not str:
            return None
        model.__dict__["canonical_text"] = packed[1]  # where the cached_property keeps it
        _touch(self.path)
        return model

    def put(self, model: ArchitectureModel) -> None:
        packed = (self.digest, model.canonical_text, *_pack_architecture(model))
        _write(self.path, self.header, packed)
