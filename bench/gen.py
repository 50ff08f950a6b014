"""Seeded generator for the benchmark's three workloads, with known answers.

`build(name, seed, size)` returns a Workload: the source tree, the
architecture, the config, the refactoring plan, the lookup refs, and the
answer every archlint operation on them must give. The answers come from
the generator's own construction (what it planted, and a small model of the
architecture it wrote), never from archlint itself.

Workloads:

* java-scan: `size` large `.java` files (about 40 plain fields and 40 plain
  methods each, with strings, comments and char literals), two annotations
  per file, a chain of root connectors, a few unannotated components.
* pragma-drift: `size` comment-pragma modules in mixed file types spread
  over directories, an excluded vendor subtree, and planted drift
  (missing, unknown, undeclared and malformed annotations, scattered
  components).
* connector-dense: `size` components on a chain of `size - 1` root
  connectors; every connector has one @Connects and one @Disconnects except
  a planted set that misses or duplicates them.

The same (name, seed, size) always yields byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

HEADER = "// architecture description"
ARROWS = {"RIGHT": "->", "LEFT": "<-", "BIDIR": "<->"}
FLIP = {"RIGHT": "LEFT", "LEFT": "RIGHT", "BIDIR": "BIDIR"}
ERROR_IDS = frozenset(
    {"MISSING_ANNOTATION", "UNKNOWN_ELEMENT", "UNDECLARED_CONNECTION", "MALFORMED_PRAGMA"}
)
WORKLOADS = ("java-scan", "pragma-drift", "connector-dense")


# ---------------------------------------------------------------------------
# a small architecture model of the generator's own


@dataclass
class Comp:
    ports: set[str] = field(default_factory=set)
    parts: dict[str, str] = field(default_factory=dict)  # role -> type component


@dataclass
class Conn:
    context: str  # "" for a root connector
    id: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    direction: str

    @property
    def ref(self) -> str:
        return f"{self.context}/{self.id}"


@dataclass
class Arch:
    components: dict[str, Comp] = field(default_factory=dict)
    connectors: list[Conn] = field(default_factory=list)

    def copy(self) -> Arch:
        return Arch(
            {n: Comp(set(c.ports), dict(c.parts)) for n, c in self.components.items()},
            [Conn(c.context, c.id, c.left, c.right, c.direction) for c in self.connectors],
        )

    def connector(self, cid: str) -> Conn:
        return next(c for c in self.connectors if c.id == cid)

    def typed(self) -> set[str]:
        """Components some part is typed by; the others are top-level."""
        return {t for c in self.components.values() for t in c.parts.values()}

    def walk(
        self, context: str, path: tuple[str, ...], typed: set[str] | None = None
    ) -> list[str] | None:
        """Refs an endpoint path traverses, ending at its part or port; None if
        the path does not resolve. Root paths start at a top-level component."""
        if typed is None:
            typed = self.typed()
        refs: list[str] = []
        segments = list(path)
        if context == "":
            if segments[0] not in self.components or segments[0] in typed or len(segments) < 2:
                return None
            owner = segments.pop(0)
            refs.append(owner)
        else:
            owner = context
        for index, segment in enumerate(segments):
            comp = self.components.get(owner)
            if comp is None:
                return None
            final = index == len(segments) - 1
            if segment in comp.parts:
                refs.append(f"{owner}.{segment}")
                owner = comp.parts[segment]
                continue
            if final and segment in comp.ports:
                refs.append(f"{owner}#{segment}")
                return refs
            return None
        return refs

    def wire(self, context, left, right, direction, typed=None):
        """Canonical (left ref, right ref, direction) of a connection, or None."""
        typed = self.typed() if typed is None else typed
        lw, rw = self.walk(context, left, typed), self.walk(context, right, typed)
        if lw is None or rw is None:
            return None
        return canonical(lw[-1], rw[-1], direction)

    def serialize(self) -> str:
        """The canonical text: components by name, ports, parts, then connectors."""
        lines = [HEADER]
        for name in sorted(self.components):
            comp = self.components[name]
            lines += ["", f"component {name} {{"]
            lines += [f"    port {p};" for p in sorted(comp.ports)]
            lines += [f"    part {r}: {t};" for r, t in sorted(comp.parts.items())]
            lines += [f"    {_conn_line(c)}" for c in self._sorted_connectors(name)]
            lines.append("}")
        root = self._sorted_connectors("")
        if root:
            lines.append("")
            lines += [_conn_line(c) for c in root]
        return "\n".join(lines) + "\n"

    def _sorted_connectors(self, context: str) -> list[Conn]:
        return sorted((c for c in self.connectors if c.context == context), key=lambda c: c.id)


def _conn_line(conn: Conn) -> str:
    left, right = ".".join(conn.left), ".".join(conn.right)
    return f"connector {conn.id}: {left} {ARROWS[conn.direction]} {right};"


def canonical(left: str, right: str, direction: str) -> tuple[str, str, str]:
    if right < left:
        return (right, left, FLIP[direction])
    return (left, right, direction)


# ---------------------------------------------------------------------------
# annotation instances, as the generator placed them


@dataclass(frozen=True)
class Inst:
    kind: str  # Component | Part | Port | Connects | Disconnects | Connector
    refs: frozenset[str]  # enclosing components plus the elements it names
    context: str = ""  # side context of a connection annotation
    left: tuple[str, ...] = ()
    right: tuple[str, ...] = ()
    direction: str = ""


def component_inst(name: str) -> Inst:
    return Inst("Component", frozenset({name}))


def member_inst(kind: str, owner: str, ref: str) -> Inst:
    return Inst(kind, frozenset({owner, ref}))


def connection_inst(
    arch: Arch, kind: str, enclosing: str, left: str, right: str, direction: str
) -> Inst:
    """A connection annotation; the endpoint paths must resolve in `arch`."""
    lp, rp = tuple(left.split(".")), tuple(right.split("."))
    refs = {enclosing} if enclosing else set()
    for path in (lp, rp):
        walked = arch.walk(enclosing, path)
        assert walked is not None, (enclosing, path)
        refs.update(walked)
    return Inst(kind, frozenset(refs), enclosing, lp, rp, direction)


def _matching(arch: Arch, instances: list[Inst], ref: str) -> list[Inst]:
    """Connection instances whose wiring matches connector `ref` in `arch`."""
    conn = next((c for c in arch.connectors if c.ref == ref), None)
    if conn is None:
        return []
    typed = arch.typed()
    target = arch.wire(conn.context, conn.left, conn.right, conn.direction, typed)
    return [
        i for i in instances
        if i.direction and arch.wire(i.context, i.left, i.right, i.direction, typed) == target
    ]


def lookup_hits(arch: Arch, instances: list[Inst], ref: str) -> int:
    """Instances that reference `ref` under `arch` (connector refs by wiring)."""
    if "/" in ref:
        return len(_matching(arch, instances, ref))
    return sum(1 for i in instances if ref in i.refs)


def usages(arch: Arch, instances: list[Inst], ref: str) -> dict[str, int]:
    out = {"connects": 0, "disconnects": 0, "stores": 0}
    label = {"Connects": "connects", "Disconnects": "disconnects", "Connector": "stores"}
    for inst in _matching(arch, instances, ref):
        out[label[inst.kind]] += 1
    return out


# ---------------------------------------------------------------------------
# refactoring plans applied to the generator's model


def apply_step(arch: Arch, step: tuple) -> tuple[Arch, list[str], str]:
    """Apply one plan step; returns (new arch, touched refs, plan-file text)."""
    new = arch.copy()
    op = step[0]
    if op == "add-port":
        _, comp, port = step
        new.components[comp].ports.add(port)
        return new, [f"{comp}#{port}"], f"add-port({comp}, {port})"
    if op == "add-connector":
        _, cid, context, left, right, direction = step
        new.connectors.append(
            Conn(context, cid, tuple(left.split(".")), tuple(right.split(".")), direction)
        )
        shown = context or "/"
        text = f"add-connector({cid}, {shown}, {left}, {right}, {direction})"
        return new, [f"{context}/{cid}"], text
    if op == "remove-connector":
        _, cid = step
        conn = new.connector(cid)
        new.connectors.remove(conn)
        return new, [conn.ref], f"remove-connector({cid})"
    if op == "rename-connector":
        _, cid, new_id = step
        conn = new.connector(cid)
        old_ref = conn.ref
        conn.id = new_id
        return new, [old_ref, conn.ref], f"rename-element({old_ref}, {new_id})"
    if op == "rename-port":
        _, owner, port, new_port = step
        comp = new.components[owner]
        comp.ports.remove(port)
        comp.ports.add(new_port)
        _rewrite(arch, new, owner, port, new_port)
        return new, [f"{owner}#{port}", f"{owner}#{new_port}"], (
            f"rename-element({owner}#{port}, {new_port})"
        )
    raise ValueError(f"unknown plan step {op}")


def _rewrite(old: Arch, new: Arch, owner: str, member: str, new_member: str) -> None:
    """Rename `owner`'s member in every connector path that passes through it."""
    for conn in new.connectors:
        for side in ("left", "right"):
            path = list(getattr(conn, side))
            current, start = conn.context, 0
            if current == "":
                current, start = path[0], 1
            for index in range(start, len(path)):
                comp = old.components.get(current)
                if comp is None:
                    break
                segment = path[index]
                if current == owner and segment == member:
                    path[index] = new_member
                if segment not in comp.parts:
                    break
                current = comp.parts[segment]
            setattr(conn, side, tuple(path))


def expected_impact(arch: Arch, instances: list[Inst], steps: list[tuple]):
    """Per step: plan text and [(touched ref, instance count)], plus the result.

    As in archlint, each step's lookups run against the architecture before
    that step.
    """
    entries = []
    current = arch
    for step in steps:
        after, touched, text = apply_step(current, step)
        hits = [(ref, lookup_hits(current, instances, ref)) for ref in sorted(touched)]
        entries.append({"op": text, "touched": hits})
        current = after
    return entries, current


# ---------------------------------------------------------------------------
# the workload container


@dataclass
class Workload:
    files: dict[str, str]  # path relative to the workload root -> text
    config: str
    lookups: list[str]
    answers: dict

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _finish(
    files: dict[str, str],
    arch: Arch,
    config: str,
    instances: list[Inst],
    counts_check: dict[str, int],
    missing: list[str],
    counts_smells: dict[str, int],
    lookups: list[str],
    steps: list[tuple],
    excluded_dir: str,
) -> Workload:
    scanned = [rel for rel in files if rel.startswith("src/")]
    excluded = [rel for rel in scanned if rel.startswith(f"src/{excluded_dir}/")]
    files["app.arch"] = arch.serialize()
    files["archlint.conf"] = config
    entries, result = expected_impact(arch, instances, steps)
    files["app.plan"] = "// benchmark refactoring plan\n" + "".join(
        e["op"] + "\n" for e in entries
    )
    lookup_answers = {}
    for ref in lookups:
        if "/" in ref:
            lookup_answers[ref] = usages(arch, instances, ref)
        else:
            lookup_answers[ref] = {"instances": lookup_hits(arch, instances, ref)}
    counts_check = {k: v for k, v in sorted(counts_check.items()) if v}
    counts_smells = {k: v for k, v in sorted(counts_smells.items()) if v}
    answers = {
        "check": {
            "exit": 1 if ERROR_IDS & set(counts_check) else 0,
            "counts": counts_check,
            "missing": sorted(missing),
        },
        "smells": {"exit": 0, "counts": counts_smells},
        "lookup": lookup_answers,
        "refactor": {"exit": 0, "steps": entries, "arch": result.serialize()},
        "instances": len(instances),
        "src_files": len(scanned) - len(excluded),
        "excluded_files": len(excluded),
    }
    return Workload(files, config, lookups, answers)


# ---------------------------------------------------------------------------
# shared text filler

WORDS = (
    "alpha beta gamma delta epsilon zeta theta kappa lambda sigma omega "
    "buffer cache index queue stack frame token parse merge split route "
    "load store fetch flush apply scan check model value count total"
).split()


def _ident(rng: random.Random, parts: int = 2) -> str:
    words = [rng.choice(WORDS) for _ in range(parts)]
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


# ---------------------------------------------------------------------------
# java-scan

_JAVA_DECOYS = (
    '"see @Component(\\"Ghost\\") in the docs"',
    '"@Part(\\"fake\\") // not a comment"',
    '"/* not a comment either */"',
    '"quote \\" and backslash \\\\ escapes"',
)
_CHARS = ("'a'", "'\\''", "'\"'", "'\\n'", "'@'", "'{'", "'}'")


def _java_field(rng: random.Random, name: str) -> str:
    roll = rng.random()
    if roll < 0.3:
        return f"    private int {name} = {rng.randrange(100000)};"
    if roll < 0.55:
        return f"    private String {name} = {rng.choice(_JAVA_DECOYS)};"
    if roll < 0.7:
        return f"    private char {name} = {rng.choice(_CHARS)};"
    if roll < 0.85:
        return f"    protected final java.util.List<String> {name} = new java.util.ArrayList<>();"
    return f"    /* {_phrase(rng, 6)} */ long {name};"


def _java_method(rng: random.Random, name: str, annotation: str | None = None) -> list[str]:
    lines = []
    if rng.random() < 0.3:
        lines.append(f"    // {_phrase(rng, 5)} @Port(\"commented\") {_phrase(rng, 3)}")
    if annotation:
        lines.append(f"    {annotation}")
    elif rng.random() < 0.2:
        lines.append("    @Override")
    lines.append(f"    public int {name}(int a, String b) {{")
    for _ in range(rng.randint(3, 6)):
        roll = rng.random()
        if roll < 0.3:
            lines.append(f"        int {_ident(rng)} = a * {rng.randrange(97)} + b.length();")
        elif roll < 0.55:
            lines.append(f"        String {_ident(rng)} = {rng.choice(_JAVA_DECOYS)};")
        elif roll < 0.7:
            lines.append(f"        char {_ident(rng)} = {rng.choice(_CHARS)};")
        elif roll < 0.85:
            lines.append(f"        if (a > {rng.randrange(50)}) {{ a -= 1; }} // {_phrase(rng, 4)}")
        else:
            lines.append(f"        /* {_phrase(rng, 8)} */")
    lines.append("        return a;")
    lines.append("    }")
    return lines


def _java_class(
    rng: random.Random, package: str, name: str, annotated: bool, port: str
) -> str:
    lines = [f"package {package};", "", "import java.util.List;", ""]
    lines.append(f"/** {_phrase(rng, 10)} */")
    head = f'@Component("{name}") public class {name} {{' if annotated else f"public class {name} {{"
    lines.append(head)
    for k in range(40):
        lines.append(_java_field(rng, f"f{k}{_ident(rng)}"))
    port_at = rng.randrange(40)
    for k in range(40):
        annotation = f'@Port("{port}")' if annotated and k == port_at else None
        method = port if annotation else f"m{k}{_ident(rng)}"
        lines.extend(_java_method(rng, method, annotation))
    lines.append("}")
    return "\n".join(lines) + "\n"


def java_scan(seed: int, size: int) -> Workload:
    rng = random.Random(f"java-scan:{seed}:{size}")
    k = max(size, 8)
    names = [f"Svc{i:04d}" for i in range(k)]
    arch = Arch({n: Comp({"io"}) for n in names})
    arch.connectors = [
        Conn("", f"k{i:04d}", (names[i], "io"), (names[i + 1], "io"), "RIGHT")
        for i in range(k - 1)
    ]
    unannotated = set(rng.sample(range(k), 3))
    wired = sorted(rng.sample(range(k - 1), 4))

    files: dict[str, str] = {}
    instances: list[Inst] = []
    for i, name in enumerate(names):
        package = f"app.m{i % 8}"
        annotated = i not in unannotated
        files[f"src/app/m{i % 8}/{name}.java"] = _java_class(rng, package, name, annotated, "io")
        if annotated:
            instances += [component_inst(name), member_inst("Port", name, f"{name}#io")]

    wiring = ["package app.wiring;", "", "class Wiring {"]
    for i in wired:
        left, right = f"{names[i]}.io", f"{names[i + 1]}.io"
        for kind, verb in (("Connects", "link"), ("Disconnects", "unlink")):
            wiring.append(f'    @{kind}(left="{left}", right="{right}", type=Arrow.RIGHT)')
            wiring.append(f"    void {verb}{i}() {{ /* {_phrase(rng, 3)} */ }}")
            instances.append(connection_inst(arch, kind, "", left, right, "RIGHT"))
    wiring.append("}")
    files["src/app/wiring/Wiring.java"] = "\n".join(wiring) + "\n"
    files["src/app/NOTES.txt"] = "\n".join(_pragma_body(rng, "#", 40)) + "\n"
    files["src/build/Generated.java"] = (
        '@Component("Generated") public class Generated {\n'
        '    @Port("stale") void stale() { }\n}\n'
    )

    missing = [r for i in sorted(unannotated) for r in (names[i], f"{names[i]}#io")]
    plain = [i for i in range(k) if i not in unannotated]
    a, b = rng.sample(plain, 2)
    renamed, removed = rng.sample(wired, 2)
    lookups = [names[a], f"/k{rng.choice(wired):04d}"]
    steps = [
        ("add-port", names[a], "extra"),
        ("rename-connector", f"k{renamed:04d}", f"link{renamed:04d}"),
        ("remove-connector", f"k{removed:04d}"),
    ]
    config = "# benchmark scan configuration\nexclude = build/*\n"
    return _finish(
        files, arch, config, instances,
        {"MISSING_ANNOTATION": len(missing)}, missing,
        {"CONNECTOR_LIFECYCLE": (k - 1) - len(wired)},
        lookups, steps, excluded_dir="build",
    )


# ---------------------------------------------------------------------------
# pragma-drift

_LANGS = (
    ("py", "#"), ("rb", "#"), ("sh", "#"), ("ts", "//"),
    ("go", "//"), ("rs", "//"), ("sql", "--"), ("lua", "--"),
)


def _pragma_body(rng: random.Random, leader: str, n: int) -> list[str]:
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45:
            lines.append(f"{_ident(rng)} = {_ident(rng)}({rng.randrange(1000)}, \"{_phrase(rng, 3)}\")")
        elif roll < 0.7:
            lines.append(f"{leader} {_phrase(rng, rng.randint(4, 12))}")
        elif roll < 0.8:
            lines.append(f"    return {_ident(rng)} + {rng.randrange(100)}")
        elif roll < 0.87:
            lines.append(f"{leader} @architecture note: {_phrase(rng, 4)}")
        elif roll < 0.93:
            lines.append(f"{leader}@archive({rng.randrange(10)}) {_phrase(rng, 2)}")
        else:
            lines.append("")
    return lines


def _with_pragmas(rng: random.Random, body: list[str], first: str, rest: list[str]) -> str:
    """The first pragma near the top, the others at random lines after it."""
    head = rng.randint(2, 6)
    lines = body[:head] + [first]
    tail = body[head:]
    slots = sorted(rng.randrange(len(tail) + 1) for _ in rest)
    shuffled = list(rest)
    rng.shuffle(shuffled)
    out, cursor = lines, 0
    for slot, pragma in zip(slots, shuffled):
        out += tail[cursor:slot] + [pragma]
        cursor = slot
    out += tail[cursor:]
    return "\n".join(out) + "\n"


def pragma_drift(seed: int, size: int) -> Workload:
    rng = random.Random(f"pragma-drift:{seed}:{size}")
    k = max(size, 40)
    names = [f"Mod{i:04d}" for i in range(k)]
    arch = Arch({n: Comp({"inp", "out"}, {"helper": "Util"}) for n in names})
    arch.components["Util"] = Comp({"x"})
    chain = 24
    arch.connectors = [
        Conn("", f"r{i:04d}", (names[i], "out"), (names[i + 1], "inp"), "RIGHT")
        for i in range(chain)
    ]
    dirs = max(4, k // 25)

    files: dict[str, str] = {}
    instances: list[Inst] = []
    counts = {"MISSING_ANNOTATION": 0, "UNKNOWN_ELEMENT": 0,
              "UNDECLARED_CONNECTION": 0, "MALFORMED_PRAGMA": 0}
    missing: list[str] = []
    scattered = 0
    sigil = "@arch"

    def pragma(leader: str, text: str) -> str:
        return f"{leader}{sigil} {text}" if leader != "--" else f"-- {sigil} {text}"

    absent = set(rng.sample(range(chain + 1, k), max(1, k // 50)))
    for i, name in enumerate(names):
        if i in absent:
            missing += [name, f"{name}#inp", f"{name}#out", f"{name}.helper"]
            continue
        ext, leader = rng.choice(_LANGS)
        body = _pragma_body(rng, leader, rng.randint(60, 140))
        rest = [pragma(leader, 'Part("helper") @on field helper'),
                pragma(leader, 'Port("inp") @on method on_input')]
        instances += [component_inst(name), member_inst("Part", name, f"{name}.helper"),
                      member_inst("Port", name, f"{name}#inp")]
        if rng.random() < 0.05:
            missing.append(f"{name}#out")
        else:
            rest.append(pragma(leader, 'Port("out") @on method on_output'))
            instances.append(member_inst("Port", name, f"{name}#out"))
        for j in range(rng.choice((0, 1, 2, 2))):
            rest.append(pragma(leader, f'Port("old{j}") @on method legacy_{j}'))
            instances.append(member_inst("Port", name, f"{name}#old{j}"))
            counts["UNKNOWN_ELEMENT"] += 1
        if rng.random() < 0.05:
            rest.append(pragma(leader, 'Connects(left="inp", right="out", type=RIGHT) @on method loop'))
            instances.append(connection_inst(arch, "Connects", name, "inp", "out", "RIGHT"))
            counts["UNDECLARED_CONNECTION"] += 1
        for j in range(rng.choice((1, 1, 2, 3))):
            rest.append(pragma(leader, f'Port("broken{j}" @on method half_{j}'))
            counts["MALFORMED_PRAGMA"] += 1
        first = pragma(leader, f'Component("{name}") @on type {name}')
        files[f"src/d{i % dirs:03d}/{name.lower()}.{ext}"] = _with_pragmas(rng, body, first, rest)
        if rng.random() < 0.03:
            ext2, leader2 = rng.choice(_LANGS)
            extra = pragma(leader2, f'Component("{name}") @on type {name}Extra')
            body2 = _pragma_body(rng, leader2, 20)
            files[f"src/extra/{name.lower()}_extra.{ext2}"] = _with_pragmas(rng, body2, extra, [])
            instances.append(component_inst(name))
            scattered += 1
    counts["MISSING_ANNOTATION"] = len(missing)

    util = ['# utility shared by every module',
            '#@arch Component("Util") @on type Util',
            'def x(value):',
            '#@arch Port("x") @on method x',
            '    return value']
    files["src/util/util.py"] = "\n".join(util) + "\n"
    files["src/util/Legacy.java"] = (
        "package util;\n\npublic class Legacy {\n"
        "    @Override public String toString() { return \"@Port(\\\"none\\\")\"; }\n}\n"
    )
    instances += [component_inst("Util"), member_inst("Port", "Util", "Util#x")]

    undisconnected = set(rng.sample(range(chain), 2))
    links = ["# root wiring between neighbouring modules"]
    for i in range(chain):
        left, right = f"{names[i]}.out", f"{names[i + 1]}.inp"
        kinds = ["Connects"] if i in undisconnected else ["Connects", "Disconnects"]
        for kind in kinds:
            links.append(f'#@arch {kind}(left="{left}", right="{right}", type=RIGHT) @on method {kind.lower()}_{i}')
            instances.append(connection_inst(arch, kind, "", left, right, "RIGHT"))
    files["src/wiring/links.txt"] = "\n".join(links) + "\n"

    vendor = max(2, k // 20)
    for j in range(vendor):
        junk = [f'#@arch Component("Vendor{j}") @on type Vendor{j}',
                '#@arch Port("lost" @on method lost',
                '#@arch Connects(left="a", right="b") @on method wire'] + _pragma_body(rng, "#", 30)
        files[f"src/vendor/lib{j:03d}/vendored.py"] = "\n".join(junk) + "\n"

    present = [i for i in range(1, chain + 1) if i not in absent]
    a = rng.choice([i for i in range(k) if i not in absent])
    b = rng.choice(present)
    lookups = [f"{names[b]}#inp", f"/r{rng.randrange(chain):04d}"]
    steps = [
        ("add-port", names[a], "extra"),
        ("remove-connector", f"r{rng.randrange(chain):04d}"),
        ("rename-port", names[b], "inp", "input"),
    ]
    config = "# benchmark scan configuration\nexclude = vendor/*\nscatter_threshold = 2\n"
    return _finish(
        files, arch, config, instances, counts, missing,
        {"SCATTERED_COMPONENT": scattered, "CONNECTOR_LIFECYCLE": len(undisconnected)},
        lookups, steps, excluded_dir="vendor",
    )


# ---------------------------------------------------------------------------
# connector-dense


def connector_dense(seed: int, size: int) -> Workload:
    rng = random.Random(f"connector-dense:{seed}:{size}")
    n = max(size, 40)
    names = [f"Node{i:04d}" for i in range(n)]
    arch = Arch({name: Comp({"in", "out"}, {"buf": "Cell"}) for name in names})
    arch.components["Cell"] = Comp({"tap"})
    arch.connectors = [
        Conn("", f"c{i:04d}", (names[i], "out"), (names[i + 1], "in"), "RIGHT")
        for i in range(n - 1)
    ]
    planted = rng.sample(range(n - 1), 20)
    no_connect, two_connects = set(planted[0:3]), set(planted[3:6])
    no_disconnect, two_disconnects = set(planted[6:9]), set(planted[9:12])
    stores, undeclared = set(planted[12:17]), set(planted[17:20])

    files: dict[str, str] = {}
    instances: list[Inst] = []
    for i, name in enumerate(names):
        lines = [f"package dense.g{i % 8};", "",
                 f'@Component("{name}")', f"public class {name} {{",
                 '    @Part("buf") private Cell buf;',
                 '    @Port("in") public void in(int value) { buf.tap(); }',
                 '    @Port("out") public int out() { return 0; }',
                 "}"]
        instances += [component_inst(name), member_inst("Part", name, f"{name}.buf"),
                      member_inst("Port", name, f"{name}#in"),
                      member_inst("Port", name, f"{name}#out")]
        if i < n - 1:
            left, right = f"{name}.out", f"{names[i + 1]}.in"
            wire = f'left="{left}", right="{right}", type=Arrow.RIGHT'
            lines += ["", f"class {name}Link {{"]
            plan = [("Connects", "connect", 0 if i in no_connect else 2 if i in two_connects else 1),
                    ("Disconnects", "disconnect",
                     0 if i in no_disconnect else 2 if i in two_disconnects else 1)]
            for kind, verb, times in plan:
                for t in range(times):
                    lines += [f"    @{kind}({wire})", f"    void {verb}{t}() {{ }}"]
                    instances.append(connection_inst(arch, kind, "", left, right, "RIGHT"))
            if i in stores:
                lines.append(f"    @Connector({wire}) private Object wire;")
                instances.append(connection_inst(arch, "Connector", "", left, right, "RIGHT"))
            if i in undeclared:
                bad_left, bad_right = f"{name}.in", f"{names[i + 1]}.out"
                lines += [f'    @Connects(left="{bad_left}", right="{bad_right}", type=Arrow.RIGHT)',
                          "    void miswire() { }"]
                instances.append(connection_inst(arch, "Connects", "", bad_left, bad_right, "RIGHT"))
            lines.append("}")
        files[f"src/dense/g{i % 8}/{name}.java"] = "\n".join(lines) + "\n"
    files["src/dense/Cell.java"] = (
        'package dense;\n\n@Component("Cell")\npublic class Cell {\n'
        '    @Port("tap") public void tap() { }\n}\n'
    )
    instances += [component_inst("Cell"), member_inst("Port", "Cell", "Cell#tap")]
    files["src/dense/NOTES.txt"] = "\n".join(_pragma_body(rng, "//", 20)) + "\n"
    files["src/gen/Stub.java"] = '@Component("Stub") class Stub {\n    @Part("none") Cell none;\n}\n'

    lifecycle = no_connect | two_connects | no_disconnect | two_disconnects
    quiet = [i for i in range(n - 1) if i not in set(planted)]
    a, renamed, removed = rng.sample(quiet, 3)
    b = rng.choice([i for i in range(n) if i not in (a, a + 1)])
    lookups = [f"{names[rng.randrange(n)]}.buf", f"/c{rng.choice(sorted(stores)):04d}"]
    steps = [
        ("add-connector", "cx", "", f"{names[a]}.out", f"{names[b]}.in", "RIGHT"),
        ("rename-connector", f"c{renamed:04d}", f"c{renamed:04d}r"),
        ("remove-connector", f"c{removed:04d}"),
    ]
    config = "# benchmark scan configuration\nexclude = gen/*\n"
    return _finish(
        files, arch, config, instances,
        {"UNDECLARED_CONNECTION": len(undeclared)}, [],
        {"CONNECTOR_LIFECYCLE": len(lifecycle)},
        lookups, steps, excluded_dir="gen",
    )


BUILDERS = {"java-scan": java_scan, "pragma-drift": pragma_drift, "connector-dense": connector_dense}


def build(name: str, seed: int, size: int) -> Workload:
    return BUILDERS[name](seed, size)
