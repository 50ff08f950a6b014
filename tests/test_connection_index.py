"""The one reading of a connection annotation, against its oracle.

`resolve_connection` alone reads a connection annotation's two sides; check
3 reads its findings, triple and matches, and `references` files the
annotation under its `refs`, which `usages_by_connector` splits by usage.
`connection_oracle` holds these functions as they were before, each
reading the sides on its own. They must agree on every `tests/data` tree,
on the benchmark's workloads and on seeded random models whose connection
annotations fail to resolve or name their own contexts.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

import connection_oracle
from archlint.adl import parse_architecture
from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, TargetKind
from archlint.conformance import (
    check_connection_consistency,
    connector_usages,
    references,
    resolve_connection,
    usages_by_connector,
)
from archlint.findings import SourceLocation
from archlint.model import ROOT_CONTEXT, ArchitectureModel, list_elements
from archlint.scan import ScanConfig, load_config_file, scan_tree
from modelgen import random_code_for, random_model, with_odd_elements

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).parent.parent / "bench"

DATA_TREES = [
    ("car/car.arch", "car/src"),
    ("car_paired/car.arch", "car_paired/src"),
    ("car/car.arch", "car_pragma/src"),
    ("car/car.arch", "car_solo"),
    ("desktop/desktop.arch", "desktop/src"),
    ("referents/referents.arch", "referents/src"),
    ("scatter/scatter.arch", "scatter/src"),
]


def _agree(arch: ArchitectureModel, code: CodeModel) -> Counter:
    """Check 3, `references` of every declared or referenced element, and the
    usages of every connector equal the oracle's, as do `connector_usages`
    of at most 16 connectors; the check ids found."""
    findings = check_connection_consistency(arch, code)
    assert findings == connection_oracle.check_connection_consistency(arch, code)
    wanted = set(list_elements(arch))
    for inst in code.instances:
        old = connection_oracle.instance_refs(inst, arch)
        if inst.kind.usage is not None:
            assert resolve_connection(arch, inst).refs == old, inst
        wanted |= old
    ordered = sorted(wanted, key=lambda ref: ref.sort_key())
    assert references(code, ordered, arch) == connection_oracle.references(code, ordered, arch)
    usages = usages_by_connector(arch, code)
    old_usages = connection_oracle.usages_by_connector(arch, code)
    assert usages == old_usages and list(usages) == list(old_usages)
    for ref in list(usages)[:: len(usages) // 16 + 1]:  # each resolves every annotation
        assert connector_usages(code, ref, arch) == usages[ref]
    return Counter(f.check_id for f in findings)


@pytest.mark.parametrize("arch, src", DATA_TREES, ids=[src for _, src in DATA_TREES])
def test_every_data_tree_agrees_with_the_oracle(arch: str, src: str) -> None:
    model = parse_architecture((DATA / arch).read_text(encoding="utf-8"))
    code = scan_tree([DATA / src])
    assert code.instances
    _agree(model, code)


@pytest.mark.parametrize("workload", ["java-scan", "pragma-drift", "connector-dense"])
def test_the_benchmark_workloads_agree_with_the_oracle(
    workload: str, tmp_path: Path, monkeypatch
) -> None:
    """At the benchmark's size and four times it, seeds 1 and 41."""
    monkeypatch.syspath_prepend(str(BENCH))  # undone at teardown, with what `run` adds
    import gen
    import run

    for seed in (1, 41):
        for scale in (1, 4):
            root = tmp_path / f"{seed}-{scale}"
            gen.build(workload, seed, run.SIZES[workload] * scale).write(root)
            model = parse_architecture((root / "app.arch").read_text(encoding="utf-8"))
            config = ScanConfig.from_mapping(load_config_file(root / "archlint.conf"))
            code = scan_tree([root / "src"], config)
            _agree(model, code)


def _odd_connections(rng: random.Random, model: ArchitectureModel, code: CodeModel) -> CodeModel:
    """`code` with copies of some connection annotations whose sides fail to
    resolve (an unknown path, a path that is no identifier, an empty or
    missing side) or name a context (an enclosing, another, an unknown or
    an empty component), and with more than one enclosing component."""
    names = [c.name for c in model.components]
    extra: list[AnnotationInstance] = []
    for inst in code.instances:
        if inst.kind.usage is None or rng.random() < 0.5:
            continue
        attrs, enclosing = dict(inst.attrs), inst.enclosing_components
        for _ in range(rng.randint(1, 2)):
            side = rng.choice(("left", "right"))
            roll = rng.randrange(8)
            if roll == 0:
                attrs[side] = "nowhere.x"
            elif roll == 1:
                attrs[side] = rng.choice(("x", "a..b", "9z", ""))
            elif roll == 2:
                attrs.pop(side, None)
            elif roll == 3:
                attrs[f"{side}component"] = enclosing[0] if enclosing else ROOT_CONTEXT
            elif roll == 4:
                attrs[f"{side}component"] = rng.choice([*names, "NoSuchContext", ""])
            elif roll == 5:
                enclosing = (*enclosing, rng.choice([*names, "Nowhere"]))
            elif roll == 6:
                attrs[side] = attrs.get(side, "x").split(".")[-1]
            else:
                enclosing = ()
        extra.append(
            inst._replace(
                attrs=attrs,
                enclosing_components=enclosing,
                location=SourceLocation("gen/odd.java", 10_000 + len(extra), 1),
            )
        )
    return CodeModel.build(code.instances + tuple(extra), code.findings, code.config_fingerprint)


def test_random_models_agree_with_the_oracle() -> None:
    rng = random.Random(32)
    seen: Counter[str] = Counter()
    for n in range(4000):
        model = random_model(rng, max_components=6, connector_attempts=6)
        code = _odd_connections(rng, model, random_code_for(rng, model))
        if n % 2:
            code = with_odd_elements(rng, model, code)
        seen += _agree(model, code)
    assert min(seen[c] for c in ("CONTEXT_OVERRIDE", "UNRESOLVED_ENDPOINT", "UNDECLARED_CONNECTION")) > 400


def test_a_failed_side_adds_a_guess_for_each_side_with_a_path() -> None:
    """When one side does not resolve, both sides' paths are also read
    without the architecture; a side with no path adds nothing."""
    arch = parse_architecture("component A { port p; part b: B; }\ncomponent B { port q; }\n")
    inst = AnnotationInstance(
        AnnotationKind.CONNECTS, (), {"left": "p", "right": "b.nowhere", "rightcomponent": "A"},
        TargetKind.METHOD, "m", ("A",), SourceLocation("A.java", 1, 1), "",
    )
    resolution = resolve_connection(arch, inst)
    assert resolution.triple is None and resolution.matches == frozenset()
    assert sorted(ref.path for ref in resolution.refs) == ["A", "A#p", "A.b", "A.p"]
    assert [f.check_id for f in resolution.findings] == ["UNRESOLVED_ENDPOINT"]
    empty = inst._replace(attrs={"left": "p", "right": ""})
    assert sorted(ref.path for ref in resolve_connection(arch, empty).refs) == ["A", "A#p"]
    assert resolve_connection(arch, empty).refs == connection_oracle.instance_refs(empty, arch)
    assert resolution.refs == connection_oracle.instance_refs(inst, arch)
