"""The one index of what the element annotations name, against its oracles.

Checks 1 and 2 read `CodeModel.element_index`, and `CodeModel.element_refs`
is derived from it. `check_oracle` holds the checks and `syntactic_refs` as
they were before, each walking the annotations on its own. The checks must
agree with it on every `tests/data` tree, on the benchmark's workloads and
on seeded random models whose code drifts from them; `element_refs` must
list each element annotation under exactly the refs `syntactic_refs` gives
it.

One difference is deliberate: the earlier check 2 reported an undeclared
element once per time an annotation named it, so `@Port({"p", "p"})`
reported one unknown port twice, word for word. It is now reported once
per annotation that names it.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

import check_oracle
from archlint.adl import parse_architecture
from archlint.annotations import (
    AnnotationInstance,
    AnnotationKind,
    CodeModel,
    TargetKind,
    syntactic_refs,
)
from archlint.conformance import check_annotation_completeness, check_architecture_completeness
from archlint.findings import Finding, SourceLocation
from archlint.model import ArchitectureModel
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


def _once_per_annotation(findings: list[Finding]) -> list[Finding]:
    """The oracle's findings with each repeat of the finding before it
    dropped: what it reports more than once for one annotation. (Two
    annotations never share a location here, so equal findings come from
    one annotation.)"""
    return [f for i, f in enumerate(findings) if i == 0 or f != findings[i - 1]]


def _agree(arch: ArchitectureModel, code: CodeModel) -> bool:
    """Checks 1 and 2 equal their oracles, finding for finding, apart from
    the oracle's repeats; True when the oracle repeated a finding."""
    assert check_annotation_completeness(arch, code) == (
        check_oracle.check_annotation_completeness(arch, code)
    )
    old = check_oracle.check_architecture_completeness(arch, code)
    assert check_architecture_completeness(arch, code) == _once_per_annotation(old)
    return len(_once_per_annotation(old)) < len(old)


def _assert_refs_match(code: CodeModel) -> None:
    """Each element annotation is listed under exactly its `syntactic_refs`,
    old and new, each once and in order; no connection annotation is."""
    listed: dict[int, set] = {}
    for ref, positions in code.element_refs.items():
        assert all(a < b for a, b in zip(positions, positions[1:])), (ref, positions)
        for position in positions:
            listed.setdefault(position, set()).add(ref)
    for position, inst in enumerate(code.instances):
        if inst.kind.referent is None:
            assert position not in listed, inst
            continue
        expected = check_oracle.syntactic_refs(inst)
        assert syntactic_refs(inst) == expected, inst
        assert listed.get(position, set()) == expected, inst


@pytest.mark.parametrize("arch, src", DATA_TREES, ids=[src for _, src in DATA_TREES])
def test_every_data_tree_agrees_with_the_oracles(arch: str, src: str) -> None:
    model = parse_architecture((DATA / arch).read_text(encoding="utf-8"))
    code = scan_tree([DATA / src])
    assert code.instances
    _agree(model, code)
    _assert_refs_match(code)


@pytest.mark.parametrize("workload", ["java-scan", "pragma-drift", "connector-dense"])
def test_the_benchmark_workloads_agree_with_the_check_oracle(
    workload: str, tmp_path: Path, monkeypatch
) -> None:
    """At the benchmark's size and four times it, seed 41."""
    monkeypatch.syspath_prepend(str(BENCH))  # undone at teardown, with what `run` adds
    import gen
    import run

    for scale in (1, 4):
        root = tmp_path / str(scale)
        gen.build(workload, 41, run.SIZES[workload] * scale).write(root)
        model = parse_architecture((root / "app.arch").read_text(encoding="utf-8"))
        config = ScanConfig.from_mapping(load_config_file(root / "archlint.conf"))
        code = scan_tree([root / "src"], config)
        assert code.element_index.named
        assert not _agree(model, code)


def _drifted(rng: random.Random, model: ArchitectureModel, code: CodeModel) -> CodeModel:
    """`code` with some element annotations dropped, and others with a value
    renamed or repeated, or given an owner the model does not declare, or a
    repeated enclosing component."""
    names = [c.name for c in model.components]
    names += [m for c in model.components for m in (*(p.role for p in c.parts), *(p.name for p in c.ports))]
    out: list[AnnotationInstance] = []
    for inst in code.instances:
        if inst.kind.referent is None or rng.random() < 0.5:
            out.append(inst)
            continue
        values, enclosing, attrs = inst.values, inst.enclosing_components, dict(inst.attrs)
        roll = rng.randrange(5)
        if roll == 0:
            continue  # dropped
        if roll == 1 and values:
            renamed = rng.choice(names + [f"{values[0]}x"])
            values = tuple(renamed if i == 0 else v for i, v in enumerate(values))
        elif roll == 2 and values:
            values = values + (rng.choice(values),)
        elif roll == 3:
            if inst.kind in (AnnotationKind.ADD_PART, AnnotationKind.REMOVE_PART) and rng.random() < 0.5:
                attrs["componentname"] = rng.choice(["Nowhere", *names])
            else:
                enclosing = (*enclosing, rng.choice(["Nowhere", *names]))
        else:
            enclosing = enclosing + enclosing
        out.append(inst._replace(values=values, enclosing_components=enclosing, attrs=attrs))
    return CodeModel.build(out, code.findings, code.config_fingerprint)


def test_random_drift_agrees_with_the_check_oracle() -> None:
    """Seeded `random_model` draws, their code drifted and, in every other
    draw, given `with_odd_elements` as well."""
    rng = random.Random(31)
    seen: Counter[str] = Counter()
    repeated = 0
    for n in range(4000):
        model = random_model(rng, max_components=6, connector_attempts=6)
        code = _drifted(rng, model, random_code_for(rng, model))
        if n % 2:
            code = with_odd_elements(rng, model, code)
        repeated += _agree(model, code)
        seen.update(f.check_id for f in check_architecture_completeness(model, code))
        seen.update(f.check_id for f in check_annotation_completeness(model, code))
    assert seen["MISSING_ANNOTATION"] > 1000 and seen["UNKNOWN_ELEMENT"] > 1000
    assert repeated > 100


def test_element_refs_lists_each_annotation_under_its_syntactic_refs() -> None:
    rng = random.Random(32)
    for _ in range(500):
        model = random_model(rng, max_components=6, connector_attempts=6)
        code = with_odd_elements(rng, model, random_code_for(rng, model))
        _assert_refs_match(code)


def test_a_repeated_value_is_one_annotation() -> None:
    """`@Port({"p", "p"})` names one port: element_refs lists it once, and
    check 2 reports it once."""
    ports = AnnotationInstance(
        AnnotationKind.PORT, ("p", "p"), {}, TargetKind.METHOD, "m", ("A",),
        SourceLocation("A.java", 3, 5), "",
    )
    code = CodeModel.build([ports])
    _assert_refs_match(code)
    assert {ref.path: positions for ref, positions in code.element_refs.items()} == {
        "A": [0], "A#p": [0]
    }
    model = parse_architecture("component A { }")
    [only] = check_architecture_completeness(model, code)
    assert only.message == "@Port names port 'p' not declared in component 'A'"
    assert len(check_oracle.check_architecture_completeness(model, code)) == 2
