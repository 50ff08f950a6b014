"""`run_all` as a fold over each file's part, against the whole-model
`run_all` it replaced (`run_all_oracle`).

The fold must give the oracle's findings, counts and fingerprint three ways:
`run_all` on a scanned code model, and `check_tree` with a result store,
cold (each part computed and stored) and warm (each part read back, no
instance built). It must do so on every `tests/data` tree, on random models'
scaffolds checked against their own model and against another, as pragma
files and as Java, on two roots that share relative paths (where the store
falls back to the whole model), on an ill-formed `.arch` (where the checks do
not run), and on random drifting code models.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import run_all_oracle
from archlint.adl import parse_architecture
from archlint.annotations import CodeModel
from archlint.conformance import run_all
from archlint.findings import SourceLocation, finding
from archlint.model import ArchitectureModel, Component, Port
from archlint.scan import check_tree, scan_tree
from modelgen import random_code_for, random_model, with_odd_elements, write_scaffold_tree

DATA = Path(__file__).parent / "data"

DATA_TREES = [
    ("car/car.arch", ["car/src"]),
    ("car_paired/car.arch", ["car_paired/src"]),
    ("car/car.arch", ["car_pragma/src"]),
    ("car/car.arch", ["car_solo"]),
    ("desktop/desktop.arch", ["desktop/src"]),
    ("referents/referents.arch", ["referents/src"]),
    ("scatter/scatter.arch", ["scatter/src"]),
    ("car/car.arch", ["car/src", "car_paired/src"]),  # every relative path shared
    ("car/car.arch", ["car/src", "car_pragma/src", "scatter/src"]),
]


def _assert_folds(arch: ArchitectureModel, roots: list[Path], directory: Path) -> None:
    cold = scan_tree(roots)
    want = run_all_oracle.run_all(arch, cold)
    assert run_all(arch, cold) == want
    for _ in range(2):  # an empty store, then every part stored
        assert check_tree(arch, roots, store=directory) == want
    assert check_tree(arch, roots) == want


@pytest.mark.parametrize(("arch", "sources"), DATA_TREES)
def test_the_fold_gives_the_whole_model_report_of_each_data_tree(
    tmp_path: Path, arch: str, sources: list[str]
) -> None:
    model = parse_architecture((DATA / arch).read_text())
    _assert_folds(model, [DATA / src for src in sources], tmp_path / "store")


def test_an_ill_formed_architecture_runs_no_check(tmp_path: Path) -> None:
    """(The parser refuses such a model; a library caller can build one.)"""
    car = parse_architecture((DATA / "car" / "car.arch").read_text())
    odd = Component("Zz", (Port("p"), Port("p")), ())
    model = ArchitectureModel((*car.components, odd), car.connectors)
    assert model.validation
    _assert_folds(model, [DATA / "car" / "src"], tmp_path / "store")
    checked = {"MISSING_ANNOTATION", "UNKNOWN_ELEMENT", "UNDECLARED_CONNECTION"}
    assert not checked & run_all(model, scan_tree([DATA / "car" / "src"])).counts.keys()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), java=st.booleans())
def test_the_fold_gives_the_whole_model_report_of_a_scaffold(seed: int, java: bool) -> None:
    """A random model's scaffold, as pragma files or as Java classes, checked
    against that model and against another random model."""
    rng = random.Random(seed)
    model = random_model(rng)
    with tempfile.TemporaryDirectory() as temp:
        root = Path(temp) / "src"
        write_scaffold_tree(model, root, java)
        for n, arch in enumerate((model, random_model(rng))):
            _assert_folds(arch, [root], Path(temp) / f"store{n}")


def test_the_fold_gives_the_whole_model_report_of_drifting_code() -> None:
    """Random code models that cover, miss, name unknown elements and wire
    undeclared connections, with element annotations at the edges of the
    referent rule."""
    for seed in range(150):
        rng = random.Random(seed)
        model = random_model(rng)
        code = with_odd_elements(rng, model, random_code_for(rng, model))
        assert run_all(model, code) == run_all_oracle.run_all(model, code), seed


def test_a_finding_without_a_location_sorts_before_every_file() -> None:
    """A code model built by hand may hold extraction findings without a
    location: the fold puts them with check 1's, in report order."""
    rng = random.Random(7)
    model = random_model(rng)
    scanned = random_code_for(rng, model)
    odd = [
        finding("IO_ERROR", "no place"),
        finding("MALFORMED_PRAGMA", "z", locations=[SourceLocation("a", 1, 1)]),
    ]
    code = CodeModel.build(scanned.instances, [*scanned.findings, *odd])
    assert run_all(model, code) == run_all_oracle.run_all(model, code)

