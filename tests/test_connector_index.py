"""The per-model connector index: linear cost and per-model lifetime.

The cost test counts endpoint walks instead of timing anything: every
connector query resolves endpoints through `walk_endpoint`, so a quadratic
path shows up as a call count that quadruples when the model doubles. The
code model's once-per-model index of element annotations is checked the
same way, by counting the element annotations `index_elements` reads.
"""

import sys

from archlint import annotations as annotations_module
from archlint import conformance as conformance_module
from archlint import model as model_module
from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, TargetKind
from archlint.findings import SourceLocation
from archlint.model import (
    ArchitectureModel,
    Component,
    Connector,
    Direction,
    ElementRef,
    EndpointPath,
    Part,
    Port,
    ROOT_CONTEXT,
)
from archlint.conformance import connector_usages, instance_refs, lookup
from archlint.refactor import (
    AddPort,
    RefactoringPlan,
    RenameElement,
    apply_op,
    apply_plan,
)
from archlint.smells import smell_connector_lifecycle


def _chain(n: int) -> ArchitectureModel:
    """Hub (with one part) plus components C0..C{n-1} wired by root connectors c0..c{n-2}."""
    components = [Component("Hub", parts=(Part("core", "Core"),)), Component("Core")]
    components += [Component(f"C{k}", ports=(Port("a"), Port("b"))) for k in range(n)]
    connectors = [
        Connector(
            f"c{k}",
            ROOT_CONTEXT,
            EndpointPath((f"C{k}", "b")),
            EndpointPath((f"C{k + 1}", "a")),
            Direction.RIGHT,
        )
        for k in range(n - 1)
    ]
    return ArchitectureModel(tuple(components), tuple(connectors))


def _chain_code(n: int) -> CodeModel:
    """One resolving @Connects per connector of `_chain(n)`, plus the hub's part."""
    instances = [
        AnnotationInstance(
            AnnotationKind.PART, ("core",), {}, TargetKind.FIELD, "core", ("Hub",),
            SourceLocation("Hub.java", 1, 1), "gen",
        )
    ]
    for k in range(n - 1):
        attrs = {"left": f"C{k}.b", "right": f"C{k + 1}.a", "type": "RIGHT"}
        instances.append(
            AnnotationInstance(
                AnnotationKind.CONNECTS, (), attrs, TargetKind.METHOD, f"link{k}", (),
                SourceLocation(f"C{k}.java", 1, 1), "gen",
            )
        )
    return CodeModel.build(instances)


def _count_calls(monkeypatch, home, function: str, counted=lambda *args: True) -> list[int]:
    """Count the calls of `home.function` whose arguments `counted` accepts,
    wherever an archlint module bound the function."""
    calls = [0]
    original = getattr(home, function)

    def counting(*args, **kwargs):
        calls[0] += counted(*args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "archlint" and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counting)
    return calls


def _count_walks(monkeypatch) -> list[int]:
    """Count every call of the endpoint walker."""
    return _count_calls(monkeypatch, model_module, "walk_endpoint")


def _walks(calls: list[int], operation, n: int) -> int:
    """Walks made by one operation on a freshly built model and code of size n."""
    arch, code = _chain(n), _chain_code(n)
    before = calls[0]
    operation(arch, code)
    return calls[0] - before


def test_connector_queries_walk_linearly(monkeypatch) -> None:
    calls = _count_walks(monkeypatch)
    plan = RefactoringPlan(
        "grow",
        (
            AddPort("C0", "z"),
            RenameElement(ElementRef.connector(ROOT_CONTEXT, "c1"), "cz"),
            RenameElement(ElementRef.part("Hub", "core"), "heart"),
        ),
    )
    operations = {
        "lookup": lambda arch, code: lookup(code, ElementRef.part("Hub", "core"), arch),
        "apply_plan": lambda arch, code: apply_plan(arch, plan, code),
        "lifecycle": lambda arch, code: smell_connector_lifecycle(arch, code),
    }
    for name, operation in operations.items():
        small = _walks(calls, operation, 60)
        large = _walks(calls, operation, 120)
        assert small > 0, name
        assert large <= 2.2 * small, (name, small, large)


def test_apply_plan_reads_each_element_annotation_once(monkeypatch) -> None:
    """Element annotations reference the same elements in every model, so a
    code model's index reads each of them once (`index_elements`), however
    many plans and steps read it."""
    chain = _chain_code(8).instances
    components = tuple(
        AnnotationInstance(
            AnnotationKind.COMPONENT, (f"C{k}",), {}, TargetKind.TYPE, f"C{k}", (),
            SourceLocation(f"C{k}.java", 1, 1), "gen",
        )
        for k in range(8)
    )
    arch, code = _chain(8), CodeModel.build(chain + components)
    elements = sum(inst.kind.usage is None for inst in code.instances)
    calls = _count_calls(
        monkeypatch, annotations_module, "index_elements",
        lambda instances: sum(inst.kind.usage is None for inst in instances),
    )
    for steps in (1, 6):
        plan = RefactoringPlan("grow", tuple(AddPort(f"C{k}", "z") for k in range(steps)))
        _, report = apply_plan(arch, plan, code)
        assert len(report.entries) == steps
    assert calls[0] == elements == 9


def test_instance_refs_walks_each_endpoint_once(monkeypatch) -> None:
    arch, code = _chain(4), _chain_code(4)
    arch.connector_index  # built before counting
    original = model_module.walk_endpoint
    calls = _count_walks(monkeypatch)
    counting = model_module.walk_endpoint
    assert counting is not original and conformance_module.walk_endpoint is counting

    link1 = next(inst for inst in code.instances if inst.target_name == "link1")
    refs = instance_refs(link1, arch)
    assert calls[0] == 2
    assert refs == {
        ElementRef.component("C1"),
        ElementRef.port("C1", "b"),
        ElementRef.component("C2"),
        ElementRef.port("C2", "a"),
        ElementRef.connector(ROOT_CONTEXT, "c1"),
    }


def test_a_ref_declared_twice_gets_each_annotation_once() -> None:
    """A hand-built model may declare one connector ref twice (the ADL parser
    refuses that): every query files an annotation under the ref once when
    it matches either declaration."""

    def side(port: str) -> tuple[EndpointPath, EndpointPath]:
        return (EndpointPath(("A", port)), EndpointPath(("B", "r")))

    arch = ArchitectureModel(
        (Component("A", ports=(Port("p"), Port("q"))), Component("B", ports=(Port("r"),))),
        (
            Connector("c1", ROOT_CONTEXT, *side("p"), Direction.RIGHT),
            Connector("c1", ROOT_CONTEXT, *side("q"), Direction.RIGHT),
            Connector("c2", ROOT_CONTEXT, *side("p"), Direction.RIGHT),
            Connector("c2", ROOT_CONTEXT, *side("p"), Direction.LEFT),
        ),
    )
    instances = [
        AnnotationInstance(
            kind, (), {"left": f"A.{port}", "right": "B.r"}, TargetKind.METHOD, name, (),
            SourceLocation("A.java", line, 1), "gen",
        )
        for line, (kind, port, name) in enumerate(
            [
                (AnnotationKind.CONNECTS, "p", "open"),
                (AnnotationKind.CONNECTS, "q", "reopen"),
                (AnnotationKind.DISCONNECTS, "p", "close"),
            ],
            start=1,
        )
    ]
    code = CodeModel.build(instances)
    for cid in ("c1", "c2"):
        ref = ElementRef.connector(ROOT_CONTEXT, cid)
        usages = connector_usages(code, ref, arch)
        assert list(usages.connects + usages.disconnects) == lookup(code, ref, arch), cid
    messages = [f.message for f in smell_connector_lifecycle(arch, code)]
    assert messages == ["connector '/c1' has more than one connecting method (2)"]


def test_renamed_connector_is_found_through_the_new_models_index() -> None:
    arch, code = _chain(6), _chain_code(6)
    old_ref = ElementRef.connector(ROOT_CONTEXT, "c3")
    new_ref = ElementRef.connector(ROOT_CONTEXT, "cZ")
    wired = lookup(code, old_ref, arch)
    assert [inst.target_name for inst in wired] == ["link3"]

    renamed, _ = apply_op(arch, RenameElement(old_ref, "cZ"))
    assert lookup(code, new_ref, renamed) == wired
    assert lookup(code, old_ref, renamed) == []
    assert lookup(code, old_ref, arch) == wired


def test_built_index_stays_out_of_equality_and_hash() -> None:
    built, fresh = _chain(5), _chain(5)
    assert built.connector_index.by_id["c2"].id == "c2"
    assert "connector_index" in vars(built)
    assert "connector_index" not in vars(fresh)
    assert built == fresh
    assert hash(built) == hash(fresh)
