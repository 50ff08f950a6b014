"""Each plan step carries what the step before it knew.

`apply_plan` resolves every connection annotation at its first step, and at
a later step only those that the step before changed; `apply_op` builds its
result's connector index and validation from its input's. Each is held to a
computation from scratch: `references` under a model built afresh,
`validate_model` and `ConnectorIndex` of it, and a step applied by the rule
`apply_op` states with nothing carried.
"""

import random

import pytest

from archlint.adl import parse_architecture
from archlint.annotations import AnnotationInstance, AnnotationKind, CodeModel, TargetKind
from archlint.conformance import references, resolve_connection
from archlint.errors import PlanError, PreconditionError
from archlint.findings import SourceLocation
from archlint.model import (
    ArchitectureModel,
    Component,
    ConnectorIndex,
    ElementRef,
    Part,
    Port,
    parse_ref,
    validate_model,
)
from archlint.refactor import (
    OPERATIONS,
    RefactoringPlan,
    _carry,
    apply_op,
    apply_plan,
    op_name,
    op_text,
    parse_plan,
)
from modelgen import (
    colliding_op,
    random_code_for,
    random_model,
    random_op_sequence,
    shadowing_ops,
    with_odd_connections,
)

_HANDLER = {row.cls: row.apply for row in OPERATIONS}


def _afresh(model: ArchitectureModel) -> ArchitectureModel:
    """The same model with nothing cached."""
    return ArchitectureModel(model.components, model.connectors)


def _state(index: ConnectorIndex) -> tuple:
    """What an index holds, an unresolved side as its message."""
    sides = {
        conn: tuple(side if isinstance(side, ElementRef) else str(side) for side in pair)
        for conn, pair in index.sides.items()
    }
    return (sides, index.triples, index.by_pair, index.by_id, index.by_ref)


def _from_scratch(model: ArchitectureModel, op) -> ArchitectureModel:
    """`op` applied to `model` by the rule `apply_op` states, with nothing
    carried: a step is refused when its input or result is not well-formed,
    with the first finding, or when it changes nothing."""

    def require(which: str, checked: ArchitectureModel) -> None:
        problems = validate_model(checked)
        if problems:
            raise PreconditionError(
                op_name(op), f"{which} model is not well-formed: {problems[0].message}",
                problems[0].element,
            )

    model = _afresh(model)
    require("input", model)
    new_model = _HANDLER[type(op)](model, op)
    if new_model == model:
        raise PreconditionError(op_name(op), "the step changes nothing")
    new_model = _afresh(new_model)
    require("resulting", new_model)
    return new_model


def _assert_each_entry_from_scratch(model: ArchitectureModel, report, code: CodeModel) -> None:
    before = model
    for entry in report.entries:
        expected = references(code, entry.touched, _afresh(before))
        assert entry.instances == expected, op_text(entry.op)
        before = _from_scratch(before, entry.op)


def test_every_step_of_a_plan_equals_a_fresh_start() -> None:
    """At every step of 1,000 seeded `random_op_sequence` chains of up to 50
    steps, over code with odd connections, the impact entry equals
    `references` under the pre-step model built afresh, and the carried
    validation and connector index equal those of the step's model."""
    rng = random.Random(3401)
    odd = random.Random(3402)  # apart, so `rng` draws the same chains
    steps = 0
    seen = set()
    for _ in range(1000):
        model = random_model(rng, max_components=rng.randint(2, 8))
        code = with_odd_connections(odd, random_code_for(rng, model))
        ops, end = random_op_sequence(rng, model, max_len=rng.randint(1, 50))
        if not ops:
            continue
        out, report = apply_plan(model, RefactoringPlan("oracle", tuple(ops)), code)
        assert out == end
        before, fresh_before = model, _afresh(model)
        for entry in report.entries:
            expected = references(code, entry.touched, fresh_before)
            assert entry.instances == expected, op_text(entry.op)
            after, touched = apply_op(before, entry.op)
            assert touched == frozenset(entry.touched)
            fresh = _afresh(after)  # its index is built from scratch, by `validate_model`
            assert after.validation == tuple(validate_model(fresh)) == ()
            assert _state(after.connector_index) == _state(fresh.connector_index), op_text(entry.op)
            seen.add(type(entry.op))
            before, fresh_before = after, fresh
            steps += 1
    assert len(seen) == len(OPERATIONS)
    assert steps >= 10_000


def test_a_refused_step_is_worded_as_from_scratch() -> None:
    """A step refused after carried steps, drawn by `colliding_op` or as the
    two `shadowing_ops` steps, gives the reason and ref that the rule gives
    with nothing carried; a step it accepts builds the same model."""
    rng = random.Random(3403)
    refused = carried = 0
    for _ in range(400):
        model = random_model(rng)
        prefix, current = random_op_sequence(rng, model, max_len=rng.randint(0, 6))
        collide = colliding_op(rng, current)
        for tail in ([collide] if collide else [], shadowing_ops(rng, current)):
            if not tail:
                continue
            ops = tuple(prefix + tail)
            expected: object = model
            failed_at = None
            for step, op in enumerate(ops, start=1):
                try:
                    expected = _from_scratch(expected, op)
                except PreconditionError as err:
                    failed_at, expected = step, (err.reason, err.ref)
                    break
            try:
                got, _ = apply_plan(model, RefactoringPlan("p", ops), CodeModel.build([]))
            except PlanError as err:
                assert (err.step, (err.cause.reason, err.cause.ref)) == (failed_at, expected)
                refused += 1
                carried += err.step > 1
            else:
                assert failed_at is None and got == expected
    assert refused >= 200 and carried >= 100


def _connects(left: str, right: str, line: int, enclosing: tuple[str, ...] = (), **attrs: str):
    return AnnotationInstance(
        AnnotationKind.CONNECTS, (), {"left": left, "right": right, **attrs}, TargetKind.METHOD,
        f"link{line}", enclosing, SourceLocation("A.java", line, 1), "gen",
    )


def _impact(arch_text: str, plan_text: str, *instances: AnnotationInstance):
    """Each entry's impact of the plan, after checking every entry against
    `references` from scratch."""
    arch, code = parse_architecture(arch_text), CodeModel.build(instances)
    _, report = apply_plan(arch, parse_plan(plan_text), code)
    _assert_each_entry_from_scratch(arch, report, code)
    return [entry.instances for entry in report.entries]


def test_an_added_connector_matches_an_annotation_that_never_named_it() -> None:
    wire = _connects("A.p", "B.q", 1, type="RIGHT")
    first, second = _impact(
        "component A { port p; }\ncomponent B { port q; }\n",
        "add-connector(c1, /, A.p, B.q, RIGHT)\nrename-element(/c1, c2)\n",
        wire,
    )
    assert first[parse_ref("/c1")] == ()
    assert second[parse_ref("/c1")] == (wire,)


def test_a_removed_connector_no_longer_matches() -> None:
    wire = _connects("A.p", "B.q", 1, type="RIGHT")
    first, second = _impact(
        "component A { port p; }\ncomponent B { port q; }\nconnector c1: A.p -> B.q;\n",
        "remove-connector(c1)\nadd-connector(c1, /, A.p, B.q, LEFT)\n",
        wire,
    )
    assert first[parse_ref("/c1")] == (wire,)
    assert second[parse_ref("/c1")] == ()


def test_a_split_makes_a_root_path_resolve() -> None:
    """`Ta` is no component until the split declares it top-level: the root
    annotation then reaches `Ta#a`."""
    wire = _connects("Ta.a", "U.u", 1)
    _, second = _impact(
        "component T { port a; port b; }\ncomponent U { port u; }\nconnector k: T.a -> U.u;\n",
        "split-component(T, Ta, Tb, a=Ta, b=Tb)\nrename-element(Ta#a, a2)\n",
        wire,
    )
    assert second[parse_ref("Ta#a")] == (wire,)


def test_a_component_rename_makes_a_root_path_resolve() -> None:
    wire, other = _connects("Z.p", "B.q", 1), _connects("B.q", "C.r", 2)
    _, second = _impact(
        "component A { port p; }\ncomponent B { port q; }\ncomponent C { port r; }\n",
        "rename-element(A, Z)\nrename-element(Z#p, p2)\n",
        wire, other,
    )
    assert second[parse_ref("Z#p")] == (wire,)


def test_a_component_rename_reached_through_a_part_type() -> None:
    wire = _connects("w.q", "v.r", 1, ("Outer",), type="RIGHT")
    first, second = _impact(
        "component Outer { part w: W; part v: V; connector k: w.q -> v.r; }\n"
        "component W { port q; }\ncomponent V { port r; }\n",
        "rename-element(W, W2)\nrename-element(W2#q, q2)\n",
        wire,
    )
    assert first[parse_ref("W#q")] == (wire,)
    assert second[parse_ref("W2#q")] == (wire,)


def test_a_refusal_after_carried_steps_keeps_its_wording() -> None:
    arch = parse_architecture(
        "component A { port p; port q; }\ncomponent B { port r; }\nconnector c1: A.p -> B.r;\n"
    )
    refusals = {
        "rename-element(B, A)": "component 'A' declared more than once",
        "add-connector(c2, /, A.q, B.r, RIGHT)\nadd-connector(c3, /, B.r, A.q, LEFT)":
            "connector 'c3' duplicates an existing connector in the same context (A#q / B#r RIGHT)",
        "add-connector(c1, /, A.q, B.s, RIGHT)": "connector id 'c1' declared more than once",
        "add-connector(c2, /, A.q, A.q, RIGHT)": "connector 'c2' joins 'A#q' to itself",
    }
    for steps, message in refusals.items():
        text = f"add-port(B, s)\n{steps}\n"
        plan = parse_plan(text)
        with pytest.raises(PlanError) as refused:
            apply_plan(arch, plan, CodeModel.build([]))
        err = refused.value
        assert err.step == len(plan.ops) and err.cause.reason == (
            f"resulting model is not well-formed: {message}"
        ), text
        expected = arch
        for op in plan.ops[:-1]:
            expected = _from_scratch(expected, op)
        with pytest.raises(PreconditionError) as scratch:
            _from_scratch(expected, plan.ops[-1])
        assert (scratch.value.reason, scratch.value.ref) == (err.cause.reason, err.cause.ref)


def _carried(old_text: str, **replaced: Component | None):
    """`_carry` of a step that replaces the declaration of each named
    component, or drops it for None, as no operation spells yet (an
    `add-part`, a `remove-component`); the new model's index and
    validation equal those of it built afresh."""
    old = parse_architecture(old_text)
    kept = [comp for comp in old.components if comp.name not in replaced]
    new = ArchitectureModel([*kept, *filter(None, replaced.values())], old.connectors)
    changes = _carry(old, new)
    fresh = _afresh(new)
    assert new.validation == tuple(validate_model(fresh))
    assert _state(new.connector_index) == _state(fresh.connector_index)
    return old, new, changes


def test_a_part_added_to_one_component_flips_anothers_top_level_status() -> None:
    """A part typed `Z` leaves `Z` declared as it was, but no longer
    top-level: the root connector and the root annotation that start at it
    are resolved again, though the annotation names no changed component."""
    wire = _connects("Z.p", "W.r", 1)  # matches no connector
    old, new, changes = _carried(
        "component Y { port y; }\ncomponent Z { port p; }\ncomponent W { port q; port r; }\n"
        "connector k: Z.p -> W.q;\n",
        Y=Component("Y", (Port("y"),), (Part("z", "Z"),)),
    )
    assert [f.check_id for f in new.validation] == ["UNRESOLVED_ENDPOINT"]
    code = CodeModel.build([wire])
    assert changes(resolve_connection(old, wire))
    assert references(code, [parse_ref("Z#p")], old)[parse_ref("Z#p")] == (wire,)
    assert references(code, [parse_ref("Z#p")], new)[parse_ref("Z#p")] == ()


def test_a_removed_part_type_is_found_in_an_unchanged_holder() -> None:
    _, new, _ = _carried("component Y { part z: Z; }\ncomponent Z { port p; }\n", Z=None)
    assert [f.check_id for f in new.validation] == ["UNRESOLVED_PART_TYPE"]
