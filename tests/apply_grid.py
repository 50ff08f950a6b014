"""A grid of refactoring steps and whether `apply_op` accepts each.

Each seed draws a `random_model` and then a chain of steps, alternating
`_candidate_op` (fresh names, mostly accepted) with `colliding_op` (names
the model declares, mostly refused); an accepted step's result is the model
the next step meets. Then each seed's first model meets the two
`shadowing_ops` steps (a port given a part's name, then the part taken
away), on lines whose seed column reads `shadow <seed>`. `grid_report` gives one line per step: the seed, the
`op_text`, then `ok`, the paths of the touched elements in sorted order and
the first 16 hex digits of the SHA-256 of the serialized result, or
`refused`. Refusal reasons stay out, so the grid pins which steps apply and
what they build, not how a refusal is worded. The golden
`tests/data/golden/apply_grid.golden.txt` holds its output.
"""

from __future__ import annotations

import hashlib
import random

from archlint.adl import serialize_architecture
from archlint.errors import PreconditionError
from archlint.model import ArchitectureModel
from archlint.refactor import RefactoringOp, apply_op, op_text
from modelgen import _candidate_op, colliding_op, random_model, shadowing_ops

SEEDS = range(250)
STEPS = 8


def _outcome(model: ArchitectureModel, op: RefactoringOp) -> tuple[str, ArchitectureModel]:
    try:
        new_model, touched = apply_op(model, op)
    except PreconditionError:
        return "refused", model
    refs = " ".join(ref.path for ref in sorted(touched, key=lambda r: r.sort_key()))
    digest = hashlib.sha256(serialize_architecture(new_model).encode("utf-8")).hexdigest()[:16]
    return f"ok {refs} {digest}", new_model


def grid_report() -> str:
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        for step in range(STEPS):
            op = (colliding_op if step % 2 else _candidate_op)(rng, model)
            if op is None:
                continue
            outcome, model = _outcome(model, op)
            lines.append(f"{seed}\t{op_text(op)}\t{outcome}\n")
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        for op in shadowing_ops(rng, model):
            outcome, model = _outcome(model, op)
            lines.append(f"shadow {seed}\t{op_text(op)}\t{outcome}\n")
    return "".join(lines)
