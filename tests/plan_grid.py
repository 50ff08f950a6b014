"""A grid of plan lines and what `parse_plan` makes of each.

Every operation word is tried with every argument list, so each argument
reader meets every kind of argument, and each arity rule meets too few and
too many arguments. A few whole plans cover comments, blank lines, line
numbers and the empty plan. `grid_report` gives one line per case: the
input, then the `op_text` of each parsed operation or the error message.
The golden `tests/data/golden/plan_grid.golden.txt` holds its output.
"""

from __future__ import annotations

import json

from archlint.errors import PlanParseError
from archlint.refactor import op_text, parse_plan

OP_WORDS = (
    "add-port",
    "remove-port",
    "add-connector",
    "remove-connector",
    "split-component",
    "rename-element",
    "move-part",
    "warp-core",
    "Add-Port",
)

ARG_LISTS = (
    "",
    "A",
    "A, p",
    "A, p, q",
    "1A, p",
    "A, 9p",
    "A, ",
    "  A ,\tp  ",
    "c, /, A.p, B.q, RIGHT",
    "c, S, a.p, b.q, BIDIR",
    "c, S, a, b.q.r, LEFT",
    "c, S, a.p, b.q, SIDEWAYS",
    "c, S, a..p, b.q, LEFT",
    "c, S, a.p, b.q, right",
    "c, S/x, a.p, b.q, LEFT",
    "1c, S, a.p, b.q, LEFT",
    "Model.sub, child",
    "Query#fetch, pull",
    "System/c2, c2b",
    "/c2, c3",
    "Car..x, y",
    "S, L, R",
    "S, L, R, ui=L, store=R",
    "S, L, R, x",
    "S, L, R, a=L, a=R",
    "S, L, R, 1a=L",
    "S, L, R, a=1L",
    "S, L, R,  b = R , a=L",
    "S, L, R, a=b=c",
)

WHOLE_PLANS = (
    "",
    "// only comments\n\n   // more\n",
    "add-port(A, p) // trailing comment\n\nremove-port(A, p)\n",
    "add-port(A, p)\nbogus(1)\n",
    "move-part(x, A, B)\r\nadd-port A p\n",
)


def _outcome(text: str) -> str:
    try:
        plan = parse_plan(text)
    except PlanParseError as err:
        return f"error: {err}"
    return "ok: " + " ; ".join(op_text(op) for op in plan.ops)


def grid_cases() -> list[str]:
    lines = [f"{word}({args})" for word in OP_WORDS for args in ARG_LISTS]
    return lines + list(WHOLE_PLANS)


def grid_report() -> str:
    return "".join(f"{json.dumps(case)}\t{_outcome(case)}\n" for case in grid_cases())
