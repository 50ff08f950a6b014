"""A grid of mutated inputs and the message each token parser gives.

An ADL document, four comment-pragma tails and a Java class with
annotations are each mutated at seeded positions: every case replaces,
inserts or deletes one, two or three characters, drawn from the
characters the grammars care about. Every prefix of each source is a case
too, so each parser meets the end of its input everywhere. `grid_report`
gives one line per case: the source's name, the case and its edits, then
the ADL error, or each extraction finding, or `ok` and the number of
declarations or instances. The golden
`tests/data/golden/parser_grid.golden.txt` holds its output, so it pins
the exact wording of every `expected ...` message.
"""

from __future__ import annotations

import json
import random

from archlint.adl import parse_architecture
from archlint.errors import AdlParseError
from archlint.java import extract_attributes
from archlint.pragma import extract_pragmas

ADL_DOCUMENT = """\
// architecture description
component Car {
    port io;
    part rear: Wheel [2..*];
    part e: Engine [0..1];
    part spare: Wheel [*];
    connector c1: rear <- e.p;
}
component Engine { port p; part w: Wheel [3]; }
component Wheel { }
component Garage { port door; }
connector top: Car.io <-> Garage.door;
"""

PRAGMA_TAILS = (
    'Component("Car") @on type Car',
    'Part({"rear", "spare"}) @on field rear @in Car',
    'Connects(left="e.p", right="rear", type=Direction.LEFT) @on method wire @in Car, Engine',
    'AddPart(value="w", componentname="Engine") @on constructor Engine',
)

JAVA_CLASS = '''\
package app.car;

@Component("Car")
public class Car {
    @Part("rear") Wheel rear;
    @Port(value = "io") public Car(int x) { }
    @Connects(left = "e.p", right = "rear", type = Direction.LEFT)
    void wire() { int y = 1; }
    @Connector(left = "a", right = "b") Object c;
    static class Inner { @Port({"q", "r"}) void q() {} }
    @Part("""
        w
        """) Wheel w;
}
'''

# The characters a mutation writes: the punctuation of the three grammars,
# quotes, blanks and a few word characters.
ALPHABET = '{}[]();:.,=@*<->/"\\ \n\tAaz_09'


def mutants(text: str, seed: int, count: int) -> list[tuple[str, str]]:
    """`count` (edits, mutant) pairs of `text`: case k makes 1 + k % 3 edits."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        chars = list(text)
        edits = []
        for _ in range(1 + k % 3):
            op = rng.choice("~+-") if chars else "+"
            pos = rng.randrange(len(chars) + (op == "+"))
            if op == "-":
                edits.append(f"{pos}-")
                del chars[pos]
                continue
            char = rng.choice(ALPHABET)
            edits.append(f"{pos}{op}{json.dumps(char)}")
            if op == "+":
                chars.insert(pos, char)
            else:
                chars[pos] = char
        out.append((" ".join(edits), "".join(chars)))
    return out


def _adl_outcome(text: str) -> str:
    try:
        model = parse_architecture(text)
    except AdlParseError as exc:
        return str(exc)
    return f"ok {len(model.components) + len(model.connectors)}"


def _extraction_outcome(instances, findings) -> str:
    if not findings:
        return f"ok {len(instances)}"
    messages = [
        f"{f.check_id} {f.locations[0].line}:{f.locations[0].column}: {f.message}"
        for f in findings
    ]
    return f"{' | '.join(messages)} ({len(instances)} ok)"


def _pragma_outcome(tail: str) -> str:
    return _extraction_outcome(*extract_pragmas(f"//@arch {tail}\n", "g/p.txt"))


def _java_outcome(text: str) -> str:
    return _extraction_outcome(*extract_attributes(text, "g/Car.java"))


def grid_report() -> str:
    """One line for each source unchanged (case `-`), one per mutant, and
    one per prefix of the source (case `..n`, its first n characters)."""
    sources = [
        ("adl", ADL_DOCUMENT, _adl_outcome, 1200),
        *((f"pragma{n}", tail, _pragma_outcome, 300) for n, tail in enumerate(PRAGMA_TAILS)),
        ("java", JAVA_CLASS, _java_outcome, 1200),
    ]
    lines = []
    for seed, (name, text, outcome, count) in enumerate(sources):
        lines.append(f"{name} -\t{outcome(text)}\n")
        for k, (edits, mutant) in enumerate(mutants(text, seed, count)):
            lines.append(f"{name} {k} {edits}\t{outcome(mutant)}\n")
        for cut in range(len(text)):
            lines.append(f"{name} ..{cut}\t{outcome(text[:cut])}\n")
    return "".join(lines)
