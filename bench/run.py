"""Benchmark the archlint CLI on seeded workloads, with a correctness gate.

    python3 bench/run.py --workload java-scan --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a checkout: archlint is imported from the
checkout's `src/`, and generated trees go to `.bench_work/` at its root.

With `--trace 0` every operation is a fresh `python -m archlint` process,
run one at a time. Set-up (generate the tree, write it, one warm-up
`check`) is repeated and its median reported as `setup_s`. Then rounds of
check, smells, the workload's lookups and the refactoring plan run until
`--seconds` have passed, and the median per command is reported.

The speed of a shared machine drifts by tens of percent within a minute,
so every reported time is speed-normalized: a fixed pure-Python reference
loop is timed between consecutive operations, each operation's wall time
is divided by the mean of the reference times around it, and the ratio is
scaled by REFERENCE_NOMINAL_S. On a machine running the reference loop in
REFERENCE_NOMINAL_S, the reported numbers are plain wall-clock seconds.
Raw wall-clock medians go to stderr. The benchmark pins itself, and so
every archlint process it starts, to one CPU, so the reference loop and
the operation run on the same CPU.

With `--trace 1` the same operations run in this process through
`archlint.cli.main`, at full and half size, with spans recorded around
archlint's public functions; the per-layer metrics come from those spans.
The traced run makes a fixed number of passes and ignores `--seconds`.

Every output is checked against the answers the generator planted. The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracing  # noqa: E402
from verify import Op, Verifier  # noqa: E402

SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report-schema.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

SIZES = {"java-scan": 24, "pragma-drift": 640, "connector-dense": 100}
SETUPS = 5
TRACE_PASSES = 3
UNTRACED_CHECKS = 3
OP_TIMEOUT_S = 120
REFERENCE_NOMINAL_S = 0.045
_REFERENCE_TEXT = "".join(f"    private int field{i} = {i * 7}; // note {i}\n" for i in range(200))


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"an operation ran longer than {OP_TIMEOUT_S} s")


def operations(workload: gen.Workload, root: Path) -> list[Op]:
    """One round: check, smells, each lookup ref, then the refactoring plan."""
    common = ["--src", str(root / "src"), "--config", str(root / "archlint.conf"), "--format", "json"]
    arch = ["--arch", str(root / "app.arch")]
    ops = [
        Op("check", ("check", *arch, *common)),
        Op("smells", ("smells", *arch, *common)),
    ]
    ops += [Op("lookup", ("lookup", *arch, *common, ref), ref) for ref in workload.lookups]
    plan = ["--plan", str(root / "app.plan")]
    ops.append(Op("refactor", ("refactor", "--arch", str(root / "refactor" / "app.arch"), *common, *plan)))
    return ops


def fresh_refactor_input(root: Path) -> None:
    work = root / "refactor"
    work.mkdir(exist_ok=True)
    shutil.copyfile(root / "app.arch", work / "app.arch")
    (work / "app.refactored.arch").unlink(missing_ok=True)


def refactored_text(root: Path) -> str:
    path = root / "refactor" / "app.refactored.arch"
    return path.read_text(encoding="utf-8") if path.exists() else ""


def setup(name: str, seed: int, size: int, root: Path) -> tuple[gen.Workload, list[Op], Verifier]:
    workload = gen.build(name, seed, size)
    workload.write(root)
    return workload, operations(workload, root), Verifier(workload.answers, SCHEMA)


class Tally:
    """Operations attempted and failed; the first few problems go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                for problem in problems:
                    print(f"bench: WRONG: {problem[:500]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# untraced: one archlint process per operation


def reference_s() -> float:
    """Wall time of a fixed lexer-like loop: the machine's current speed."""
    start = time.perf_counter()
    seen: dict[tuple[str, str], int] = {}
    for _ in range(50):
        word: list[str] = []
        for ch in _REFERENCE_TEXT:
            if ch.isalnum() or ch == "_":
                word.append(ch)
            elif word:
                token = ("ident", "".join(word))
                seen[token] = seen.get(token, 0) + 1
                word = []
    return time.perf_counter() - start


def run_cli(op: Op, root: Path, env: dict[str, str]) -> tuple[int, str, float, float]:
    """(exit code, stdout, wall seconds, child max RSS in MB) of one CLI call."""
    out_path, err_path = root / "stdout.txt", root / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "archlint", *op.argv], stdout=out, stderr=err, env=env, cwd=root
        )
        try:
            signal.alarm(OP_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024


def run_timed(name: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    root = WORK / name
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    peak_rss = 0.0
    raw: dict[str, list[float]] = {}
    reference = [reference_s()]

    def normalized(wall: float) -> float:
        """Wall time scaled to the reference speed measured just before and after."""
        reference.append(reference_s())
        return wall * REFERENCE_NOMINAL_S / ((reference[-2] + reference[-1]) / 2)

    def run(op: Op, verifier: Verifier) -> float:
        nonlocal peak_rss
        if op.command == "refactor":
            fresh_refactor_input(root)
        code, stdout, wall, rss = run_cli(op, root, env)
        peak_rss = max(peak_rss, rss)
        extra = refactored_text(root) if op.command == "refactor" else ""
        tally.record(verifier.verify(op, code, stdout, extra))
        return wall

    # Set-up is generate, write and warm-up check; each phase is normalized
    # on its own, because the machine's speed can change within one set-up.
    setup_times = []
    for _ in range(SETUPS):
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        workload = gen.build(name, seed, SIZES[name])
        built = time.perf_counter() - start
        phases = [normalized(built)]
        start = time.perf_counter()
        workload.write(root)
        written = time.perf_counter() - start
        phases.append(normalized(written))
        ops, verifier = operations(workload, root), Verifier(workload.answers, SCHEMA)
        warm = run(ops[0], verifier)
        phases.append(normalized(warm))
        setup_times.append(sum(phases))
        raw.setdefault("setup_s", []).append(built + written + warm)

    # Each round runs every op once; a round's lookup sample is the mean over
    # the workload's lookup refs.
    samples: dict[str, list[float]] = {"check": [], "smells": [], "lookup": [], "refactor": []}
    deadline = time.perf_counter() + seconds
    while not samples["check"] or time.perf_counter() < deadline:
        lookups = []
        for op in ops:
            wall = run(op, verifier)
            raw.setdefault(f"{op.command}_s", []).append(wall)
            (lookups if op.command == "lookup" else samples[op.command]).append(normalized(wall))
        samples["lookup"].append(statistics.fmean(lookups))

    metrics = {f"{cmd}_s": statistics.median(values) for cmd, values in samples.items()}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss
    for key, values in (("setup_s", setup_times), *((f"{c}_s", v) for c, v in samples.items())):
        print(
            f"bench: {key:12s} median {statistics.median(values):.4f}  "
            f"min {min(values):.4f}  max {max(values):.4f}  n={len(values):<3d} "
            f"raw wall median {statistics.median(raw[key]):.4f}",
            file=sys.stderr,
        )
    print(
        f"bench: peak RSS {peak_rss:.1f} MB, "
        f"reference loop median {statistics.median(reference):.4f} s "
        f"(nominal {REFERENCE_NOMINAL_S})",
        file=sys.stderr,
    )
    return metrics


# ---------------------------------------------------------------------------
# traced: the same operations in this process, with spans


def run_traced(name: str, seed: int, tally: Tally) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import archlint
    from archlint import cli

    if Path(archlint.__file__).resolve().parent != SRC / "archlint":
        raise SystemExit(f"bench: archlint was imported from {archlint.__file__}, not {SRC}")

    sizes = {"half": SIZES[name] // 2, "full": SIZES[name]}
    shutil.rmtree(WORK / name, ignore_errors=True)
    setups = {label: setup(name, seed, size, WORK / name / label) for label, size in sizes.items()}

    def run(label: str, op: Op, tracer: tracing.Tracer | None = None) -> float:
        verifier = setups[label][2]
        root = WORK / name / label
        if op.command == "refactor":
            fresh_refactor_input(root)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = tracer.operation("cli.main", cli.main, list(op.argv))
        wall = time.perf_counter() - start
        extra = refactored_text(root) if op.command == "refactor" else ""
        tally.record(verifier.verify(op, code, out.getvalue(), extra))
        return wall

    full_check = setups["full"][1][0]
    run("full", full_check)
    untraced = statistics.median(run("full", full_check) for _ in range(UNTRACED_CHECKS))

    tracer = tracing.Tracer()
    tracer.install(archlint)
    passes: dict[str, list[dict[str, float]]] = {"half": [], "full": []}
    last_full: list[list] = []
    for _ in range(TRACE_PASSES):
        for label in ("half", "full"):
            tracer.spans = []
            ops_by_command: dict[str, list[int]] = {}
            for op in setups[label][1]:
                run(label, op, tracer)
                ops_by_command.setdefault(op.command, []).append(tracer.op)
            profile = tracing.Profile(tracer.spans)
            passes[label].append(layer_metrics(profile, ops_by_command, WORK / name / label / "src"))
            if label == "full":
                last_full = tracer.spans

    metrics = {key: statistics.median(p[key] for p in passes["full"]) for key in passes["full"][0]}
    for key in ("scan.scan_tree", "refactor.lookup", "refactor.apply_plan", "smells.lifecycle"):
        half = statistics.median(p[f"{key}_s"] for p in passes["half"])
        metrics[f"{key}_growth"] = tracing.growth(metrics[f"{key}_s"], half)
    metrics["trace.overhead_ratio"] = metrics.pop("cli.check_main_s") / untraced

    answers = setups["full"][0].answers
    expected = {
        "scan.files": answers["src_files"],
        "scan.files_excluded": answers["excluded_files"],
        "annotations.instances": answers["instances"],
    }
    for key, want in expected.items():
        tally.record([] if metrics[key] == want else [f"traced {key} = {metrics[key]}, expected {want}"])

    trace_path = WORK / name / "trace.jsonl"
    tracing.write(last_full, trace_path)
    print_breakdown(last_full)
    print(f"bench: spans of the last full-size pass written to {trace_path}", file=sys.stderr)
    return metrics


def layer_metrics(p: tracing.Profile, ops: dict[str, list[int]], src: Path) -> dict[str, float]:
    def total(name: str) -> float:
        return p.total.get(name, 0.0)

    check_op, smells_op = ops["check"][0], ops["smells"][0]
    files = p.calls_in("annotations.extract_", check_op)
    chars = p.note_sum("annotations.extract_attributes", "chars") + p.note_sum(
        "annotations.extract_pragmas", "chars"
    )
    on_disk = sum(1 for path in src.rglob("*") if path.is_file())
    check_main = next(s for s in p.spans if s[0] == check_op and s[3] == "cli.main")
    return {
        "scan.scan_tree_s": total("scan.scan_tree"),
        "scan.other_s": p.self_time.get("scan.scan_tree", 0.0),
        "scan.files": files,
        "scan.files_excluded": on_disk - files,
        "scan.mb_per_s": chars / 1e6 / total("scan.scan_tree"),
        "annotations.extract_attributes_s": total("annotations.extract_attributes"),
        "annotations.extract_pragmas_s": total("annotations.extract_pragmas"),
        "annotations.resolve_context_s": total("annotations.resolve_context"),
        "annotations.validate_targets_s": total("annotations.validate_targets"),
        "annotations.instances": p.note_sum("scan.scan_tree", "instances", check_op),
        "annotations.findings": p.note_sum("scan.scan_tree", "findings", check_op),
        "adl.parse_s": total("adl.parse"),
        "adl.serialize_s": total("adl.serialize"),
        "model.validate_s": total("model.validate"),
        "conformance.annotation_completeness_s": total("conformance.annotation_completeness"),
        "conformance.architecture_completeness_s": total("conformance.architecture_completeness"),
        "conformance.connection_consistency_s": total("conformance.connection_consistency"),
        "conformance.fingerprint_s": p.self_time.get("conformance.run_all", 0.0),
        "conformance.run_all_s": total("conformance.run_all"),
        "conformance.findings": p.note_sum("conformance.run_all", "findings", check_op),
        "smells.scattered_s": total("smells.scattered"),
        "smells.lifecycle_s": total("smells.lifecycle"),
        "smells.findings": p.note_sum("smells.scattered", "findings", smells_op)
        + p.note_sum("smells.lifecycle", "findings", smells_op),
        "refactor.lookup_s": total("refactor.lookup"),
        "refactor.connector_usages_s": total("refactor.connector_usages"),
        "refactor.parse_plan_s": total("refactor.parse_plan"),
        "refactor.apply_plan_s": total("refactor.apply_plan"),
        "refactor.touched_refs": p.note_sum("refactor.apply_plan", "touched"),
        "cli.main_s": total("cli.main"),
        "cli.other_s": p.self_time.get("cli.main", 0.0),
        "cli.check_main_s": check_main[5] - check_main[4],
    }


def print_breakdown(spans: list[list]) -> None:
    """Per operation of one pass: wall time and the largest self times."""
    for op in sorted({s[0] for s in spans}):
        op_spans = [s for s in spans if s[0] == op]
        profile = tracing.Profile(op_spans)
        main_time = profile.total["cli.main"]
        top = sorted(profile.self_time.items(), key=lambda kv: -kv[1])[:4]
        shown = ", ".join(f"{k} {v / main_time:.0%}" for k, v in top)
        print(f"bench: op {op}: {main_time:.3f} s self: {shown}", file=sys.stderr)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "archlint" / "__init__.py", SCHEMA, SPEC):
        if not needed.is_file():
            print(f"bench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The reference loop and every archlint process share one CPU, so the
    # normalization measures the speed of the CPU the operation ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    tally = Tally()
    if args.trace:
        metrics = run_traced(args.workload, args.seed, tally)
    else:
        metrics = run_timed(args.workload, args.seed, args.seconds, tally)
    print(
        f"bench: {tally.attempted} operation(s), {tally.failed} wrong, "
        f"error rate {tally.failed / max(tally.attempted, 1):.4f}",
        file=sys.stderr,
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
