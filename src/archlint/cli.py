"""Command line surface.

Exit codes: 0 success, 1 findings at or above the --fail-on level (or a
failed refactoring plan), 2 usage, parse, or configuration errors.

The refactoring, smell and scaffold modules are imported inside the
functions that use them, so a process compiles and runs only the code of its
command.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

from . import __version__, jsontext
from .adl import parse_architecture, serialize_architecture
from .annotations import LINE_BREAKS
from .conformance import connector_usages, lookup, report_fingerprint, run_all
from .errors import AdlParseError, ArchlintError, PlanError, PlanParseError
from .findings import Finding, Severity
from .model import ArchitectureModel, RefKind, list_elements, parse_ref
from .scan import ScanConfig, SmellConfig, load_config_file, scan_tree

if TYPE_CHECKING:
    from .annotations import AnnotationInstance, CodeModel
    from .refactor import ImpactReport

class _CliError(ArchlintError):
    """Anything that should end the run with exit status 2."""


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(f"cannot read {what} '{path}': {err}") from err


def _load_architecture(args: argparse.Namespace) -> ArchitectureModel:
    """The model `--arch` describes; with a store, the one stored for its
    text, and a newly parsed model is stored."""
    path = Path(args.arch)
    text = _read_text(path, "architecture")
    stored = None
    if args.store is not None:
        from .store import ArchitectureStore

        stored = ArchitectureStore(args.store, text)
        model = stored.get()
        if model is not None:
            return model
    try:
        model = parse_architecture(text)
    except AdlParseError as err:
        raise _CliError(f"{path}: {err}") from err
    if stored is not None:
        stored.put(model)
    return model


def _load_configs(args: argparse.Namespace) -> tuple[ScanConfig, SmellConfig]:
    """Both configurations, so every command rejects a bad smell setting."""
    mapping: dict[str, str] = {}
    if args.config:
        mapping = load_config_file(Path(args.config))
    return (ScanConfig.from_mapping(mapping), SmellConfig.from_mapping(mapping))


def _scan(args: argparse.Namespace, config: ScanConfig) -> CodeModel:
    roots = [Path(p) for p in args.src]
    try:
        return scan_tree(roots, config, store=args.store)
    except FileNotFoundError as err:
        raise _CliError(str(err)) from err


_LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")


def _one_line(text: str) -> str:
    """`text` with each character `str.splitlines` breaks at written as its
    Python escape, so one record stays one line of text output."""
    return _LINE_BREAK.sub(lambda m: m[0].encode("unicode_escape").decode("ascii"), text)


def _finding_line(f: Finding) -> str:
    place = str(f.locations[0]) if f.locations else "-:0:0"
    element = f.element.path if f.element is not None else "-"
    return _one_line(f"{place} {f.severity.value} {f.check_id} {element} {f.message}")


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _instance_line(inst: AnnotationInstance) -> str:
    rendered_args = [_quoted(v) for v in inst.values]
    rendered_args += [f"{k}={_quoted(v)}" for k, v in sorted(inst.attrs.items())]
    text = f"{inst.location} @{inst.kind.value}({', '.join(rendered_args)})"
    text += f" on {inst.target.value} {inst.target_name}"
    if inst.enclosing_components:
        text += f" in {','.join(inst.enclosing_components)}"
    return _one_line(text)


def _render_report(
    findings: Sequence[Finding], fingerprint: str, fmt: str, out: TextIO
) -> None:
    if fmt == "json":
        out.write(jsontext.report(findings, fingerprint))
        return
    for f in findings:
        out.write(_finding_line(f) + "\n")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    out.write(f"{errors} error(s), {len(findings) - errors} warning(s)\n")


def _exit_for(findings: Iterable[Finding], fail_on: str) -> int:
    for f in findings:
        if f.severity is Severity.ERROR or fail_on == "warning":
            return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    arch = _load_architecture(args)
    scan_cfg, _ = _load_configs(args)
    code = _scan(args, scan_cfg)
    report = run_all(arch, code)
    _render_report(report.findings, report.fingerprint, args.format, sys.stdout)
    return _exit_for(report.findings, args.fail_on)


def cmd_extract(args: argparse.Namespace) -> int:
    scan_cfg, _ = _load_configs(args)
    code = _scan(args, scan_cfg)
    if args.format == "json":
        sys.stdout.write(jsontext.dump_code_model(code))
        return 0
    for inst in code.instances:
        sys.stdout.write(_instance_line(inst) + "\n")
    for f in code.findings:
        sys.stdout.write(_finding_line(f) + "\n")
    return 0


def cmd_smells(args: argparse.Namespace) -> int:
    from .smells import run_smells

    arch = _load_architecture(args)
    scan_cfg, smell_cfg = _load_configs(args)
    code = _scan(args, scan_cfg)
    findings = run_smells(arch, code, smell_cfg)
    _render_report(findings, report_fingerprint(arch, code), args.format, sys.stdout)
    return _exit_for(findings, args.fail_on)


def cmd_lookup(args: argparse.Namespace) -> int:
    arch = _load_architecture(args)
    scan_cfg, _ = _load_configs(args)
    code = _scan(args, scan_cfg)
    try:
        ref = parse_ref(args.element)
    except ValueError as err:
        raise _CliError(str(err)) from err
    if ref not in list_elements(arch):
        raise _CliError(f"unknown element '{ref.path}'")
    if ref.kind is RefKind.CONNECTOR:
        usages = connector_usages(code, ref, arch)
        groups = usages._asdict()
        if args.format == "json":
            sys.stdout.write(jsontext.lookup(ref.path, groups))
            return 0
        sys.stdout.write(f"connector {ref.path}\n")
        for label, group in groups.items():
            sys.stdout.write(f"  {label} ({len(group)})\n")
            for inst in group:
                sys.stdout.write(f"    {_instance_line(inst)}\n")
        return 0
    instances = lookup(code, ref, arch)
    if args.format == "json":
        sys.stdout.write(jsontext.lookup(ref.path, {"instances": instances}))
        return 0
    sys.stdout.write(f"{ref.path}: {len(instances)} annotation(s)\n")
    for inst in instances:
        sys.stdout.write(f"  {_instance_line(inst)}\n")
    return 0


def _render_impact(impact: ImpactReport, fmt: str, out: TextIO) -> None:
    from .refactor import op_text

    if fmt == "json":
        out.write(jsontext.impact(impact))
        return
    out.write(f"plan {impact.plan_name}: {len(impact.entries)} step(s)\n")
    for entry in impact.entries:
        out.write(f"step {entry.step}: {op_text(entry.op)}\n")
        for ref in entry.touched:
            instances = entry.instances[ref]
            if instances:
                out.write(f"  {ref.path}: {len(instances)} annotation(s)\n")
                for inst in instances:
                    out.write(f"    {_instance_line(inst)}\n")
            else:
                out.write(f"  {ref.path}: no annotations\n")


def cmd_refactor(args: argparse.Namespace) -> int:
    from .refactor import apply_plan, parse_plan

    arch_path = Path(args.arch)
    arch = _load_architecture(args)
    scan_cfg, _ = _load_configs(args)
    code = _scan(args, scan_cfg)
    plan_path = Path(args.plan)
    try:
        plan = parse_plan(_read_text(plan_path, "plan"), plan_path.stem)
    except PlanParseError as err:
        raise _CliError(f"{plan_path}: {err}") from err
    try:
        new_model, impact = apply_plan(arch, plan, code)
    except PlanError as err:
        print(f"archlint: PLAN_FAILED: {err}", file=sys.stderr)
        return 1
    dest = arch_path if args.in_place else arch_path.with_suffix(".refactored.arch")
    try:
        dest.write_text(serialize_architecture(new_model), encoding="utf-8")
    except OSError as err:
        raise _CliError(f"cannot write '{dest}': {err}") from err
    _render_impact(impact, args.format, sys.stdout)
    print(f"wrote {dest}", file=sys.stderr)
    return 0


def cmd_scaffold(args: argparse.Namespace) -> int:
    from .scaffold import write_scaffold

    arch = _load_architecture(args)
    try:
        written = write_scaffold(arch, Path(args.out))
    except OSError as err:
        raise _CliError(f"cannot write scaffold: {err}") from err
    for path in written:
        sys.stdout.write(f"{path}\n")
    return 0


def _add_common(parser: argparse.ArgumentParser, *, arch: bool = True) -> None:
    """The options of every command that scans sources."""
    if arch:
        parser.add_argument("--arch", required=True, help="architecture description file")
    parser.add_argument(
        "--src", action="append", required=True, metavar="DIR",
        help="source root to scan (repeatable)",
    )
    parser.add_argument("--config", help="scan and smell configuration file")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archlint",
        description="Check annotated source trees against a component-and-connector architecture.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the conformance checks")
    _add_common(check)
    check.add_argument(
        "--fail-on", choices=("error", "warning"), default="error", dest="fail_on",
        help="lowest severity that causes exit status 1",
    )
    check.set_defaults(func=cmd_check)

    extract = sub.add_parser("extract", help="dump the annotations found in the sources")
    _add_common(extract, arch=False)
    extract.set_defaults(func=cmd_extract)

    smells = sub.add_parser("smells", help="run the architectural smell detectors")
    _add_common(smells)
    smells.add_argument(
        "--fail-on", choices=("error", "warning"), default="error", dest="fail_on",
        help="lowest severity that causes exit status 1",
    )
    smells.set_defaults(func=cmd_smells)

    look = sub.add_parser("lookup", help="list annotations referencing an element")
    _add_common(look)
    look.add_argument("element", help="element reference, e.g. Car.rear, Engine#p, Car/c1")
    look.set_defaults(func=cmd_lookup)

    refactor = sub.add_parser("refactor", help="apply a refactoring plan to the architecture")
    _add_common(refactor)
    refactor.add_argument("--plan", required=True, help="plan file, one operation per line")
    refactor.add_argument(
        "--in-place", action="store_true", dest="in_place",
        help="overwrite the architecture file instead of writing a sibling",
    )
    refactor.set_defaults(func=cmd_refactor)

    scaffold = sub.add_parser("scaffold", help="generate annotation skeletons for an architecture")
    scaffold.add_argument("--arch", required=True, help="architecture description file")
    scaffold.add_argument("--out", required=True, help="directory for the skeleton files")
    scaffold.set_defaults(func=cmd_scaffold)

    return parser


def main(argv: Sequence[str] | None = None, store: Path | str | None = None) -> int:
    """Run one command; with `store`, a directory, its scan keeps per-file
    results there (`scan_tree`), and its parsed `.arch` too."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.store = store
    try:
        return args.func(args)
    except ArchlintError as err:
        print(f"archlint: {err}", file=sys.stderr)
        return 2
