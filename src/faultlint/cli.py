"""Command-line driver: scan a folder of .java files and report faults.

Exit codes: 0 = clean scan, 1 = findings present (or, with --strict-parse,
any parse diagnostic), 2 = operational error (bad flags, unreadable corpus
root, bad seed file) or internal error (an unexpected exception, reported
with its traceback). Output is byte-deterministic for identical trees.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass, field
from pathlib import Path

from faultlint import __version__
from faultlint.detectors import ALL_RULES, Finding, run_all
from faultlint.model import ProgramModel, SeedError, build_model, default_seed, load_seed
from faultlint.nodes import CompilationUnit, ParseDiagnostic
from faultlint.parser import parse_source
from faultlint.store import (
    STORE_BASENAME,
    AnalysisStore,
    Cluster,
    Diagnostic,
    aggregate,
    cluster,
    render_report,
    save_store,
)

PROG = "faultlint"


class UsageError(Exception):
    pass


class ScanError(Exception):
    """Operational failure that maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    corpus_root: Path
    seed_file: Path | None = None
    enabled_rules: frozenset[int] = ALL_RULES
    output_format: str = "text"
    store_output: Path | None = None
    strict_parse: bool = False


@dataclass
class ScanResult:
    exit_code: int
    report: str
    store: AnalysisStore
    clusters: list[Cluster] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    model: ProgramModel | None = None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog=PROG,
        description="Scan a folder of .java files for the six catalogued "
                    "object-oriented fault types.",
    )
    parser.add_argument("corpus_root", help="folder containing the classes to test")
    parser.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="comma-separated error codes to enable, e.g. 1,3,5 (default: all six)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--seed", default=None, metavar="PATH",
                        help="external hierarchy seed file (JSON)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="write the analysis store to this path")
    parser.add_argument("--strict-parse", action="store_true",
                        help="exit 1 when any file has parse diagnostics")
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    return parser


def _parse_rules(raw: str) -> frozenset[int]:
    codes = set()
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            code = int(part)
        except ValueError:
            raise UsageError(f"--rules: '{part}' is not an error code") from None
        if code not in ALL_RULES:
            raise UsageError(f"--rules: code {code} out of range 1-6")
        codes.add(code)
    if not codes:
        raise UsageError("--rules: at least one error code is required")
    return frozenset(codes)


def parse_args(argv: list[str]) -> RunConfig:
    """Turn argv into a RunConfig; raises UsageError on bad flags."""
    namespace = _build_parser().parse_args(argv)
    rules = ALL_RULES if namespace.rules is None else _parse_rules(namespace.rules)
    return RunConfig(
        corpus_root=Path(namespace.corpus_root),
        seed_file=Path(namespace.seed) if namespace.seed else None,
        enabled_rules=rules,
        output_format=namespace.format,
        store_output=Path(namespace.store) if namespace.store else None,
        strict_parse=namespace.strict_parse,
    )


def collect_java_files(root: Path) -> list[Path]:
    """All *.java under root, sorted by relative path; hidden dirs skipped."""
    files = []
    for path in root.rglob("*.java"):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if any(part.startswith(".") for part in rel.parts[:-1]):
            continue
        files.append(path)
    return sorted(files, key=lambda p: p.relative_to(root).as_posix())


def _parse_corpus(root: Path, files: list[Path]) -> list[CompilationUnit]:
    units = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            diag = ParseDiagnostic(rel, 1, f"could not read file: {err}", (1, 1))
            units.append(CompilationUnit(rel, (), (diag,)))
            continue
        try:
            unit = parse_source(text, rel)
        except Exception as err:  # one file must never sink the whole scan
            diag = ParseDiagnostic(
                rel, 1, f"could not parse file: {type(err).__name__}: {err}",
                (1, text.count("\n") + 1),
            )
            unit = CompilationUnit(rel, (), (diag,))
        units.append(unit)
    return units


def _collect_diagnostics(units: list[CompilationUnit], model: ProgramModel) -> list[Diagnostic]:
    diags = [
        Diagnostic(message=d.message, file_path=d.file_path, line=d.line)
        for unit in units
        for d in unit.diagnostics
    ]
    diags.extend(Diagnostic(message=m) for m in model.diagnostics)
    return diags


def run_scan(config: RunConfig) -> ScanResult:
    """Execute the full pipeline. Raises ScanError for exit-2 conditions."""
    root = config.corpus_root
    if not root.exists():
        raise ScanError(f"corpus root does not exist: {root}")
    if not root.is_dir():
        raise ScanError(f"corpus root is not a directory: {root}")

    if config.seed_file is not None:
        try:
            seed = load_seed(config.seed_file)
        except OSError as err:
            raise ScanError(f"cannot read seed file: {err}") from err
        except SeedError as err:
            raise ScanError(str(err)) from err
    else:
        seed = default_seed()

    units = _parse_corpus(root, collect_java_files(root))
    model = build_model(units, seed)
    findings = run_all(model, config.enabled_rules)
    records = aggregate(findings)
    clusters = cluster(records)

    store = AnalysisStore(
        corpus_root=str(config.corpus_root),
        records=tuple(records),
        diagnostics=tuple(_collect_diagnostics(units, model)),
    )
    report = render_report(
        store, clusters, config.output_format, scanned_classes=len(model.classes)
    )

    if findings:
        exit_code = 1
    elif config.strict_parse and any(unit.diagnostics for unit in units):
        exit_code = 1
    else:
        exit_code = 0
    return ScanResult(exit_code, report, store, clusters, findings, model)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except UsageError as err:
        print(_build_parser().format_usage(), end="", file=sys.stderr)
        print(f"{PROG}: error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exit_request:  # --version / --help
        return int(exit_request.code or 0)

    # The scan builds no reference cycles (tests/test_cli.py checks this):
    # reference counting frees everything it allocates, and the cyclic
    # collector would only re-traverse the live AST, which lives for the
    # whole run, and find nothing to free. Library callers of run_scan keep
    # their own collector settings.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _scan_and_report(config)
    finally:
        if gc_was_enabled:
            gc.enable()


def _scan_and_report(config: RunConfig) -> int:
    try:
        result = run_scan(config)
        if config.store_output is not None:
            target = config.store_output
            if target.is_dir():
                target = target / STORE_BASENAME
            try:
                save_store(result.store, target)
            except OSError as err:
                raise ScanError(f"cannot write store file: {err}") from err
    except ScanError as err:
        print(f"{PROG}: error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not findings: never let it exit 1
        import traceback  # only this path needs it; every start-up would pay for it

        print(f"{PROG}: internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2

    sys.stdout.write(result.report)
    return result.exit_code


def console_main() -> None:
    sys.exit(main())
