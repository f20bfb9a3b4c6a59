"""Command-line driver: scan a folder of .java files and report faults.

Exit codes: 0 = clean scan, 1 = findings present (or, with --strict-parse,
any parse diagnostic), 2 = operational error (bad flags, unreadable corpus
root, bad seed file) or internal error (an unexpected exception, reported
with its traceback). Output is byte-deterministic for identical trees.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from faultlint import __version__
from faultlint.detectors import ALL_RULES, run_all
from faultlint.model import (
    ExternalHierarchySeed,
    SeedError,
    build_model,
    default_seed,
    load_seed,
)
from faultlint.nodes import CompilationUnit, ParseDiagnostic
from faultlint.parser import parse_source
from faultlint.record import Record, _set
from faultlint.store import (
    STORE_BASENAME,
    AnalysisStore,
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


class RunConfig(Record):
    __slots__ = ("corpus_root", "seed_file", "enabled_rules", "output_format", "store_output",
                 "strict_parse")

    def __init__(self, corpus_root: Path, seed_file: Path | None = None,
                 enabled_rules: frozenset[int] = ALL_RULES, output_format: str = "text",
                 store_output: Path | None = None, strict_parse: bool = False):
        _set(self, "corpus_root", corpus_root)
        _set(self, "seed_file", seed_file)
        _set(self, "enabled_rules", enabled_rules)
        _set(self, "output_format", output_format)
        _set(self, "store_output", store_output)
        _set(self, "strict_parse", strict_parse)


class ScanResult(Record):
    """The outcome of run_scan: what the CLI prints, writes and exits with."""

    __slots__ = ("exit_code", "report", "store")

    def __init__(self, exit_code: int, report: str, store: AnalysisStore):
        _set(self, "exit_code", exit_code)
        _set(self, "report", report)
        _set(self, "store", store)


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
    for option, value in (("corpus_root", namespace.corpus_root), ("--seed", namespace.seed),
                          ("--store", namespace.store)):
        if value == "":
            raise UsageError(f"{option}: the path must not be empty")
    return RunConfig(
        corpus_root=Path(namespace.corpus_root),
        seed_file=None if namespace.seed is None else Path(namespace.seed),
        enabled_rules=rules,
        output_format=namespace.format,
        store_output=None if namespace.store is None else Path(namespace.store),
        strict_parse=namespace.strict_parse,
    )


def _java_files(root: Path) -> list[tuple[str, str]]:
    """(relative posix path, filesystem path) of every *.java file under
    root, sorted by the relative path.

    Directories whose names start with '.' are not entered, nor are
    symlinked directories. An entry counts when its name ends in `.java`
    (case-sensitive; hidden names too) and it is a file or a link to one.
    The filesystem path is `root / relative path` as a string.
    """
    top = os.fspath(root)
    base = "" if top == "." else top.rstrip("/") + "/"
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [name for name in dirnames if not name.startswith(".")]
        rel_dir = dirpath[len(top):].lstrip("/")
        prefix = rel_dir + "/" if rel_dir else ""
        for name in filenames:
            if name.endswith(".java"):
                rel = prefix + name
                path = base + rel
                if os.path.isfile(path):
                    found.append((rel, path))
    found.sort()
    return found


def collect_java_files(root: Path) -> list[Path]:
    """The files of the CLI's walk (_java_files) as Paths, sorted by relative path."""
    return [Path(path) for _, path in _java_files(root)]


def _parse_corpus(files: list[tuple[str, str]]) -> list[CompilationUnit]:
    units = []
    for rel, path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
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


def _analyse(root: Path, seed: ExternalHierarchySeed, enabled_rules: frozenset[int]):
    """Parse, model and detect. Returns the findings, the diagnostics, the
    number of classes scanned and whether any file had a parse diagnostic:
    nothing that holds a tree, so the trees and the model are freed on
    return, before the report and the store are built."""
    units = _parse_corpus(_java_files(root))
    model = build_model(units, seed)
    findings = run_all(model, enabled_rules)
    diagnostics = [
        Diagnostic(message=d.message, file_path=d.file_path, line=d.line)
        for unit in units
        for d in unit.diagnostics
    ]
    parse_diagnostics = bool(diagnostics)
    diagnostics.extend(Diagnostic(message=m) for m in model.diagnostics)
    return findings, diagnostics, len(model.classes), parse_diagnostics


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

    findings, diagnostics, scanned_classes, parse_diagnostics = _analyse(
        root, seed, config.enabled_rules
    )
    records = aggregate(findings)
    clusters = cluster(records)

    store = AnalysisStore(
        corpus_root=str(config.corpus_root),
        records=tuple(records),
        diagnostics=tuple(diagnostics),
    )
    report = render_report(store, clusters, config.output_format, scanned_classes=scanned_classes)

    if findings:
        exit_code = 1
    elif config.strict_parse and parse_diagnostics:
        exit_code = 1
    else:
        exit_code = 0
    return ScanResult(exit_code, report, store)


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
    # collector would only re-traverse the live AST, which lives until the
    # detectors have run, and find nothing to free. Library callers of
    # run_scan keep their own collector settings.
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
