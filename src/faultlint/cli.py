"""Command-line driver: scan a folder of .java files and report faults.

Exit codes: 0 = clean scan, 1 = findings present (or, with --strict-parse,
any parse diagnostic), 2 = operational error (bad flags, unreadable corpus
root, bad seed file, a report or --version/--help text that stdout cannot
take or encode) or internal error (an unexpected exception, reported with
its traceback).
Output is byte-deterministic for identical trees.

Importing this module loads faultlint, faultlint.cli and faultlint.record
only, so --version, --help and a usage error compile no analysis code.
The rule codes that --rules accepts are the package's ALL_RULES, which the
detectors share. run_scan imports the parser, the model, the detectors and
the store when it runs.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from faultlint import ALL_RULES, __version__
from faultlint.record import Record

# _parse_corpus and run_scan import the analysis modules themselves; the
# types of theirs that annotations here name are never looked up, as
# annotations are postponed.

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
        self.corpus_root = corpus_root
        self.seed_file = seed_file
        self.enabled_rules = enabled_rules
        self.output_format = output_format
        self.store_output = store_output
        self.strict_parse = strict_parse


class ScanResult(Record):
    """The outcome of run_scan: what the CLI prints, writes and exits with."""

    __slots__ = ("exit_code", "report", "store")

    def __init__(self, exit_code: int, report: str, store: AnalysisStore):
        self.exit_code = exit_code
        self.report = report
        self.store = store


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


def _entry_is(type_test) -> bool:
    """A DirEntry type test whose OSError means "no", as os.walk and
    os.path.isfile take it."""
    try:
        return type_test()
    except OSError:
        return False


def _java_files(root: Path, unreadable: list[tuple[str, OSError]]
                ) -> list[tuple[str, str]]:
    """(relative posix path, filesystem path) of every *.java file under
    root, sorted by the relative path.

    Directories whose names start with '.' are not entered, nor are
    symlinked directories. An entry counts when its name ends in `.java`
    (case-sensitive; hidden names too) and it is a file or a link to one.
    The filesystem path is `root / relative path` as a string. ScanError
    when root cannot be listed; a subdirectory that cannot be listed is
    left out, and its (relative posix path, error) appended to unreadable.

    The walk keeps os.walk's rules but takes each entry's type from the
    listing instead of a second stat: a subdirectory is listed by the path
    os.walk would use (`os.path.join(top, rel_dir)`, which an error
    message quotes), and a directory whose listing fails part way counts
    as unreadable as a whole.
    """
    top = os.fspath(root)
    base = "" if top == "." else top.rstrip("/") + "/"
    found = []
    pending = [(top, "")]  # (directory path, its relative path + "/" or "")
    while pending:
        dirpath, prefix = pending.pop()
        here = []
        subdirs = []
        try:
            with os.scandir(dirpath) as entries:
                for entry in entries:
                    name = entry.name
                    if _entry_is(entry.is_dir):
                        if not name.startswith(".") and not _entry_is(entry.is_symlink):
                            subdirs.append((os.path.join(dirpath, name), prefix + name + "/"))
                    elif name.endswith(".java") and _entry_is(entry.is_file):
                        rel = prefix + name
                        here.append((rel, base + rel))
        except OSError as err:
            if dirpath == top:
                raise ScanError(f"cannot read corpus root: {err}") from err
            unreadable.append((prefix[:-1], err))
            continue
        found += here
        pending += subdirs
    found.sort()
    return found


def collect_java_files(root: Path) -> list[Path]:
    """The files of the CLI's walk (_java_files) as Paths, sorted by relative path."""
    return [Path(path) for _, path in _java_files(root, [])]


def _parse_corpus(files: list[tuple[str, str]],
                  diagnostics: list[tuple[ParseDiagnostic, ...]]) -> list[CompilationUnit]:
    """The units of the files that parse. Appends to diagnostics, in file
    order, each unit's own diagnostics when it has any, or a 1-tuple of the
    diagnostic of a file that could not be read or parsed: one entry per
    file, not per diagnostic, so the list costs little while the trees live."""
    from faultlint.nodes import ParseDiagnostic
    from faultlint.parser import parse_source

    units = []
    memo: dict = {}  # the lexer's line table, shared by the files of this scan only
    for rel, path in files:
        try:
            with open(path, "rb", buffering=0) as handle:
                data = handle.read()
            # utf-8-sig drops a leading byte order mark, which is no token;
            # tokenize translates the line ends
            text = data.decode("utf-8-sig")
        except (OSError, UnicodeDecodeError) as err:
            diagnostics.append((ParseDiagnostic(rel, 1, f"could not read file: {err}", (1, 1)),))
            continue
        try:
            unit = parse_source(text, rel, memo)
        except Exception as err:  # one file must never sink the whole scan
            # as many lines as tokenize counts: CR LF, CR and LF each end one
            lines = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
            diagnostics.append((ParseDiagnostic(
                rel, 1, f"could not parse file: {type(err).__name__}: {err}", (1, lines),
            ),))
            continue
        units.append(unit)
        if unit.diagnostics:
            diagnostics.append(unit.diagnostics)
    return units


def run_scan(config: RunConfig) -> ScanResult:
    """Execute the full pipeline and write the store config.store_output
    names, if any. Raises ScanError for exit-2 conditions."""
    from faultlint.detectors import run_all
    from faultlint.model import SeedError, build_model, default_seed, load_seed
    from faultlint.store import (
        STORE_BASENAME,
        AnalysisStore,
        Diagnostic,
        aggregate,
        cluster,
        render_report,
        save_store,
    )

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

    unreadable: list[tuple[str, OSError]] = []
    file_diagnostics: list[tuple[ParseDiagnostic, ...]] = []
    units = _parse_corpus(_java_files(root, unreadable), file_diagnostics)
    model = build_model(units, seed)
    findings = run_all(model, config.enabled_rules)
    diagnostics = [Diagnostic(message=d.message, file_path=d.file_path, line=d.line)
                   for group in file_diagnostics for d in group]
    diagnostics += (Diagnostic(message=f"could not read directory: {err}", file_path=rel, line=1)
                    for rel, err in sorted(unreadable, key=lambda entry: entry[0]))
    parse_diagnostics = bool(diagnostics)
    diagnostics += (Diagnostic(message=m) for m in model.diagnostics)
    scanned_classes = len(model.classes)
    # free the trees and their diagnostics before the report and the store are built
    del units, model, file_diagnostics

    records = aggregate(findings)
    clusters = cluster(records)

    store = AnalysisStore(
        corpus_root=str(config.corpus_root),
        records=tuple(records),
        diagnostics=tuple(diagnostics),
    )
    report = render_report(store, clusters, config.output_format, scanned_classes=scanned_classes)

    if config.store_output is not None:
        target = config.store_output
        if target.is_dir():
            target = target / STORE_BASENAME
        try:
            save_store(store, target)
        except OSError as err:
            raise ScanError(f"cannot write store file: {err}") from err

    if findings:
        exit_code = 1
    elif config.strict_parse and parse_diagnostics:
        exit_code = 1
    else:
        exit_code = 0
    return ScanResult(exit_code, report, store)


def _write_report(report: str) -> None:
    """Write report to stdout, every byte, and flush it; OSError when stdout
    is missing or refuses the bytes. The bytes are written in a loop: an
    unbuffered stdout's binary layer is the raw file, which may take only
    part of them, as a pipe does when its reader has gone, and its text
    layer would drop the rest unseen. After an OSError, stdout's file
    descriptor is pointed at the null device: the interpreter's own flush
    at exit would otherwise fail again on what the buffers still hold, with
    a second message and exit code 120."""
    stdout = sys.stdout
    if stdout is None:  # started with no file descriptor 1
        raise OSError("standard output is closed")
    buffer = getattr(stdout, "buffer", None)  # None for a text-only stream, such as io.StringIO
    try:
        if buffer is None:
            stdout.write(report)
        else:
            data = memoryview(report.encode(stdout.encoding, stdout.errors))
            stdout.flush()
            while data:
                data = data[buffer.write(data):]  # None, from a non-blocking file, took none
        stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, stdout.fileno())
        finally:
            os.close(null)
        raise


def _emit(report: str, exit_code: int) -> int:
    """exit_code once report is on stdout; 2, with one line on stderr, when
    stdout cannot take it."""
    try:
        _write_report(report)
    except (OSError, UnicodeEncodeError) as err:
        print(f"{PROG}: error: cannot write the report: {err}", file=sys.stderr)
        return 2
    return exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    printed = io.StringIO()  # the text of --version or --help, written as a report is
    try:
        with redirect_stdout(printed):
            config = parse_args(argv)
    except UsageError as err:
        print(_build_parser().format_usage(), end="", file=sys.stderr)
        print(f"{PROG}: error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exit_request:  # --version / --help
        return _emit(printed.getvalue(), int(exit_request.code or 0))

    # The scan builds no reference cycles (tests/test_cli.py checks this):
    # reference counting frees everything it allocates, and the cyclic
    # collector would only re-traverse the live AST, which lives until the
    # detectors have run, and find nothing to free. Library callers of
    # run_scan keep their own collector settings.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_scan(config)
    except ScanError as err:
        print(f"{PROG}: error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not findings: never let it exit 1
        import traceback  # only this path needs it; every start-up would pay for it

        print(f"{PROG}: internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2
    else:
        return _emit(result.report, result.exit_code)  # the store, if any, stays
    finally:
        if gc_was_enabled:
            gc.enable()


def console_main() -> None:
    sys.exit(main())
