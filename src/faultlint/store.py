"""Per-class error records, error-set clustering, and the JSON store.

The store is a canonical JSON document (sorted keys, records sorted by
class name) so that identical scans produce byte-identical files. Classes
with no findings produce no record; they only show up in the report's
scanned/faulty summary.

Each record and diagnostic is written as one line from a fixed template
(_record_json, _finding_json, _diagnostic_json) whose keys are already in
sorted order, every string escaped by json's encode_basestring_ascii:
the bytes json.JSONEncoder(sort_keys=True) gives the entry's dict,
without building the dict. save_store and the JSON report share this
writer, and each encodes an entry as it writes the entry's line, so
neither holds the encoded entries or the document whole.

The error names are not held in memory beside the codes: the writer and
the reports look each one up in detectors.ERROR_CATALOG. A loaded store
keeps its codes only, so each name the file holds must be that code's
catalog name, and its catalog may list a part of the fixed one but no
other entry.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii

from faultlint.detectors import ERROR_CATALOG, Finding
from faultlint.record import Record

SCHEMA_VERSION = 1

STORE_BASENAME = "faultlint-results.json"


class FormatError(Exception):
    """The file is not a readable store of the supported schema version."""


class ClassRecord(Record):
    __slots__ = ("class_name", "file_path", "error_codes", "findings")

    def __init__(self, class_name: str, file_path: str, error_codes: tuple[int, ...],
                 findings: tuple[Finding, ...]):
        self.class_name = class_name
        self.file_path = file_path
        self.error_codes = error_codes  # deduplicated, first-detection order
        self.findings = findings


class Cluster(Record):
    __slots__ = ("error_set", "classes")

    def __init__(self, error_set: tuple[int, ...], classes: tuple[str, ...]):
        self.error_set = error_set  # sorted
        self.classes = classes  # sorted


class Diagnostic(Record):
    __slots__ = ("message", "file_path", "line")

    def __init__(self, message: str, file_path: str | None = None, line: int | None = None):
        self.message = message
        self.file_path = file_path
        self.line = line


class AnalysisStore(Record):
    __slots__ = ("corpus_root", "records", "diagnostics")

    def __init__(self, corpus_root: str, records: tuple[ClassRecord, ...],
                 diagnostics: tuple[Diagnostic, ...] = ()):
        self.corpus_root = corpus_root
        self.records = records
        self.diagnostics = diagnostics


def aggregate(findings: list[Finding]) -> list[ClassRecord]:
    """Fold findings into one record per faulty class.

    error_codes keeps first-occurrence order under the (file, line, code)
    finding sort, deduplicated; records come out sorted by class name.
    """
    ordered = sorted(findings, key=Finding.sort_key)
    by_class: dict[str, list[Finding]] = {}
    for finding in ordered:
        by_class.setdefault(finding.class_name, []).append(finding)
    records = []
    for class_name in sorted(by_class):
        class_findings = by_class[class_name]
        codes: list[int] = []
        for finding in class_findings:
            if finding.error_code not in codes:
                codes.append(finding.error_code)
        records.append(ClassRecord(
            class_name=class_name,
            file_path=class_findings[0].file_path,
            error_codes=tuple(codes),
            findings=tuple(class_findings),
        ))
    return records


def cluster(records: list[ClassRecord]) -> list[Cluster]:
    """Group classes by their error-code SET (display order is ignored)."""
    groups: dict[frozenset[int], list[str]] = {}
    for record in records:
        groups.setdefault(frozenset(record.error_codes), []).append(record.class_name)
    clusters = [Cluster(tuple(sorted(key)), tuple(sorted(classes)))
                for key, classes in groups.items()]
    clusters.sort(key=lambda c: (c.error_set[0], len(c.error_set), c.error_set))
    return clusters


# --- serialization ----------------------------------------------------------

if c_make_encoder is None:  # no _json accelerator: json's pure-Python encoder
    _encode = json.JSONEncoder(sort_keys=True).encode
else:
    # One C encoder for every value, with JSONEncoder(sort_keys=True)'s
    # settings; JSONEncoder.encode would build a new one per call.
    _chunks = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                             None, ": ", ", ", True, False, True)

    def _encode(value) -> str:
        return "".join(_chunks(value, 0))


# The entry writers below spell out what _encode would give each entry's
# dict: the keys in sorted order, its separators, and every string through
# the same ASCII escaping. Only a finding's detail, whose keys vary, goes
# through _encode.

def _finding_json(finding: Finding) -> str:
    code = finding.error_code
    return (f'{{"class_name": {encode_basestring_ascii(finding.class_name)}, '
            f'"detail": {_encode(finding.detail)}, "error_code": {code}, '
            f'"error_name": {encode_basestring_ascii(ERROR_CATALOG[code])}, '
            f'"file_path": {encode_basestring_ascii(finding.file_path)}, '
            f'"line": {finding.line}, "message": {encode_basestring_ascii(finding.message)}}}')


def _record_json(record: ClassRecord) -> str:
    return (f'{{"class_name": {encode_basestring_ascii(record.class_name)}, '
            f'"error_codes": [{", ".join(map(str, record.error_codes))}], '
            f'"file_path": {encode_basestring_ascii(record.file_path)}, '
            f'"findings": [{", ".join(map(_finding_json, record.findings))}]}}')


def _diagnostic_json(diag: Diagnostic) -> str:
    path = "null" if diag.file_path is None else encode_basestring_ascii(diag.file_path)
    line = "null" if diag.line is None else diag.line
    message = encode_basestring_ascii(diag.message)
    return f'{{"file_path": {path}, "line": {line}, "message": {message}}}'


def _write_list(write, key: str, entries) -> None:
    """Pass write the document line of key: each encoded entry on a line of
    its own, read and written one at a time, or `[]` when there is none."""
    opened = False
    for entry in entries:
        write((",\n    " if opened else f'  "{key}": [\n    ') + entry)
        opened = True
    write("\n  ],\n" if opened else f'  "{key}": [],\n')


def _write_document(write, store: AnalysisStore, clusters: list[Cluster] | None = None) -> None:
    """Pass write the canonical document: one line per top-level key, in
    sorted order, and one line per entry of a non-empty list, each entry
    encoded as its line is written. clusters, when given, adds the
    report's `clusters` key."""
    catalog = {str(code): name for code, name in ERROR_CATALOG.items()}
    write(f'{{\n  "catalog": {_encode(catalog)},\n')
    if clusters is not None:
        _write_list(write, "clusters", (
            _encode({"classes": c.classes, "error_codes": c.error_set,
                     "error_names": [ERROR_CATALOG[code] for code in c.error_set]})
            for c in clusters))
    write(f'  "corpus_root": {encode_basestring_ascii(store.corpus_root)},\n')
    _write_list(write, "diagnostics", map(_diagnostic_json, store.diagnostics))
    _write_list(write, "records",
                map(_record_json, sorted(store.records, key=lambda r: r.class_name)))
    write(f'  "schema_version": {SCHEMA_VERSION}\n}}\n')


def save_store(store: AnalysisStore, path) -> None:
    """Write the canonical store document line by line. OS errors propagate."""
    with open(path, "w", encoding="utf-8") as handle:
        _write_document(handle.write, store)


def _field(entry, key: str, types: tuple, what: str, path):
    """entry[key] when its JSON type is one of types, else FormatError.

    An absent key is an error too. bool is not int here: json reads true
    and false as bool.
    """
    if type(entry) is not dict:
        raise FormatError(f"{path}: malformed {what}: expected a JSON object")
    if key not in entry:
        raise FormatError(f"{path}: malformed {what}: missing key '{key}'")
    value = entry[key]
    if type(value) not in types:
        raise FormatError(f"{path}: malformed {what}: '{key}' has type "
                          f"{type(value).__name__}")
    return value


def _int_list(entry, key: str, what: str, path) -> tuple[int, ...]:
    values = _field(entry, key, (list,), what, path)
    if any(type(v) is not int for v in values):
        raise FormatError(f"{path}: malformed {what}: '{key}' must hold integers")
    return tuple(values)


def _finding_from_dict(data, path) -> Finding:
    what = "finding entry"
    code = _field(data, "error_code", (int,), what, path)
    name = _field(data, "error_name", (str,), what, path)
    if ERROR_CATALOG.get(code) != name:
        raise FormatError(f"{path}: malformed {what}: error_name {name!r} is not the "
                          f"catalog name of error code {code}")
    return Finding(
        class_name=_field(data, "class_name", (str,), what, path),
        error_code=code,
        file_path=_field(data, "file_path", (str,), what, path),
        line=_field(data, "line", (int,), what, path),
        message=_field(data, "message", (str,), what, path),
        detail=dict(_field(data, "detail", (dict,), what, path)),
    )


def _record_from_dict(data, path) -> ClassRecord:
    what = "record entry"
    return ClassRecord(
        class_name=_field(data, "class_name", (str,), what, path),
        file_path=_field(data, "file_path", (str,), what, path),
        error_codes=_int_list(data, "error_codes", what, path),
        findings=tuple(_finding_from_dict(f, path)
                       for f in _field(data, "findings", (list,), what, path)),
    )


def _diagnostic_from_dict(data, path) -> Diagnostic:
    what = "diagnostic entry"
    return Diagnostic(
        message=_field(data, "message", (str,), what, path),
        file_path=_field(data, "file_path", (str, type(None)), what, path),
        line=_field(data, "line", (int, type(None)), what, path),
    )


def _check_codes(record: ClassRecord, catalog: set[int], path) -> None:
    """FormatError unless record's codes are what aggregate would give its
    findings: non-empty, in the file's catalog, and the findings' codes
    deduplicated in first-detection order. cluster and render_report rely
    on this."""
    what = f"record entry '{record.class_name}'"
    codes = record.error_codes
    if not codes:
        raise FormatError(f"{path}: malformed {what}: no error codes")
    for code in codes:
        if code not in catalog:
            raise FormatError(f"{path}: malformed {what}: error code {code} is not catalogued")
    ordered = sorted(record.findings, key=Finding.sort_key)
    found = tuple(dict.fromkeys(f.error_code for f in ordered))
    if codes != found:
        raise FormatError(f"{path}: malformed {what}: error_codes {list(codes)} differ "
                          f"from its findings' codes {list(found)}")


def load_store(path) -> AnalysisStore:
    """Read a store document; FormatError on anything but our schema.

    Every field is type-checked, every catalog entry and finding name
    against ERROR_CATALOG, and every record's codes against its findings
    and the file's catalog, so any JSON document either loads or raises
    FormatError, and cluster and render_report accept what loads. The
    layout (line breaks, indentation) is free.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise FormatError(f"{path}: not a valid store file: {err}") from err
    if not isinstance(data, dict):
        raise FormatError(f"{path}: not a valid store file: expected a JSON object")

    if "schema_version" not in data:
        raise FormatError(f"{path}: missing required key 'schema_version'")
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise FormatError(f"{path}: unsupported schema_version {version!r}")

    what = "store"
    corpus_root = _field(data, "corpus_root", (str,), what, path)
    raw_records = _field(data, "records", (list,), what, path)
    raw_catalog = _field(data, "catalog", (dict,), what, path)
    raw_diags = _field(data, "diagnostics", (list,), what, path)

    records = [_record_from_dict(entry, path) for entry in raw_records]

    # the file's codes; each entry must be one of ERROR_CATALOG's, its code
    # spelled as save_store writes it
    codes = {str(code): code for code in ERROR_CATALOG}
    catalog = set()
    for key, name in raw_catalog.items():
        if type(name) is not str:
            raise FormatError(f"{path}: malformed catalog: name of {key!r} is not a string")
        number = codes.get(key)
        if number is None or ERROR_CATALOG[number] != name:
            raise FormatError(f"{path}: malformed catalog: {key!r}: {name!r} is not an "
                              f"entry of the fixed catalog")
        catalog.add(number)

    for record in records:
        _check_codes(record, catalog, path)

    diagnostics = [_diagnostic_from_dict(entry, path) for entry in raw_diags]

    return AnalysisStore(
        corpus_root=corpus_root,
        records=tuple(sorted(records, key=lambda r: r.class_name)),
        diagnostics=tuple(diagnostics),
    )


# --- reports ----------------------------------------------------------------

def render_report(
    store: AnalysisStore,
    clusters: list[Cluster],
    format: str = "text",
    scanned_classes: int | None = None,
) -> str:
    """Byte-deterministic report: per-class error names, then the clusters."""
    if format == "json":
        parts: list[str] = []
        _write_document(parts.append, store, clusters)
        return "".join(parts)
    if format != "text":
        raise ValueError(f"unknown report format: {format!r}")

    lines = []
    faulty = len(store.records)
    if scanned_classes is not None:
        lines.append(f"Classes scanned: {scanned_classes} | faulty: {faulty}")
    else:
        lines.append(f"Faulty classes: {faulty}")
    lines.append("")
    if not store.records:
        lines.append("No faulty classes.")
    else:
        lines.append("Per-class errors:")
        for record in sorted(store.records, key=lambda r: r.class_name):
            lines.append(f"  {record.class_name}  ({record.file_path})")
            for code in record.error_codes:
                lines.append(f"    [{code}] {ERROR_CATALOG[code]}")
        lines.append("")
        lines.append("Error clusters:")
        for c in clusters:
            codes = ",".join(str(code) for code in c.error_set)
            names = ", ".join(ERROR_CATALOG[code] for code in c.error_set)
            lines.append(f"  [{codes}] {names}")
            lines.append(f"      classes: {', '.join(c.classes)}")
    if store.diagnostics:
        lines.append("")
        lines.append(f"Diagnostics ({len(store.diagnostics)}):")
        for diag in store.diagnostics:
            where = diag.file_path or "<model>"
            at = f":{diag.line}" if diag.line is not None else ""
            lines.append(f"  {where}{at}: {diag.message}")
    lines.append("")  # the final newline, without copying the joined report
    return "\n".join(lines)
