"""Per-class error records, error-set clustering, and the JSON store.

The store is a canonical JSON document (sorted keys, records sorted by
class name) so that identical scans produce byte-identical files. Classes
with no findings produce no record; they only show up in the report's
scanned/faulty summary.
"""

from __future__ import annotations

import json

from faultlint.detectors import ERROR_CATALOG, Finding
from faultlint.record import Record, _set

SCHEMA_VERSION = 1

STORE_BASENAME = "faultlint-results.json"


class FormatError(Exception):
    """The file is not a readable store of the supported schema version."""


class ClassRecord(Record):
    __slots__ = ("class_name", "file_path", "error_codes", "findings")

    def __init__(self, class_name: str, file_path: str, error_codes: tuple[int, ...],
                 findings: tuple[Finding, ...]):
        _set(self, "class_name", class_name)
        _set(self, "file_path", file_path)
        _set(self, "error_codes", error_codes)  # deduplicated, first-detection order
        _set(self, "findings", findings)


class Cluster(Record):
    __slots__ = ("error_set", "error_names", "classes")

    def __init__(self, error_set: tuple[int, ...], error_names: tuple[str, ...],
                 classes: tuple[str, ...]):
        _set(self, "error_set", error_set)  # sorted
        _set(self, "error_names", error_names)  # catalog names in error_set order
        _set(self, "classes", classes)  # sorted


class Diagnostic(Record):
    __slots__ = ("message", "file_path", "line")

    def __init__(self, message: str, file_path: str | None = None, line: int | None = None):
        _set(self, "message", message)
        _set(self, "file_path", file_path)
        _set(self, "line", line)


class AnalysisStore(Record):
    __slots__ = ("corpus_root", "records", "diagnostics", "catalog", "schema_version")

    def __init__(self, corpus_root: str, records: tuple[ClassRecord, ...],
                 diagnostics: tuple[Diagnostic, ...] = (), catalog: dict | None = None,
                 schema_version: int = SCHEMA_VERSION):
        _set(self, "corpus_root", corpus_root)
        _set(self, "records", records)
        _set(self, "diagnostics", diagnostics)
        _set(self, "catalog", dict(ERROR_CATALOG) if catalog is None else catalog)
        _set(self, "schema_version", schema_version)


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
    clusters = []
    for key, classes in groups.items():
        codes = tuple(sorted(key))
        clusters.append(Cluster(
            error_set=codes,
            error_names=tuple(ERROR_CATALOG[c] for c in codes),
            classes=tuple(sorted(classes)),
        ))
    clusters.sort(key=lambda c: (c.error_set[0], len(c.error_set), c.error_set))
    return clusters


# --- serialization ----------------------------------------------------------

def _finding_to_dict(finding: Finding) -> dict:
    return {
        "class_name": finding.class_name,
        "error_code": finding.error_code,
        "error_name": finding.error_name,
        "file_path": finding.file_path,
        "line": finding.line,
        "message": finding.message,
        "detail": finding.detail,
    }


def _record_to_dict(record: ClassRecord) -> dict:
    return {
        "class_name": record.class_name,
        "file_path": record.file_path,
        "error_codes": list(record.error_codes),
        "findings": [_finding_to_dict(f) for f in record.findings],
    }


def store_to_dict(store: AnalysisStore) -> dict:
    return {
        "schema_version": store.schema_version,
        "corpus_root": store.corpus_root,
        "records": [_record_to_dict(r)
                    for r in sorted(store.records, key=lambda r: r.class_name)],
        "catalog": {str(code): name for code, name in sorted(store.catalog.items())},
        "diagnostics": [
            {"file_path": d.file_path, "line": d.line, "message": d.message}
            for d in store.diagnostics
        ],
    }


_encode = json.JSONEncoder(sort_keys=True).encode


def _canonical_lines(payload: dict):
    """payload as canonical JSON, one newline-terminated line at a time: one
    line per top-level key, sorted, and one line per element of a non-empty
    top-level list.

    Every value goes through the C encoder: json's pure-Python encoder,
    which any indent selects, costs about three times as much. A writer
    takes the lines as they are encoded, so the document is never held
    whole.
    """
    yield "{\n"
    last = len(payload) - 1
    for index, key in enumerate(sorted(payload)):
        value = payload[key]
        end = ",\n" if index < last else "\n"
        if type(value) is list and value:
            yield f"  {_encode(key)}: [\n"
            last_item = len(value) - 1
            for position, item in enumerate(value):
                yield f"    {_encode(item)}{',' if position < last_item else ''}\n"
            yield "  ]" + end
        else:
            yield f"  {_encode(key)}: {_encode(value)}{end}"
    yield "}\n"


def save_store(store: AnalysisStore, path) -> None:
    """Write the canonical store document line by line. OS errors propagate."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_canonical_lines(store_to_dict(store)))


_REQUIRED = object()


def _field(entry, key: str, types: tuple, what: str, path, default=_REQUIRED):
    """entry[key] when its JSON type is one of types, else FormatError.

    An absent key gives default; without one it is an error too. bool is
    not int here: json reads true and false as bool.
    """
    if type(entry) is not dict:
        raise FormatError(f"{path}: malformed {what}: expected a JSON object")
    if key not in entry:
        if default is _REQUIRED:
            raise FormatError(f"{path}: malformed {what}: missing key '{key}'")
        return default
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
    return Finding(
        class_name=_field(data, "class_name", (str,), what, path),
        error_code=_field(data, "error_code", (int,), what, path),
        error_name=_field(data, "error_name", (str,), what, path),
        file_path=_field(data, "file_path", (str,), what, path),
        line=_field(data, "line", (int,), what, path),
        message=_field(data, "message", (str,), what, path),
        detail=dict(_field(data, "detail", (dict,), what, path, default={})),
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
        file_path=_field(data, "file_path", (str, type(None)), what, path, default=None),
        line=_field(data, "line", (int, type(None)), what, path, default=None),
    )


def _check_codes(record: ClassRecord, catalog: dict[int, str], path) -> None:
    """FormatError unless record's codes are what aggregate would give its
    findings: non-empty, catalogued, and the findings' codes deduplicated in
    first-detection order. cluster and render_report rely on this."""
    what = f"record entry '{record.class_name}'"
    codes = record.error_codes
    if not codes:
        raise FormatError(f"{path}: malformed {what}: no error codes")
    for code in codes:
        if code not in catalog or code not in ERROR_CATALOG:
            raise FormatError(f"{path}: malformed {what}: error code {code} is not catalogued")
    ordered = sorted(record.findings, key=Finding.sort_key)
    found = tuple(dict.fromkeys(f.error_code for f in ordered))
    if codes != found:
        raise FormatError(f"{path}: malformed {what}: error_codes {list(codes)} differ "
                          f"from its findings' codes {list(found)}")


def load_store(path) -> AnalysisStore:
    """Read a store document; FormatError on anything but our schema.

    Every field is type-checked, and every record's codes are checked
    against its findings and the catalog, so any JSON document either loads
    or raises FormatError, and cluster and render_report accept what loads.
    The layout (line breaks, indentation) is free.
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

    catalog = {}
    for code, name in raw_catalog.items():
        if type(name) is not str:
            raise FormatError(f"{path}: malformed catalog: name of {code!r} is not a string")
        try:
            catalog[int(code)] = name
        except ValueError as err:
            raise FormatError(f"{path}: malformed catalog: {err}") from err

    for record in records:
        _check_codes(record, catalog, path)

    diagnostics = [_diagnostic_from_dict(entry, path) for entry in raw_diags]

    return AnalysisStore(
        corpus_root=corpus_root,
        records=tuple(sorted(records, key=lambda r: r.class_name)),
        diagnostics=tuple(diagnostics),
        catalog=catalog,
        schema_version=version,
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
        payload = store_to_dict(store)
        payload["clusters"] = [
            {
                "error_codes": list(c.error_set),
                "error_names": list(c.error_names),
                "classes": list(c.classes),
            }
            for c in clusters
        ]
        return "".join(_canonical_lines(payload))
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
                lines.append(f"    [{code}] {store.catalog[code]}")
        lines.append("")
        lines.append("Error clusters:")
        for c in clusters:
            codes = ",".join(str(code) for code in c.error_set)
            names = ", ".join(c.error_names)
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
