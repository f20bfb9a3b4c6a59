"""Per-class error records, error-set clustering, and the JSON store.

The store is a canonical JSON document (sorted keys, records sorted by
class name) so that identical scans produce byte-identical files. Classes
with no findings produce no record; they only show up in the report's
scanned/faulty summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from faultlint.detectors import ERROR_CATALOG, Finding

SCHEMA_VERSION = 1

STORE_BASENAME = "faultlint-results.json"


class FormatError(Exception):
    """The file is not a readable store of the supported schema version."""


@dataclass(frozen=True)
class ClassRecord:
    class_name: str
    file_path: str
    error_codes: tuple[int, ...]  # deduplicated, first-detection order
    findings: tuple[Finding, ...]


@dataclass(frozen=True)
class Cluster:
    error_set: tuple[int, ...]  # sorted
    error_names: tuple[str, ...]  # catalog names in error_set order
    classes: tuple[str, ...]  # sorted


@dataclass(frozen=True)
class Diagnostic:
    message: str
    file_path: str | None = None
    line: int | None = None


@dataclass(frozen=True)
class AnalysisStore:
    corpus_root: str
    records: tuple[ClassRecord, ...]
    diagnostics: tuple[Diagnostic, ...] = ()
    catalog: dict = field(default_factory=lambda: dict(ERROR_CATALOG))
    schema_version: int = SCHEMA_VERSION


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


def _canonical_json(payload: dict) -> str:
    """payload as canonical JSON: one line per top-level key, sorted, and
    one line per element of a non-empty top-level list.

    Every value goes through the C encoder: json's pure-Python encoder,
    which any indent selects, costs about three times as much.
    """
    lines = ["{"]
    last = len(payload) - 1
    for index, key in enumerate(sorted(payload)):
        value = payload[key]
        comma = "," if index < last else ""
        if type(value) is list and value:
            lines.append(f"  {_encode(key)}: [")
            lines.append(",\n".join(["    " + _encode(item) for item in value]))
            lines.append("  ]" + comma)
        else:
            lines.append(f"  {_encode(key)}: {_encode(value)}{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_store(store: AnalysisStore, path) -> None:
    """Write the canonical store document. OS errors propagate."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_canonical_json(store_to_dict(store)))


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


def load_store(path) -> AnalysisStore:
    """Read a store document; FormatError on anything but our schema.

    Every field is type-checked, so any JSON document either loads or
    raises FormatError. The layout (line breaks, indentation) is free.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
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
        return _canonical_json(payload)
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
    return "\n".join(lines) + "\n"
