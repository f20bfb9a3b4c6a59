from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import faultlint
from faultlint.cli import RunConfig, run_scan
from faultlint.detectors import ERROR_CATALOG, Finding, run_all
from faultlint.store import (
    AnalysisStore,
    ClassRecord,
    Diagnostic,
    FormatError,
    aggregate,
    cluster,
    load_store,
    render_report,
    save_store,
)

from conftest import CASES_DIR, REFERENCE_CORPUS_DIR, model_for_dir

EXPECTED_RECORDS = [
    ("A", [1, 6]),
    ("ML_G", [3]),
    ("ML_H", [3, 4]),
    ("MP_A", [2, 5]),
    ("loopa", [1, 6, 5]),
    ("sample", [1, 4]),
]


@pytest.fixture(scope="module")
def reference_findings():
    return run_all(model_for_dir(REFERENCE_CORPUS_DIR))


@pytest.fixture(scope="module")
def reference_records(reference_findings):
    return aggregate(reference_findings)


@pytest.fixture()
def reference_store(reference_records):
    return AnalysisStore(corpus_root="tests/fixtures/reference_corpus",
                         records=tuple(reference_records))


# the catalog entry of a store document, as README "Result store" states it
CATALOG_DOCUMENT = {
    "1": "Lvalue required",
    "2": "Incorrect inheritance error",
    "3": "Spaghetti error",
    "4": "Inconsistent Type Usage error",
    "5": "Illicit file usage exception",
    "6": "Undefined loop exception",
}


def reference_document(store: AnalysisStore) -> dict:
    """The store document README "Result store" describes, spelled out key
    by key: what save_store writes and load_store reads."""
    return {
        "schema_version": 1,
        "corpus_root": store.corpus_root,
        "records": [
            {
                "class_name": record.class_name,
                "file_path": record.file_path,
                "error_codes": list(record.error_codes),
                "findings": [
                    {
                        "class_name": finding.class_name,
                        "error_code": finding.error_code,
                        "error_name": CATALOG_DOCUMENT[str(finding.error_code)],
                        "file_path": finding.file_path,
                        "line": finding.line,
                        "message": finding.message,
                        "detail": finding.detail,
                    }
                    for finding in record.findings
                ],
            }
            for record in sorted(store.records, key=lambda r: r.class_name)
        ],
        "catalog": dict(CATALOG_DOCUMENT),
        "diagnostics": [
            {"file_path": diag.file_path, "line": diag.line, "message": diag.message}
            for diag in store.diagnostics
        ],
    }


def _finding(class_name, code, file_path, line, detail=None):
    return Finding(
        class_name=class_name,
        error_code=code,
        file_path=file_path,
        line=line,
        message=f"synthetic finding {code}",
        detail=detail or {},
    )


# --- aggregate -----------------------------------------------------------------


def test_aggregate_reproduces_reference_corpus(reference_records):
    assert [(r.class_name, list(r.error_codes)) for r in reference_records] == \
        EXPECTED_RECORDS


def test_aggregate_empty():
    assert aggregate([]) == []


def test_aggregate_duplicate_codes_keep_all_findings():
    findings = [
        _finding("X", 1, "x.java", 3),
        _finding("X", 1, "x.java", 9),
        _finding("X", 6, "x.java", 5),
    ]
    # oracle: set-insertion replay of the sorted finding stream
    replay: list[int] = []
    for f in sorted(findings, key=Finding.sort_key):
        if f.error_code not in replay:
            replay.append(f.error_code)

    records = aggregate(findings)
    assert len(records) == 1
    record = records[0]
    assert list(record.error_codes) == replay == [1, 6]
    assert len(record.findings) == 3


def test_aggregate_records_sorted_by_class_name():
    findings = [
        _finding("zeta", 1, "b.java", 1),
        _finding("alpha", 2, "a.java", 1),
    ]
    assert [r.class_name for r in aggregate(findings)] == ["alpha", "zeta"]


def test_aggregate_permutation_invariance(reference_findings):
    base = aggregate(reference_findings)
    rng = random.Random(123)
    for _ in range(20):
        shuffled = list(reference_findings)
        rng.shuffle(shuffled)
        reordered = sorted(shuffled, key=Finding.sort_key)
        assert aggregate(reordered) == base


# --- cluster ---------------------------------------------------------------------


def test_cluster_reference_corpus_six_singletons(reference_records):
    clusters = cluster(reference_records)
    assert len(clusters) == 6
    assert all(len(c.classes) == 1 for c in clusters)
    assert [c.error_set for c in clusters] == [
        (1, 4), (1, 6), (1, 5, 6), (2, 5), (3,), (3, 4),
    ]


def test_cluster_key_is_order_insensitive():
    records = [
        ClassRecord("first", "f.java", (1, 6), (_finding("first", 1, "f.java", 1),)),
        ClassRecord("second", "s.java", (6, 1), (_finding("second", 6, "s.java", 2),)),
    ]
    clusters = cluster(records)
    assert len(clusters) == 1
    assert clusters[0].error_set == (1, 6)
    assert clusters[0].classes == ("first", "second")
    report = render_report(AnalysisStore("x", tuple(records)), clusters)
    assert "  [1,6] Lvalue required, Undefined loop exception\n" in report


def test_cluster_empty():
    assert cluster([]) == []


def test_cluster_partition_property(reference_records):
    clusters = cluster(reference_records)
    names = [name for c in clusters for name in c.classes]
    assert len(names) == len(reference_records)
    assert sorted(names) == sorted(r.class_name for r in reference_records)


def test_cluster_permutation_invariance(reference_records):
    base = cluster(reference_records)
    rng = random.Random(321)
    for _ in range(20):
        shuffled = list(reference_records)
        rng.shuffle(shuffled)
        assert cluster(sorted(shuffled, key=lambda r: r.class_name)) == base


# --- store round-trip --------------------------------------------------------------


def test_store_round_trip_identity(reference_store, tmp_path):
    path = tmp_path / "faultlint-results.json"
    save_store(reference_store, path)
    loaded = load_store(path)
    assert loaded == reference_store


def test_store_file_is_byte_deterministic(reference_store, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    save_store(reference_store, first)
    save_store(reference_store, second)
    assert first.read_bytes() == second.read_bytes()


def test_store_records_serialized_sorted_even_if_not(reference_records, tmp_path):
    scrambled = AnalysisStore(
        corpus_root="x", records=tuple(reversed(reference_records))
    )
    path = tmp_path / "s.json"
    save_store(scrambled, path)
    data = json.loads(path.read_text())
    assert [r["class_name"] for r in data["records"]] == \
        sorted(r.class_name for r in reference_records)


def test_load_empty_file_is_format_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(FormatError):
        load_store(path)


def test_load_non_utf8_file_is_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(FormatError, match="not a valid store file"):
        load_store(path)


def test_load_unknown_schema_version_names_it(tmp_path):
    path = tmp_path / "v999.json"
    payload = reference_document(AnalysisStore(corpus_root="x", records=()))
    payload["schema_version"] = "999"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as err:
        load_store(path)
    assert "999" in str(err.value)


def _doc(**fields):
    """A store document: one record with one finding, one diagnostic, and fields."""
    doc = {"schema_version": 1, "corpus_root": "x", "records": [_record()],
           "catalog": {"1": "Lvalue required"},
           "diagnostics": [{"file_path": "a.java", "line": 1, "message": "m"}]}
    doc.update(fields)
    return json.dumps(doc)


def _record(findings=None, **fields):
    finding = {"class_name": "A", "error_code": 1, "error_name": "Lvalue required",
               "file_path": "a.java", "line": 3, "message": "m", "detail": {}}
    record = {"class_name": "A", "file_path": "a.java", "error_codes": [1],
              "findings": [finding] if findings is None else findings}
    record.update(fields)
    return record


def _finding_with(**fields):
    """_record()'s finding with fields; a catalogued error_code brings its
    catalog name unless error_name is given."""
    finding = _record()["findings"][0] | fields
    if "error_name" not in fields and str(finding["error_code"]) in CATALOG_DOCUMENT:
        finding["error_name"] = CATALOG_DOCUMENT[str(finding["error_code"])]
    return finding


def test_minimal_document_loads(tmp_path):
    # the valid base of the malformed documents below
    path = tmp_path / "minimal.json"
    path.write_text(_doc())
    store = load_store(path)
    assert [r.class_name for r in store.records] == ["A"]
    assert store.diagnostics == (Diagnostic("m", "a.java", 1),)


def test_codes_in_detection_order_load(tmp_path):
    # the valid counterpart of codes-out-of-detection-order below: findings
    # in any order, codes by (file, line, code)
    path = tmp_path / "ordered.json"
    path.write_text(_doc(records=[_record(error_codes=[4, 1], findings=[
        _finding_with(error_code=1, line=5), _finding_with(error_code=4, line=3)])],
        catalog=CATALOG_DOCUMENT))
    assert load_store(path).records[0].error_codes == (4, 1)


@pytest.mark.parametrize("payload", [
    "[]",
    '{"schema_version": 1}',
    '{"schema_version": 1, "corpus_root": "x", "records": {}, "catalog": {}, "diagnostics": []}',
    '{"schema_version": 1, "corpus_root": "x", "records": [{"nope": 1}], "catalog": {}, "diagnostics": []}',
    '{"schema_version": 1, "corpus_root": "x", "records": [{"class_name": "A", "file_path": "a.java",'
    ' "error_codes": ["x"], "findings": []}], "catalog": {}, "diagnostics": []}',
    pytest.param('{"corpus_root": "x", "records": [], "catalog": {}, "diagnostics": []}',
                 id="no-schema_version"),
    # fields of the wrong JSON type
    pytest.param(_doc(schema_version=True), id="schema_version-bool"),
    pytest.param(_doc(corpus_root=5), id="corpus_root-int"),
    pytest.param(_doc(records=[_record(class_name=5), _record(class_name="A")]),
                 id="class_name-int-and-str"),
    pytest.param(_doc(records=[_record(file_path=5)]), id="record-file_path-int"),
    pytest.param(_doc(records=[_record(error_codes=[1.0])]), id="error_codes-float"),
    pytest.param(_doc(records=[_record(error_codes=[True])]), id="error_codes-bool"),
    pytest.param(_doc(records=[_record(error_codes="1")]), id="error_codes-str"),
    pytest.param(_doc(records=[_record(findings={})]), id="findings-object"),
    pytest.param(_doc(records=[[]]), id="record-list"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(error_code="1")])]),
                 id="error_code-str"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(line=None)])]), id="line-null"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(class_name=["A"])])]),
                 id="finding-class_name-list"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(detail=[["op", "=="]])])]),
                 id="detail-list"),
    pytest.param(_doc(records=[_record(findings=["A"])]), id="finding-str"),
    # every key save_store writes is required
    pytest.param(_doc(records=[_record(findings=[
        {k: v for k, v in _finding_with().items() if k != "detail"}])]), id="finding-no-detail"),
    pytest.param(_doc(diagnostics=[{"line": 1, "message": "m"}]), id="diagnostic-no-file_path"),
    pytest.param(_doc(diagnostics=[{"file_path": "a.java", "message": "m"}]),
                 id="diagnostic-no-line"),
    pytest.param(_doc(diagnostics=[{"file_path": 5, "line": 1, "message": "m"}]),
                 id="diagnostic-file_path-int"),
    pytest.param(_doc(diagnostics=[{"file_path": "a.java", "line": "1", "message": "m"}]),
                 id="diagnostic-line-str"),
    pytest.param(_doc(diagnostics=[{"file_path": "a.java", "line": 1}]),
                 id="diagnostic-no-message"),
    pytest.param(_doc(diagnostics=[None]), id="diagnostic-null"),
    pytest.param(_doc(catalog={"1": 5}), id="catalog-name-int"),
    pytest.param(_doc(catalog={"one": "Lvalue required"}), id="catalog-code-word"),
    # int() reads these as 1, but save_store spells code 1 only as "1"
    pytest.param(_doc(catalog={"01": "Lvalue required"}), id="catalog-code-leading-zero"),
    pytest.param(_doc(catalog={" 1": "Lvalue required"}), id="catalog-code-leading-space"),
    pytest.param(_doc(catalog={"1 ": "Lvalue required"}), id="catalog-code-trailing-space"),
    pytest.param(_doc(catalog={"+1": "Lvalue required"}), id="catalog-code-plus-sign"),
    pytest.param(_doc(catalog={"\u0661": "Lvalue required"}), id="catalog-code-arabic-indic-digit"),
    # names that differ from ERROR_CATALOG's
    pytest.param(_doc(catalog={"1": "Foo"}), id="catalog-renamed"),
    pytest.param(_doc(catalog={"1": "Spaghetti error"}), id="catalog-name-of-another-code"),
    pytest.param(_doc(catalog={"1": "Lvalue required", "9": "Nine"}), id="catalog-unused-foreign-code"),
    pytest.param(_doc(records=[_record(error_codes=[6], findings=[
        _finding_with(error_code=6, error_name="Spaghetti error")])], catalog=CATALOG_DOCUMENT),
        id="finding-name-of-another-code"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(error_name="lvalue required")])]),
                 id="finding-name-misspelled"),
    # records whose codes cluster and render_report could not use
    pytest.param(_doc(records=[_record(error_codes=[9], findings=[_finding_with(error_code=9)])],
                      catalog={}), id="code-in-no-catalog"),
    pytest.param(_doc(catalog={}), id="code-not-in-store-catalog"),
    pytest.param(_doc(records=[_record(error_codes=[9], findings=[_finding_with(error_code=9)])],
                      catalog={"1": "Lvalue required", "9": "Nine"}), id="code-not-in-catalog"),
    pytest.param(_doc(records=[_record(error_codes=[], findings=[])]), id="error_codes-empty"),
    pytest.param(_doc(records=[_record(error_codes=[])]), id="error_codes-empty-with-findings"),
    pytest.param(_doc(records=[_record(error_codes=[1, 4])], catalog=CATALOG_DOCUMENT),
                 id="code-without-finding"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(error_code=4)])],
                      catalog=CATALOG_DOCUMENT), id="finding-code-not-listed"),
    pytest.param(_doc(records=[_record(error_codes=[1, 4], findings=[
        _finding_with(error_code=4, line=3), _finding_with(error_code=1, line=5)])],
        catalog=CATALOG_DOCUMENT), id="codes-out-of-detection-order"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deeply"),
])
def test_load_rejects_foreign_documents(tmp_path, payload):
    path = tmp_path / "foreign.json"
    path.write_text(payload)
    with pytest.raises(FormatError):
        load_store(path)


def test_saved_store_has_one_record_or_diagnostic_per_line(tmp_path):
    rng = random.Random(99)
    store = _random_store(rng)
    while not (store.records and store.diagnostics):
        store = _random_store(rng)
    path = tmp_path / "lines.json"
    save_store(store, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    payload = reference_document(store)
    # one line per top-level key in sorted order, one per list element
    expected = ["{"]
    for key in sorted(payload):
        if isinstance(payload[key], list) and payload[key]:
            expected.append(f'  "{key}": [')
            expected.extend(payload[key])
            expected.append("  ],")
        else:
            expected.append((f'  "{key}"', payload[key]))
    expected.append("}")
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        if isinstance(want, str):
            assert line.rstrip(",") == want.rstrip(",")
        elif isinstance(want, tuple):
            key, _, value = line.partition(": ")
            assert (key, json.loads(value.rstrip(","))) == want
        else:
            assert line.startswith("    {")
            assert json.loads(line.rstrip(",")) == want


def test_load_reads_the_indented_layout(reference_store, tmp_path):
    # stores written with json.dumps(indent=2, sort_keys=True) still load
    store = AnalysisStore(
        corpus_root=reference_store.corpus_root,
        records=reference_store.records,
        diagnostics=(Diagnostic("skipped", "a.java", 4), Diagnostic("cycle")),
    )
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(reference_document(store), indent=2, sort_keys=True) + "\n")
    assert load_store(path) == store


def test_store_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_store(tmp_path / "absent.json")


def _random_store(rng: random.Random) -> AnalysisStore:
    records = []
    for index in range(rng.randint(0, 5)):
        name = f"Class{index}_{rng.randrange(100)}"
        file_path = f"dir{rng.randrange(3)}/{name}.java"
        findings = tuple(
            _finding(
                name,
                rng.randint(1, 6),
                file_path,
                rng.randint(1, 80),
                detail={"n": rng.randrange(10), "items": [rng.randrange(5)]},
            )
            for _ in range(rng.randint(1, 4))
        )
        codes = []
        for f in sorted(findings, key=Finding.sort_key):
            if f.error_code not in codes:
                codes.append(f.error_code)
        records.append(ClassRecord(name, file_path, tuple(codes), findings))
    records.sort(key=lambda r: r.class_name)
    diagnostics = tuple(
        Diagnostic(
            message=f"diag {i}",
            file_path=rng.choice([None, f"f{i}.java"]),
            line=rng.choice([None, rng.randint(1, 30)]),
        )
        for i in range(rng.randint(0, 3))
    )
    return AnalysisStore(
        corpus_root=f"corpus-{rng.randrange(10)}",
        records=tuple(records),
        diagnostics=diagnostics,
    )


def test_round_trip_generated_stores(tmp_path):
    rng = random.Random(777)
    for index in range(50):
        store = _random_store(rng)
        path = tmp_path / f"store{index}.json"
        save_store(store, path)
        assert load_store(path) == store


def test_partial_catalog_loads_and_saves_whole(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(_doc())
    store = load_store(path)
    save_store(store, path)
    assert json.loads(path.read_text())["catalog"] == CATALOG_DOCUMENT
    assert load_store(path) == store


def _report_sections(report: str) -> tuple[dict, list]:
    """A text report's per-class section as {class: [(code, name), ...]} and
    its cluster section as [([(code, name), ...], [class, ...]), ...]."""
    per_class: dict[str, list] = {}
    clusters = []
    section = None
    for line in report.splitlines():
        if line in ("Per-class errors:", "Error clusters:"):
            section = line
        elif not line.startswith("  "):
            section = None
        elif section == "Per-class errors:":
            if line.startswith("    ["):
                code, _, name = line.strip()[1:].partition("] ")
                per_class[current].append((int(code), name))
            else:
                current = line.split()[0]
                per_class[current] = []
        elif section == "Error clusters:":
            if line.startswith("      classes: "):
                clusters[-1][1].extend(line.split(": ", 1)[1].split(", "))
            else:
                codes, _, names = line.strip()[1:].partition("] ")
                clusters.append((list(zip(map(int, codes.split(",")), names.split(", "))), []))
    return per_class, clusters


def test_every_store_that_loads_names_each_code_alike_in_both_report_sections(tmp_path):
    # each document has one catalog entry or one finding renamed to a
    # random catalog name, often its own, or is left as written
    rng = random.Random(1919)
    names = list(ERROR_CATALOG.values())
    path = tmp_path / "store.json"
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(120):
        store = _random_store(rng)
        while not store.records:
            store = _random_store(rng)
        data = reference_document(store)
        change = rng.randrange(3)
        if change == 0:
            data["catalog"][rng.choice(sorted(data["catalog"]))] = rng.choice(names)
        elif change == 1:
            rng.choice(rng.choice(data["records"])["findings"])["error_name"] = rng.choice(names)
        path.write_text(json.dumps(data))
        try:
            loaded = load_store(path)
        except FormatError:
            outcomes["rejected"] += 1
            continue
        outcomes["loaded"] += 1
        per_class, clusters = _report_sections(
            render_report(loaded, cluster(list(loaded.records))))
        assert sorted(per_class) == sorted(r.class_name for r in loaded.records)
        for entries, classes in clusters:
            for name in classes:
                assert sorted(per_class[name]) == entries
        # and they are the names the file holds
        for entries in per_class.values():
            for code, name in entries:
                assert data["catalog"][str(code)] == name
        for record in data["records"]:
            for finding in record["findings"]:
                assert (finding["error_code"], finding["error_name"]) \
                    in per_class[record["class_name"]]
    assert min(outcomes.values()) > 10, outcomes


def _random_json(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 2 else 7)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.choice([0, 1, -1, 6, 7, 2**63, rng.randint(-100, 100)])
    if kind == 3:
        return rng.choice([float("nan"), float("inf"), -0.0, 1.5, 4.0])
    if kind == 4:
        return rng.choice(["", "A", "a.java", "\u00e9\u6f22", "Lvalue required", "x" * 300])
    if kind == 5:
        return str(rng.randint(0, 7))
    if kind == 6:
        return []
    if kind == 7:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return {rng.choice(["line", "records", "message", "k"]): _random_json(rng, depth + 1)
            for _ in range(rng.randint(1, 3))}


def _containers(value):
    """Every list and dict in a JSON value, the value first."""
    found = [value]
    for child in (value.values() if isinstance(value, dict) else value):
        if isinstance(child, (dict, list)):
            found.extend(_containers(child))
    return found


def _mutate(rng: random.Random, document: dict) -> None:
    """Set a value at a random path to a random JSON value, drop a key, or
    duplicate a list element, in place."""
    containers = _containers(document)
    change = rng.randrange(3)
    if change == 1:
        maps = [c for c in containers if isinstance(c, dict) and c]
        target = rng.choice(maps)
        del target[rng.choice(sorted(target))]
        return
    if change == 2:
        lists = [c for c in containers if isinstance(c, list) and c]
        if lists:
            target = rng.choice(lists)
            index = rng.randrange(len(target))
            target.insert(index, json.loads(json.dumps(target[index])))
            return
    target = rng.choice([c for c in containers if c])
    key = rng.choice(sorted(target) if isinstance(target, dict) else range(len(target)))
    target[key] = _random_json(rng)


def test_mutated_store_documents_load_or_raise_format_error(tmp_path):
    # a real store: parse diagnostics in files, duplicate-class diagnostics,
    # findings of every rule
    scanned = run_scan(RunConfig(corpus_root=CASES_DIR.parent)).store
    path = tmp_path / "store.json"
    save_store(scanned, path)
    original = path.read_text(encoding="utf-8")
    rng = random.Random(2311)
    outcomes = {"loaded": 0, "rejected": 0}
    saved_nan = 0
    for _ in range(1500):
        document = json.loads(original)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, document)
        path.write_text(json.dumps(document), encoding="utf-8")
        try:
            store = load_store(path)
        except FormatError:
            outcomes["rejected"] += 1
            continue
        outcomes["loaded"] += 1
        clusters = cluster(list(store.records))
        assert render_report(store, clusters, "text")
        assert render_report(store, clusters, "json")
        # bytes, not objects: a NaN in a finding's detail is not equal to itself
        save_store(store, path)
        saved = path.read_bytes()
        save_store(load_store(path), path)
        assert path.read_bytes() == saved
        saved_nan += b"NaN" in saved
    assert min(outcomes.values()) > 200 and saved_nan, (outcomes, saved_nan)


# --- reports -------------------------------------------------------------------


def test_text_report_lists_classes_and_clusters(reference_store, reference_records):
    clusters = cluster(reference_records)
    report = render_report(reference_store, clusters, "text", scanned_classes=12)
    assert "Classes scanned: 12 | faulty: 6" in report
    for name, codes in EXPECTED_RECORDS:
        assert f"  {name}  (" in report
    # six cluster rows
    assert report.count("classes:") == 6
    # catalog names verbatim
    for name in ERROR_CATALOG.values():
        assert name in report


def test_text_report_error_names_in_record_order(reference_store, reference_records):
    clusters = cluster(reference_records)
    report = render_report(reference_store, clusters, "text")
    loopa_at = report.index("  loopa  (")
    section = report[loopa_at:report.index("\n  sample")]
    assert section.index("[1] Lvalue required") \
        < section.index("[6] Undefined loop exception") \
        < section.index("[5] Illicit file usage exception")


def test_empty_report_has_marker_and_no_cluster_rows():
    store = AnalysisStore(corpus_root="x", records=())
    report = render_report(store, [], "text", scanned_classes=3)
    assert "No faulty classes." in report
    assert "classes:" not in report
    assert "Classes scanned: 3 | faulty: 0" in report


def test_json_report_reparses_to_store_plus_clusters(reference_store, reference_records, tmp_path):
    clusters = cluster(reference_records)
    report = render_report(reference_store, clusters, "json")
    data = json.loads(report)
    clusters_part = data.pop("clusters")
    assert data == reference_document(reference_store)
    assert [c["classes"] for c in clusters_part] == [list(c.classes) for c in clusters]
    # and the store half equals what load_store reads back from disk
    path = tmp_path / "fl.json"
    save_store(reference_store, path)
    assert load_store(path) == reference_store


def test_report_byte_deterministic(reference_store, reference_records):
    clusters = cluster(reference_records)
    for fmt in ("text", "json"):
        a = render_report(reference_store, clusters, fmt, scanned_classes=12)
        b = render_report(reference_store, clusters, fmt, scanned_classes=12)
        assert a.encode() == b.encode()


def test_report_rejects_unknown_format(reference_store):
    with pytest.raises(ValueError):
        render_report(reference_store, [], "xml")


def test_catalog_consistency_everywhere(reference_store, reference_records):
    clusters = cluster(reference_records)
    text = render_report(reference_store, clusters, "text")
    data = json.loads(render_report(reference_store, clusters, "json"))
    for record in data["records"]:
        for finding in record["findings"]:
            assert finding["error_name"] == ERROR_CATALOG[finding["error_code"]]
            assert finding["error_name"] in text
    assert data["catalog"] == {str(k): v for k, v in ERROR_CATALOG.items()}


# --- the line writer against the join-based reference ----------------------

_encode = json.JSONEncoder(sort_keys=True).encode


def reference_canonical_json(payload: dict) -> str:
    """The store layout as first written: the whole document built in
    memory, then joined. save_store and the JSON report stream the same
    bytes one line at a time."""
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


def reference_json_report(store: AnalysisStore, clusters) -> str:
    payload = reference_document(store)
    payload["clusters"] = [
        {"error_codes": list(c.error_set),
         "error_names": [CATALOG_DOCUMENT[str(code)] for code in c.error_set],
         "classes": list(c.classes)}
        for c in clusters
    ]
    return reference_canonical_json(payload)


def assert_writers_match_reference(store: AnalysisStore, path) -> None:
    clusters = cluster(list(store.records))
    save_store(store, path)
    assert path.read_bytes() == reference_canonical_json(reference_document(store)).encode("utf-8")
    assert render_report(store, clusters, "json") == reference_json_report(store, clusters)


def _non_ascii_store() -> AnalysisStore:
    name = "Klasse\u00e9\u6f22"
    finding = Finding(name, 2, "d\u00ef/\u00c4.java", 3,
                      "extends B, \u00c5 \u2192 two superclasses",
                      {"supers": ["B", "\u00c5"], "note": "\U0001f600"})
    return AnalysisStore(
        corpus_root="c\u00f6rpus",
        records=(ClassRecord(name, "d\u00ef/\u00c4.java", (2,), (finding,)),),
        diagnostics=(Diagnostic("unexpected '\u00a7' \u2014 skipped", "\u00e9.java", 7),
                     Diagnostic("inheritance cycle: \u00c9 -> \u00c9")),
    )


@pytest.mark.parametrize("corpus", [REFERENCE_CORPUS_DIR, CASES_DIR], ids=lambda p: p.name)
def test_writers_match_reference_on_fixture_folders(corpus, tmp_path):
    store = run_scan(RunConfig(corpus_root=corpus)).store
    assert store.records
    assert_writers_match_reference(store, tmp_path / "store.json")


def test_writers_match_reference_on_generated_stores(tmp_path):
    rng = random.Random(4242)
    for index in range(60):
        assert_writers_match_reference(_random_store(rng), tmp_path / f"store{index}.json")


@pytest.mark.parametrize("store", [
    AnalysisStore(corpus_root="", records=()),
    _non_ascii_store(),
], ids=["empty", "non-ascii"])
def test_writers_match_reference_on_edge_stores(store, tmp_path):
    assert_writers_match_reference(store, tmp_path / "store.json")


# characters a writer must escape or pass through: JSON's own quote and
# backslash, every control character, DEL and space, non-ASCII characters of
# the Basic Multilingual Plane and beyond it, and the lone surrogate that an
# undecodable byte of a file name becomes
AWKWARD_CHARACTERS = ('"', "\\", *map(chr, range(0x20)), "\x7f", " ",
                      "\u00e9", "\u2028", "\u6f22", "\uffff", "\U0001f600", "\U0010ffff",
                      "\udcff")


def _awkward_text(rng: random.Random) -> str:
    return "".join(rng.choice(AWKWARD_CHARACTERS) for _ in range(rng.randint(0, 6)))


def _awkward_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5 if depth < 3 else 3)
    if kind == 0:
        return _awkward_text(rng)
    if kind == 1:
        return rng.randint(-10**12, 10**12)
    if kind == 2:
        return None
    return [_awkward_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]


def _awkward_store(rng: random.Random) -> AnalysisStore:
    """A random store whose every string field draws from AWKWARD_CHARACTERS."""
    names = sorted({_awkward_text(rng) for _ in range(rng.randint(0, 4))})
    records = []
    for name in names:
        findings = tuple(
            Finding(name, rng.randint(1, 6), _awkward_text(rng), rng.randint(1, 80),
                    _awkward_text(rng),
                    {_awkward_text(rng): _awkward_value(rng) for _ in range(rng.randint(0, 3))})
            for _ in range(rng.randint(1, 3))
        )
        codes = tuple(dict.fromkeys(
            f.error_code for f in sorted(findings, key=Finding.sort_key)))
        records.append(ClassRecord(name, _awkward_text(rng), codes, findings))
    diagnostics = tuple(
        Diagnostic(_awkward_text(rng), rng.choice([None, _awkward_text(rng)]),
                   rng.choice([None, rng.randint(1, 30)]))
        for _ in range(rng.randint(0, 3))
    )
    return AnalysisStore(_awkward_text(rng), tuple(records), diagnostics)


def test_writers_match_reference_on_awkward_strings(tmp_path):
    rng = random.Random(2718)
    written = []
    for index in range(80):
        store = _awkward_store(rng)
        path = tmp_path / f"store{index}.json"
        assert_writers_match_reference(store, path)
        assert load_store(path) == store
        written.append(path.read_bytes())
    # the draws reach every kind of string field and escape
    text = b"".join(written)
    for escape in (b'\\"', b"\\\\", b"\\u0000", b"\\u001f", b"\\n", b"\\u007f",
                   b"\\u00e9", b"\\ud83d\\ude00", b"\\udbff\\udfff", b"\\udcff"):
        assert escape in text, escape


def test_save_store_peak_memory_is_a_fraction_of_the_document(tmp_path):
    # each record and diagnostic is encoded from its object as its line is
    # written: neither the encoded entries nor the encoded document is ever
    # held whole
    diagnostics = tuple(
        Diagnostic(f"unsupported construct starting at 'switch' number {i}", f"f{i % 97}.java", i)
        for i in range(20_000)
    )
    finding = Finding("C", 2, "c.java", 1, "extends A, B",
                      {"superclasses": ["A", "B"]})
    records = tuple(ClassRecord(f"C{i:05d}", "c.java", (2,), (finding,)) for i in range(5_000))
    for store in (AnalysisStore(corpus_root="corpus", records=(), diagnostics=diagnostics),
                  AnalysisStore(corpus_root="corpus", records=records)):
        path = tmp_path / "store.json"
        tracemalloc.start()
        try:
            save_store(store, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 4, f"peak {peak} bytes for a {size}-byte store"


CLI_ENCODER = """\
import sys
import json.encoder
if sys.argv[1] == "pure-python":
    json.encoder.c_make_encoder = None  # as on an interpreter without _json
from faultlint import store
from faultlint.cli import main
# a bound JSONEncoder.encode only on the pure-Python path
assert hasattr(store._encode, "__self__") == (sys.argv[1] == "pure-python")
sys.exit(main(sys.argv[2:]))
"""

NON_ASCII_SOURCES = {
    # parse diagnostics that quote a non-ASCII character, in non-ASCII
    # file names, non-ASCII class names in findings and in a duplicate
    # class diagnostic
    "z.java": "class Ké { void m() { x = §; } }\n",
    "ü.java": "class Ké { }\n",
    "Ä.java": ("class Kö extends A, B\n{\n    void m(String s)\n    {\n"
               "        int § = 1;\n        if (s == \"漢\") { }\n    }\n}\n"),
    "é.java": "class Z { void f() { x = \"→\" + \U0001f600; } }\n",
}


def test_writers_without_the_c_encoder_write_the_same_bytes(tmp_path):
    # the CLI's --store file and --format json report, exit code and stderr
    non_ascii = tmp_path / "non-ascii"
    non_ascii.mkdir()
    for name, text in NON_ASCII_SOURCES.items():
        (non_ascii / name).write_text(text, encoding="utf-8")
    src_dir = str(Path(faultlint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src_dir)
    for corpus in (REFERENCE_CORPUS_DIR, CASES_DIR, non_ascii):
        runs = {}
        for encoder in ("pure-python", "c"):
            store_path = tmp_path / f"{encoder}.json"
            child = subprocess.run(
                [sys.executable, "-c", CLI_ENCODER, encoder, str(corpus), "--format", "json",
                 "--store", str(store_path)],
                capture_output=True, env=env, timeout=120,
            )
            runs[encoder] = (child.returncode, child.stdout, child.stderr,
                             store_path.read_bytes())
        assert runs["pure-python"] == runs["c"], corpus.name
        returncode, stdout, stderr, store_bytes = runs["c"]
        assert (returncode, stderr) == (1, b"") and stdout.startswith(b"{\n"), corpus.name
    diagnostics = json.loads(store_bytes)["diagnostics"]
    assert [d["file_path"] for d in diagnostics] == ["z.java", "Ä.java", "é.java", None]
    assert [any(ord(c) > 127 for c in d["message"]) for d in diagnostics] == [
        True, False, True, True]
    assert b"\\u00f6" in store_bytes  # Kö's findings
