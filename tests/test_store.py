from __future__ import annotations

import json
import random
import tracemalloc

import pytest

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
    store_to_dict,
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


def _finding(class_name, code, file_path, line, detail=None):
    return Finding(
        class_name=class_name,
        error_code=code,
        error_name=ERROR_CATALOG[code],
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
    assert clusters[0].error_names == (
        "Lvalue required", "Undefined loop exception",
    )


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
    payload = store_to_dict(AnalysisStore(corpus_root="x", records=()))
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
    return _record()["findings"][0] | fields


_CATALOG = {str(code): name for code, name in ERROR_CATALOG.items()}


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
        catalog=_CATALOG))
    assert load_store(path).records[0].error_codes == (4, 1)


@pytest.mark.parametrize("payload", [
    "[]",
    '{"schema_version": 1}',
    '{"schema_version": 1, "corpus_root": "x", "records": {}, "catalog": {}, "diagnostics": []}',
    '{"schema_version": 1, "corpus_root": "x", "records": [{"nope": 1}], "catalog": {}, "diagnostics": []}',
    '{"schema_version": 1, "corpus_root": "x", "records": [{"class_name": "A", "file_path": "a.java",'
    ' "error_codes": ["x"], "findings": []}], "catalog": {}, "diagnostics": []}',
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
    pytest.param(_doc(diagnostics=[{"file_path": 5, "line": 1, "message": "m"}]),
                 id="diagnostic-file_path-int"),
    pytest.param(_doc(diagnostics=[{"file_path": "a.java", "line": "1", "message": "m"}]),
                 id="diagnostic-line-str"),
    pytest.param(_doc(diagnostics=[{"file_path": "a.java", "line": 1}]),
                 id="diagnostic-no-message"),
    pytest.param(_doc(diagnostics=[None]), id="diagnostic-null"),
    pytest.param(_doc(catalog={"1": 5}), id="catalog-name-int"),
    pytest.param(_doc(catalog={"one": "Lvalue required"}), id="catalog-code-word"),
    # records whose codes cluster and render_report could not use
    pytest.param(_doc(records=[_record(error_codes=[9], findings=[_finding_with(error_code=9)])],
                      catalog={}), id="code-in-no-catalog"),
    pytest.param(_doc(catalog={}), id="code-not-in-store-catalog"),
    pytest.param(_doc(records=[_record(error_codes=[9], findings=[_finding_with(error_code=9)])],
                      catalog={"1": "Lvalue required", "9": "Nine"}), id="code-not-in-catalog"),
    pytest.param(_doc(records=[_record(error_codes=[], findings=[])]), id="error_codes-empty"),
    pytest.param(_doc(records=[_record(error_codes=[])]), id="error_codes-empty-with-findings"),
    pytest.param(_doc(records=[_record(error_codes=[1, 4])], catalog=_CATALOG),
                 id="code-without-finding"),
    pytest.param(_doc(records=[_record(findings=[_finding_with(error_code=4)])],
                      catalog=_CATALOG), id="finding-code-not-listed"),
    pytest.param(_doc(records=[_record(error_codes=[1, 4], findings=[
        _finding_with(error_code=4, line=3), _finding_with(error_code=1, line=5)])],
        catalog=_CATALOG), id="codes-out-of-detection-order"),
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
    payload = store_to_dict(store)
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
    path.write_text(json.dumps(store_to_dict(store), indent=2, sort_keys=True) + "\n")
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
    assert data == store_to_dict(reference_store)
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
    for record in reference_store.records:
        for finding in record.findings:
            assert finding.error_name == ERROR_CATALOG[finding.error_code]
            assert ERROR_CATALOG[finding.error_code] in text
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
    payload = store_to_dict(store)
    payload["clusters"] = [
        {"error_codes": list(c.error_set), "error_names": list(c.error_names),
         "classes": list(c.classes)}
        for c in clusters
    ]
    return reference_canonical_json(payload)


def assert_writers_match_reference(store: AnalysisStore, path) -> None:
    clusters = cluster(list(store.records))
    save_store(store, path)
    assert path.read_bytes() == reference_canonical_json(store_to_dict(store)).encode("utf-8")
    assert render_report(store, clusters, "json") == reference_json_report(store, clusters)


def _non_ascii_store() -> AnalysisStore:
    name = "Klasse\u00e9\u6f22"
    finding = Finding(name, 2, ERROR_CATALOG[2], "d\u00ef/\u00c4.java", 3,
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
    AnalysisStore(corpus_root="x", records=(), diagnostics=(), catalog={}),
    _non_ascii_store(),
], ids=["empty", "empty-catalog", "non-ascii"])
def test_writers_match_reference_on_edge_stores(store, tmp_path):
    assert_writers_match_reference(store, tmp_path / "store.json")


def test_save_store_peak_memory_is_a_fraction_of_the_document(tmp_path):
    # the writer streams: at no time does it hold the encoded document whole
    diagnostics = tuple(
        Diagnostic(f"unsupported construct starting at 'switch' number {i}", f"f{i % 97}.java", i)
        for i in range(20_000)
    )
    store = AnalysisStore(corpus_root="corpus", records=(), diagnostics=diagnostics)
    path = tmp_path / "store.json"
    tracemalloc.start()
    try:
        save_store(store, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000
    assert peak < 2.5 * size, f"peak {peak} bytes for a {size}-byte store"
