"""Acceptance gate: one test per acceptance criterion, exact tolerances.

Each criterion prints a single `ACCEPTANCE Cn: PASS/FAIL` line (visible
with `pytest tests/test_acceptance.py -v -s`).
"""

from __future__ import annotations

import json
import random
import shutil
import time
from contextlib import contextmanager

from faultlint.cli import main
from faultlint.detectors import (
    ERROR_CATALOG,
    Finding,
    run_all,
)
from faultlint.parser import parse_source
from faultlint.store import (
    AnalysisStore,
    aggregate,
    cluster,
    load_store,
    render_report,
    save_store,
)

from conftest import (
    CASES_DIR,
    REFERENCE_CORPUS_DIR,
    linear_chain_source,
    model_for_dir,
    model_for_files,
    model_for_source,
)
from test_store import _random_store

EXPECTED_RECORDS = [
    ("A", [1, 6]),
    ("ML_G", [3]),
    ("ML_H", [3, 4]),
    ("MP_A", [2, 5]),
    ("loopa", [1, 6, 5]),
    ("sample", [1, 4]),
]


@contextmanager
def criterion(name: str, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL — {title}")
        raise
    print(f"ACCEPTANCE {name}: PASS — {title}")


# -- criterion 1 --------------------------------------------------------------


def test_c1_reference_corpus_reproduction():
    with criterion("C1", "reference corpus: exact per-class code lists and order, < 1 s"):
        started = time.perf_counter()
        model = model_for_dir(REFERENCE_CORPUS_DIR)
        findings = run_all(model)
        records = aggregate(findings)
        elapsed = time.perf_counter() - started

        assert [(r.class_name, list(r.error_codes)) for r in records] == \
            EXPECTED_RECORDS
        assert elapsed < 1.0, f"scan took {elapsed:.3f}s"


# -- criterion 2 --------------------------------------------------------------


def test_c2_reference_program_behavior():
    with criterion("C2", "single-fault reference programs: exact counts and lines"):
        # seven-class chain: exactly one code-3 finding, on the deepest class
        chain6 = model_for_files(CASES_DIR / "deep_chain.java")
        spaghetti = run_all(chain6, {3})
        assert [(f.class_name, f.error_code) for f in spaghetti] == [("ML_G", 3)]

        itu_case = model_for_files(CASES_DIR / "stack_vector_itu.java")
        itu = run_all(itu_case, {4})
        assert [(f.error_code, f.line) for f in itu] == [(4, 11)]  # the g(s) call

        streq_case = model_for_files(CASES_DIR / "string_equality.java")
        lvalue = run_all(streq_case, {1})
        assert [(f.error_code, f.line) for f in lvalue] == [(1, 8)]  # if(d==e)

        emptyloop_case = model_for_files(CASES_DIR / "empty_do_while.java")
        loop_findings = run_all(emptyloop_case)
        assert [(f.error_code, f.line) for f in loop_findings] == [(6, 10)]  # the do line
        assert not any(f.error_code == 1 for f in loop_findings)

        stream_case = model_for_files(CASES_DIR / "unclosed_stream.java")
        illicit = run_all(stream_case, {5})
        assert [(f.detail["variable"], f.line) for f in illicit] == [("data_out", 10)]
        assert not any(f.detail["variable"] == "file_output" for f in illicit)

        dblext_case = model_for_files(CASES_DIR / "double_extends.java")
        incorrect = run_all(dblext_case)
        assert [(f.error_code, f.line) for f in incorrect] == [(2, 1)]


# -- criterion 3 --------------------------------------------------------------


def test_c3_catalog_spelling_in_reports_and_store(tmp_path):
    with criterion("C3", "error catalog spelled byte-identically everywhere"):
        expected = {
            1: "Lvalue required",
            2: "Incorrect inheritance error",
            3: "Spaghetti error",
            4: "Inconsistent Type Usage error",
            5: "Illicit file usage exception",
            6: "Undefined loop exception",
        }
        assert ERROR_CATALOG == expected

        model = model_for_dir(REFERENCE_CORPUS_DIR)
        records = aggregate(run_all(model))
        clusters = cluster(records)
        store = AnalysisStore(corpus_root="reference_corpus", records=tuple(records))

        text = render_report(store, clusters, "text", scanned_classes=12)
        for name in expected.values():
            assert name in text

        json_report = json.loads(render_report(store, clusters, "json", scanned_classes=12))
        assert json_report["catalog"] == {str(k): v for k, v in expected.items()}
        for record in json_report["records"]:
            for finding in record["findings"]:
                assert finding["error_name"] == expected[finding["error_code"]]

        path = tmp_path / "store.json"
        save_store(store, path)
        stored = json.loads(path.read_text())
        assert stored["catalog"] == {str(k): v for k, v in expected.items()}
        assert load_store(path) == store


# -- criterion 4 --------------------------------------------------------------


EXTRA_16_CLASSES = """\
class extraOne
{
    String p = "a";
    String q = "b";
    void run()
    {
        while (p == q)
        {
        }
    }
}
class extraTwo
{
    String p = "a";
    String q = "b";
    void run()
    {
        do
        {
        } while (n > 0);
        if (p == q)
        {
        }
    }
}
"""


def test_c4_clustering(tmp_path):
    with criterion("C4", "six singleton clusters; shared {1,6} set joins one cluster"):
        model = model_for_dir(REFERENCE_CORPUS_DIR)
        records = aggregate(run_all(model))
        clusters = cluster(records)
        assert len(clusters) == 6
        assert all(len(c.classes) == 1 for c in clusters)

        # augmented corpus: two extra classes that both carry exactly {1,6},
        # one of them in display order [6,1]
        augmented = tmp_path / "augmented"
        shutil.copytree(REFERENCE_CORPUS_DIR, augmented)
        (augmented / "extra.java").write_text(EXTRA_16_CLASSES, encoding="utf-8")

        aug_model = model_for_dir(augmented)
        aug_records = aggregate(run_all(aug_model))
        by_name = {r.class_name: list(r.error_codes) for r in aug_records}
        assert by_name["extraOne"] == [1, 6]
        assert by_name["extraTwo"] == [6, 1]  # set-equal, display-different

        aug_clusters = cluster(aug_records)
        one_six = [c for c in aug_clusters if c.error_set == (1, 6)]
        assert len(one_six) == 1
        assert one_six[0].classes == ("A", "extraOne", "extraTwo")

        # partition: every faulty class in exactly one cluster
        names = [n for c in aug_clusters for n in c.classes]
        assert len(names) == len(set(names)) == len(aug_records)


# -- criterion 5 --------------------------------------------------------------


CLEAN_TEMPLATE = """\
class Clean%d
{
    int counter;
    Clean%d()
    {
        counter = 0;
    }
    void work()
    {
        for (i = 0; i < 10; i++)
        {
            counter++;
        }
        if (counter > 5)
        {
            counter--;
        }
    }
}
"""


def test_c5_desk_scale_experiment(tmp_path, capsys):
    with criterion("C5", ">= 20 classes, byte-identical reruns, exit 1, < 5 s"):
        corpus = tmp_path / "desk"
        shutil.copytree(REFERENCE_CORPUS_DIR, corpus)  # 12 classes, 6 faulty
        for i in range(10):
            (corpus / f"Clean{i}.java").write_text(
                CLEAN_TEMPLATE % (i, i), encoding="utf-8"
            )

        started = time.perf_counter()
        code_a = main([str(corpus), "--store", str(tmp_path / "a.json")])
        elapsed = time.perf_counter() - started
        out_a = capsys.readouterr().out

        code_b = main([str(corpus), "--store", str(tmp_path / "b.json")])
        out_b = capsys.readouterr().out

        assert "Classes scanned: 22" in out_a
        assert (code_a, code_b) == (1, 1)
        assert out_a.encode() == out_b.encode()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert elapsed < 5.0, f"scan took {elapsed:.3f}s"


# -- criterion 6: property suites ----------------------------------------------


def test_c6_d3_threshold_1000_chains():
    with criterion("C6a", "spaghetti threshold vs depth oracle, 1000 chains"):
        rng = random.Random(0xD3)
        for _ in range(1000):
            k = rng.randint(0, 10)
            names = [f"C{i}_{rng.randrange(10**5)}" for i in range(k + 1)]
            parent_of = {c: p for p, c in zip(names, names[1:])}

            def oracle_depth(start):
                count = 0
                node = start
                while node in parent_of:
                    node = parent_of[node]
                    count += 1
                return count

            model = model_for_source(linear_chain_source(names), "chain.java")
            flagged = {f.class_name for f in run_all(model, {3})}
            expected = {n for n in names if oracle_depth(n) >= 6}
            assert flagged == expected


def test_c6_d1_exhaustive_truth_table():
    with criterion("C6b", "string-comparison truth table, exhaustive"):
        declarations = {
            "String": 'String {v} = "s";',
            "int": "int {v} = 1;",
            "Unknown": "",
        }
        for left in declarations:
            for right in declarations:
                for op in ("==", "!=", "<"):
                    body = " ".join((
                        declarations[left].format(v="lhs"),
                        declarations[right].format(v="rhs"),
                        f"if (lhs {op} rhs) {{ }}",
                    ))
                    model = model_for_source(
                        f"class T {{ void m() {{ {body} }} }}", "t.java"
                    )
                    expected = op in ("==", "!=") and "String" in (left, right)
                    assert bool(run_all(model, {1})) == expected, \
                        (left, right, op)


def test_c6_d5_500_open_close_sequences():
    with criterion("C6c", "resource close detection vs text-scan oracle, 500 cases"):
        rng = random.Random(0xD5)
        resource_types = [
            "FileOutputStream", "FileInputStream", "DataOutputStream",
            "FileReader", "FileWriter", "BufferedReader",
        ]
        for _ in range(500):
            count = rng.randint(1, 5)
            names = [f"res{i}" for i in range(count)]
            statements = [
                f"{rng.choice(resource_types)} {name} = new {rng.choice(resource_types)}(f);"
                for name in names
            ]
            statements += [
                f"{name}.close();" for name in names if rng.random() < 0.5
            ]
            rng.shuffle(statements)
            # declarations must precede use for the scope to resolve, but a
            # close before the open still counts (whole-body search)
            body = "\n        ".join(statements)
            source = f"class g\n{{\n    void m()\n    {{\n        {body}\n    }}\n}}\n"
            expected = {n for n in names if f"{n}.close()" not in source}
            model = model_for_source(source, "g.java")
            flagged = {f.detail["variable"] for f in run_all(model, {5})}
            assert flagged == expected


ITU_SHAPE = """\
class shape{n}
{{
    public void f (Stack s)
    {{
        String item = "x";
        s.push (item);
        {call} (s);
        {post}
    }}
    public void {call} ({param} v)
    {{
        {body}
    }}
}}
"""


def test_c6_d4_three_condition_ablation():
    with criterion("C6d", "inconsistent-type-usage needs all three conditions"):
        rng = random.Random(0xD4)
        for index in range(200):
            descendant = rng.random() < 0.5
            mutating = rng.random() < 0.5
            post_use = rng.random() < 0.5
            source = ITU_SHAPE.format(
                n=index,
                call=f"sink{index}",
                param="Vector" if descendant else "Stack",
                body="v.removeElementAt (v.size()-1);" if mutating else "v.size();",
                post="s.pop();" if post_use else ";",
            )
            model = model_for_source(source, f"shape{index}.java")
            expected = descendant and mutating and post_use
            assert bool(run_all(model, {4})) == expected, \
                (descendant, mutating, post_use)


def test_c6_parser_multiple_extends_tolerance():
    with criterion("C6e", "extends lists of length 1..5 parse losslessly"):
        rng = random.Random(0xED)
        for n in range(1, 6):
            for _ in range(40):
                names = [f"S{rng.randrange(10**4)}_{i}" for i in range(n)]
                unit = parse_source(
                    f"class C extends {', '.join(names)} {{ }}", "c.java"
                )
                assert unit.diagnostics == ()
                assert list(unit.classes[0].extends_list) == names


def test_c6_store_round_trip_200(tmp_path):
    with criterion("C6f", "store round-trip identity, 200 generated stores"):
        rng = random.Random(0x57)
        for index in range(200):
            store = _random_store(rng)
            path = tmp_path / f"s{index}.json"
            save_store(store, path)
            assert load_store(path) == store


def test_c6_aggregate_cluster_permutation_invariance_200():
    with criterion("C6g", "aggregate/cluster invariant under input shuffles, 200x"):
        model = model_for_dir(REFERENCE_CORPUS_DIR)
        findings = run_all(model)
        base_records = aggregate(findings)
        base_clusters = cluster(base_records)
        base_store = AnalysisStore(corpus_root="t", records=tuple(base_records))
        base_bytes = render_report(base_store, base_clusters, "json", scanned_classes=12).encode()

        rng = random.Random(0xA6)
        for _ in range(200):
            shuffled = list(findings)
            rng.shuffle(shuffled)
            resorted = sorted(shuffled, key=Finding.sort_key)
            records = aggregate(resorted)
            clusters = cluster(records)
            assert records == base_records
            assert clusters == base_clusters
            store = AnalysisStore(corpus_root="t", records=tuple(records))
            assert render_report(store, clusters, "json", scanned_classes=12).encode() == base_bytes
