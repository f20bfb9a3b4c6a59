from __future__ import annotations

import ast
import gc
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import faultlint
import faultlint.cli
import faultlint.store
from faultlint import __version__
from faultlint.cli import (
    RunConfig,
    ScanError,
    UsageError,
    collect_java_files,
    main,
    parse_args,
    run_scan,
)
from faultlint.lexer import tokenize
from faultlint.nodes import CompilationUnit, MethodDecl
from faultlint.parser import MAX_NESTING, parse_source
from faultlint.store import cluster, load_store, render_report

from conftest import (
    CASES_DIR,
    FIXTURES,
    NESTING_SHAPES,
    REFERENCE_CORPUS_DIR,
    nested_source,
)
from test_acceptance import EXPECTED_RECORDS
from test_store import CATALOG_DOCUMENT, reference_document

CLEAN_CLASS = """\
class Tidy%d
{
    int n;
    void bump()
    {
        n++;
    }
}
"""


def make_clean_corpus(root, count=3):
    root.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        (root / f"Tidy{i}.java").write_text(CLEAN_CLASS % i, encoding="utf-8")
    return root


def run_python(args, timeout=120):
    """Run the interpreter on args with this checkout's package importable."""
    src_dir = str(Path(faultlint.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


# --- parse_args -------------------------------------------------------------


def test_parse_args_rules_subset():
    config = parse_args(["corpus", "--rules", "1,6"])
    assert config.enabled_rules == frozenset({1, 6})
    assert config.corpus_root.name == "corpus"


def test_parse_args_rule_out_of_range():
    with pytest.raises(UsageError):
        parse_args(["corpus", "--rules", "9"])


def test_parse_args_rule_not_a_number():
    with pytest.raises(UsageError):
        parse_args(["corpus", "--rules", "one"])


def test_parse_args_empty_rules():
    with pytest.raises(UsageError):
        parse_args(["corpus", "--rules", ","])


def test_parse_args_json_format():
    config = parse_args(["corpus", "--format", "json"])
    assert config.output_format == "json"


def test_parse_args_defaults():
    config = parse_args(["corpus"])
    assert config.enabled_rules == frozenset({1, 2, 3, 4, 5, 6})
    assert config.output_format == "text"
    assert config.seed_file is None
    assert config.store_output is None
    assert config.strict_parse is False


def test_parse_args_missing_corpus():
    with pytest.raises(UsageError):
        parse_args([])


def test_parse_args_unknown_format():
    with pytest.raises(UsageError):
        parse_args(["corpus", "--format", "xml"])


@pytest.mark.parametrize("argv", [
    ["corpus", "--store", ""],
    ["corpus", "--store="],
    ["corpus", "--seed", ""],
    ["corpus", "--seed="],
    [""],
])
def test_parse_args_empty_path(argv):
    with pytest.raises(UsageError):
        parse_args(argv)


@pytest.mark.parametrize("option", ["--store", "--seed", "corpus_root"])
def test_empty_path_option_exit_2(option, capsys):
    # an empty corpus root would be read as "." and scan the working directory
    argv = [""] if option == "corpus_root" else [str(REFERENCE_CORPUS_DIR), option, ""]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert captured.err.endswith(f"faultlint: error: {option}: the path must not be empty\n")


# --- scan exit codes ----------------------------------------------------------


def test_scan_reference_corpus_exit_1_with_all_records(capsys):
    code = main([str(REFERENCE_CORPUS_DIR)])
    out = capsys.readouterr().out
    assert code == 1
    for name in ("A", "ML_G", "ML_H", "MP_A", "loopa", "sample"):
        assert f"  {name}  (" in out


def test_scan_clean_corpus_exit_0(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "clean")
    code = main([str(corpus)])
    out = capsys.readouterr().out
    assert code == 0
    assert "No faulty classes." in out


def test_scan_nonexistent_folder_exit_2(tmp_path, capsys):
    code = main([str(tmp_path / "missing")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("faultlint: error:")
    assert err.count("\n") == 1  # single line


def test_scan_file_as_corpus_root_exit_2(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("x")
    assert main([str(target)]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    code = main(["corpus", "--rules", "42"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"faultlint {__version__}" in out


def test_python_m_version_exits_0():
    proc = run_python(["-m", "faultlint", "--version"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"faultlint {__version__}"


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # every run pays for what importing the CLI imports; -S leaves out the
    # site hooks, which may import either module themselves
    proc = run_python(["-S", "-c", "import sys, faultlint.cli; "
                       "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_start_up_loads_exactly_the_modules_a_scan_runs():
    # importing the CLI loads every faultlint module a scan uses and no
    # other, so a module folded into another cannot quietly come back
    script = (
        "import sys, faultlint.cli\n"
        "def names():\n"
        "    return sorted(m for m in sys.modules if m.startswith('faultlint'))\n"
        "loaded = names()\n"
        f"faultlint.cli.run_scan(faultlint.cli.parse_args([{str(REFERENCE_CORPUS_DIR)!r}]))\n"
        "print(loaded)\n"
        "print(names() == loaded)\n"
    )
    proc = run_python(["-S", "-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['faultlint', 'faultlint.cli', 'faultlint.detectors', 'faultlint.lexer', "
        "'faultlint.model', 'faultlint.nodes', 'faultlint.parser', 'faultlint.record', "
        "'faultlint.store']",
        "True",
    ]


def test_deeply_nested_files_become_diagnostics(tmp_path):
    # one file per shape and depth; too-deep constructs are skipped, never
    # a traceback that would exit 1 like "findings present"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    depths = (1, 50, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 500, 5000)
    too_deep = set()
    for shape in NESTING_SHAPES:
        for depth in depths:
            name = f"{shape}_{depth}.java"
            source = nested_source(shape, depth, f"{shape}_{depth}")
            (corpus / name).write_text(source, encoding="utf-8")
            if depth + 1 > MAX_NESTING:
                too_deep.add(name)
    store_path = tmp_path / "store.json"
    proc = run_python(["-m", "faultlint", str(corpus), "--store", str(store_path)])
    assert proc.returncode <= 2, proc.stderr
    assert "Traceback" not in proc.stderr
    diagnosed = [Path(d.file_path).name for d in load_store(store_path).diagnostics]
    assert sorted(diagnosed) == sorted(too_deep)


def test_long_operator_and_call_chains_scan_without_traceback(tmp_path):
    # flat input the parser turns into 5,000-deep trees, which the detectors
    # then walk
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    operands = " + ".join(["s"] * 5000)
    calls = ".f()" * 5000
    (corpus / "Chain.java").write_text(
        "class Chain\n{\n"
        f"    boolean eq(String s)\n    {{\n        return s == {operands};\n    }}\n"
        f"    void call(Chain a)\n    {{\n        a{calls};\n    }}\n"
        "}\n",
        encoding="utf-8",
    )
    store_path = tmp_path / "store.json"
    proc = run_python(["-m", "faultlint", str(corpus), "--store", str(store_path)])
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    store = load_store(store_path)
    assert [(r.class_name, list(r.error_codes)) for r in store.records] == [("Chain", [1])]
    assert store.diagnostics == ()


# --- determinism ----------------------------------------------------------------


def test_two_runs_byte_identical_stdout_and_store(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(REFERENCE_CORPUS_DIR, corpus)
    store_a = tmp_path / "a.json"
    store_b = tmp_path / "b.json"

    code_a = main([str(corpus), "--store", str(store_a)])
    out_a = capsys.readouterr().out
    code_b = main([str(corpus), "--store", str(store_b)])
    out_b = capsys.readouterr().out

    assert (code_a, code_b) == (1, 1)
    assert out_a.encode() == out_b.encode()
    assert store_a.read_bytes() == store_b.read_bytes()


def test_rule_filtering_equals_posthoc_filter(tmp_path):
    config_full = parse_args([str(REFERENCE_CORPUS_DIR)])
    config_sub = parse_args([str(REFERENCE_CORPUS_DIR), "--rules", "1,6"])
    full = run_scan(config_full)
    sub = run_scan(config_sub)
    assert store_findings(sub) == [f for f in store_findings(full) if f.error_code in (1, 6)]


def store_findings(result):
    return [finding for record in result.store.records for finding in record.findings]


def test_store_file_loads_back(tmp_path, capsys):
    store_path = tmp_path / "out"
    store_path.mkdir()
    store_file = store_path / "faultlint-results.json"
    main([str(REFERENCE_CORPUS_DIR), "--store", str(store_file)])
    capsys.readouterr()
    store = load_store(store_file)
    assert [r.class_name for r in store.records] == [
        "A", "ML_G", "ML_H", "MP_A", "loopa", "sample",
    ]
    assert store.corpus_root == str(REFERENCE_CORPUS_DIR)


@pytest.mark.parametrize("corpus", [CASES_DIR, REFERENCE_CORPUS_DIR], ids=lambda p: p.name)
def test_cli_store_loads_back_and_reports_as_the_cli_did(tmp_path, capsys, corpus):
    store_file = tmp_path / "out.json"
    main([str(corpus), "--store", str(store_file)])
    text = capsys.readouterr().out
    main([str(corpus), "--format", "json"])
    json_report = capsys.readouterr().out
    store = load_store(store_file)
    assert store.records
    clusters = cluster(list(store.records))
    assert render_report(store, clusters, "json") == json_report
    # the CLI's first line also counts the classes without findings
    assert render_report(store, clusters, "text").split("\n", 1)[1] == text.split("\n", 1)[1]


def test_json_report_with_store_matches_each_alone(tmp_path, capsys):
    # with both, each output is byte for byte what it is alone
    both, alone = tmp_path / "both.json", tmp_path / "alone.json"
    main([str(REFERENCE_CORPUS_DIR), "--format", "json", "--store", str(both)])
    report_with_store = capsys.readouterr().out
    main([str(REFERENCE_CORPUS_DIR), "--format", "json"])
    assert capsys.readouterr().out.encode() == report_with_store.encode()
    main([str(REFERENCE_CORPUS_DIR), "--store", str(alone)])
    capsys.readouterr()
    assert both.read_bytes() == alone.read_bytes()
    data = json.loads(report_with_store)
    del data["clusters"]
    assert data == json.loads(both.read_text(encoding="utf-8"))


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
def test_each_entry_is_encoded_once_per_json_output(tmp_path, monkeypatch,
                                                    output_format, with_store):
    # the store and the JSON report each encode every record, finding and
    # diagnostic once; the text report encodes none
    calls = Counter()

    def counting(name, real):
        def wrapper(entry):
            calls[name, id(entry)] += 1
            return real(entry)
        return wrapper

    for name in ("_record_json", "_finding_json", "_diagnostic_json"):
        monkeypatch.setattr(faultlint.store, name, counting(name, getattr(faultlint.store, name)))
    store_path = tmp_path / "store.json" if with_store else None
    result = run_scan(RunConfig(FIXTURES, output_format=output_format, store_output=store_path))
    store = result.store
    assert store.records and store.diagnostics
    expected = Counter()
    for _ in range(with_store + (output_format == "json")):
        expected.update(("_record_json", id(r)) for r in store.records)
        expected.update(("_finding_json", id(f)) for r in store.records for f in r.findings)
        expected.update(("_diagnostic_json", id(d)) for d in store.diagnostics)
    assert calls == expected


def test_store_directory_gets_default_basename(tmp_path, capsys):
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    main([str(REFERENCE_CORPUS_DIR), "--store", str(out_dir)])
    capsys.readouterr()
    assert (out_dir / "faultlint-results.json").exists()
    assert len(load_store(out_dir / "faultlint-results.json").records) == 6


def test_json_format_output_parses(capsys):
    code = main([str(REFERENCE_CORPUS_DIR), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    data = json.loads(out)
    assert {r["class_name"] for r in data["records"]} == {
        "A", "ML_G", "ML_H", "MP_A", "loopa", "sample",
    }
    assert len(data["clusters"]) == 6
    # the same payload json.dumps(indent=2, sort_keys=True) wrote, one line
    # per record and per cluster
    result = run_scan(parse_args([str(REFERENCE_CORPUS_DIR), "--format", "json"]))
    payload = reference_document(result.store)
    payload["clusters"] = [
        {"error_codes": list(c.error_set),
         "error_names": [CATALOG_DOCUMENT[str(code)] for code in c.error_set],
         "classes": list(c.classes)}
        for c in cluster(list(result.store.records))
    ]
    assert data == json.loads(json.dumps(payload, indent=2, sort_keys=True))
    lines = out.splitlines()
    for record in data["records"] + data["clusters"]:
        assert sum(json.loads(line.strip().rstrip(",")) == record
                   for line in lines if line.startswith("    {")) == 1


# --- corpus walking ---------------------------------------------------------------


def test_collect_java_files_recursive_sorted_hidden_skipped(tmp_path):
    corpus = tmp_path / "c"
    (corpus / "sub").mkdir(parents=True)
    (corpus / ".hiddendir").mkdir()
    (corpus / "b.java").write_text("class B { }")
    (corpus / "sub" / "a.java").write_text("class A { }")
    (corpus / ".hiddendir" / "x.java").write_text("class X { }")
    (corpus / "notes.txt").write_text("ignore me")
    files = collect_java_files(corpus)
    assert [f.relative_to(corpus).as_posix() for f in files] == [
        "b.java", "sub/a.java",
    ]


def reference_collect_java_files(root):
    # the pathlib walk the CLI used before its os.walk walker, kept as the reference
    files = []
    for path in root.rglob("*.java"):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if any(part.startswith(".") for part in rel.parts[:-1]):
            continue
        files.append(path)
    return sorted(files, key=lambda p: p.relative_to(root).as_posix())


def _walker_tree(corpus):
    # every file fails to parse, so each one kept is exactly one store diagnostic
    for rel in ("Top.java", "a/b/X.java", "a-b/X.java", "a/A.java", "s/t/u/Deep.java",
                ".hidden/H.java", ".hidden/in/I.java", "a/.h/J.java",
                ".h.java", ".java", "a/.k.java", "Y.JAVA", "d.java/In.java"):
        (corpus / rel).parent.mkdir(parents=True, exist_ok=True)
        (corpus / rel).write_text("# ;\n", encoding="utf-8")
    os.symlink(corpus / "a", corpus / "linkdir")
    os.symlink(corpus / "a", corpus / "linkdir.java")
    os.symlink(corpus / "a" / "A.java", corpus / "Linked.java")
    os.symlink(corpus / "missing.java", corpus / "Broken.java")
    return [
        ".h.java", ".java", "Linked.java", "Top.java", "a-b/X.java", "a/.k.java",
        "a/A.java", "a/b/X.java", "d.java/In.java", "s/t/u/Deep.java",
    ]


@pytest.mark.parametrize("root_arg", ["c", "c/", "./c", "absolute"])
def test_walk_matches_the_rglob_reference(tmp_path, monkeypatch, capsys, root_arg):
    expected = _walker_tree(make_clean_corpus(tmp_path / "c", count=0))
    monkeypatch.chdir(tmp_path)
    root = str(tmp_path / "c") if root_arg == "absolute" else root_arg
    reference = reference_collect_java_files(Path(root))
    assert [p.relative_to(Path(root)).as_posix() for p in reference] == expected
    assert collect_java_files(Path(root)) == reference
    # the CLI opens each file by this string, which a read error message quotes
    assert [path for _, path in faultlint.cli._java_files(Path(root), [])] == \
        [str(p) for p in reference]
    store_path = tmp_path / "store.json"
    assert main([root, "--store", str(store_path)]) == 0
    capsys.readouterr()
    assert [d.file_path for d in load_store(store_path).diagnostics] == expected


def test_entry_whose_type_test_fails_is_neither_file_nor_directory(tmp_path):
    # a link to itself fails every stat with ELOOP, which os.walk takes as
    # "not a directory" and os.path.isfile as "not a file"
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    os.symlink("Loop.java", corpus / "Loop.java")
    os.symlink("loopdir", corpus / "loopdir")
    assert [rel for rel, _ in faultlint.cli._java_files(corpus, [])] == ["Tidy0.java"]
    assert collect_java_files(corpus) == reference_collect_java_files(corpus)


def test_unreadable_java_file_is_diagnostic_not_abort(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    (corpus / "bad.java").write_bytes(b"\xff\xfe\x00bogus")
    code = main([str(corpus)])
    out = capsys.readouterr().out
    assert code == 0  # defect-free classes, unreadable file only diagnosed
    assert "could not read file" in out


def _deny_listing(monkeypatch, denied):
    # a read-protected directory, whatever the user's privileges: chmod does
    # not stop a superuser from listing it
    real_scandir = os.scandir

    def scandir(path="."):
        if os.fspath(path) == denied:
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)


def test_unreadable_corpus_root_is_exit_2(tmp_path, monkeypatch, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    _deny_listing(monkeypatch, str(corpus))
    assert main([str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"faultlint: error: cannot read corpus root: "
                            f"[Errno 13] Permission denied: '{corpus}'\n")


def test_unreadable_subdirectory_is_one_diagnostic_not_abort(tmp_path, monkeypatch, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    for rel in ("sub/B.java", "sub/in/C.java", "z/D.java"):
        (corpus / rel).parent.mkdir(parents=True, exist_ok=True)
        name = Path(rel).stem
        (corpus / rel).write_text(f"class {name} extends X, Y {{ }}\n", encoding="utf-8")
    _deny_listing(monkeypatch, str(corpus / "sub"))
    store_path = tmp_path / "store.json"
    assert main([str(corpus), "--store", str(store_path)]) == 1
    out = capsys.readouterr().out
    store = load_store(store_path)
    assert [r.class_name for r in store.records] == ["D"]
    assert [(d.file_path, d.line, d.message) for d in store.diagnostics] == [
        ("sub", 1, f"could not read directory: [Errno 13] Permission denied: "
                   f"'{corpus / 'sub'}'"),
    ]
    assert "Classes scanned: 2 | faulty: 1" in out
    assert main([str(corpus), "--strict-parse", "--rules", "1"]) == 1
    capsys.readouterr()


def test_strict_parse_turns_diagnostics_into_exit_1(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    (corpus / "odd.java").write_text(
        "class Odd { void m() { synchronized(this) { } } }", encoding="utf-8"
    )
    assert main([str(corpus)]) == 0
    capsys.readouterr()
    assert main([str(corpus), "--strict-parse"]) == 1
    capsys.readouterr()


def test_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    assert main([str(corpus), "--strict-parse"]) == 0
    clean = capsys.readouterr().out
    for path in corpus.glob("*.java"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main([str(corpus), "--strict-parse"]) == 0
    assert capsys.readouterr().out == clean
    (corpus / "Multi.java").write_text("\ufeffclass M extends X, Y { }\n", encoding="utf-8")
    store_path = tmp_path / "store.json"
    assert main([str(corpus), "--store", str(store_path)]) == 1
    capsys.readouterr()
    store = load_store(store_path)
    assert [(r.class_name, r.error_codes) for r in store.records] == [("M", (2,))]
    assert store.diagnostics == ()


@pytest.mark.parametrize("directive", ["package a.b", "import c.D"])
def test_class_after_directive_missing_semicolon_is_scanned(tmp_path, capsys, directive):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    (corpus / "Pkg.java").write_text(f"{directive}\nclass C extends B, A {{ }}\n",
                                      encoding="utf-8")
    assert main([str(corpus)]) == 1
    out = capsys.readouterr().out
    assert "  C  (Pkg.java)\n    [2] Incorrect inheritance error\n" in out
    assert f"Pkg.java:1: expected ';' to end the {directive.split()[0]} directive" in out


# --- seed flag ---------------------------------------------------------------------


def test_seed_flag_changes_itu_result(tmp_path, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    shutil.copy(REFERENCE_CORPUS_DIR / "sample.java", corpus / "sample.java")

    # default seed: Stack -> Vector, ITU fires
    assert main([str(corpus), "--rules", "4"]) == 1
    capsys.readouterr()

    # a seed without that edge: no ITU
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({"extends": []}))
    assert main([str(corpus), "--rules", "4", "--seed", str(seed_file)]) == 0
    capsys.readouterr()


def test_bad_seed_file_exit_2(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    seed_file = tmp_path / "seed.json"
    seed_file.write_text("{broken")
    assert main([str(corpus), "--seed", str(seed_file)]) == 2
    assert "faultlint: error:" in capsys.readouterr().err


def test_non_utf8_seed_file_exit_2_with_one_line(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    seed_file = tmp_path / "bad.json"
    seed_file.write_bytes(b"\xff\xfe{}")
    assert main([str(corpus), "--seed", str(seed_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"faultlint: error: seed file {seed_file} is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_seed_file_exit_2_with_one_line(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    seed_file = tmp_path / "deep.json"
    seed_file.write_text("[" * 100_000 + "]" * 100_000)
    assert main([str(corpus), "--seed", str(seed_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"faultlint: error: seed file {seed_file} is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_missing_seed_file_exit_2(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    assert main([str(corpus), "--seed", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_unwritable_store_exit_2(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    bad_store = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main([str(corpus), "--store", str(bad_store)]) == 2
    assert "cannot write store" in capsys.readouterr().err


# --- RunConfig / run_scan API ---------------------------------------------------


def test_run_scan_raises_scan_error_for_bad_root(tmp_path):
    with pytest.raises(ScanError):
        run_scan(RunConfig(corpus_root=tmp_path / "missing"))


def test_run_scan_reports_scanned_class_count(capsys):
    result = run_scan(RunConfig(corpus_root=REFERENCE_CORPUS_DIR))
    # 12 corpus classes: A, ML_A..ML_H (8), MP_A, loopa, sample
    assert "Classes scanned: 12 | faulty: 6" in result.report


def test_readme_library_use_block_runs():
    # the README's "Library use" example, run as written on one fixture
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {"source_text": (REFERENCE_CORPUS_DIR / "A.java").read_text(encoding="utf-8")}
    exec(code, namespace)
    assert [(r.class_name, r.error_codes) for r in namespace["records"]] == [("A", (1, 6))]
    assert [c.classes for c in namespace["clusters"]] == [("A",)]
    assert namespace["subset"] == [f for f in namespace["findings"] if f.error_code in (1, 5)]
    assert namespace["subset"]
    # the names the "Result store" section documents come from the package too
    assert {"load_store", "FormatError", "render_report", "cluster"} <= set(faultlint.__all__)


# --- robustness and the collector pause -------------------------------------------


def test_parse_exception_in_one_file_is_diagnostic_not_abort(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(REFERENCE_CORPUS_DIR, corpus)
    real_parse = faultlint.cli.parse_source

    def parse_or_fail(text, file_path, memo):
        if file_path == "MP_A.java":
            raise ValueError("parser bug")
        return real_parse(text, file_path, memo)

    monkeypatch.setattr(faultlint.cli, "parse_source", parse_or_fail)
    result = run_scan(RunConfig(corpus_root=corpus))
    assert [r.class_name for r in result.store.records] == [
        "A", "ML_G", "ML_H", "loopa", "sample",
    ]
    diags = [(d.file_path, d.line, d.message) for d in result.store.diagnostics]
    assert diags == [("MP_A.java", 1, "could not parse file: ValueError: parser bug")]
    assert result.exit_code == 1


def _read_through_text_layer(path):
    """The text, or the diagnostic message, of the read the CLI made before
    it read bytes: a text-mode open with `utf-8-sig`, the reference."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read(), None
    except (OSError, UnicodeDecodeError) as err:
        return None, f"could not read file: {err}"


READ_CASES = {
    "BomCrLf.java": b"\xef\xbb\xbfclass A extends B, C\r\n{\r\n  void m() { while (x) ; }\r\n}\r\n",
    "LoneCr.java": b"class D\r{\r  void m()\r  {\r    while (x) ;\r  }\r}\r",
    "Invalid.java": b"class E { }\n\xff\n",
    "BomInvalid.java": b"\xef\xbb\xbfclass F { }\n\xc3(\n",
    "LateInvalid.java": b"class G { }\n" + b"// pad\n" * 2000 + b"int \xe2\x82;\n",
}


def test_byte_read_matches_the_text_layer_read(tmp_path):
    for name, data in READ_CASES.items():
        (tmp_path / name).write_bytes(data)
    assert len(READ_CASES["LateInvalid.java"]) > 8192
    files = faultlint.cli._java_files(tmp_path, [])
    collected = []
    units = iter(faultlint.cli._parse_corpus(files, collected))
    groups = iter(collected)  # one per file with diagnostics: here, the unreadable ones
    errors = {}
    for rel, path in files:
        text, error = _read_through_text_layer(path)
        if error is None:
            unit = next(units)
            assert tokenize(READ_CASES[rel].decode("utf-8-sig")) == tokenize(text)
            assert unit == parse_source(text, rel)
            assert unit.classes
            assert unit.diagnostics == ()
        else:
            [diag] = next(groups)
            assert (diag.file_path, diag.line, diag.message, diag.skipped_span) == (
                rel, 1, error, (1, 1))
            errors[rel] = error
    assert next(units, None) is None and next(groups, None) is None
    assert errors == {
        "BomInvalid.java": "could not read file: 'utf-8' codec can't decode byte 0xc3 "
                           "in position 12: invalid continuation byte",
        "Invalid.java": "could not read file: 'utf-8' codec can't decode byte 0xff "
                        "in position 12: invalid start byte",
        "LateInvalid.java": "could not read file: 'utf-8' codec can't decode bytes "
                            "in position 14016-14017: invalid continuation byte",
    }


def test_parse_exception_span_counts_every_line_end(tmp_path, monkeypatch):
    # CR LF, a lone CR and LF each end a line, as tokenize counts them
    (tmp_path / "Mixed.java").write_bytes(b"class M\r\n{\r  int x;\n}\r\n\rclass N { }")
    monkeypatch.setattr(faultlint.cli, "parse_source", _raise_runtime_error)
    result = run_scan(RunConfig(corpus_root=tmp_path))
    text, _ = _read_through_text_layer(tmp_path / "Mixed.java")
    assert [(d.file_path, d.line, d.message) for d in result.store.diagnostics] == [
        ("Mixed.java", 1, "could not parse file: RuntimeError: boom")]
    collected = []
    assert faultlint.cli._parse_corpus(faultlint.cli._java_files(tmp_path, []), collected) == []
    [[diag]] = collected
    assert diag.skipped_span == (1, 6) == (1, text.count("\n") + 1)


def _raise_runtime_error(*args):
    raise RuntimeError("boom")


def test_store_diagnostics_are_files_then_directories_then_model(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "c"
    (corpus / "Asub").mkdir(parents=True)
    (corpus / "z").mkdir()
    (corpus / "Bad.java").write_bytes(b"class E { }\n\xff\n")
    (corpus / "Dup.java").write_text("class D { }\n", encoding="utf-8")
    (corpus / "M.java").write_text("class M { void m() { synchronized(this) { } } }\n",
                                   encoding="utf-8")
    (corpus / "z" / "Dup.java").write_text("class D { }\n", encoding="utf-8")
    _deny_listing(monkeypatch, str(corpus / "Asub"))
    store_path = tmp_path / "store.json"
    assert main([str(corpus), "--store", str(store_path)]) == 0
    capsys.readouterr()
    assert [(d.file_path, d.line, d.message) for d in load_store(store_path).diagnostics] == [
        ("Bad.java", 1, "could not read file: 'utf-8' codec can't decode byte 0xff "
                        "in position 12: invalid start byte"),
        ("M.java", 1, "unexpected 'synchronized' in expression"),
        ("Asub", 1, f"could not read directory: [Errno 13] Permission denied: "
                    f"'{corpus / 'Asub'}'"),
        (None, None, "duplicate class D in z/Dup.java ignored (already defined in Dup.java)"),
    ]


def test_trees_are_freed_before_the_report_and_the_store(tmp_path, monkeypatch, capsys):
    def live_trees():
        return [o for o in gc.get_objects() if type(o) in (MethodDecl, CompilationUnit)]

    held = live_trees()  # kept alive, so that no new tree takes one of their ids
    before = {id(o) for o in held}
    counts = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] = sum(id(o) not in before for o in live_trees())
            return real(*args, **kwargs)
        return wrapper

    writers = ("render_report", "save_store")
    for name in writers:
        monkeypatch.setattr(faultlint.cli, name, counting(name, getattr(faultlint.cli, name)))
    for output_format in ("text", "json"):
        assert main([str(FIXTURES), "--format", output_format,
                     "--store", str(tmp_path / "store.json")]) == 1
    capsys.readouterr()
    assert counts == dict.fromkeys(writers, 0)


def test_run_scan_writes_the_store_that_store_output_names(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    result = run_scan(RunConfig(REFERENCE_CORPUS_DIR, store_output=out_dir))
    via_main = tmp_path / "main.json"
    assert main([str(REFERENCE_CORPUS_DIR), "--store", str(via_main)]) == result.exit_code
    capsys.readouterr()
    assert (out_dir / "faultlint-results.json").read_bytes() == via_main.read_bytes()
    with pytest.raises(ScanError, match="^cannot write store file: "):
        run_scan(RunConfig(REFERENCE_CORPUS_DIR, store_output=tmp_path / "missing" / "s.json"))


@pytest.mark.parametrize("failing", ["run_scan", "save_store"])
def test_internal_error_exits_2_with_traceback(tmp_path, monkeypatch, capsys, failing):
    monkeypatch.setattr(faultlint.cli, failing, _raise_runtime_error)
    code = main([str(REFERENCE_CORPUS_DIR), "--store", str(tmp_path / "out.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("faultlint: internal error:\nTraceback")
    assert captured.err.endswith("RuntimeError: boom\n")


def test_report_stdout_cannot_encode_is_exit_2_and_the_store_stays(tmp_path, monkeypatch):
    # an undecodable file name reaches the text report as a lone surrogate,
    # which a strict UTF-8 stdout cannot encode
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    try:
        with open(os.path.join(os.fsencode(corpus), b"\xff.java"), "wb") as handle:
            handle.write(b"class A { void m() { while (true) ; } }\n")
    except OSError as err:
        pytest.skip(f"the file system refuses an undecodable name: {err}")
    store_path = tmp_path / "store.json"
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
    proc = run_python(["-m", "faultlint", str(corpus), "--store", str(store_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("faultlint: error: cannot write the report: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    store = load_store(store_path)
    assert [(r.class_name, r.file_path, r.error_codes) for r in store.records] == [
        ("A", os.fsdecode(b"\xff.java"), (6,))]
    # the JSON report escapes the name, so the same scan prints it
    proc = run_python(["-m", "faultlint", str(corpus), "--format", "json"])
    assert proc.returncode == 1, proc.stderr
    assert '"file_path": "\\udcff.java"' in proc.stdout


@pytest.mark.parametrize("enabled_before", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case, expected_code", [
    ("clean", 0), ("findings", 1), ("missing-root", 2), ("usage", 2), ("internal", 2),
])
def test_main_restores_collector_state(tmp_path, monkeypatch, capsys,
                                       enabled_before, case, expected_code):
    argv = {
        "clean": [str(make_clean_corpus(tmp_path / "clean"))],
        "findings": [str(REFERENCE_CORPUS_DIR)],
        "missing-root": [str(tmp_path / "missing")],
        "usage": [str(REFERENCE_CORPUS_DIR), "--rules", "9"],
        "internal": [str(REFERENCE_CORPUS_DIR)],
    }[case]
    if case == "internal":
        monkeypatch.setattr(faultlint.cli, "run_scan", _raise_runtime_error)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled_before else gc.disable)()
        code = main(argv)
        assert gc.isenabled() is enabled_before
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert code == expected_code


def copy_fixture_corpus(root, copies):
    """copies of every fixture, declared class names suffixed _i in copy i"""
    files = sorted(FIXTURES.rglob("*.java"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    names = sorted({n for text in texts for n in re.findall(r"\bclass\s+(\w+)", text)})
    declared = re.compile(r"\b(" + "|".join(names) + r")\b")
    for i in range(copies):
        folder = root / f"copy{i}"
        folder.mkdir(parents=True)
        for path, text in zip(files, texts):
            renamed = declared.sub(lambda m: f"{m.group(1)}_{i}", text)
            (folder / f"{path.stem}_{i}.java").write_text(renamed, encoding="utf-8")
    return root


GC_GARBAGE_SCRIPT = """\
import contextlib, gc, io, sys
from faultlint.cli import main
gc.disable()
gc.collect()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, gc.isenabled(), gc.collect())
"""


def test_scan_builds_no_reference_cycles(tmp_path):
    # main pauses the cyclic collector for the scan: that is only safe while
    # the garbage it leaves behind does not grow with the corpus
    garbage, records = {}, {}
    for copies in (1, 10):
        corpus = copy_fixture_corpus(tmp_path / f"corpus{copies}", copies)
        store = tmp_path / f"store{copies}.json"
        proc = run_python(["-c", GC_GARBAGE_SCRIPT, str(corpus), "--store", str(store)])
        assert proc.returncode == 0, proc.stderr
        code, enabled, collected = proc.stdout.split()
        assert (code, enabled) == ("1", "False")
        garbage[copies] = int(collected)
        records[copies] = len(load_store(store).records)
    assert records[10] == 10 * records[1] > 0
    assert garbage[10] == garbage[1]


# --- the benchmark's traced harness ------------------------------------------


PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def test_benchmark_traced_scan_matches_the_cli_store(tmp_path, capsys):
    # pipebench/traced.py re-calls the pipeline module by module; a change
    # to a name it imports would otherwise only show in a traced bench run
    trace_path = tmp_path / "trace.json"
    proc = run_python([str(PIPEBENCH / "traced.py"), str(REFERENCE_CORPUS_DIR),
                       str(tmp_path / "traced_store.json"), str(trace_path)])
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["backend"] == "python"
    assert trace["classes"] == dict(EXPECTED_RECORDS)

    cli_store = tmp_path / "cli_store.json"
    assert main([str(REFERENCE_CORPUS_DIR), "--store", str(cli_store)]) == 1
    capsys.readouterr()
    records = json.loads(cli_store.read_text(encoding="utf-8"))["records"]
    assert trace["classes"] == {r["class_name"]: r["error_codes"] for r in records}
    per_rule = Counter(str(f["error_code"]) for r in records for f in r["findings"])
    assert trace["rule_findings"] == {str(code): per_rule[str(code)] for code in range(1, 7)}
    assert trace["run_all_findings"] == sum(per_rule.values())


def test_benchmark_preflight_imports_the_package():
    # pipebench/run.py runs its PREFLIGHT string before any measurement and
    # refuses to go on unless it prints the package's file, version and backend
    tree = ast.parse((PIPEBENCH / "run.py").read_text(encoding="utf-8"))
    preflight = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PREFLIGHT"])
    proc = run_python(["-c", preflight])
    assert proc.returncode == 0, proc.stderr
    module, version, backend = proc.stdout.splitlines()
    assert Path(module).resolve() == Path(faultlint.__file__).resolve()
    assert (version, backend) == (__version__, "python")
