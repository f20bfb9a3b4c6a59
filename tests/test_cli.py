from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import faultlint
import faultlint.cli
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
from faultlint.parser import MAX_NESTING
from faultlint.store import load_store

from conftest import FIXTURES, NESTING_SHAPES, REFERENCE_CORPUS_DIR, nested_source

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
    assert sub.findings == [f for f in full.findings if f.error_code in (1, 6)]


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


def test_unreadable_java_file_is_diagnostic_not_abort(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    (corpus / "bad.java").write_bytes(b"\xff\xfe\x00bogus")
    code = main([str(corpus)])
    out = capsys.readouterr().out
    assert code == 0  # defect-free classes, unreadable file only diagnosed
    assert "could not read file" in out


def test_strict_parse_turns_diagnostics_into_exit_1(tmp_path, capsys):
    corpus = make_clean_corpus(tmp_path / "c", count=1)
    (corpus / "odd.java").write_text(
        "class Odd { void m() { synchronized(this) { } } }", encoding="utf-8"
    )
    assert main([str(corpus)]) == 0
    capsys.readouterr()
    assert main([str(corpus), "--strict-parse"]) == 1
    capsys.readouterr()


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


# --- robustness and the collector pause -------------------------------------------


def test_parse_exception_in_one_file_is_diagnostic_not_abort(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(REFERENCE_CORPUS_DIR, corpus)
    real_parse = faultlint.cli.parse_source

    def parse_or_fail(text, file_path):
        if file_path == "MP_A.java":
            raise ValueError("parser bug")
        return real_parse(text, file_path)

    monkeypatch.setattr(faultlint.cli, "parse_source", parse_or_fail)
    result = run_scan(RunConfig(corpus_root=corpus))
    assert [r.class_name for r in result.store.records] == [
        "A", "ML_G", "ML_H", "loopa", "sample",
    ]
    diags = [(d.file_path, d.line, d.message) for d in result.store.diagnostics]
    assert diags == [("MP_A.java", 1, "could not parse file: ValueError: parser bug")]
    assert result.exit_code == 1


def _raise_runtime_error(*args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("failing", ["run_scan", "save_store"])
def test_internal_error_exits_2_with_traceback(tmp_path, monkeypatch, capsys, failing):
    monkeypatch.setattr(faultlint.cli, failing, _raise_runtime_error)
    code = main([str(REFERENCE_CORPUS_DIR), "--store", str(tmp_path / "out.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("faultlint: internal error:\nTraceback")
    assert captured.err.endswith("RuntimeError: boom\n")


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
