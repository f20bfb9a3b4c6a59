"""Metamorphic relations of the whole pipeline: changes to the input
whose effect on the output is known without an oracle.

Unrelated file: adding a file whose class and method names occur nowhere
else in the corpus leaves every record and diagnostic of the other files
as it was, and adds only the new file's own records. Rule 4's fallback to
the methods of the same name and arity that mutate a parameter is the
documented exception: a corpus call site can resolve to a new method of
its name, so the added methods take fresh names.

Renaming: a consistent whole-word renaming of every class and method of
a fixture folder renames those names in the findings' class names,
messages and details, and in the one model diagnostic that names a class
(a duplicate class), and changes nothing else: codes, lines, files, the
parse diagnostics and the exit code stay as they were. The fresh names
match no seed entry or accessor pattern, so no rule sees a name's meaning
change; records come out sorted by the new names.

Moving classes: moving classes that are declared once between the files
of a fixture folder, each kept on its own lines, changes only the
`file_path` of their records and findings and the order of the records. A
duplicated class stays in its file, as which copy wins depends on the walk
order. Renaming the files alone, so that the walk order reverses, is the
case in which no class moves. The lexer reuses the tokens of lines seen
earlier in a scan, so a file's tokens come from the files scanned before
it; this relation checks that they do not depend on which files those are.

Skipped code: inserting a construct outside the analyzed subset right
after a method body's `{`, on the same line so that no line moves, leaves
every finding outside that method's lines as it was, rules 2 and 3
included. None of the constructs mutates a parameter, so no rule-4
summary changes either.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from collections import Counter

import pytest

from faultlint.cli import RunConfig, run_scan
from faultlint.model import default_seed
from faultlint.parser import parse_source

from conftest import CASES_DIR, REFERENCE_CORPUS_DIR


def _fresh_name(rng, taken, first):
    """A name of `first` and lower-case letters that occurs in no text of `taken`."""
    while True:
        name = first + "".join(rng.choice("bcdfghjkmnpqrstvwxz") for _ in range(6))
        if not any(name in text for text in taken):
            return name


def unrelated_file(rng, taken):
    """(class name, source) of a class with fresh names that holds a rule-1
    comparison, an empty loop and an unclosed FileReader, in random order
    among fresh-named filler statements."""
    class_name = _fresh_name(rng, taken, "Q")
    method, helper = _fresh_name(rng, taken, "m"), _fresh_name(rng, taken, "h")
    faults = [
        "if (label == other) { count++; }",
        rng.choice(["while (count > 3) { }", "for (int i = 0; i < count; i++) { ; }",
                    "do { } while (count < 2);"]),
        "FileReader reader = new FileReader(label);",
    ]
    filler = ["count = count + 1;", f"{helper}(count);", "int spare = count * 2;",
              "other = label;"]
    body = faults + rng.sample(filler, rng.randrange(len(filler) + 1))
    rng.shuffle(body)
    statements = "\n".join(f"        {statement}" for statement in body)
    source = (f"class {class_name}\n{{\n    String label;\n    String other;\n    int count;\n"
              f"    void {helper}(int n)\n    {{\n        count = n;\n    }}\n"
              f"    void {method}()\n    {{\n{statements}\n    }}\n}}\n")
    return class_name, source


@pytest.mark.parametrize("folder", [CASES_DIR, REFERENCE_CORPUS_DIR], ids=lambda d: d.name)
@pytest.mark.parametrize("seed", range(4))
def test_an_unrelated_file_adds_only_its_own_records(tmp_path, folder, seed):
    corpus = tmp_path / folder.name
    shutil.copytree(folder, corpus)
    before = run_scan(RunConfig(corpus))

    rng = random.Random(seed)
    taken = [path.read_text(encoding="utf-8") for path in sorted(corpus.glob("*.java"))]
    class_name, source = unrelated_file(rng, taken)
    (corpus / f"{class_name}.java").write_text(source, encoding="utf-8")
    after = run_scan(RunConfig(corpus))

    added = [record for record in after.store.records
             if record.file_path == f"{class_name}.java"]
    assert [(record.class_name, sorted(record.error_codes)) for record in added] == [
        (class_name, [1, 5, 6])]
    kept = [record for record in after.store.records if record not in added]
    assert kept == list(before.store.records)
    assert after.store.diagnostics == before.store.diagnostics
    assert (before.exit_code, after.exit_code) == (1, 1)


def renaming(rng, names, taken):
    """A map from each name to a fresh one, upper-case names to upper-case."""
    mapping = {}
    for name in sorted(names):
        first = "Q" if name[0].isupper() else "q"
        mapping[name] = _fresh_name(rng, taken + list(mapping.values()), first)
    return mapping


def _renamer(mapping):
    """Whole-word renaming over text; `$` and `_` belong to a word, as in Java."""
    words = sorted(mapping, key=len, reverse=True)
    pattern = re.compile(r"(?<![\w$])(?:" + "|".join(map(re.escape, words)) + r")(?![\w$])")
    return lambda text: pattern.sub(lambda match: mapping[match.group()], text)


def _outcome(result, rename=lambda text: text):
    """Records, diagnostics and exit code of a scan, each name passed through
    rename, the records in the order of the renamed class names."""
    records = sorted(
        (rename(record.class_name), record.file_path, record.error_codes,
         [(rename(f.class_name), f.error_code, f.file_path, f.line, rename(f.message),
           rename(json.dumps(f.detail, sort_keys=True))) for f in record.findings])
        for record in result.store.records)
    diagnostics = [(rename(d.message), d.file_path, d.line) for d in result.store.diagnostics]
    return records, diagnostics, result.exit_code


@pytest.mark.parametrize("folder", [CASES_DIR, REFERENCE_CORPUS_DIR], ids=lambda d: d.name)
@pytest.mark.parametrize("seed", range(4))
def test_renaming_classes_and_methods_renames_only_them(tmp_path, folder, seed):
    corpus = tmp_path / folder.name
    shutil.copytree(folder, corpus)
    paths = sorted(corpus.glob("*.java"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    before = run_scan(RunConfig(corpus))

    names = {name for text in texts
             for decl in parse_source(text).classes
             for name in [decl.name] + [method.name for method in decl.methods]}
    seed_names = default_seed()
    assert not [name for name in names if seed_names.is_pure_accessor(name)
                or name in seed_names.resource_types
                or any(name in entry for entry in seed_names.extends_entries)]
    rename = _renamer(renaming(random.Random(seed), names, texts))
    for path, text in zip(paths, texts):
        path.write_text(rename(text), encoding="utf-8")
    after = run_scan(RunConfig(corpus))

    assert _outcome(after) == _outcome(before, rename)
    assert _outcome(after) != _outcome(before)
    assert before.store.records and before.exit_code == 1


def _class_chunks(folder):
    """(class name, file name, first line, line texts) of every class of a
    folder: a class runs from its first line to the next class's."""
    chunks = []
    for path in sorted(folder.glob("*.java")):
        text = path.read_text(encoding="utf-8")
        lines = [line.rstrip("\n") + "\n" for line in text.splitlines(keepends=True)]
        classes = parse_source(text).classes
        starts = [decl.line for decl in classes]
        assert starts[0] == 1, path.name  # no text before the first class
        for decl, start, end in zip(classes, starts, starts[1:] + [len(lines) + 1]):
            chunks.append((decl.name, path.name, start, lines[start - 1:end - 1]))
    return chunks


def _write_layout(corpus, layout):
    """Write each file of layout, a map from file name to {line: text}, with
    empty lines wherever no class stands."""
    for name, slots in layout.items():
        text = "".join(slots.get(line, "\n") for line in range(1, max(slots) + 1))
        (corpus / name).write_text(text, encoding="utf-8")


def _moved_outcome(result, class_files, rename=lambda text: text):
    """_outcome of a scan of a corpus with no parse diagnostic, each class's
    records and findings in class_files' file, each diagnostic passed
    through rename."""
    records = sorted(
        (record.class_name, class_files[record.class_name], record.error_codes,
         [(f.class_name, f.error_code, class_files[f.class_name], f.line, f.message,
           json.dumps(f.detail, sort_keys=True)) for f in record.findings])
        for record in result.store.records)
    diagnostics = [(rename(d.message), d.file_path, d.line) for d in result.store.diagnostics]
    return records, diagnostics, result.exit_code


@pytest.mark.parametrize("folder", [CASES_DIR, REFERENCE_CORPUS_DIR], ids=lambda d: d.name)
@pytest.mark.parametrize("seed", range(4))
def test_moving_classes_between_files_moves_only_their_file_paths(tmp_path, folder, seed):
    before = run_scan(RunConfig(folder))
    assert all(d.file_path is None for d in before.store.diagnostics)  # no parse diagnostic
    chunks = _class_chunks(folder)
    copies = Counter(name for name, *_ in chunks)
    rng = random.Random(seed)
    taken = [line for *_, lines in chunks for line in lines]
    fresh = [_fresh_name(rng, taken, "f") + ".java" for _ in range(len(chunks))]
    layout = {file: {} for _, file, _, _ in chunks}
    class_files = {}
    moving = [chunk for chunk in chunks if copies[chunk[0]] == 1]
    rng.shuffle(moving)
    for name, file, start, lines in [c for c in chunks if copies[c[0]] > 1] + moving:
        span = range(start, start + len(lines))
        targets = [file] if copies[name] > 1 else rng.sample(sorted(layout), len(layout))
        target = next((t for t in targets if not set(span) & set(layout[t])), None)
        if target is None:
            target = fresh.pop()
            layout[target] = {}
        layout[target].update(zip(span, lines))
        class_files.setdefault(name, target)  # the first copy wins
    layout = {name: slots for name, slots in layout.items() if slots}
    assert any(class_files[name] != file for name, file, _, _ in moving)
    corpus = tmp_path / "moved"
    corpus.mkdir()
    _write_layout(corpus, layout)
    after = run_scan(RunConfig(corpus))

    assert _outcome(after) == _moved_outcome(before, class_files)
    assert before.store.records and before.exit_code == 1


@pytest.mark.parametrize("folder", [CASES_DIR, REFERENCE_CORPUS_DIR], ids=lambda d: d.name)
def test_renaming_files_to_reverse_the_walk_order_moves_only_file_paths(tmp_path, folder):
    before = run_scan(RunConfig(folder))
    assert all(d.file_path is None for d in before.store.diagnostics)  # no parse diagnostic
    chunks = _class_chunks(folder)
    copies = Counter(name for name, *_ in chunks)
    files = sorted(path.name for path in folder.glob("*.java"))
    names = {file: f"r{len(files) - index:02d}.java" for index, file in enumerate(files)}
    # the files holding copies of one class keep their order, so the same copy wins
    holding = sorted({file for name, file, _, _ in chunks if copies[name] > 1})
    names.update(zip(holding, sorted(names[file] for file in holding)))
    corpus = tmp_path / "renamed"
    corpus.mkdir()
    for file in files:
        shutil.copyfile(folder / file, corpus / names[file])
    after = run_scan(RunConfig(corpus))

    walk = sorted(files, key=names.get)
    assert walk == files[::-1] if not holding else walk != files
    class_files = {}
    for name, file, _, _ in chunks:
        class_files.setdefault(name, names[file])
    assert _outcome(after) == _moved_outcome(before, class_files, _renamer(names))


SKIPPED_CONSTRUCTS = [
    "switch (k) { default: k--; }",
    "int[] a = {1, 2};",
    "Runnable r = () -> { k++; };",
    "x += 1;",
    "if (!b) { q(); }",
    "for (String s : xs) { }",
    "@A int v = 0;",
    "List<String> l = null;",
    "throw new E();",
    "a[0] = 1;",
    "y = c ? 1 : 2;",
    "o = (String) p;",
]


def _method_spans(text):
    """(line of the body's `{`, first line, last line) of every method: a
    method runs from its header to the line before the next method or
    class, or to the end of the file."""
    classes = parse_source(text).classes
    starts = sorted([decl.line for decl in classes]
                    + [method.line for decl in classes for method in decl.methods])
    spans = []
    for decl in classes:
        for method in decl.methods:
            later = [line for line in starts if line > method.line]
            last = later[0] - 1 if later else text.count("\n")
            spans.append((method.body.line, method.line, last))
    return spans


def _findings_outside(result, file_path, first, last):
    return [(f.class_name, f.error_code, f.file_path, f.line, f.message,
             json.dumps(f.detail, sort_keys=True))
            for record in result.store.records for f in record.findings
            if f.file_path != file_path or not first <= f.line <= last]


@pytest.mark.parametrize("folder", [CASES_DIR, REFERENCE_CORPUS_DIR], ids=lambda d: d.name)
def test_skipped_code_in_one_method_leaves_the_other_findings(tmp_path, folder):
    corpus = tmp_path / folder.name
    shutil.copytree(folder, corpus)
    before = run_scan(RunConfig(corpus))
    codes = {f.error_code for record in before.store.records for f in record.findings}
    assert {2, 3} <= codes
    cases = 0
    diagnosed = set()
    for path in sorted(corpus.glob("*.java")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        for brace, first, last in _method_spans(text):
            assert lines[brace - 1].strip() == "{", (path.name, brace)
            for construct in SKIPPED_CONSTRUCTS:
                changed = list(lines)
                changed[brace - 1] = lines[brace - 1].replace("{", "{ " + construct, 1)
                path.write_text("".join(changed), encoding="utf-8")
                after = run_scan(RunConfig(corpus))
                assert _findings_outside(after, path.name, first, last) == \
                    _findings_outside(before, path.name, first, last), (path.name, construct)
                if len(after.store.diagnostics) > len(before.store.diagnostics):
                    diagnosed.add(construct)
                cases += 1
        path.write_text(text, encoding="utf-8")
    assert cases == len(SKIPPED_CONSTRUCTS) * {"cases": 13, "reference_corpus": 16}[folder.name]
    # each construct takes the parser's skip path somewhere
    assert diagnosed == set(SKIPPED_CONSTRUCTS)
