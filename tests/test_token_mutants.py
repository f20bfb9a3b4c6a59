"""Token-level mutation of the fixtures through the whole CLI.

In the style of LangFuzz (Holler, Herzig & Zeller, USENIX Security 2012):
a seeded random.Random takes the tokens of a fixture file and, one to
four times, deletes a token, duplicates one, swaps two neighbours or
inserts one drawn from all the fixtures' tokens. A mutant keeps each
token on its line, so findings and diagnostics point at lines of the
mutant. Each corpus of mutants is scanned twice by cli.main with
`--store`: the exit code must be 0 or 1, never an internal error, and the
report and the store must be the same bytes both times.
"""

from __future__ import annotations

import random

import pytest

from faultlint.cli import main
from faultlint.lexer import scan

from conftest import CASES_DIR, REFERENCE_CORPUS_DIR

FIXTURE_FILES = sorted(REFERENCE_CORPUS_DIR.glob("*.java")) + sorted(CASES_DIR.glob("*.java"))
MUTANTS_PER_CORPUS = 100


def _tokens(path) -> list[tuple[str, int]]:
    """(lexeme, line) of each token of the file."""
    pairs, lines = scan(path.read_text(encoding="utf-8"), {})
    return [(lexeme, line) for (_, lexeme), line in zip(pairs, lines)]


FIXTURE_TOKENS = [_tokens(path) for path in FIXTURE_FILES]
LEXEMES = sorted({lexeme for tokens in FIXTURE_TOKENS for lexeme, _ in tokens})


def mutate(rng: random.Random, tokens: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """tokens after one to four random edits; lines stay in order."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 4)):
        edit = rng.choice(("delete", "duplicate", "swap", "insert")) if tokens else "insert"
        at = rng.randrange(len(tokens)) if tokens else 0
        if edit == "delete":
            del tokens[at]
        elif edit == "duplicate":
            tokens.insert(at, tokens[at])
        elif edit == "swap":
            if at + 1 < len(tokens):  # the lexemes trade places, the lines stay
                (first, line), (second, next_line) = tokens[at], tokens[at + 1]
                tokens[at], tokens[at + 1] = (second, line), (first, next_line)
        else:  # on the line of the token it goes before
            tokens.insert(at, (rng.choice(LEXEMES), tokens[at][1] if tokens else 1))
    return tokens


def render(tokens: list[tuple[str, int]]) -> str:
    """Source text with each token on its line, one blank between tokens."""
    rows: dict[int, list[str]] = {}
    for lexeme, line in tokens:
        rows.setdefault(line, []).append(lexeme)
    return "".join(" ".join(rows.get(line, ())) + "\n"
                   for line in range(1, max(rows, default=0) + 1))


def write_mutants(root, rng: random.Random) -> None:
    root.mkdir()
    for index in range(MUTANTS_PER_CORPUS):
        tokens = mutate(rng, rng.choice(FIXTURE_TOKENS))
        (root / f"m{index:03d}.java").write_text(render(tokens), encoding="utf-8")


def test_render_keeps_the_tokens_and_their_lines():
    for path, tokens in zip(FIXTURE_FILES, FIXTURE_TOKENS):
        pairs, lines = scan(render(tokens), {})
        assert [(lexeme, line) for (_, lexeme), line in zip(pairs, lines)] == tokens, path.name


@pytest.mark.parametrize("seed, options", [
    (1, []),
    (2, ["--format", "json"]),
    (3, ["--rules", "2,3,4", "--strict-parse"]),
])
def test_mutated_corpora_scan_the_same_twice_without_internal_error(tmp_path, capsys,
                                                                  seed, options):
    corpus = tmp_path / "corpus"
    write_mutants(corpus, random.Random(f"token-mutants:{seed}"))
    runs = []
    for run in range(2):
        store_path = tmp_path / f"store{run}.json"
        code = main([str(corpus), *options, "--store", str(store_path)])
        out, err = capsys.readouterr()
        assert code in (0, 1), err
        assert "internal error" not in err
        runs.append((code, out, err, store_path.read_bytes()))
    assert runs[0] == runs[1]
