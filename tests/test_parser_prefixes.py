"""The parser at every end of input: each prefix of each file's tokens.

For every fixture file and the hand-written `prefix_cuts/skip_paths.java`
(a generic field, an annotated method, `switch`, a lambda, an import
missing its `;` and nesting past MAX_NESTING), the parser run on the
first k of `scan`'s tokens and lines (fresh slices of both lists, which
the parser extends with its end sentinels) must not raise for any k, and
the repr of each unit must hash to the digest committed in
`prefix_cuts/digests.json`. A failure names the first cut whose unit
differs.

To record the digests again after an intended output change:

    PYTHONPATH=src python tests/test_parser_prefixes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from faultlint.lexer import scan
from faultlint.parser import _Parser

TESTS = Path(__file__).parent
PREFIX_DIR = TESTS / "prefix_cuts"
DIGESTS = PREFIX_DIR / "digests.json"
FILES = (sorted((TESTS / "fixtures" / "reference_corpus").glob("*.java"))
         + sorted((TESTS / "fixtures" / "cases").glob("*.java"))
         + [PREFIX_DIR / "skip_paths.java"])


def parse_prefix(tokens: list, lines: list, k: int, file_name: str):
    """The unit of the first k tokens."""
    return _Parser(tokens[:k], lines[:k], file_name).parse_unit()


def prefix_digests(path: Path) -> list[str]:
    """One short digest of the unit's repr for each cut k = 0..len(tokens)."""
    tokens, lines = scan(path.read_text(encoding="utf-8"), {})
    digests = []
    for k in range(len(tokens) + 1):
        unit = parse_prefix(tokens, lines, k, path.name)
        digests.append(hashlib.sha1(repr(unit).encode("utf-8")).hexdigest()[:10])
    return digests


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_prefix_parses_as_recorded(path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[path.name]
    digests = prefix_digests(path)
    assert len(digests) == len(recorded), "token count changed"
    for k, (got, want) in enumerate(zip(digests, recorded)):
        assert got == want, f"{path.name}: the unit of the first {k} tokens differs"


def test_skip_paths_file_reaches_every_skip_path():
    path = PREFIX_DIR / "skip_paths.java"
    tokens, lines = scan(path.read_text(encoding="utf-8"), {})
    unit = parse_prefix(tokens, lines, len(tokens), path.name)
    messages = [d.message for d in unit.diagnostics]
    assert messages == [
        "expected ';' to end the import directive but found 'import'",
        "expected 'identifier' but found '<'",
        "expected a type name but found '@'",
        "unexpected 'switch' in expression",
        "unexpected ')' in expression",
        "nesting deeper than 100 levels",
    ]


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({p.name: prefix_digests(p) for p in FILES}, indent=0) + "\n",
        encoding="utf-8",
    )
