"""The package's sources parse under the oldest Python that pyproject.toml
declares, whichever newer interpreter runs the suite."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import faultlint

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(faultlint.__file__).resolve().parent.glob("*.py"))


def _declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_floor_check_rejects_newer_syntax():
    # except* came in 3.11: feature_version is honoured, not ignored
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_declared_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_under_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_declared_floor())
