from __future__ import annotations

from pathlib import Path

import pytest

from faultlint.model import ExternalHierarchySeed, build_model, default_seed
from faultlint.parser import parse_source

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE_CORPUS_DIR = FIXTURES / "reference_corpus"
CASES_DIR = FIXTURES / "cases"


def parse_fixture(path: Path):
    return parse_source(path.read_text(encoding="utf-8"), path.name)


def model_for_files(*paths: Path, seed: ExternalHierarchySeed | None = None):
    units = [parse_fixture(p) for p in sorted(paths, key=lambda p: p.name)]
    return build_model(units, seed or default_seed())


def model_for_dir(directory: Path, seed: ExternalHierarchySeed | None = None):
    return model_for_files(*sorted(directory.glob("*.java")), seed=seed)


def model_for_source(source: str, file_path: str = "test.java",
                     seed: ExternalHierarchySeed | None = None):
    return build_model([parse_source(source, file_path)], seed or default_seed())


@pytest.fixture(scope="session")
def reference_model():
    return model_for_dir(REFERENCE_CORPUS_DIR)


def linear_chain_source(names: list[str]) -> str:
    """One file declaring a linear inheritance chain, root first."""
    parts = []
    for i, name in enumerate(names):
        header = f"class {name}"
        if i > 0:
            header += f" extends {names[i - 1]}"
        parts.append(header + "\n{\n}\n")
    return "\n".join(parts)


NESTING_SHAPES = ("parens", "ifs", "blocks")


def nested_source(shape: str, depth: int, class_name: str = "Deep") -> str:
    """One method whose body holds `depth` constructs nested in one another."""
    if shape == "parens":
        body = "return " + "(" * depth + "1" + ")" * depth + ";"
    elif shape == "ifs":
        body = "if (a) " * depth + "a++;"
    elif shape == "blocks":
        body = "{" * depth + "}" * depth
    else:
        raise ValueError(shape)
    return f"class {class_name}\n{{\n    int m()\n    {{\n        {body}\n    }}\n}}\n"
