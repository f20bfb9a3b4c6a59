"""The record classes' contract: construction, repr, equality, hash, and
immutability, as frozen dataclasses had them."""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

import faultlint.nodes as nodes
from faultlint.cli import RunConfig, ScanResult, run_scan
from faultlint.detectors import ALL_RULES, ERROR_CATALOG, Finding, run_all
from faultlint.model import (
    DEFAULT_EXTENDS,
    DEFAULT_PURE_ACCESSORS,
    DEFAULT_RESOURCE_TYPES,
    ClassHierarchy,
    ExternalHierarchySeed,
    ProgramModel,
)
from faultlint.nodes import Binary, Block, Empty, Name, NumLit, ParseDiagnostic
from faultlint.record import Record
from faultlint.store import AnalysisStore, ClassRecord, Cluster, Diagnostic

from conftest import REFERENCE_CORPUS_DIR, model_for_dir

NODE_CLASSES = [
    cls for cls in vars(nodes).values()
    if isinstance(cls, type) and issubclass(cls, Record)
    and cls not in (Record, nodes.Expr, nodes.Stmt)
]
FROZEN_CLASSES = NODE_CLASSES + [
    ExternalHierarchySeed, ClassHierarchy, ProgramModel,
    ClassRecord, Cluster, Diagnostic, AnalysisStore,
    RunConfig, ScanResult, Finding,
]


def _instance(cls):
    """An instance with every field None; __init__ only stores its arguments."""
    return cls(*[None] * len(cls._fields))


def _finding(detail=None):
    return Finding("A", 1, "Lvalue required", "a.java", 3, "m", detail)


def test_every_record_class_is_counted():
    assert len(NODE_CLASSES) == 28
    assert len(FROZEN_CLASSES) == 38


REPRS = [
    (Name("x", 1), "Name(ident='x', line=1)"),
    (Binary("+", Name("a", 2), NumLit("1", 2), 2),
     "Binary(op='+', lhs=Name(ident='a', line=2), rhs=NumLit(lexeme='1', line=2), line=2)"),
    (Block((Empty(4),), 3), "Block(stmts=(Empty(line=4),), line=3)"),
    (ParseDiagnostic("a.java", 2, "skipped", (2, 5)),
     "ParseDiagnostic(file_path='a.java', line=2, message='skipped', skipped_span=(2, 5))"),
    (_finding({"op": "=="}),
     "Finding(class_name='A', error_code=1, error_name='Lvalue required', file_path='a.java',"
     " line=3, message='m', detail={'op': '=='})"),
    (Diagnostic("m"), "Diagnostic(message='m', file_path=None, line=None)"),
    (Cluster((1, 4), ("x", "y"), ("A",)),
     "Cluster(error_set=(1, 4), error_names=('x', 'y'), classes=('A',))"),
    (RunConfig(Path("."), strict_parse=True),
     f"RunConfig(corpus_root={Path('.')!r}, seed_file=None,"
     " enabled_rules=frozenset({1, 2, 3, 4, 5, 6}), output_format='text', store_output=None,"
     " strict_parse=True)"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(record).__name__ for record, _ in REPRS])
def test_repr_names_the_class_and_every_field(record, text):
    assert repr(record) == text


def test_equality_and_hash_follow_class_and_fields():
    assert Name("x", 1) == Name("x", 1)
    assert hash(Name("x", 1)) == hash(Name("x", 1))
    assert Name("x", 1) != Name("x", 2)
    assert Name("x", 1) != NumLit("x", 1)
    assert NumLit("x", 1) != Name("x", 1)
    assert Name("x", 1) != ("x", 1)
    assert len({Name("x", 1), Name("x", 1), NumLit("x", 1)}) == 2
    assert Diagnostic("m") == Diagnostic("m", None, None)
    with pytest.raises(TypeError):
        Name("x", 1) < Name("y", 1)


def test_finding_hash_leaves_out_detail_and_equality_compares_it():
    plain, detailed = _finding(), _finding({"op": "=="})
    assert hash(plain) == hash(detailed)
    assert plain != detailed
    assert _finding({"op": "=="}) == detailed


@pytest.mark.parametrize("cls", FROZEN_CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_fields_refuse_assignment_and_deletion(cls):
    record = _instance(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", FROZEN_CLASSES, ids=lambda cls: cls.__name__)
def test_records_have_no_instance_dict(cls):
    assert not hasattr(_instance(cls), "__dict__")
    assert cls._fields == cls.__slots__


@pytest.mark.parametrize("cls", FROZEN_CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_rebuild_equal_records(cls):
    record = _instance(cls)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_pickle_rebuilds_a_scanned_corpus():
    model = model_for_dir(REFERENCE_CORPUS_DIR)
    findings = run_all(model, ALL_RULES)
    store = run_scan(RunConfig(REFERENCE_CORPUS_DIR)).store
    for value in (model.classes, store, findings):
        assert pickle.loads(pickle.dumps(value)) == value


def test_keyword_construction_and_defaults():
    assert Diagnostic("m") == Diagnostic(message="m", file_path=None, line=None)

    first, second = AnalysisStore("root", ()), AnalysisStore(corpus_root="root", records=())
    assert first == second
    assert (first.diagnostics, first.catalog, first.schema_version) == ((), ERROR_CATALOG, 1)
    assert first.catalog is not second.catalog and first.catalog is not ERROR_CATALOG

    config = RunConfig(Path("."))
    assert config == RunConfig(corpus_root=Path("."), seed_file=None, enabled_rules=ALL_RULES,
                               output_format="text", store_output=None, strict_parse=False)

    seed = ExternalHierarchySeed()
    assert (seed.extends_entries, seed.resource_types, seed.pure_accessor_names) == (
        DEFAULT_EXTENDS, DEFAULT_RESOURCE_TYPES, DEFAULT_PURE_ACCESSORS)

    model = ProgramModel(None, {}, {}, {}, seed)
    assert model.diagnostics == ()

    assert _finding().detail == {} and _finding().detail is not _finding().detail
