"""The record classes' contract: construction, repr, equality, hash, and
immutability, as frozen dataclasses had them. Immutability is a rule of
the source, which these tests check statically over it: a field is stored
once, in its class's `__init__`, and never again."""

from __future__ import annotations

import ast
import copy
import importlib
import pickle
from pathlib import Path

import pytest

import faultlint
import faultlint.nodes as nodes
from faultlint.cli import RunConfig, ScanResult, run_scan
from faultlint.detectors import ALL_RULES, Finding, run_all
from faultlint.model import (
    DEFAULT_EXTENDS,
    DEFAULT_PURE_ACCESSORS,
    DEFAULT_RESOURCE_TYPES,
    ExternalHierarchySeed,
    ProgramModel,
)
from faultlint.lexer import CHAR, KEYWORD, NUMBER, STRING
from faultlint.nodes import Binary, Block, Empty, Literal, Name, Paren, ParseDiagnostic
from faultlint.record import Record
from faultlint.store import AnalysisStore, ClassRecord, Cluster, Diagnostic

from conftest import REFERENCE_CORPUS_DIR, model_for_dir

NODE_CLASSES = [
    cls for cls in vars(nodes).values()
    if isinstance(cls, type) and issubclass(cls, Record)
    and cls not in (Record, nodes.Expr, nodes.Stmt)
]
FROZEN_CLASSES = NODE_CLASSES + [
    ExternalHierarchySeed, ProgramModel,
    ClassRecord, Cluster, Diagnostic, AnalysisStore,
    RunConfig, ScanResult, Finding,
]


SOURCE_MODULES = sorted(path.stem for path in Path(faultlint.__file__).parent.glob("*.py"))


def _source_trees():
    for module in SOURCE_MODULES:
        path = Path(faultlint.__file__).parent / f"{module}.py"
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def _attribute_stores() -> list[tuple[str, str | None, str | None, str]]:
    """(module, class, function, target) for every attribute store or
    deletion in the package's source, a deletion's target written `del x.f`.
    The class and function are the innermost enclosing class and the
    outermost function within it, None where there is none."""
    found = []

    def visit(node, module, owner, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, owner, function or child.name)
            else:
                if isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Load):
                    prefix = "del " if isinstance(child.ctx, ast.Del) else ""
                    found.append((module, owner, function, prefix + ast.unparse(child)))
                visit(child, module, owner, function)

    for module, tree in _source_trees():
        visit(tree, module, None, None)
    return found


ATTRIBUTE_STORES = _attribute_stores()


def _record_classes_of_the_source() -> set[type]:
    found = set()
    for module in SOURCE_MODULES:
        namespace = importlib.import_module(f"faultlint.{module}")
        found.update(value for value in vars(namespace).values()
                     if isinstance(value, type) and issubclass(value, Record)
                     and value.__module__ == namespace.__name__)
    return found


# Each record class with every field None (__init__ only stores its
# arguments), and a literal of each kind under the name of the node class it
# had before the kinds shared one Literal.
RECORD_CASES = [pytest.param(cls, (None,) * len(cls._fields), id=cls.__name__)
                for cls in FROZEN_CLASSES] + [
    pytest.param(Literal, (KEYWORD, "true", 1), id="BoolLit"),
    pytest.param(Literal, (CHAR, "'a'", 1), id="CharLit"),
    pytest.param(Literal, (NUMBER, "1", 1), id="NumLit"),
    pytest.param(Literal, (STRING, '"a"', 1), id="StringLit"),
]


def _finding(detail=None):
    return Finding("A", 1, "a.java", 3, "m", detail)


def test_every_record_class_is_counted():
    assert len(NODE_CLASSES) == 25
    assert len(FROZEN_CLASSES) == 34
    assert _record_classes_of_the_source() == set(FROZEN_CLASSES) | {Record, nodes.Expr, nodes.Stmt}


REPRS = [
    (Name("x", 1), "Name(ident='x', line=1)"),
    (Binary("+", Name("a", 2), Literal(NUMBER, "1", 2), 2),
     "Binary(op='+', lhs=Name(ident='a', line=2),"
     " rhs=Literal(kind='numeric-literal', lexeme='1', line=2), line=2)"),
    (Block((Empty(4),), 3), "Block(stmts=(Empty(line=4),), line=3)"),
    (ParseDiagnostic("a.java", 2, "skipped", (2, 5)),
     "ParseDiagnostic(file_path='a.java', line=2, message='skipped', skipped_span=(2, 5))"),
    (_finding({"op": "=="}),
     "Finding(class_name='A', error_code=1, file_path='a.java', line=3, message='m',"
     " detail={'op': '=='})"),
    (Diagnostic("m"), "Diagnostic(message='m', file_path=None, line=None)"),
    (Cluster((1, 4), ("A",)), "Cluster(error_set=(1, 4), classes=('A',))"),
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
    assert Name("x", 1) != Paren("x", 1)
    assert Paren("x", 1) != Name("x", 1)
    assert Name("x", 1) != ("x", 1)
    assert len({Name("x", 1), Name("x", 1), Paren("x", 1)}) == 2
    assert Diagnostic("m") == Diagnostic("m", None, None)
    with pytest.raises(TypeError):
        Name("x", 1) < Name("y", 1)


def test_finding_hash_leaves_out_detail_and_equality_compares_it():
    plain, detailed = _finding(), _finding({"op": "=="})
    assert hash(plain) == hash(detailed)
    assert plain != detailed
    assert _finding({"op": "=="}) == detailed


@pytest.mark.parametrize("cls, args", RECORD_CASES)
def test_frozen_fields_refuse_assignment_and_deletion(cls, args):
    """The source, not the run time, refuses a record's fields assignment and
    deletion after construction: its `__init__` stores `self.<field>` once
    for each field and nothing else, and no other code stores a field
    (test_source_stores_no_field_outside_init). A name that is not a
    field is still refused at run time, by `__slots__`."""
    module = cls.__module__.rpartition(".")[2]
    stores = [target for where, owner, function, target in ATTRIBUTE_STORES
              if (where, owner, function) == (module, cls.__name__, "__init__")]
    assert sorted(stores) == sorted(f"self.{name}" for name in cls._fields)
    with pytest.raises(AttributeError):
        cls(*args).not_a_field = 1


def test_source_stores_no_field_outside_init():
    # the parser's cursor is the one object whose attributes move; Record
    # publishes each subclass's _fields once, when the class is made
    def allowed(owner, function, target):
        return ((owner == "_Parser" and target in ("self.pos", "self.depth"))
                or (owner, function, target) == ("Record", "__init_subclass__", "cls._fields"))

    outside = [store for store in ATTRIBUTE_STORES
               if store[2] != "__init__" and not allowed(*store[1:])]
    assert outside == []


def test_source_never_sets_or_deletes_attributes_by_name():
    # setattr, delattr and object.__setattr__ would store a field around
    # the checks above; none is called, nor bound to another name
    found = []
    for module, tree in _source_trees():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id in ("setattr", "delattr"))
                    or (isinstance(node, ast.Attribute)
                        and node.attr in ("__setattr__", "__delattr__"))):
                found.append((module, node.lineno, ast.unparse(node)))
    assert found == []


def test_records_keep_the_direct_slot_store():
    """No class of the package defines `__setattr__` or `__delattr__`, and no
    class a record inherits from but `object` does.

    CPython's specialising interpreter (PEP 659) compiles `self.field =
    value` on a slotted class to a direct write into the slot only while
    the class's attribute store is `object`'s own. A `__setattr__` or
    `__delattr__` written in Python on the class or any base (the two share
    one type slot) turns every field store of every record into a generic
    call instead. Nothing fails when that happens, the scan only slows: the
    run-time assignment guard `Record` once had cost about 22 ms of a
    123 ms parse. So this test is what keeps it out.
    """
    hooks = ("__setattr__", "__delattr__")
    defined = []
    for module, tree in _source_trees():
        for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for statement in cls.body:
                names = ([statement.name] if isinstance(statement, ast.FunctionDef)
                         else [target.id for target in getattr(statement, "targets", ())
                               if isinstance(target, ast.Name)])
                defined.extend((module, cls.name, name) for name in names if name in hooks)
    assert defined == []
    for cls in _record_classes_of_the_source():
        for base in cls.__mro__[:-1]:
            assert not set(hooks) & set(vars(base)), base
        assert cls.__setattr__ is object.__setattr__
        assert cls.__delattr__ is object.__delattr__


@pytest.mark.parametrize("cls, args", RECORD_CASES)
def test_records_have_no_instance_dict(cls, args):
    assert not hasattr(cls(*args), "__dict__")
    assert cls._fields == cls.__slots__


@pytest.mark.parametrize("cls, args", RECORD_CASES)
def test_copy_and_pickle_rebuild_equal_records(cls, args):
    record = cls(*args)
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
    assert first.diagnostics == ()

    config = RunConfig(Path("."))
    assert config == RunConfig(corpus_root=Path("."), seed_file=None, enabled_rules=ALL_RULES,
                               output_format="text", store_output=None, strict_parse=False)

    seed = ExternalHierarchySeed()
    assert (seed.extends_entries, seed.resource_types, seed.pure_accessor_names) == (
        DEFAULT_EXTENDS, DEFAULT_RESOURCE_TYPES, DEFAULT_PURE_ACCESSORS)

    model = ProgramModel({}, {}, {}, {}, frozenset(), seed)
    assert model.diagnostics == ()

    assert _finding().detail == {} and _finding().detail is not _finding().detail
