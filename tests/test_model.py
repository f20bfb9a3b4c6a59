from __future__ import annotations

import json
import random
from fnmatch import fnmatchcase

import pytest

from faultlint.model import (
    ExternalHierarchySeed,
    SeedError,
    _first_superclasses,
    build_model,
    default_seed,
    is_descendant,
    load_seed,
    method_scope,
    resolve_callee,
    static_type_of,
    walk_body,
)
from faultlint.lexer import CHAR, KEYWORD, NUMBER, STRING
from faultlint.nodes import Literal, MethodCall, Name, New, Paren
from faultlint.parser import parse_source

from ast_helpers import iter_scoped_exprs
from conftest import (
    REFERENCE_CORPUS_DIR,
    linear_chain_source,
    model_for_source,
    parse_fixture,
)

CHAIN_NAMES = ["ML_A", "ML_B", "ML_C", "ML_D", "ML_E", "ML_F", "ML_G"]


@pytest.fixture(scope="module")
def chain_model():
    return model_for_source(linear_chain_source(CHAIN_NAMES), "chain.java")


def _chain(name, model):
    return _first_superclasses(name, model.parent)


def _depth(name, model):
    return len(_chain(name, model)) - 1


# --- build_model -------------------------------------------------------------


def test_chain_edges_built_per_class(chain_model):
    edges = chain_model.parent
    for child, parent in zip(CHAIN_NAMES[1:], CHAIN_NAMES[:-1]):
        assert edges[child] == parent
    assert "ML_A" not in edges


def test_empty_unit_list_gives_empty_model():
    model = build_model([])
    assert model.classes == {}
    # only the seed remains
    assert model.parent == {"Stack": "Vector"}


def test_seeded_chain_continues_into_vector():
    # oracle: hand-built adjacency union of corpus + default seed
    model = model_for_source("class S extends Vector { }", "S.java")
    oracle = {"S": "Vector", "Stack": "Vector"}
    assert model.parent == oracle
    assert _chain("S", model) == ["S", "Vector"]
    assert _depth("S", model) == 1
    # Vector is known only from the seed and extends nothing
    assert _chain("Vector", model) == ["Vector"]


def test_duplicate_class_keeps_first_by_sorted_path():
    unit_a = parse_source("class Dup { void a() { } }", "a.java")
    unit_b = parse_source("class Dup { void b() { } }", "b.java")
    model = build_model([unit_b, unit_a])  # arrival order must not matter
    assert model.class_files["Dup"] == "a.java"
    assert model.classes["Dup"].methods[0].name == "a"
    assert any("duplicate class Dup" in d for d in model.diagnostics)


def test_build_model_deterministic_under_permutation():
    units = [parse_fixture(p) for p in sorted(REFERENCE_CORPUS_DIR.glob("*.java"))]
    shuffled = list(units)
    random.Random(7).shuffle(shuffled)
    a = build_model(units)
    b = build_model(shuffled)
    assert (a.parent, a.subclasses, a.cyclic) == (b.parent, b.subclasses, b.cyclic)
    assert a.classes == b.classes
    assert a.class_files == b.class_files
    assert a.diagnostics == b.diagnostics


# --- inheritance depth -------------------------------------------------------


def test_depth_of_root_is_zero(chain_model):
    assert _depth("ML_A", chain_model) == 0


def test_depth_of_full_chain_is_six(chain_model):
    assert _depth("ML_G", chain_model) == 6


def test_depth_random_linear_chains():
    # oracle: edge-count walk over the adjacency dict we generated from,
    # independent of the hierarchy structures under test
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(0, 10)
        names = [f"C{i}_{rng.randrange(10**6)}" for i in range(k + 1)]
        parent_of = {child: parent for parent, child in zip(names, names[1:])}

        def oracle_depth(name):
            count = 0
            while name in parent_of:
                name = parent_of[name]
                count += 1
            return count

        model = model_for_source(linear_chain_source(names), "chain.java")
        deepest = names[-1]
        assert oracle_depth(deepest) == k
        assert _depth(deepest, model) == k


def test_unknown_external_superclass_counts_one_edge():
    model = model_for_source("class X extends SomeLibClass { }", "X.java")
    assert _depth("X", model) == 1
    assert _chain("X", model) == ["X", "SomeLibClass"]


def test_cycle_is_cyclic_and_one_model_diagnostic():
    model = model_for_source(
        "class A extends B { }\nclass B extends A { }\nclass C extends A { }\n"
        "class D { }", "cycle.java"
    )
    assert model.cyclic == {"A", "B", "C"}
    assert model.diagnostics == ("inheritance cycle: A -> B -> A",)


def test_multi_extends_uses_first_superclass_only():
    source = linear_chain_source(["R0", "R1", "R2", "R3", "R4", "R5"]) + \
        "\nclass M extends R5, R0 { }"
    model = model_for_source(source, "m.java")
    assert _depth("M", model) == 6
    assert model.classes["M"].extends_list == ("R5", "R0")


# --- is_descendant -----------------------------------------------------------


def test_stack_is_descendant_of_vector_by_seed():
    model = build_model([])
    assert is_descendant("Stack", "Vector", model.parent)


def test_descendant_is_strict():
    model = build_model([])
    assert not is_descendant("Vector", "Vector", model.parent)


def test_chain_descendant_with_closure_oracle(chain_model):
    # oracle: reachability via transitive closure by repeated squaring
    names = CHAIN_NAMES
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    reach = [[False] * n for _ in range(n)]
    for child, parent in zip(names[1:], names[:-1]):
        reach[index[child]][index[parent]] = True
    changed = True
    while changed:  # squaring until fixpoint
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(reach[i][k] and reach[k][j] for k in range(n)):
                    reach[i][j] = True
                    changed = True
    assert is_descendant("ML_G", "ML_A", chain_model.parent)
    for a in names:
        for b in names:
            assert is_descendant(a, b, chain_model.parent) == reach[index[a]][index[b]]


def test_descendant_irreflexive_transitive_random_forests():
    # random single-parent hierarchies (the effective edge set: multi-extends
    # contributes only its first superclass) against a closure oracle
    rng = random.Random(5150)
    for _ in range(60):
        size = rng.randint(1, 12)
        names = [f"N{i}" for i in range(size)]
        parent_of = {}
        for i in range(1, size):
            if rng.random() < 0.8:
                parent_of[names[i]] = names[rng.randrange(0, i)]
        source = "\n".join(
            f"class {n} extends {parent_of[n]} {{ }}" if n in parent_of
            else f"class {n} {{ }}"
            for n in names
        )
        model = model_for_source(source, "forest.java")

        def closure(a):
            seen = set()
            node = a
            while node in parent_of:
                node = parent_of[node]
                seen.add(node)
            return seen

        for a in names:
            ancestors = closure(a)
            assert not is_descendant(a, a, model.parent)
            for b in names:
                assert is_descendant(a, b, model.parent) == (b in ancestors)
            # transitivity against the oracle set
            for b in ancestors:
                for c in closure(b):
                    assert is_descendant(a, c, model.parent)


def test_unknown_names_are_not_descendants():
    model = build_model([])
    assert not is_descendant("Nope", "Vector", model.parent)


def test_descendant_ignores_second_superclass_of_multi_extends():
    # only the first extends entry has semantics; the rest exist solely
    # for the incorrect-inheritance detector
    model = model_for_source("class M extends B, C { }", "m.java")
    assert is_descendant("M", "B", model.parent)
    assert not is_descendant("M", "C", model.parent)


# --- static_type_of ----------------------------------------------------------


def _only_method(model, class_name):
    decl = model.classes[class_name]
    return decl, decl.methods[0]


def test_param_name_type():
    model = model_for_source("class F { void f(Stack s) { s.push(x); } }", "f.java")
    decl, method = _only_method(model, "F")
    scope = method_scope(decl, method)
    assert static_type_of(Name("s", 1), scope) == "Stack"


def test_string_literal_type():
    assert static_type_of(Literal(STRING, '"WEL"', 1), {}) == "String"
    for kind, lexeme in ((NUMBER, "1"), (CHAR, "'c'"), (KEYWORD, "true")):
        assert static_type_of(Literal(kind, lexeme, 1), {}) is None


def test_new_and_paren_types():
    expr = Paren(New("FileReader", (), 1), 1)
    assert static_type_of(expr, {}) == "FileReader"


def test_method_call_type_is_unknown():
    call = MethodCall(Name("v", 1), "size", (), 1)
    assert static_type_of(call, {}) is None


def test_undeclared_name_is_unknown():
    assert static_type_of(Name("ghost", 1), {}) is None


def test_local_shadows_field():
    model = model_for_source(
        'class S { String d; void m() { int d = 1; if (d == x) { } } }', "s.java"
    )
    decl, method = _only_method(model, "S")
    seen = {}
    for expr, scope in iter_scoped_exprs(decl, method):
        if isinstance(expr, Name):
            seen[expr.ident] = scope.get(expr.ident)
    assert seen["d"] == "int"


def test_block_scope_does_not_leak():
    model = model_for_source(
        "class S { void m() { if (a > 0) { String t; } use(t); } }", "s.java"
    )
    decl, method = _only_method(model, "S")
    types = [
        scope.get(expr.ident)
        for expr, scope in iter_scoped_exprs(decl, method)
        if isinstance(expr, Name) and expr.ident == "t"
    ]
    assert types == [None]


def _name_lookups(source, ident):
    model = model_for_source(source, "s.java")
    decl, method = _only_method(model, "S")
    return [
        scope.get(expr.ident)
        for expr, scope in iter_scoped_exprs(decl, method)
        if isinstance(expr, Name) and expr.ident == ident
    ]


@pytest.mark.parametrize("field, outside", [("", None), ("int i;", "int")])
def test_for_init_variable_scoped_to_the_loop(field, outside):
    # condition, update and body see the loop's i; before and after it,
    # i is the field or unknown
    source = (
        f"class S {{ {field} void m() {{ i.before(); "
        "for (String i = a; i == b; i.next()) { i.use(); } i.after(); } }"
    )
    assert _name_lookups(source, "i") == [outside, "String", "String", "String", outside]


def test_for_init_declarators_enter_the_loop_scope_in_order():
    # j's initializer sees i; the loop's j hides the field j until the loop ends
    source = (
        "class S { int j; void m() { j.before(); "
        "for (String i = a, j = i; j == i; j.next()) { j.use(); } j.after(); } }"
    )
    assert _name_lookups(source, "i") == ["String", "String"]
    assert _name_lookups(source, "j") == ["int", "String", "String", "String", "int"]


def test_local_declaration_takes_effect_after_its_initializer():
    source = "class S { String d; void m() { int d = d.length(); d.use(); } }"
    assert _name_lookups(source, "d") == ["String", "int"]


def test_catch_variable_visible_only_in_its_own_catch_body():
    source = (
        "class S { void m() { try { e.a(); } catch (IOException e) { e.b(); } "
        "catch (Exception f) { e.c(); } finally { e.d(); } e.f(); } }"
    )
    assert _name_lookups(source, "e") == [None, "IOException", None, None, None]


def test_walk_body_borrows_the_scope_and_restores_it():
    # one dict serves the whole walk; a field redeclared twice in one
    # block, in a sibling block, by a catch variable and by a for init is
    # hidden only until that block ends, a new local n goes with its block,
    # and the dict comes back as given
    source = (
        "class S { String d; void m(int k) { { long d; int d; int n; d.a(); } "
        "{ int d; d.b(); } "
        "try { } catch (E d) { d.c(); } for (char d = 'x'; ; ) { d.e(); } d.f(); } }"
    )
    model = model_for_source(source, "s.java")
    decl, method = _only_method(model, "S")
    scope = method_scope(decl, method)
    types = []
    for node in walk_body(method.body, scope):
        if isinstance(node, Name) and node.ident == "d":
            types.append(scope.get("d"))
    assert types == ["int", "int", "E", "char", "String"]
    assert scope == {"d": "String", "k": "int"}


# --- resolve_callee ----------------------------------------------------------


def _resolved(model, name, arity, receiver_type):
    return [c for c, _ in resolve_callee(name, arity, model, receiver_type)]


def test_resolve_inherited_method_found_in_superclass():
    model = model_for_source(
        "class P { void run(int n) { } }\n"
        "class Q extends P { }\n"
        "class Other { void run(int n) { } }\n",
        "h.java",
    )
    assert _resolved(model, "run", 1, "Q") == ["P"]
    assert _resolved(model, "run", 1, "Other") == ["Other"]
    assert _resolved(model, "run", 2, "Q") == []
    assert _resolved(model, "run", 1, "Unknown") == []


def test_resolve_nearest_override_wins_then_overrides_below():
    model = model_for_source(
        "class R { void run(int n) { } }\n"
        "class S extends R { void run(int n) { } }\n"
        "class T extends S { }\n"
        "class U2 extends T { void run(int n) { } }\n"
        "class V2 extends S { void run(int n) { } }\n"
        "class W2 extends U2 { void run(int n) { } }\n",
        "h.java",
    )
    # nearest at or above the receiver, then every override below it,
    # depth-first in sorted order; nothing above the nearest declaration
    assert _resolved(model, "run", 1, "T") == ["S", "U2", "W2"]
    assert _resolved(model, "run", 1, "S") == ["S", "U2", "W2", "V2"]
    assert _resolved(model, "run", 1, "R") == ["R", "S", "U2", "W2", "V2"]
    assert _resolved(model, "run", 1, "W2") == ["W2"]


def test_resolve_same_arity_overload_does_not_hide_inherited_method():
    model = model_for_source(
        "class OA { void run(Vector v) { } }\n"
        "class OB extends OA { void run(String t) { } }\n"
        "class OC extends OB { void run(Vector v) { } }\n",
        "ov.java",
    )
    assert _resolved(model, "run", 1, "OB") == ["OB", "OA", "OC"]
    assert _resolved(model, "run", 1, "OC") == ["OC", "OB"]


def test_resolve_terminates_on_inheritance_cycle():
    model = model_for_source(
        "class CA extends CB { }\n"
        "class CB extends CA { void run(int n) { } }\n",
        "cyc.java",
    )
    assert _resolved(model, "run", 1, "CA") == ["CB"]
    assert _resolved(model, "run", 1, "CB") == ["CB"]
    assert _resolved(model, "absent", 0, "CA") == []


# --- depth monotonicity invariant -------------------------------------------


def test_depth_monotonic_along_chain(chain_model):
    for child, parent in zip(CHAIN_NAMES[1:], CHAIN_NAMES[:-1]):
        assert _depth(child, chain_model) == _depth(parent, chain_model) + 1


# --- external seed file ------------------------------------------------------


def test_default_seed_contents():
    seed = default_seed()
    assert ("Stack", "Vector") in seed.extends_entries
    assert {"FileOutputStream", "FileInputStream", "DataOutputStream",
            "DataInputStream", "FileReader", "FileWriter", "BufferedReader",
            "BufferedWriter"} <= set(seed.resource_types)
    for name in ("getItem", "size", "isEmpty", "length", "contains",
                 "elementAt", "peek", "toString", "hashCode", "equals"):
        assert seed.is_pure_accessor(name), name
    assert not seed.is_pure_accessor("removeElementAt")
    assert not seed.is_pure_accessor("push")


def test_load_seed_file(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({
        "extends": [["MyStack", "MyVector"]],
        "resource_types": ["SocketStream"],
        "pure_accessors": ["peek*"],
    }))
    seed = load_seed(path)
    assert seed.extends_entries == (("MyStack", "MyVector"),)
    assert seed.resource_types == frozenset({"SocketStream"})
    assert seed.is_pure_accessor("peekLast")
    assert not seed.is_pure_accessor("size")


# pattern pieces: literals, each wildcard form, ranges, brackets left open,
# and characters a regular expression would read as syntax
ACCESSOR_PATTERN_ATOMS = ["get", "is", "a", "b", "G", "*", "?", "[ab]", "[!ab]", "[a-c]",
                          "[!x-z]", "[]a]", "[!]", "[", "]", "-", "\\", ".", "^", "$", "|",
                          "(", "+"]
ACCESSOR_NAME_CHARS = "abcgetisxzG_$.-[]|*?\\(+^\n"


def test_pure_accessor_matcher_equals_fnmatchcase_pattern_by_pattern():
    rng = random.Random(31)
    for _ in range(2000):
        patterns = tuple("".join(rng.choice(ACCESSOR_PATTERN_ATOMS)
                                 for _ in range(rng.randint(0, 4)))
                         for _ in range(rng.randint(0, 4)))
        seed = ExternalHierarchySeed(pure_accessor_names=patterns)
        matcher = seed.pure_accessor_matcher()
        for _ in range(20):
            name = "".join(rng.choice(ACCESSOR_NAME_CHARS) for _ in range(rng.randint(0, 6)))
            expected = any(fnmatchcase(name, pattern) for pattern in patterns)
            assert (matcher(name) is not None) is expected, (patterns, name)
            assert seed.is_pure_accessor(name) is expected, (patterns, name)


def test_pure_accessor_matcher_named_cases():
    nothing = ExternalHierarchySeed(pure_accessor_names=()).pure_accessor_matcher()
    assert [nothing(name) for name in ("", "get", "size", "*")] == [None] * 4
    matcher = default_seed().pure_accessor_matcher()
    assert [name for name in ("push", "pop", "writeInt", "getX", "get", "Get", "sizes", "size")
            if matcher(name)] == ["getX", "get", "size"]


def test_seed_file_with_byte_order_mark_loads_as_without(tmp_path):
    document = json.dumps({"extends": [["MyStack", "MyVector"]], "pure_accessors": ["peek*"]})
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(document, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + document.encode("utf-8"))
    assert load_seed(marked) == load_seed(plain)
    assert load_seed(marked).extends_entries == (("MyStack", "MyVector"),)


def test_load_seed_missing_keys_fall_back_to_defaults(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"extends": [["D", "B"]]}))
    seed = load_seed(path)
    assert seed.extends_entries == (("D", "B"),)
    assert seed.resource_types == default_seed().resource_types
    assert seed.pure_accessor_names == default_seed().pure_accessor_names


@pytest.mark.parametrize("payload", [
    "not json at all",
    '["a", "b"]',
    '{"extends": [["only-one"]]}',
    '{"extends": "Stack,Vector"}',
    '{"resource_types": [1, 2]}',
    '{"pure_accessors": {"get": true}}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deeply"),
])
def test_load_seed_rejects_malformed(tmp_path, payload):
    path = tmp_path / "seed.json"
    path.write_text(payload)
    with pytest.raises(SeedError):
        load_seed(path)


def test_custom_seed_drives_descendant_relation():
    seed = ExternalHierarchySeed(
        extends_entries=(("ArrayList", "AbstractList"), ("AbstractList", "List")),
    )
    model = build_model([], seed)
    assert is_descendant("ArrayList", "List", model.parent)
    assert not is_descendant("Stack", "Vector", model.parent)
