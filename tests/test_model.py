from __future__ import annotations

import json
import random

import pytest

from faultlint.model import (
    CycleError,
    ExternalHierarchySeed,
    SeedError,
    build_model,
    default_seed,
    inheritance_depth,
    is_descendant,
    load_seed,
    method_scope,
    resolve_callee,
    static_type_of,
    superclass_chain,
)
from faultlint.nodes import MethodCall, Name, New, Paren, StringLit
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


# --- build_model -------------------------------------------------------------


def test_chain_edges_built_per_class(chain_model):
    edges = chain_model.hierarchy.super_edges
    for child, parent in zip(CHAIN_NAMES[1:], CHAIN_NAMES[:-1]):
        assert edges[child] == (parent,)
    assert "ML_A" not in edges


def test_empty_unit_list_gives_empty_model():
    model = build_model([])
    assert model.classes == {}
    assert model.method_index == {}
    # only the seed remains
    assert model.hierarchy.super_edges == {"Stack": ("Vector",)}


def test_seeded_chain_continues_into_vector():
    # oracle: hand-built adjacency union of corpus + default seed
    model = model_for_source("class S extends Vector { }", "S.java")
    oracle = {"S": ("Vector",), "Stack": ("Vector",)}
    assert model.hierarchy.super_edges == oracle
    assert superclass_chain("S", model.hierarchy) == ["S", "Vector"]
    assert inheritance_depth("S", model.hierarchy) == 1
    # Vector is known only from the seed and extends nothing
    assert superclass_chain("Vector", model.hierarchy) == ["Vector"]


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
    assert a.hierarchy == b.hierarchy
    assert a.classes == b.classes
    assert a.method_index == b.method_index
    assert a.class_files == b.class_files
    assert a.diagnostics == b.diagnostics


# --- inheritance_depth -------------------------------------------------------


def test_depth_of_root_is_zero(chain_model):
    assert inheritance_depth("ML_A", chain_model.hierarchy) == 0


def test_depth_of_full_chain_is_six(chain_model):
    assert inheritance_depth("ML_G", chain_model.hierarchy) == 6


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
        assert inheritance_depth(deepest, model.hierarchy) == k


def test_unknown_external_superclass_counts_one_edge():
    model = model_for_source("class X extends SomeLibClass { }", "X.java")
    assert inheritance_depth("X", model.hierarchy) == 1
    assert superclass_chain("X", model.hierarchy) == ["X", "SomeLibClass"]
    with pytest.raises(KeyError):
        superclass_chain("SomeLibClass", model.hierarchy)


def test_cycle_raises_cycle_error_and_is_model_diagnostic():
    model = model_for_source(
        "class A extends B { }\nclass B extends A { }", "cycle.java"
    )
    with pytest.raises(CycleError) as err:
        inheritance_depth("A", model.hierarchy)
    assert set(err.value.cycle) == {"A", "B"}
    assert sum("inheritance cycle" in d for d in model.diagnostics) == 1


def test_depth_requires_known_class():
    model = build_model([])
    with pytest.raises(KeyError):
        inheritance_depth("Ghost", model.hierarchy)


def test_multi_extends_uses_first_superclass_only():
    source = linear_chain_source(["R0", "R1", "R2", "R3", "R4", "R5"]) + \
        "\nclass M extends R5, R0 { }"
    model = model_for_source(source, "m.java")
    assert inheritance_depth("M", model.hierarchy) == 6
    assert model.classes["M"].extends_list == ("R5", "R0")


# --- is_descendant -----------------------------------------------------------


def test_stack_is_descendant_of_vector_by_seed():
    model = build_model([])
    assert is_descendant("Stack", "Vector", model.hierarchy)


def test_descendant_is_strict():
    model = build_model([])
    assert not is_descendant("Vector", "Vector", model.hierarchy)


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
    assert is_descendant("ML_G", "ML_A", chain_model.hierarchy)
    for a in names:
        for b in names:
            assert is_descendant(a, b, chain_model.hierarchy) == reach[index[a]][index[b]]


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
            assert not is_descendant(a, a, model.hierarchy)
            for b in names:
                assert is_descendant(a, b, model.hierarchy) == (b in ancestors)
            # transitivity against the oracle set
            for b in ancestors:
                for c in closure(b):
                    assert is_descendant(a, c, model.hierarchy)


def test_unknown_names_are_not_descendants():
    model = build_model([])
    assert not is_descendant("Nope", "Vector", model.hierarchy)


def test_descendant_ignores_second_superclass_of_multi_extends():
    # only the first extends entry has semantics; the rest exist solely
    # for the incorrect-inheritance detector
    model = model_for_source("class M extends B, C { }", "m.java")
    assert is_descendant("M", "B", model.hierarchy)
    assert not is_descendant("M", "C", model.hierarchy)


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
    from faultlint.model import Scope

    assert static_type_of(StringLit('"WEL"', 1), Scope()) == "String"


def test_new_and_paren_types():
    from faultlint.model import Scope

    expr = Paren(New("FileReader", (), 1), 1)
    assert static_type_of(expr, Scope()) == "FileReader"


def test_method_call_type_is_unknown():
    from faultlint.model import Scope

    call = MethodCall(Name("v", 1), "size", (), 1)
    assert static_type_of(call, Scope()) is None


def test_undeclared_name_is_unknown():
    from faultlint.model import Scope

    assert static_type_of(Name("ghost", 1), Scope()) is None


def test_local_shadows_field():
    model = model_for_source(
        'class S { String d; void m() { int d = 1; if (d == x) { } } }', "s.java"
    )
    decl, method = _only_method(model, "S")
    seen = {}
    for expr, scope in iter_scoped_exprs(decl, method):
        if isinstance(expr, Name):
            seen[expr.ident] = scope.lookup(expr.ident)
    assert seen["d"] == "int"


def test_block_scope_does_not_leak():
    model = model_for_source(
        "class S { void m() { if (a > 0) { String t; } use(t); } }", "s.java"
    )
    decl, method = _only_method(model, "S")
    types = [
        scope.lookup(expr.ident)
        for expr, scope in iter_scoped_exprs(decl, method)
        if isinstance(expr, Name) and expr.ident == "t"
    ]
    assert types == [None]


def _name_lookups(source, ident):
    model = model_for_source(source, "s.java")
    decl, method = _only_method(model, "S")
    return [
        scope.lookup(expr.ident)
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


# --- resolve_callee ----------------------------------------------------------


def test_resolve_callee_single_match():
    model = model_for_source(
        "class I { void f(Stack s) { g(s); } void g(Vector v) { v.removeElementAt(v.size()-1); } }",
        "i.java",
    )
    matches = resolve_callee("g", 1, model)
    assert [(c, m.params[0].type_name) for c, m in matches] == [("I", "Vector")]


def test_resolve_absent_callee():
    model = build_model([])
    assert resolve_callee("absent", 0, model) == []


def test_resolve_two_same_signature_methods_ordered():
    unit_b = parse_source("class B2 { void run(int n) { } }", "b.java")
    unit_a = parse_source("class A2 { void run(int n) { } }", "z.java")
    model = build_model([unit_a, unit_b])
    # oracle: linear scan of every MethodDecl in (file, line) order
    oracle = []
    for unit in sorted([unit_a, unit_b], key=lambda u: u.file_path):
        for decl in unit.classes:
            for method in decl.methods:
                if method.name == "run" and len(method.params) == 1:
                    oracle.append((decl.name, method))
    assert resolve_callee("run", 1, model) == oracle
    assert [c for c, _ in resolve_callee("run", 1, model)] == ["B2", "A2"]


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
        assert inheritance_depth(child, chain_model.hierarchy) == \
            inheritance_depth(parent, chain_model.hierarchy) + 1


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
    assert is_descendant("ArrayList", "List", model.hierarchy)
    assert not is_descendant("Stack", "Vector", model.hierarchy)
