"""run_all's one pass over the classes against per-rule references.

run_all checks rules 2 and 3 on each class header and rules 1, 4, 5 and 6
in one walk per method body. The functions below are the six detectors as
they were when each ran on its own (rules 1, 4, 5 and 6 walking every
method body themselves), kept as the reference: run_all must return the
same findings (order and detail included) for every rule subset, on both
fixture folders and on generated programs whose classes call each other
so that rule 4 fires, and whose hierarchies hold multi-superclass
headers, deep chains across files, a cycle and a duplicate class, and on
hierarchy-shaped programs of eight-class chains sharing method names.
"""

from __future__ import annotations

import itertools
import random

import pytest

from faultlint import detectors
from faultlint.detectors import SPAGHETTI_DEPTH, Finding, run_all
from faultlint.model import (
    ExternalHierarchySeed,
    build_model,
    default_seed,
    is_descendant,
    resolve_callee,
    static_type_of,
    walk_body,
)
from faultlint.nodes import (
    Assign,
    Binary,
    DoWhile,
    Empty,
    FieldAccess,
    For,
    LocalVarDecl,
    MethodCall,
    Name,
    New,
    Paren,
    While,
)
from faultlint.parser import parse_source

from ast_helpers import iter_scoped_exprs
from conftest import (
    CASES_DIR,
    REFERENCE_CORPUS_DIR,
    model_for_dir,
    model_for_source,
    parse_fixture,
)
from test_generated_roundtrip import gen_stmt


def _finding(code, class_name, file_path, line, message, detail):
    return Finding(class_name, code, file_path, line, message, detail)


def _methods(model):
    """(class name, file path, ClassDecl, MethodDecl) in (file, line) order."""
    for name, decl in model.classes.items():
        for method in decl.methods:
            yield name, model.class_files[name], decl, method


def _is_null_literal(expr):
    while isinstance(expr, Paren):
        expr = expr.inner
    return isinstance(expr, Name) and expr.ident == "null"


def reference_lvalue_required(model):
    findings = []
    for class_name, file_path, decl, method in _methods(model):
        for expr, scope in iter_scoped_exprs(decl, method):
            if not (isinstance(expr, Binary) and expr.op in ("==", "!=")):
                continue
            if _is_null_literal(expr.lhs) or _is_null_literal(expr.rhs):
                continue  # a null check compares no strings
            left = static_type_of(expr.lhs, scope)
            right = static_type_of(expr.rhs, scope)
            if left == "String" or right == "String":
                findings.append(_finding(
                    1, class_name, file_path, expr.line,
                    f"strings compared with '{expr.op}'; use .equals() for value equality",
                    {"op": expr.op, "left_type": left, "right_type": right},
                ))
    return findings


def _reference_param_mutation(callee, param_name, model):
    for node in walk_body(callee.body, {}):
        if (isinstance(node, MethodCall)
                and isinstance(node.receiver, Name)
                and node.receiver.ident == param_name
                and not model.seed.is_pure_accessor(node.name)):
            return f"{param_name}.{node.name}(...)", node.line
        if (isinstance(node, Assign)
                and isinstance(node.lhs, FieldAccess)
                and isinstance(node.lhs.target, Name)
                and node.lhs.target.ident == param_name):
            return f"{param_name}.{node.lhs.name} = ...", node.line
    return None


def reference_incorrect_inheritance(model):
    findings = []
    for name, decl in model.classes.items():
        if len(decl.extends_list) > 1:
            supers = ", ".join(decl.extends_list)
            findings.append(_finding(
                2, name, model.class_files[name], decl.line,
                f"class {name} extends multiple classes: {supers}",
                {"superclasses": list(decl.extends_list)},
            ))
    return findings


def reference_spaghetti(model):
    findings = []
    parent = model.parent
    for name, decl in model.classes.items():
        chain = [name]
        while chain[-1] in parent and parent[chain[-1]] not in chain:
            chain.append(parent[chain[-1]])
        if chain[-1] in parent:
            continue  # on or leading into a cycle
        depth = len(chain) - 1
        if depth >= SPAGHETTI_DEPTH:
            findings.append(_finding(
                3, name, model.class_files[name], decl.line,
                f"inheritance depth {depth} reaches the threshold of "
                f"{SPAGHETTI_DEPTH}: {' -> '.join(chain)}",
                {"depth": depth, "chain": chain},
            ))
    return findings


def reference_itu(model):
    findings = []
    for class_name, file_path, decl, method in _methods(model):
        call_sites = []
        name_uses = []
        for expr, scope in iter_scoped_exprs(decl, method):
            if not isinstance(expr, MethodCall):
                continue
            receiver = expr.receiver
            if isinstance(receiver, Name):
                name_uses.append((receiver.ident, expr.line, expr.name))
            types = [static_type_of(a, scope) if isinstance(a, Name) else None
                     for a in expr.args]
            if all(t is None for t in types):
                continue
            idents = [a.ident if isinstance(a, Name) else None for a in expr.args]
            if receiver is None or (isinstance(receiver, Name) and receiver.ident == "this"):
                receiver_type = class_name
            elif isinstance(receiver, Name):
                receiver_type = static_type_of(receiver, scope)
            else:
                receiver_type = None
            call_sites.append((expr, idents, types, receiver_type))

        for call, idents, types, receiver_type in call_sites:
            if receiver_type is None:
                resolution = "name-arity"
                callees = [(name, m) for name, decl in model.classes.items()
                           for m in decl.methods
                           if m.name == call.name and len(m.params) == len(call.args)]
            else:
                resolution = "hierarchy"
                callees = resolve_callee(call.name, len(call.args), model, receiver_type)
            emitted = False
            for callee_class, callee in callees:
                for position, (ident, arg_type) in enumerate(zip(idents, types)):
                    if ident is None or arg_type is None:
                        continue
                    base_type = callee.params[position].type_name
                    if not is_descendant(arg_type, base_type, model.parent):
                        continue
                    mutation = _reference_param_mutation(
                        callee, callee.params[position].name, model)
                    if mutation is None:
                        continue
                    later_use = next(
                        (use for use in name_uses
                         if use[0] == ident and use[1] > call.line),
                        None,
                    )
                    if later_use is None:
                        continue
                    mut_desc, mut_line = mutation
                    findings.append(_finding(
                        4, class_name, file_path, call.line,
                        f"{arg_type} '{ident}' passed where {base_type} is expected; "
                        f"{callee_class}.{callee.name} mutates it ({mut_desc}) and "
                        f"'{ident}' is used again at line {later_use[1]}",
                        {
                            "argument": ident,
                            "descendant_type": arg_type,
                            "base_type": base_type,
                            "callee": f"{callee_class}.{callee.name}",
                            "mutation": mut_desc,
                            "mutation_line": mut_line,
                            "post_call_use_line": later_use[1],
                            "post_call_use": f"{ident}.{later_use[2]}(...)",
                            "resolution": resolution,
                        },
                    ))
                    emitted = True
                    break
                if emitted:
                    break
    return findings


def reference_illicit_file_usage(model):
    findings = []
    for class_name, file_path, decl, method in _methods(model):
        opened = {}
        closed = set()
        for node in walk_body(method.body, {}):
            if (isinstance(node, LocalVarDecl)
                    and isinstance(node.init, New)
                    and node.init.type_name in model.seed.resource_types):
                opened.setdefault(node.name, (node.init.type_name, node.init.line))
            if (isinstance(node, Assign)
                    and isinstance(node.lhs, Name)
                    and isinstance(node.rhs, New)
                    and node.rhs.type_name in model.seed.resource_types):
                opened.setdefault(node.lhs.ident, (node.rhs.type_name, node.rhs.line))
            if (isinstance(node, MethodCall)
                    and node.name == "close"
                    and isinstance(node.receiver, Name)):
                closed.add(node.receiver.ident)
        for var, (type_name, line) in opened.items():
            if var in closed:
                continue
            findings.append(_finding(
                5, class_name, file_path, line,
                f"resource '{var}' of type {type_name} is opened but never "
                f"closed in this method",
                {"variable": var, "resource_type": type_name},
            ))
    return findings


def reference_undefined_loop(model):
    findings = []
    for class_name, file_path, decl, method in _methods(model):
        for node in walk_body(method.body, {}):
            if isinstance(node, While):
                kind, body = "while", node.body
            elif isinstance(node, DoWhile):
                kind, body = "do-while", node.body
            elif isinstance(node, For):
                kind, body = "for", node.body
            else:
                continue
            if all(isinstance(s, Empty) for s in body.stmts):
                findings.append(_finding(
                    6, class_name, file_path, node.line,
                    f"empty {kind} loop body",
                    {"loop_kind": kind},
                ))
    return findings


REFERENCE_DETECTORS = {
    1: reference_lvalue_required,
    2: reference_incorrect_inheritance,
    3: reference_spaghetti,
    4: reference_itu,
    5: reference_illicit_file_usage,
    6: reference_undefined_loop,
}

SUBSETS = [frozenset(s) for r in range(1, 7) for s in itertools.combinations(range(1, 7), r)]


# --- generated programs whose classes call each other ----------------------------

PARAM_TYPES = ("Vector", "Stack", "Base", "Derived", "int", "String")


def _rule_stmt(rng, peer):
    """One statement aimed at rules 1, 4, 5 or 6, over names the class declares."""
    kind = rng.choice(["call", "call", "call", "mutate", "mutate", "use", "use", "scoped",
                       "compare", "other"])
    arg = rng.choice(["s", "d", "w"])
    param = rng.choice(["p0", "p1"])
    call = rng.choice(["g", "h"])
    if kind == "call":  # resolved from the class, a typed receiver or by name/arity
        receiver = rng.choice(["", "", "this.", "o.", "mystery.", f"new {peer}()."])
        args = ", ".join([arg] + [rng.choice(["s", "d", "x"])] * rng.randrange(2))
        return f"{receiver}{call}({args});"
    if kind == "mutate":  # a mutation or an accessor call on a parameter
        method = rng.choice(["push", "run", "removeElementAt", "size", "getTop", "peek"])
        return rng.choice([f"{param}.{method}(x);", f"{param}.f = count;"])
    if kind == "use":
        return f"{arg}.{rng.choice(['pop', 'run', 'size'])}();"
    if kind == "scoped":  # declarations that change what a name means
        return rng.choice([
            f"{rng.choice(['Stack', 'Derived', 'Base', 'String'])} w = "
            f"{rng.choice(['new Stack()', 'd', 's', 'x'])};",
            f"{{ Derived s = d;\n{call}(s);\ns.run(); }}",
            f"for (Stack t = s; t != null; t = null) {{ {call}(t);\nt.pop(); }}",
            f"try {{ {call}(s); }} catch (Derived s) {{ {call}(s);\ns.run(); }}",
        ])
    if kind == "compare":
        return (f"if ({rng.choice(['s', 'w', 'p0', 'x'])} {rng.choice(['==', '!='])} "
                f"{rng.choice(['x', 'count', 'p1'])}) {{ count++; }}")
    return rng.choice([  # resources and loops
        f"{rng.choice(['FileReader', 'FileWriter'])} r = new FileReader(x);",
        "r.close();",
        "r = new FileReader(x);",
        "q = new FileWriter(x);",
        "while (count > 0) { }",
        "do { ; } while (count > 0);",
        "for (int i = 0; i < 3; i++) { }",
    ])


def _gen_class(rng, name, superclass, peer):
    header = f"class {name}" + (f" extends {superclass}" if superclass else "")
    methods = []
    for method_name in rng.sample(["g", "h", "m"], rng.randint(1, 3)):
        params = ", ".join(f"{rng.choice(PARAM_TYPES)} p{k}" for k in range(rng.randint(1, 2)))
        stmts = [gen_stmt(rng, 1) if rng.random() < 0.25 else _rule_stmt(rng, peer)
                 for _ in range(rng.randint(1, 8))]
        methods.append(f"void {method_name}({params})\n{{\n" + "\n".join(stmts) + "\n}")
    return (f"{header}\n{{\nStack s;\nDerived d;\nString x;\nint count;\n{peer} o;\n"
            + "\n".join(methods) + "\n}")


def _generated_models():
    """200 generated programs, one file each, as 10 models of 20 files.

    In each model the first class of files 2 to 10 extends the first class
    of the file before, a chain across files that reaches depth 9; every
    fifth file holds a header listing two superclasses; the first two
    classes of the last file extend each other, a cycle; and the second
    file declares again a class of the first, with a header and a body
    that would be flagged if the duplicate were not ignored.
    """
    rng = random.Random(2718)
    models = []
    for first in range(0, 200, 20):
        units = []
        for index in range(first, first + 20):
            names = [f"C{index}_{k}" for k in range(3)]
            classes = [f"class B{index}\n{{\n}}\nclass D{index} extends B{index}\n{{\n}}"]
            for k, name in enumerate(names):
                superclass = names[k - 1] if k and rng.random() < 0.6 else None
                if k == 0 and first < index < first + 10:
                    superclass = f"C{index - 1}_0"
                elif k < 2 and index == first + 19:
                    superclass = names[1 - k]
                if k == 1 and index % 5 == 1:
                    superclass = f"{superclass or names[0]}, Derived"
                classes.append(_gen_class(rng, name, superclass, names[(k + 1) % 3]))
            if index == first + 1:
                classes.append(f"class C{first}_0 extends Base, Derived\n{{\n"
                               "void g(Stack p0)\n{\np0.push(x);\nwhile (p0 != null) { }\n}\n}")
            source = ("\n".join(classes).replace("Base", f"B{index}")
                      .replace("Derived", f"D{index}"))
            unit = parse_source(source, f"gen{index}.java")
            assert unit.diagnostics == (), source
            units.append(unit)
        models.append(build_model(units, default_seed()))
    return models


_HIERARCHY_CLASS = """\
class {name}{extends}
{{
    int level;
    public void accept({name} peer)
    {{
        {accept}
    }}
    public int getLevel()
    {{
        return level;
    }}
    public void visit({name} peer)
    {{
        {name} other = new {name}();
        {call}
        level = other.getLevel() + {bump};
    }}
}}
"""


def _hierarchy_models(mutating):
    """Hierarchy-shaped programs: four models of six files, each file one
    chain of eight classes, every class declaring accept(T), getLevel() and
    visit(T) for its own type T, and visit passing a new T to accept and
    using it again. Unless mutating, no method mutates a parameter; if
    mutating, a random third of the accept methods mutate peer."""
    rng = random.Random(f"hierarchy:{mutating}")
    models = []
    for first in range(0, 24, 6):
        units = []
        for chain in range(first, first + 6):
            parts = []
            for depth in range(8):
                accept = "level = peer.getLevel();"
                if mutating and rng.random() < 1 / 3:
                    accept = rng.choice(["peer.level = level;", "peer.reset();"])
                parts.append(_HIERARCHY_CLASS.format(
                    name=f"H{chain}_{depth}",
                    extends=f" extends H{chain}_{depth - 1}" if depth else "",
                    accept=accept,
                    call=rng.choice(["accept(other);", "this.accept(other);",
                                     "peer.accept(other);", "mystery.accept(other);"]),
                    bump=rng.randrange(10),
                ))
            unit = parse_source("".join(parts), f"chain{chain}.java")
            assert unit.diagnostics == ()
            units.append(unit)
        models.append(build_model(units, default_seed()))
    return models


def _assert_single_pass_matches(model):
    per_rule = {code: detector(model) for code, detector in REFERENCE_DETECTORS.items()}
    for rules in SUBSETS:
        expected = sorted((f for code in sorted(rules) for f in per_rule[code]),
                          key=Finding.sort_key)
        assert run_all(model, rules) == expected, sorted(rules)
    return per_rule


@pytest.mark.parametrize("directory", [REFERENCE_CORPUS_DIR, CASES_DIR], ids=lambda p: p.name)
def test_single_pass_matches_reference_on_fixtures(directory):
    model = model_for_dir(directory)
    assert _assert_single_pass_matches(model)[4]


def test_single_pass_matches_reference_on_generated_programs():
    counts = dict.fromkeys(range(1, 7), 0)
    resolutions = set()
    for model in _generated_models():
        per_rule = _assert_single_pass_matches(model)
        for code, findings in per_rule.items():
            counts[code] += len(findings)
        resolutions.update(f.detail["resolution"] for f in per_rule[4])
    # every rule fires, rule 4 by both resolution paths
    assert all(counts[code] > 20 for code in range(1, 7)), counts
    assert resolutions == {"hierarchy", "name-arity"}


@pytest.mark.parametrize("mutating", [False, True], ids=["no-mutation", "accept-mutates"])
def test_single_pass_matches_reference_on_hierarchy_programs(mutating):
    resolutions = set()
    for model in _hierarchy_models(mutating):
        per_rule = _assert_single_pass_matches(model)
        assert per_rule[3]  # depths 6 and 7
        assert bool(per_rule[4]) == mutating
        resolutions.update(f.detail["resolution"] for f in per_rule[4])
    assert resolutions == ({"hierarchy", "name-arity"} if mutating else set())


def test_callee_summaries_do_not_outlive_a_run():
    # two models over the same parsed units share every MethodDecl; under a
    # seed that makes every call an accessor no callee mutates anything
    units = [parse_fixture(p) for p in sorted(REFERENCE_CORPUS_DIR.glob("*.java"))]
    mutating = build_model(units, default_seed())
    pure = build_model(units, ExternalHierarchySeed(pure_accessor_names=("*",)))
    for model in (mutating, pure, mutating):
        assert run_all(model, {4}) == reference_itu(model)
    assert run_all(mutating, {4})
    assert run_all(pure, {4}) == []


# --- rule 4's parameter mutations come from the one body pass ----------------

def _itu_program(callee_params, callee_body, call="g(s);"):
    """f passes its Stack s to g, then uses s again; g is written here."""
    return (
        "class T\n{\n"
        "    void f(Stack s, Stack t)\n    {\n"
        f"        {call}\n"
        "        s.pop();\n    }\n"
        f"    void g({callee_params})\n    {{\n"
        + "".join(f"        {stmt}\n" for stmt in callee_body)
        + "    }\n}\n"
    )


@pytest.mark.parametrize("source, expected", [
    pytest.param(_itu_program("Vector p", ["p.f = p.push(1);"]),
                 [(5, "p.f = ...", 10)], id="field-write-before-the-call-it-stores"),
    pytest.param(_itu_program("Vector p", ["{", "Stack p = new Stack();", "p.push(1);", "}"]),
                 [(5, "p.push(...)", 12)], id="local-shadowing-the-parameter"),
    pytest.param(_itu_program("Vector p", ["try { } catch (Vector p) { p.f = 1; }",
                                           "p.push(1);"]),
                 [(5, "p.f = ...", 10)], id="catch-variable-shadowing-the-parameter"),
    pytest.param(_itu_program("Vector p, Vector p", ["p.size();", "p.push(1);"], "g(t, s);"),
                 [(5, "p.push(...)", 11)], id="two-parameters-of-one-name"),
    pytest.param(_itu_program("Vector p", ["p.size();", "p.getTop();", "p.push(1);"]),
                 [(5, "p.push(...)", 12)], id="accessor-calls-before-the-mutation"),
    pytest.param(_itu_program("Vector p", ["Stack u = new Stack();", "g(u);", "u.pop();",
                                           "p.push(1);"]),
                 [(5, "p.push(...)", 13), (11, "p.push(...)", 13)], id="callee-calls-itself"),
])
def test_first_mutation_edge_cases_match_reference(source, expected):
    model = model_for_source(source, "T.java")
    findings = _assert_single_pass_matches(model)[4]
    assert [(f.line, f.detail["mutation"], f.detail["mutation_line"])
            for f in findings] == expected
    _, _, _, callee = next(entry for entry in _methods(model) if entry[3].name == "g")
    assert _reference_param_mutation(callee, "p", model) == expected[0][1:]


def _count_body_walks(monkeypatch, model, rules=None):
    walked = []

    def counting_walk_body(block, scope):
        walked.append(id(block))
        return walk_body(block, scope)

    monkeypatch.setattr(detectors, "walk_body", counting_walk_body)
    run_all(model, rules)
    monkeypatch.undo()
    return sorted(walked), sorted(id(method.body) for *_, method in _methods(model))


@pytest.mark.parametrize("directory, rules", [
    # the pass is the same whatever is enabled, the header-only rules 2 and 3 too
    pytest.param(directory, rules, id=directory.name + "".join(f"-{code}" for code in rules or ()))
    for directory in (REFERENCE_CORPUS_DIR, CASES_DIR)
    for rules in (None, {2}, {3}, {2, 3})
])
def test_run_all_walks_each_method_body_once_on_fixtures(monkeypatch, directory, rules):
    walked, bodies = _count_body_walks(monkeypatch, model_for_dir(directory), rules)
    assert bodies and walked == bodies


def test_run_all_walks_each_method_body_once_on_generated_programs(monkeypatch):
    for model in _generated_models():
        walked, bodies = _count_body_walks(monkeypatch, model)
        assert walked == bodies


# --- rule 4 resolves only what a mutating method could answer ----------------

def _reference_call_sites(model):
    """(name, arity) of every call with a typed Name argument; of those
    whose (name, arity) some corpus method mutating a parameter has; and of
    those, the ones whose receiver has a static type, which rule 4 resolves
    through the hierarchy."""
    mutating = {(method.name, len(method.params)) for *_, method in _methods(model)
                if any(_reference_param_mutation(method, p.name, model)
                       for p in method.params)}
    sites = []
    typed_receiver = []
    for _, _, decl, method in _methods(model):
        for expr, scope in iter_scoped_exprs(decl, method):
            if isinstance(expr, MethodCall) and any(
                    isinstance(a, Name) and static_type_of(a, scope) for a in expr.args):
                site = (expr.name, len(expr.args))
                sites.append(site)
                receiver = expr.receiver
                if receiver is None or (isinstance(receiver, Name) and (
                        receiver.ident == "this" or static_type_of(receiver, scope))):
                    typed_receiver.append(site)
    return (sites, [site for site in sites if site in mutating],
            [site for site in typed_receiver if site in mutating])


def _count_resolutions(monkeypatch, model):
    resolved = []

    def counting_resolve_callee(name, arity, *args):
        resolved.append((name, arity))
        return resolve_callee(name, arity, *args)

    monkeypatch.setattr(detectors, "resolve_callee", counting_resolve_callee)
    findings = run_all(model, {4})
    monkeypatch.undo()
    return resolved, findings


def test_rule4_resolves_nothing_when_no_method_mutates(monkeypatch):
    for model in _hierarchy_models(mutating=False):
        resolved, findings = _count_resolutions(monkeypatch, model)
        sites, answerable, _ = _reference_call_sites(model)
        assert len(sites) == 48 and answerable == []
        assert resolved == [] and findings == []


_OVERLOADS = """\
class Base
{
    int f;
}
class Derived extends Base
{
}
class Sink
{
    void put(Base b, int n)
    {
        b.f = n;
    }
    void take(Base b)
    {
        b.push(1);
    }
}
class Node
{
    void put(Base b)
    {
        b.size();
    }
    void take(Base b)
    {
        count = b.getTop();
    }
    void run(Derived d, Node n, Sink sink)
    {
        put(d);
        this.put(d);
        n.put(d);
        put(d, 2);
        take(d);
        n.take(d);
        sink.take(d);
        mystery.take(d);
        d.size();
    }
}
"""


def test_rule4_resolves_only_call_sites_a_mutating_method_could_answer(monkeypatch):
    # put/2 mutates but put/1 does not; take/1 mutates only in Sink, which
    # Node does not extend: only take(...) and put(d, 2) could be answered,
    # and all but mystery.take(d), whose receiver has no type, are resolved
    model = model_for_source(_OVERLOADS, "O.java")
    resolved, findings = _count_resolutions(monkeypatch, model)
    sites, answerable, with_receiver_type = _reference_call_sites(model)
    assert (len(sites), len(answerable), len(with_receiver_type)) == (8, 5, 4)
    assert sorted(resolved) == sorted(with_receiver_type)
    assert findings == reference_itu(model)
    assert [(f.line, f.detail["callee"], f.detail["resolution"]) for f in findings] == [
        (37, "Sink.take", "hierarchy"), (38, "Sink.take", "name-arity")]
    for model in _hierarchy_models(mutating=True):
        resolved, findings = _count_resolutions(monkeypatch, model)
        _, answerable, with_receiver_type = _reference_call_sites(model)
        assert len(with_receiver_type) < len(answerable)
        assert sorted(resolved) == sorted(with_receiver_type)
        assert findings == reference_itu(model)


def test_later_use_lookup_reads_each_name_use_once(monkeypatch):
    # 1,000 calls drain(s), each followed by s.pop(): the first use of s
    # after each call is found without reading the method's uses from the
    # start for every call, so the reads stay linear in the uses
    count = 1000
    source = (
        "class T\n{\n    void drain(Vector v)\n    {\n        v.removeElementAt(0);\n    }\n"
        "    void f(Stack s)\n    {\n"
        + "        drain(s);\n        s.pop();\n" * count
        + "    }\n}\n"
    )
    model = model_for_source(source, "T.java")
    uses = []
    reads = []

    class CountingUses(list):
        def __iter__(self):
            for use in list.__iter__(self):
                reads.append(use)
                yield use

        def __getitem__(self, index):
            reads.append(index)
            return list.__getitem__(self, index)

    itu_findings = detectors._itu_findings

    def counting_itu_findings(model, class_name, file_path, call_sites, name_uses, *rest):
        uses.append(len(name_uses))
        itu_findings(model, class_name, file_path, call_sites, CountingUses(name_uses), *rest)

    monkeypatch.setattr(detectors, "_itu_findings", counting_itu_findings)
    findings = run_all(model, {4})
    monkeypatch.undo()
    assert len(findings) == count
    assert findings == reference_itu(model)
    assert uses == [count] and len(reads) <= count
