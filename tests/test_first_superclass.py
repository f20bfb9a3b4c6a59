"""The one first-superclass walk against the loops it replaced.

model._first_superclasses is the only code that follows first-superclass
edges, and the model keeps one superclass per class (`parent`) and
the classes on or leading into a cycle (`cyclic`). Before, a chain
function, is_descendant and the upward half of resolve_callee each had a
loop of their own, with its own cycle guard; the hierarchy kept every
superclass a class names, and an `origin` map from which its node set was
read; and a chain that revisited a class raised an exception. The
functions below are those loops and that construction as they were, with
a test-local exception for a cycle, kept as the reference: on generated
hierarchies with self-extends, longer cycles, classes leading into a
cycle, multi-extends, seeded edges (one of them on a class the corpus
declares) and unknown external superclasses, the model must give the
same chains, cyclic classes, rule-3 findings, descendant answers, callees
and cycle diagnostics.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from faultlint.detectors import SPAGHETTI_DEPTH, run_all
from faultlint.model import (
    ExternalHierarchySeed,
    _first_superclasses,
    build_model,
    is_descendant,
    resolve_callee,
)
from faultlint.parser import parse_source

ORIGIN_SEED = "external-seed"


class CycleError(Exception):
    """Raised by the reference chain when it revisits a class."""

    def __init__(self, cycle):
        super().__init__("inheritance cycle: " + " -> ".join(cycle))
        self.cycle = cycle


def reference_hierarchy(classes, class_files, seed):
    super_edges = {}
    origin = {}
    for name, decl in classes.items():
        origin[name] = class_files[name]
        if decl.extends_list:
            super_edges[name] = tuple(decl.extends_list)
    seed_edges = {}
    for sub, sup in seed.extends_entries:
        seed_edges.setdefault(sub, []).append(sup)
    for sub, sups in seed_edges.items():
        if sub in classes:
            continue
        super_edges[sub] = tuple(sups)
        origin.setdefault(sub, ORIGIN_SEED)
    for sub, sup in seed.extends_entries:
        if sub not in classes:
            origin.setdefault(sup, ORIGIN_SEED)
    subclasses = {}
    for sub, sups in super_edges.items():
        subclasses.setdefault(sups[0], []).append(sub)
    return SimpleNamespace(
        nodes=frozenset(origin), super_edges=super_edges,
        subclasses={sup: tuple(sorted(subs)) for sup, subs in subclasses.items()},
    )


def reference_superclass_chain(class_name, hierarchy):
    if class_name not in hierarchy.nodes:
        raise KeyError(class_name)
    chain = [class_name]
    visited = {class_name}
    current = class_name
    while True:
        supers = hierarchy.super_edges.get(current)
        if not supers:
            return chain
        first = supers[0]
        chain.append(first)
        if first not in hierarchy.nodes:
            return chain
        if first in visited:
            raise CycleError(chain)
        visited.add(first)
        current = first


def reference_is_descendant(a, b, hierarchy):
    if a == b:
        return False
    visited = {a}
    current = a
    while True:
        supers = hierarchy.super_edges.get(current)
        if not supers:
            return False
        first = supers[0]
        if first == b:
            return True
        if first not in hierarchy.nodes or first in visited:
            return False
        visited.add(first)
        current = first


def _declared(model, class_name, name, arity):
    decl = model.classes.get(class_name)
    if decl is None:
        return []
    return [(class_name, m) for m in decl.methods if m.name == name and len(m.params) == arity]


def reference_resolve_callee(name, arity, model, hierarchy, receiver_type):
    found = []
    signatures = set()
    current = receiver_type
    visited = set()
    while current is not None and current not in visited:
        visited.add(current)
        for entry in _declared(model, current, name, arity):
            signature = tuple(p.type_name for p in entry[1].params)
            if signature not in signatures:
                signatures.add(signature)
                found.append(entry)
        supers = hierarchy.super_edges.get(current)
        current = supers[0] if supers else None
    if not found:
        return []
    pending = list(reversed(hierarchy.subclasses.get(receiver_type, ())))
    while pending:
        current = pending.pop()
        if current in visited:
            continue
        visited.add(current)
        found.extend(_declared(model, current, name, arity))
        pending.extend(reversed(hierarchy.subclasses.get(current, ())))
    return found


def reference_cycle_diagnostics(classes, hierarchy):
    # one diagnostic per distinct cycle, in the order the sorted walk first
    # reaches it, printed from its least-named member; the classes leading
    # into a cycle are not printed
    diagnostics = []
    seen_cycles = set()
    for name in sorted(classes):
        try:
            reference_superclass_chain(name, hierarchy)
        except CycleError as err:
            cycle = err.cycle[err.cycle.index(err.cycle[-1]):-1]
            key = frozenset(cycle)
            if key not in seen_cycles:
                seen_cycles.add(key)
                least = cycle.index(min(cycle))
                cycle = cycle[least:] + cycle[:least]
                diagnostics.append(str(CycleError(cycle + cycle[:1])))
    return diagnostics


METHOD_NAMES = ("run", "go")
PARAM_TYPES = ("int", "String", "C0", "C1", "X0")


def _generated_corpus(rng):
    """Source text and seed of one random hierarchy.

    Corpus classes C*, external names X* that only seeded edges or extends
    clauses mention. A class may extend itself, up to three names, or
    nothing. In most corpora of five or more classes the forced edges
    below add a self-extends, a longer cycle and a class leading into it.
    """
    size = rng.randint(1, 14)
    corpus = [f"C{i}" for i in range(size)]
    external = [f"X{i}" for i in range(rng.randint(0, 4))]
    pool = corpus + external
    extends = {}
    for name in corpus:
        roll = rng.random()
        if roll < 0.25:
            continue
        count = 1 if roll < 0.85 else rng.randint(2, 3)
        extends[name] = [rng.choice(pool) for _ in range(count)]
    if size >= 5 and rng.random() < 0.7:
        a, b, c, d, e = rng.sample(corpus, 5)
        extends[a] = [a] + extends.get(a, [])[1:]  # self-extends
        extends[b], extends[c] = [c], [d]
        extends[d] = [b]  # b -> c -> d -> b
        extends[e] = [b]  # leads into the cycle
    parts = []
    for name in corpus:
        header = f"class {name}"
        if name in extends:
            header += " extends " + ", ".join(extends[name])
        methods = []
        for _ in range(rng.randint(0, 3)):
            arity = rng.randint(0, 2)
            params = ", ".join(f"{rng.choice(PARAM_TYPES)} p{k}" for k in range(arity))
            methods.append(f"    void {rng.choice(METHOD_NAMES)}({params}) {{ }}")
        parts.append(header + "\n{\n" + "\n".join(methods) + "\n}\n")

    entries = [(rng.choice(pool + ["Y0"]), rng.choice(pool + ["Y1"]))
               for _ in range(rng.randint(0, 4))]
    entries.append((rng.choice(corpus), rng.choice(pool)))  # the corpus declaration wins
    rng.shuffle(entries)
    seed = ExternalHierarchySeed(extends_entries=tuple(entries))
    names = pool + ["Y0", "Y1", "Ghost"]
    return "\n".join(parts), seed, names


def _outcome(function, *args):
    try:
        return "value", function(*args)
    except KeyError as err:
        return "KeyError", err.args
    except CycleError as err:
        return "CycleError", err.cycle, str(err)


def _check_chains(model, names, reference):
    """Each name's chain, the cyclic classes and the rule-3 findings
    against reference_superclass_chain."""
    cyclic = set()
    spaghetti = {}
    for name in names:
        expected = _outcome(reference_superclass_chain, name, reference)
        chain = _first_superclasses(name, model.parent)
        if expected[0] == "KeyError":  # a name the hierarchy does not know
            assert chain == [name], name
            continue
        assert chain == expected[1], name
        if name not in model.classes:
            continue
        if expected[0] == "CycleError":
            cyclic.update(chain)
        elif len(chain) - 1 >= SPAGHETTI_DEPTH:
            spaghetti[name] = {"depth": len(chain) - 1, "chain": chain}
    assert model.cyclic == cyclic
    assert {f.class_name: f.detail for f in run_all(model, {3})} == spaghetti


def _generated_cases(count):
    rng = random.Random(8086)
    for _ in range(count):
        source, seed, names = _generated_corpus(rng)
        unit = parse_source(source, "gen.java")
        assert not unit.diagnostics, source
        yield build_model([unit], seed), names, source


def test_generated_hierarchies_match_the_reference_loops():
    for model, names, source in _generated_cases(300):
        reference = reference_hierarchy(model.classes, model.class_files, model.seed)
        assert model.parent == {
            sub: sups[0] for sub, sups in reference.super_edges.items()}, source
        assert model.subclasses == reference.subclasses, source
        assert list(model.diagnostics) == reference_cycle_diagnostics(
            model.classes, reference), source
        _check_chains(model, names, reference)

        for name in names:
            for other in names:
                assert is_descendant(name, other, model.parent) == \
                    reference_is_descendant(name, other, reference), (source, name, other)

        for receiver in names:
            for method_name in METHOD_NAMES + ("absent",):
                for arity in range(3):
                    got = resolve_callee(method_name, arity, model, receiver)
                    want = reference_resolve_callee(method_name, arity, model, reference,
                                                    receiver)
                    assert [(c, id(m)) for c, m in got] == \
                        [(c, id(m)) for c, m in want], (source, receiver, method_name, arity)


def test_generated_hierarchies_cover_every_shape():
    # the comparison above means little unless the generator reaches each shape
    seen = set()
    for model, names, _ in _generated_cases(300):
        reference = reference_hierarchy(model.classes, model.class_files, model.seed)
        decls = model.classes
        if any(name in decl.extends_list[:1] for name, decl in decls.items()):
            seen.add("self-extends")
        if any(len(decl.extends_list) > 1 for decl in decls.values()):
            seen.add("multi-extends")
        if any(sub in decls for sub, _ in model.seed.extends_entries):
            seen.add("seed edge on a corpus class")
        if any(sub not in decls for sub, _ in model.seed.extends_entries):
            seen.add("seed edge")
        if any(sup not in reference.nodes
               for sups in reference.super_edges.values() for sup in sups[:1]):
            seen.add("unknown external superclass")
        for name in decls:
            outcome = _outcome(reference_superclass_chain, name, reference)
            if outcome[0] == "CycleError":
                cycle = outcome[1]
                if cycle[0] != cycle[-1]:
                    seen.add("class leading into a cycle")
                if len(set(cycle)) >= 3:
                    seen.add("longer cycle")
    assert seen == {
        "self-extends", "multi-extends", "seed edge on a corpus class", "seed edge",
        "unknown external superclass", "class leading into a cycle", "longer cycle",
    }


@pytest.mark.parametrize("depth", [1, 2, 500])
def test_long_chain_and_cycle_match_the_reference(depth):
    names = [f"K{i}" for i in range(depth)]
    chain_source = "\n".join(
        f"class {name} extends {names[i - 1]} {{ }}" if i else f"class {name} {{ }}"
        for i, name in enumerate(names))
    cycle_source = "\n".join(
        f"class {name} extends {names[i - 1]} {{ }}" for i, name in enumerate(names))
    for source in (chain_source, cycle_source):
        model = build_model([parse_source(source, "k.java")])
        reference = reference_hierarchy(model.classes, model.class_files, model.seed)
        assert list(model.diagnostics) == reference_cycle_diagnostics(model.classes, reference)
        deepest = names[-1]
        _check_chains(model, names, reference)
        assert is_descendant(deepest, names[0], model.parent) == \
            reference_is_descendant(deepest, names[0], reference)


def test_cycle_under_a_long_chain_is_one_diagnostic_and_walked_once(monkeypatch):
    # 2,000 classes lead into the cycle Q -> P -> Q: one diagnostic, printed
    # from P, and every first-superclass walk (the model's cycle check and
    # rule 3's) stops at a class already settled, so the steps stay linear
    import faultlint.detectors
    import faultlint.model
    from faultlint.detectors import run_all

    steps = []
    walk = faultlint.model._first_superclasses

    def counting_walk(*args):
        chain = walk(*args)
        steps.append(len(chain) - 1)  # edges followed
        return chain

    monkeypatch.setattr(faultlint.model, "_first_superclasses", counting_walk)
    monkeypatch.setattr(faultlint.detectors, "_first_superclasses", counting_walk)
    count = 2000
    names = [f"K{i}" for i in range(count)] + ["Q"]
    source = "\n".join(f"class {name} extends {names[i + 1]} {{ }}"
                       for i, name in enumerate(names[:-1]))
    source += "\nclass Q extends P { }\nclass P extends Q { }"
    model = build_model([parse_source(source, "chain.java")])
    assert model.diagnostics == ("inheritance cycle: P -> Q -> P",)
    assert run_all(model, {3}) == []
    assert sum(steps) <= 2 * (count + 3)  # each edge once per walker


def test_seed_listing_a_subclass_twice_keeps_its_first_superclass():
    # L -> M2 would put A six edges deep; the first entry, L -> M1, wins
    seed = ExternalHierarchySeed(extends_entries=(
        ("L", "M1"), ("L", "M2"), ("M2", "N1"), ("N1", "N2"), ("N2", "N3"), ("N3", "N4")))
    model = build_model([parse_source("class A extends L { }", "A.java")], seed)
    assert model.parent["L"] == "M1"
    assert model.subclasses["M1"] == ("L",)
    assert "M2" not in model.subclasses
    assert _first_superclasses("A", model.parent) == ["A", "L", "M1"]
    assert run_all(model, {2, 3}) == []
    assert model.diagnostics == ()


def test_corpus_chain_into_a_cycle_of_the_seed_is_one_diagnostic():
    # B5 -> ... -> A -> SX -> SY -> SX: eight edges, but a cycle, not a finding
    names = ["A", "B1", "B2", "B3", "B4", "B5"]
    source = "class A extends SX { }\n" + "\n".join(
        f"class {name} extends {names[i]} {{ }}" for i, name in enumerate(names[1:]))
    seed = ExternalHierarchySeed(extends_entries=(("SY", "SX"), ("SX", "SY")))
    model = build_model([parse_source(source, "chain.java")], seed)
    assert model.diagnostics == ("inheritance cycle: SX -> SY -> SX",)
    assert model.cyclic == {*names, "SX", "SY"}
    assert run_all(model, {3}) == []
