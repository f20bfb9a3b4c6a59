"""Cross-file semantic model: class hierarchy, scopes, types, call index.

The hierarchy merges extends-edges found in the scanned corpus with a
seeded set of external edges (library classes such as Stack -> Vector
live outside any scanned file). Classes that list several superclasses
keep the full list for the inheritance detector, but depth, descendant and
callee queries follow only the first superclass: the construct is illegal
in the analyzed language and has no deeper semantics here. That policy
lives in one place, _first_superclasses; every query that walks upwards
reads its list.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase

from faultlint.nodes import (
    Block,
    ClassDecl,
    CompilationUnit,
    DoWhile,
    Expr,
    ExprStmt,
    For,
    If,
    LocalVarDecl,
    MethodDecl,
    Name,
    New,
    Paren,
    Return,
    StringLit,
    TryCatch,
    While,
)
from faultlint.record import Record, _set

DEFAULT_EXTENDS = (("Stack", "Vector"),)
DEFAULT_RESOURCE_TYPES = frozenset({
    "FileOutputStream",
    "FileInputStream",
    "DataOutputStream",
    "DataInputStream",
    "FileReader",
    "FileWriter",
    "BufferedReader",
    "BufferedWriter",
})
DEFAULT_PURE_ACCESSORS = (
    "get*",
    "size",
    "isEmpty",
    "length",
    "contains",
    "elementAt",
    "peek",
    "toString",
    "hashCode",
    "equals",
)


class CycleError(Exception):
    """Raised when a superclass chain revisits a class."""

    def __init__(self, cycle: list[str]):
        super().__init__("inheritance cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class SeedError(ValueError):
    """Malformed external hierarchy seed file."""


class ExternalHierarchySeed(Record):
    __slots__ = ("extends_entries", "resource_types", "pure_accessor_names")

    def __init__(self, extends_entries: tuple[tuple[str, str], ...] = DEFAULT_EXTENDS,
                 resource_types: frozenset[str] = DEFAULT_RESOURCE_TYPES,
                 pure_accessor_names: tuple[str, ...] = DEFAULT_PURE_ACCESSORS):
        _set(self, "extends_entries", extends_entries)
        _set(self, "resource_types", resource_types)
        _set(self, "pure_accessor_names", pure_accessor_names)

    def is_pure_accessor(self, method_name: str) -> bool:
        return any(fnmatchcase(method_name, pat) for pat in self.pure_accessor_names)


def default_seed() -> ExternalHierarchySeed:
    return ExternalHierarchySeed()


def load_seed(path) -> ExternalHierarchySeed:
    """Load a seed file; keys not present fall back to the built-in defaults.

    Expected shape:
        { "extends": [["Stack", "Vector"], ...],
          "resource_types": ["FileOutputStream", ...],
          "pure_accessors": ["get*", ...] }
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise SeedError(f"seed file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise SeedError(f"seed file {path} must contain a JSON object")

    extends = DEFAULT_EXTENDS
    if "extends" in data:
        raw = data["extends"]
        if (not isinstance(raw, list)
                or any(not isinstance(e, list) or len(e) != 2
                       or not all(isinstance(n, str) and n for n in e)
                       for e in raw)):
            raise SeedError(f"seed file {path}: 'extends' must be a list of [sub, super] name pairs")
        extends = tuple((e[0], e[1]) for e in raw)

    resources = DEFAULT_RESOURCE_TYPES
    if "resource_types" in data:
        raw = data["resource_types"]
        if not isinstance(raw, list) or any(not isinstance(n, str) or not n for n in raw):
            raise SeedError(f"seed file {path}: 'resource_types' must be a list of type names")
        resources = frozenset(raw)

    accessors = DEFAULT_PURE_ACCESSORS
    if "pure_accessors" in data:
        raw = data["pure_accessors"]
        if not isinstance(raw, list) or any(not isinstance(n, str) or not n for n in raw):
            raise SeedError(f"seed file {path}: 'pure_accessors' must be a list of name patterns")
        accessors = tuple(raw)

    return ExternalHierarchySeed(extends, resources, accessors)


class ClassHierarchy(Record):
    __slots__ = ("nodes", "super_edges", "subclasses")

    def __init__(self, nodes: frozenset[str], super_edges: dict[str, tuple[str, ...]],
                 subclasses: dict[str, tuple[str, ...]]):
        # corpus classes, seeded subclasses and their seeded superclasses
        _set(self, "nodes", nodes)
        _set(self, "super_edges", super_edges)
        _set(self, "subclasses", subclasses)  # first superclass -> sorted subclasses


class ProgramModel(Record):
    __slots__ = ("hierarchy", "classes", "class_files", "method_index", "seed", "diagnostics")

    def __init__(self, hierarchy: ClassHierarchy, classes: dict[str, ClassDecl],
                 class_files: dict[str, str],
                 method_index: dict[tuple[str, int], tuple[tuple[str, MethodDecl], ...]],
                 seed: ExternalHierarchySeed, diagnostics: tuple[str, ...] = ()):
        _set(self, "hierarchy", hierarchy)
        # (file path, position) order, first declaration wins
        _set(self, "classes", classes)
        _set(self, "class_files", class_files)
        _set(self, "method_index", method_index)
        _set(self, "seed", seed)
        _set(self, "diagnostics", diagnostics)


def build_model(
    units: list[CompilationUnit] | tuple[CompilationUnit, ...],
    seed: ExternalHierarchySeed | None = None,
) -> ProgramModel:
    """Merge parsed units and the external seed into one ProgramModel.

    Deterministic in the set of units: the input order does not matter
    because everything is keyed by (file path, line). Duplicate class
    names keep the declaration from the lexically first file and are
    reported as model diagnostics.
    """
    seed = seed or default_seed()
    ordered_units = tuple(sorted(units, key=lambda u: u.file_path))
    diagnostics: list[str] = []

    classes: dict[str, ClassDecl] = {}
    class_files: dict[str, str] = {}
    for unit in ordered_units:
        for decl in unit.classes:
            if decl.name in classes:
                diagnostics.append(
                    f"duplicate class {decl.name} in {unit.file_path} ignored "
                    f"(already defined in {class_files[decl.name]})"
                )
                continue
            classes[decl.name] = decl
            class_files[decl.name] = unit.file_path

    super_edges: dict[str, tuple[str, ...]] = {}
    for name, decl in classes.items():
        if decl.extends_list:
            super_edges[name] = tuple(decl.extends_list)

    nodes = set(classes)
    seed_edges: dict[str, list[str]] = {}
    for sub, sup in seed.extends_entries:
        if sub not in classes:  # corpus declaration wins over seeded edges
            seed_edges.setdefault(sub, []).append(sup)
            nodes.update((sub, sup))
    for sub, sups in seed_edges.items():
        super_edges[sub] = tuple(sups)

    subclasses: dict[str, list[str]] = {}
    for sub, sups in super_edges.items():
        subclasses.setdefault(sups[0], []).append(sub)
    hierarchy = ClassHierarchy(
        frozenset(nodes), super_edges,
        {sup: tuple(sorted(subs)) for sup, subs in subclasses.items()},
    )

    # One diagnostic per cycle, when the sorted walk first reaches it, printed
    # from its least-named member; a class that only leads into a cycle adds
    # none. A walk stops at a class already known to reach a root or a
    # cycle, so the check is linear in the classes.
    settled: set[str] = set()
    leads_to_cycle: set[str] = set()
    for name in sorted(classes):
        chain = _first_superclasses(name, super_edges, settled)
        if chain[-1] in settled:
            cyclic = chain[-1] in leads_to_cycle
        else:
            cyclic = _ends_in_cycle(chain)
            if cyclic:
                cycle = chain[chain.index(chain[-1]):-1]
                least = cycle.index(min(cycle))
                cycle = cycle[least:] + cycle[:least]
                diagnostics.append(str(CycleError(cycle + cycle[:1])))
        settled.update(chain)
        if cyclic:
            leads_to_cycle.update(chain)

    method_index: dict[tuple[str, int], list[tuple[str, MethodDecl]]] = {}
    for name, decl in classes.items():
        for method in decl.methods:
            key = (method.name, len(method.params))
            method_index.setdefault(key, []).append((name, method))

    return ProgramModel(
        hierarchy=hierarchy,
        classes=classes,
        class_files=class_files,
        method_index={k: tuple(v) for k, v in method_index.items()},
        seed=seed,
        diagnostics=tuple(diagnostics),
    )


def _first_superclasses(class_name: str, super_edges: dict[str, tuple[str, ...]],
                        stop_at: set[str] | frozenset[str] = frozenset()) -> list[str]:
    """class_name, then its first superclass, that one's, and so on.

    The one walk along first-superclass edges. An unknown external
    superclass ends the list but is included (its edge is real even if
    nothing more is known about it). On a cycle the list ends with the
    first class it revisits. The list also ends at the first class in
    stop_at, which is included.
    """
    chain = [class_name]
    visited = {class_name}
    while True:
        if chain[-1] in stop_at:
            return chain
        supers = super_edges.get(chain[-1])
        if not supers:
            return chain
        first = supers[0]
        chain.append(first)
        if first in visited:
            return chain
        visited.add(first)


def _ends_in_cycle(chain: list[str]) -> bool:
    return chain.index(chain[-1]) != len(chain) - 1


def superclass_chain(class_name: str, hierarchy: ClassHierarchy) -> list[str]:
    """Chain from class_name along first superclasses, including the start.

    Raises KeyError for a class the hierarchy does not know and CycleError
    when the chain revisits a class.
    """
    if class_name not in hierarchy.nodes:
        raise KeyError(class_name)
    chain = _first_superclasses(class_name, hierarchy.super_edges)
    if _ends_in_cycle(chain):
        raise CycleError(chain)
    return chain


def inheritance_depth(class_name: str, hierarchy: ClassHierarchy) -> int:
    """Edge count of the first-superclass chain. Raises CycleError on cycles."""
    return len(superclass_chain(class_name, hierarchy)) - 1


def is_descendant(a: str, b: str, hierarchy: ClassHierarchy) -> bool:
    """True iff b is a strict ancestor of a along first-superclass edges."""
    return a != b and b in _first_superclasses(a, hierarchy.super_edges)


class Scope:
    """Chained name -> declared type map; inner declarations shadow outer."""

    __slots__ = ("_names", "_parent")

    def __init__(self, parent: "Scope | None" = None):
        self._names: dict[str, str] = {}
        self._parent = parent

    def child(self) -> "Scope":
        return Scope(self)

    def declare(self, name: str, type_name: str) -> None:
        self._names[name] = type_name

    def lookup(self, name: str) -> str | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope._names:
                return scope._names[name]
            scope = scope._parent
        return None


def method_scope(class_decl: ClassDecl, method: MethodDecl) -> Scope:
    """Scope seeded with the enclosing class fields and the method params."""
    fields_scope = Scope()
    for f in class_decl.fields:
        fields_scope.declare(f.name, f.type_name)
    scope = fields_scope.child()
    for p in method.params:
        scope.declare(p.name, p.type_name)
    return scope


def static_type_of(expr: Expr, scope: Scope) -> str | None:
    """Declared type of simple expressions; None for everything unknowable."""
    if isinstance(expr, StringLit):
        return "String"
    if isinstance(expr, Name):
        return scope.lookup(expr.ident)
    if isinstance(expr, New):
        return expr.type_name
    if isinstance(expr, Paren):
        return static_type_of(expr.inner, scope)
    return None


def resolve_callee(name: str, arity: int, model: ProgramModel,
                   receiver_type: str | None = None) -> list[tuple[str, MethodDecl]]:
    """Corpus methods a call of (name, arity) may dispatch to.

    Without a receiver type: every method matching (name, arity), in
    (file path, line) order. With one, class hierarchy analysis along
    first-superclass edges: walking up from receiver_type (a cycle ends
    the walk), the nearest declaration of each parameter-type list, so an
    override hides the methods it overrides but not a same-arity overload;
    then every method of that name and arity declared below receiver_type,
    depth-first over subclasses in sorted order, since the receiver may be
    any descendant at run time. Empty when nothing at or above
    receiver_type declares the method.
    """
    if receiver_type is None:
        return list(model.method_index.get((name, arity), ()))
    hierarchy = model.hierarchy
    found: list[tuple[str, MethodDecl]] = []
    signatures: set[tuple[str, ...]] = set()
    upward = _first_superclasses(receiver_type, hierarchy.super_edges)
    for current in upward:
        for entry in _declared_methods(current, name, arity, model):
            signature = tuple(p.type_name for p in entry[1].params)
            if signature not in signatures:
                signatures.add(signature)
                found.append(entry)
    if not found:
        return []
    # on an inheritance cycle the classes already walked upwards are also
    # below receiver_type; visiting none of them twice ends the walk
    visited = set(upward)
    pending = list(reversed(hierarchy.subclasses.get(receiver_type, ())))
    while pending:
        current = pending.pop()
        if current in visited:
            continue
        visited.add(current)
        found.extend(_declared_methods(current, name, arity, model))
        pending.extend(reversed(hierarchy.subclasses.get(current, ())))
    return found


def _declared_methods(class_name: str, name: str, arity: int,
                      model: ProgramModel) -> list[tuple[str, MethodDecl]]:
    decl = model.classes.get(class_name)
    if decl is None:
        return []
    return [(class_name, m) for m in decl.methods
            if m.name == name and len(m.params) == arity]


def walk_body(block: Block, scope: Scope):
    """Yield (stmt, exprs, scope) for block and every statement under it.

    Entries come in source order. exprs are the statement's own top-level
    expressions (walk_exprs walks into them); nested statements get
    entries of their own. A for loop's init statements (one per declarator
    or expression) come first, in the loop's scope. A for loop's condition
    and update expressions and a do-while's condition come as (None,
    exprs, scope) where they stand in the source: after the for init and
    after the do-while body. scope holds the names in effect at the
    entry. Each block, block included, opens a child scope; a local
    declaration enters the scope once its entry is consumed, so a scope
    is only valid until the next entry.

    The stack replaces recursion, so nesting of any depth is walked. It
    holds statements to visit, tuples of deferred loop conditions, and
    scopes to switch to: a catch variable's, made current before its
    block, and the enclosing one, restored when a block, a for loop or the
    catch clauses of a try end.
    """
    stack = [block]
    pop = stack.pop
    push = stack.append
    while stack:
        stmt = pop()
        # commonest types first; no node type is subclassed
        kind = type(stmt)
        if kind is ExprStmt:
            yield stmt, (stmt.expr,), scope
        elif kind is Block:
            yield stmt, (), scope
            push(scope)
            stack.extend(reversed(stmt.stmts))
            scope = scope.child()
        elif kind is Scope:
            scope = stmt
        elif kind is LocalVarDecl:
            yield stmt, (() if stmt.init is None else (stmt.init,)), scope
            scope.declare(stmt.name, stmt.type_name)
        elif kind is If:
            yield stmt, (stmt.cond,), scope
            if stmt.else_block is not None:
                push(stmt.else_block)
            push(stmt.then_block)
        elif kind is While:
            yield stmt, (stmt.cond,), scope
            push(stmt.body)
        elif kind is Return:
            yield stmt, (() if stmt.expr is None else (stmt.expr,)), scope
        elif kind is tuple:
            yield None, stmt, scope
        elif kind is For:
            yield stmt, (), scope
            push(scope)
            push(stmt.body)
            tail = stmt.update if stmt.cond is None else (stmt.cond, *stmt.update)
            if tail:
                push(tail)
            stack.extend(reversed(stmt.init))
            scope = scope.child()
        elif kind is DoWhile:
            yield stmt, (), scope
            push((stmt.cond,))
            push(stmt.body)
        elif kind is TryCatch:
            yield stmt, (), scope
            if stmt.finally_block is not None:
                push(stmt.finally_block)
            push(scope)
            for clause in reversed(stmt.catches):
                catch_scope = scope.child()
                catch_scope.declare(clause.var_name, clause.type_name)
                push(clause.body)
                push(catch_scope)
            push(stmt.try_block)
        else:  # Empty
            yield stmt, (), scope
