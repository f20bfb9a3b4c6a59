"""Cross-file semantic model: class hierarchy, scopes, types, callees.

A scope is a plain dict from name to declared type. walk_body borrows one
for a whole method body and, when a block ends, undoes its declarations
from a list of the names and the types they hid.

The model's hierarchy, its fields parent, subclasses and cyclic, merges
extends-edges found in the scanned corpus with a seeded set of external
edges (library classes such as Stack -> Vector live outside any scanned
file). parent keeps one superclass per class, the first one named: depth,
descendant and callee queries follow only that edge. Listing several
superclasses is illegal in the analyzed language and has no deeper
semantics here; the inheritance detector (rule 2) reads the full list
from ClassDecl.extends_list. Every query that walks upwards reads
_first_superclasses.
"""

from __future__ import annotations

import json
import re
from fnmatch import translate

from faultlint.lexer import STRING
from faultlint.nodes import (
    Assign,
    Binary,
    Block,
    ClassDecl,
    CompilationUnit,
    DoWhile,
    Expr,
    ExprStmt,
    FieldAccess,
    For,
    If,
    Literal,
    LocalVarDecl,
    MethodCall,
    MethodDecl,
    Name,
    New,
    Paren,
    Return,
    TryCatch,
    UnaryIncDec,
    While,
)
from faultlint.record import Record

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


class SeedError(ValueError):
    """Malformed external hierarchy seed file."""


class ExternalHierarchySeed(Record):
    __slots__ = ("extends_entries", "resource_types", "pure_accessor_names")

    def __init__(self, extends_entries: tuple[tuple[str, str], ...] = DEFAULT_EXTENDS,
                 resource_types: frozenset[str] = DEFAULT_RESOURCE_TYPES,
                 pure_accessor_names: tuple[str, ...] = DEFAULT_PURE_ACCESSORS):
        self.extends_entries = extends_entries
        self.resource_types = resource_types
        self.pure_accessor_names = pure_accessor_names

    def is_pure_accessor(self, method_name: str) -> bool:
        return self.pure_accessor_matcher()(method_name) is not None

    def pure_accessor_matcher(self):
        """The match method of one regular expression that fnmatch.translate
        builds from all of pure_accessor_names: it matches a method name,
        case-sensitively, when any one pattern does (fnmatchcase), so a name
        is tried once, not once per pattern. An empty list matches nothing.
        run_all builds it once."""
        alternatives = "|".join([translate(pattern) for pattern in self.pure_accessor_names])
        return re.compile(alternatives or "(?!)").match


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
        # a leading byte order mark is skipped, as RFC 8259 8.1 allows
        with open(path, encoding="utf-8-sig") as handle:
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

    resources = _seed_names(data, "resource_types", DEFAULT_RESOURCE_TYPES, path, "type names")
    accessors = _seed_names(data, "pure_accessors", DEFAULT_PURE_ACCESSORS, path,
                            "name patterns")
    return ExternalHierarchySeed(extends, frozenset(resources), tuple(accessors))


def _seed_names(data: dict, key: str, default, path, what: str):
    """data[key], which must be a list of non-empty strings, or default
    when the seed file has no such key."""
    if key not in data:
        return default
    raw = data[key]
    if not isinstance(raw, list) or any(not isinstance(n, str) or not n for n in raw):
        raise SeedError(f"seed file {path}: '{key}' must be a list of {what}")
    return raw


class ProgramModel(Record):
    __slots__ = ("classes", "class_files", "parent", "subclasses", "cyclic", "seed",
                 "diagnostics")

    def __init__(self, classes: dict[str, ClassDecl], class_files: dict[str, str],
                 parent: dict[str, str], subclasses: dict[str, tuple[str, ...]],
                 cyclic: frozenset[str], seed: ExternalHierarchySeed,
                 diagnostics: tuple[str, ...] = ()):
        # (file path, position) order, first declaration wins
        self.classes = classes
        self.class_files = class_files
        self.parent = parent  # class -> its first superclass
        self.subclasses = subclasses  # first superclass -> sorted subclasses
        # the classes on or leading into an inheritance cycle, as far as the
        # first-superclass chains of the corpus classes reach
        self.cyclic = cyclic
        self.seed = seed
        self.diagnostics = diagnostics


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

    parent = {name: decl.extends_list[0] for name, decl in classes.items()
              if decl.extends_list}
    for sub, sup in seed.extends_entries:
        if sub not in classes:  # the corpus declaration wins, then the first seed entry
            parent.setdefault(sub, sup)
    subclasses: dict[str, list[str]] = {}
    for sub, sup in parent.items():
        subclasses.setdefault(sup, []).append(sub)

    # One diagnostic per cycle, when the sorted walk first reaches it, printed
    # from its least-named member; a class that only leads into a cycle adds
    # none. A walk stops at a class already known to reach a root or a
    # cycle, so the check is linear in the classes.
    settled: set[str] = set()
    cyclic: set[str] = set()
    for name in sorted(classes):
        chain = _first_superclasses(name, parent, settled)
        if chain[-1] in settled:
            on_cycle = chain[-1] in cyclic
        else:
            start = chain.index(chain[-1])
            on_cycle = start != len(chain) - 1
            if on_cycle:
                cycle = chain[start:-1]
                least = cycle.index(min(cycle))
                cycle = cycle[least:] + cycle[:least]
                diagnostics.append("inheritance cycle: " + " -> ".join(cycle + cycle[:1]))
        settled.update(chain)
        if on_cycle:
            cyclic.update(chain)
    return ProgramModel(
        classes=classes,
        class_files=class_files,
        parent=parent,
        subclasses={sup: tuple(sorted(subs)) for sup, subs in subclasses.items()},
        cyclic=frozenset(cyclic),
        seed=seed,
        diagnostics=tuple(diagnostics),
    )


def _first_superclasses(class_name: str, parent: dict[str, str],
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
        first = parent.get(chain[-1])
        if first is None:
            return chain
        chain.append(first)
        if first in visited:
            return chain
        visited.add(first)


def is_descendant(a: str, b: str, parent: dict[str, str]) -> bool:
    """True iff b is a strict ancestor of a along the first-superclass
    edges of parent (ProgramModel.parent)."""
    return a != b and b in _first_superclasses(a, parent)


def method_scope(class_decl: ClassDecl, method: MethodDecl) -> dict[str, str]:
    """Name -> declared type: the enclosing class's fields, then the
    method's parameters over them."""
    scope = {f.name: f.type_name for f in class_decl.fields}
    for p in method.params:
        scope[p.name] = p.type_name
    return scope


def static_type_of(expr: Expr, scope: dict[str, str]) -> str | None:
    """Declared type of simple expressions; None for everything unknowable."""
    if isinstance(expr, Literal):
        return "String" if expr.kind == STRING else None
    if isinstance(expr, Name):
        return scope.get(expr.ident)
    if isinstance(expr, New):
        return expr.type_name
    if isinstance(expr, Paren):
        return static_type_of(expr.inner, scope)
    return None


def resolve_callee(name: str, arity: int, model: ProgramModel,
                   receiver_type: str) -> list[tuple[str, MethodDecl]]:
    """Corpus methods a call of (name, arity) on a receiver of static type
    receiver_type may dispatch to.

    Class hierarchy analysis along first-superclass edges: walking up from
    receiver_type (a cycle ends the walk), the nearest declaration of each
    parameter-type list, so an override hides the methods it overrides but
    not a same-arity overload; then every method of that name and arity
    declared below receiver_type, depth-first over subclasses in sorted
    order, since the receiver may be any descendant at run time. Empty when
    nothing at or above receiver_type declares the method.
    """
    found: list[tuple[str, MethodDecl]] = []
    signatures: set[tuple[str, ...]] = set()
    upward = _first_superclasses(receiver_type, model.parent)
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
    pending = list(reversed(model.subclasses.get(receiver_type, ())))
    while pending:
        current = pending.pop()
        if current in visited:
            continue
        visited.add(current)
        found.extend(_declared_methods(current, name, arity, model))
        pending.extend(reversed(model.subclasses.get(current, ())))
    return found


def _declared_methods(class_name: str, name: str, arity: int,
                      model: ProgramModel) -> list[tuple[str, MethodDecl]]:
    decl = model.classes.get(class_name)
    if decl is None:
        return []
    return [(class_name, m) for m in decl.methods
            if m.name == name and len(m.params) == arity]


def walk_body(block: Block, scope: dict[str, str]):
    """Yield block and every statement and expression under it.

    Nodes come in source order: a statement, then its own expressions in
    preorder, then the statements nested in it. A for loop gives its init
    statements (one per declarator or expression), then its condition and
    update expressions, then its body; a do-while gives its body, then its
    condition. A catch clause is not yielded, its block is.

    scope (name -> declared type, as method_scope makes it) is borrowed
    for the whole walk: each time a node is yielded, the caller's dict
    holds the names in effect there. A declaration, a local once its
    initializer is walked or a catch variable before its block, appends
    (name, the type it hides or None) to hidden, then sets the name. A
    block, a for loop and a catch clause end at a marker, hidden's length
    when they began, where the walk undoes the later entries in reverse.
    No block makes a dict, and the exhausted walk leaves scope as given.

    The stack replaces recursion, so statements nested and expressions
    chained to any depth, such as a long `a + a + ... + a` or `a.f().f()...`
    chain, are walked. Besides nodes it holds those (name, type)
    declarations and the integer end markers. Children go on the stack
    last-first, so they come off in source order.
    """
    hidden: list[tuple[str, str | None]] = []
    stack = [block]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        # commonest types first; no node type is subclassed
        kind = type(node)
        if kind is Name:
            yield node
            continue
        if kind is int:
            while len(hidden) > node:
                name, outer = hidden.pop()
                if outer is None:
                    del scope[name]
                else:
                    scope[name] = outer
            continue
        if kind is tuple:
            name = node[0]
            hidden.append((name, scope.get(name)))
            scope[name] = node[1]
            continue
        yield node
        if kind is Block:
            push(len(hidden))
            stack.extend(reversed(node.stmts))
        elif kind is ExprStmt:
            push(node.expr)
        elif kind is MethodCall:
            stack.extend(reversed(node.args))
            if node.receiver is not None:
                push(node.receiver)
        elif kind is Binary or kind is Assign:
            push(node.rhs)
            push(node.lhs)
        elif kind is LocalVarDecl:
            push((node.name, node.type_name))
            if node.init is not None:
                push(node.init)
        elif kind is Literal:
            pass  # a leaf, common enough to end the tests here
        elif kind is FieldAccess:
            push(node.target)
        elif kind is New:
            stack.extend(reversed(node.args))
        elif kind is If:
            if node.else_block is not None:
                push(node.else_block)
            push(node.then_block)
            push(node.cond)
        elif kind is UnaryIncDec:
            push(node.operand)
        elif kind is While:
            push(node.body)
            push(node.cond)
        elif kind is Return:
            if node.expr is not None:
                push(node.expr)
        elif kind is Paren:
            push(node.inner)
        elif kind is For:
            push(len(hidden))
            push(node.body)
            stack.extend(reversed(node.update))
            if node.cond is not None:
                push(node.cond)
            stack.extend(reversed(node.init))
        elif kind is DoWhile:
            push(node.cond)
            push(node.body)
        elif kind is TryCatch:
            if node.finally_block is not None:
                push(node.finally_block)
            # the try block and each earlier clause end back at this length
            end = len(hidden)
            for clause in reversed(node.catches):
                push(end)
                push(clause.body)
                push((clause.var_name, clause.type_name))
            push(node.try_block)
        # Empty is a leaf
