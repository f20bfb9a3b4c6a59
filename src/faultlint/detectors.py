"""The six fault detectors.

Error codes and names (fixed catalog):
    1  Lvalue required               string comparison via == / !=
    2  Incorrect inheritance error   class header listing several superclasses
    3  Spaghetti error               inheritance chain depth reaching six
    4  Inconsistent Type Usage error descendant passed as ancestor, mutated
                                     by the callee, then used by the caller
    5  Illicit file usage exception  opened stream/file never closed in the
                                     opening method
    6  Undefined loop exception      loop with an empty body

run_all is the one entry point: it walks the classes once. Rules 2 and 3
read each class header: rule 3 follows the first-superclass chain and
skips a class on or leading into a cycle, which is already a model
diagnostic; its walk stops at a class already known to lead into one.
Rules 1, 4, 5 and 6 read method bodies: each body is walked once with
model.walk_body, and every enabled rule checks each entry and its
subexpressions as they come, dispatching on node type.

Rule 4 flags a call site when all three hold: a Name argument's declared
type is a strict descendant of the callee's declared parameter type there;
the callee mutates that parameter (a non-accessor call p.m(...) or a field
write p.f = ..., shadowing ignored); and the caller invokes any method on
the same name on a later line. Callees resolve through the class
hierarchy from the receiver's static type: the enclosing class for
g(...) and this.g(...), the declared type of x for x.g(...). Any other
receiver, or an x of unknown type, falls back to every method of the same
name and arity. The body walk records each method's call sites, its name
uses and its first mutation of each parameter; the call sites are
resolved once every method is walked, so a callee's summary is complete
wherever it stands. A call site is resolved only when some corpus method
of its name and arity mutates a parameter, since every callee either
resolution returns has that name and arity; a later use is found by
bisection in an index of the method's name uses, built once per method.

Rule 5 is path-insensitive: a close() on the name anywhere in the opening
method's body (branches, catch and finally blocks included) counts.

Rule 6 checks while, do-while and for loops: a body holding no statement
but empty ones is flagged.

Each rule's findings come in class order, then method order, then walk
order, rule 4's after every method, whichever other rules run. The one
sort by (file, line, code) ties only findings of one rule, so the merged
list is deterministic. Every check reads an immutable ProgramModel.
"""

from __future__ import annotations

from bisect import bisect_right

from faultlint.model import (
    ProgramModel,
    _ends_in_cycle,
    _first_superclasses,
    is_descendant,
    method_scope,
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
    While,
    walk_exprs,
)
from faultlint.record import Record, _set

ERROR_CATALOG: dict[int, str] = {
    1: "Lvalue required",
    2: "Incorrect inheritance error",
    3: "Spaghetti error",
    4: "Inconsistent Type Usage error",
    5: "Illicit file usage exception",
    6: "Undefined loop exception",
}

ALL_RULES = frozenset(ERROR_CATALOG)

SPAGHETTI_DEPTH = 6


class Finding(Record):
    __slots__ = ("class_name", "error_code", "error_name", "file_path", "line", "message",
                 "detail")

    def __init__(self, class_name: str, error_code: int, error_name: str, file_path: str,
                 line: int, message: str, detail: dict | None = None):
        _set(self, "class_name", class_name)
        _set(self, "error_code", error_code)
        _set(self, "error_name", error_name)
        _set(self, "file_path", file_path)
        _set(self, "line", line)
        _set(self, "message", message)
        _set(self, "detail", {} if detail is None else detail)

    def __hash__(self):
        # every field but the last, detail, a dict: equality compares it, the hash cannot
        return hash(self._values()[:-1])

    def sort_key(self):
        return (self.file_path, self.line, self.error_code)


def _finding(code: int, class_name: str, file_path: str, line: int,
             message: str, detail: dict) -> Finding:
    return Finding(
        class_name=class_name,
        error_code=code,
        error_name=ERROR_CATALOG[code],
        file_path=file_path,
        line=line,
        message=message,
        detail=detail,
    )


def _uses_by_ident(name_uses: list) -> dict[str, tuple[list[int], list]]:
    """Rule 4: ident -> (running maximum of the lines, uses) of one method's
    name uses, each in walk order."""
    index: dict[str, tuple[list[int], list]] = {}
    for use in name_uses:
        entry = index.get(use[0])
        if entry is None:
            index[use[0]] = ([use[1]], [use])
        else:
            maxima, uses = entry
            maxima.append(max(maxima[-1], use[1]))
            uses.append(use)
    return index


def _itu_findings(model: ProgramModel, class_name: str, file_path: str,
                  call_sites: list, name_uses: list, mutations: dict,
                  mutating_keys: set, findings: list[Finding]) -> None:
    """Rule 4 over one method's call sites, after run_all has walked every
    method: mutations maps id(method) to that method's first mutation of
    each parameter, by parameter name; mutating_keys holds the (name,
    arity) of every method with one. A call site no such method could
    answer is not resolved: every callee resolve_callee returns has the
    call's name and arity."""
    uses_by_ident = None  # built on the first candidate that needs a later use
    for call, idents, types, receiver_type in call_sites:
        if (call.name, len(call.args)) not in mutating_keys:
            continue
        resolution = "name-arity" if receiver_type is None else "hierarchy"
        emitted = False
        for callee_class, callee in resolve_callee(
                call.name, len(call.args), model, receiver_type):
            mutated = mutations.get(id(callee))
            if mutated is None:
                continue
            for position, (ident, arg_type) in enumerate(zip(idents, types)):
                if ident is None or arg_type is None:
                    continue
                param = callee.params[position]
                mutation = mutated.get(param.name)
                if mutation is None:
                    continue
                base_type = param.type_name
                if not is_descendant(arg_type, base_type, model.hierarchy):
                    continue
                if uses_by_ident is None:
                    uses_by_ident = _uses_by_ident(name_uses)
                entry = uses_by_ident.get(ident)
                if entry is None:
                    continue
                # the first use in walk order on a line after the call: the
                # first whose running maximum passes the call's line
                maxima, uses = entry
                index = bisect_right(maxima, call.line)
                if index == len(uses):
                    continue
                later_use = uses[index]
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
                break  # one finding per call site
            if emitted:
                break


_LOOP_KINDS = {While: "while", DoWhile: "do-while", For: "for"}


def run_all(model: ProgramModel, enabled_rules=None) -> list[Finding]:
    """Findings of the enabled rules (default: all six), sorted by
    (file, line, code). ValueError on a code outside the catalog."""
    rules = ALL_RULES if enabled_rules is None else frozenset(enabled_rules)
    bad = rules - ALL_RULES
    if bad:
        raise ValueError(f"unknown rule codes: {sorted(bad)}")
    lvalue, inheritance, spaghetti, itu, files, loops = (code in rules for code in range(1, 7))
    walk_expressions = lvalue or itu or files
    walk_bodies = walk_expressions or loops
    resource_types = model.seed.resource_types
    is_pure_accessor = model.seed.is_pure_accessor
    findings: list[Finding] = []
    itu_sites = []  # rule 4: (class name, file path, call sites, name uses) per method
    # rule 4: id(method) -> {parameter name: (mutation, line)}; by identity, as
    # hashing a MethodDecl would hash its body, and the model keeps each alive
    mutations: dict[int, dict[str, tuple[str, int]]] = {}
    mutating_keys: set[tuple[str, int]] = set()  # rule 4: (name, arity) of those methods
    # rule 3: classes known to lead into an inheritance cycle; a walk stops
    # at the first one, so each lead-in class is walked once
    leads_to_cycle: set[str] = set()
    super_edges = model.hierarchy.super_edges
    for class_name, decl in model.classes.items():
        file_path = model.class_files[class_name]
        if inheritance and len(decl.extends_list) > 1:
            findings.append(_finding(
                2, class_name, file_path, decl.line,
                f"class {class_name} extends multiple classes: {', '.join(decl.extends_list)}",
                {"superclasses": list(decl.extends_list)},
            ))
        if spaghetti:
            chain = _first_superclasses(class_name, super_edges, leads_to_cycle)
            if chain[-1] in leads_to_cycle or _ends_in_cycle(chain):
                leads_to_cycle.update(chain)
                chain = []  # already a model diagnostic, not a finding
            depth = len(chain) - 1
            if depth >= SPAGHETTI_DEPTH:
                findings.append(_finding(
                    3, class_name, file_path, decl.line,
                    f"inheritance depth {depth} reaches the threshold of "
                    f"{SPAGHETTI_DEPTH}: {' -> '.join(chain)}",
                    {"depth": depth, "chain": chain},
                ))
        if not walk_bodies:
            continue
        for method in decl.methods:
            call_sites = []   # rule 4: (call, arg idents, arg declared types, receiver type)
            name_uses = []    # rule 4: (receiver ident, line, method name) of x.m(...)
            params = {p.name for p in method.params} if itu else ()
            mutated: dict[str, tuple[str, int]] = {}  # rule 4: first mutation per parameter
            opened: dict[str, tuple[str, int]] = {}  # rule 5: var -> (type, line of new)
            closed: set[str] = set()                 # rule 5: receivers of close()
            for stmt, exprs, scope in walk_body(method.body, method_scope(decl, method)):
                kind = type(stmt)
                if kind is LocalVarDecl:
                    init = stmt.init
                    if files and type(init) is New and init.type_name in resource_types:
                        opened.setdefault(stmt.name, (init.type_name, init.line))
                elif loops and kind in _LOOP_KINDS:
                    if all(type(s) is Empty for s in stmt.body.stmts):
                        loop_kind = _LOOP_KINDS[kind]
                        findings.append(_finding(
                            6, class_name, file_path, stmt.line,
                            f"empty {loop_kind} loop body",
                            {"loop_kind": loop_kind},
                        ))
                if not walk_expressions:
                    continue
                for top in exprs:
                    for expr in walk_exprs(top):
                        expr_kind = type(expr)
                        if expr_kind is MethodCall:
                            receiver = expr.receiver
                            if files and expr.name == "close" and type(receiver) is Name:
                                closed.add(receiver.ident)
                            if not itu:
                                continue
                            if type(receiver) is Name:
                                ident = receiver.ident
                                name_uses.append((ident, expr.line, expr.name))
                                if (ident in params and ident not in mutated
                                        and not is_pure_accessor(expr.name)):
                                    mutated[ident] = (f"{ident}.{expr.name}(...)", expr.line)
                            types = [scope.lookup(a.ident) if type(a) is Name else None
                                     for a in expr.args]
                            if all(t is None for t in types):
                                continue  # no typed Name argument that could be flagged
                            idents = [a.ident if type(a) is Name else None for a in expr.args]
                            if receiver is None or (type(receiver) is Name
                                                    and receiver.ident == "this"):
                                receiver_type = class_name
                            elif type(receiver) is Name:
                                receiver_type = scope.lookup(receiver.ident)
                            else:
                                receiver_type = None
                            call_sites.append((expr, idents, types, receiver_type))
                        elif expr_kind is Binary:
                            if not lvalue or (expr.op != "==" and expr.op != "!="):
                                continue
                            left = static_type_of(expr.lhs, scope)
                            right = static_type_of(expr.rhs, scope)
                            if left == "String" or right == "String":
                                findings.append(_finding(
                                    1, class_name, file_path, expr.line,
                                    f"strings compared with '{expr.op}'; use .equals() "
                                    f"for value equality",
                                    {"op": expr.op, "left_type": left, "right_type": right},
                                ))
                        elif expr_kind is Assign:
                            lhs = expr.lhs
                            rhs = expr.rhs
                            if (files and type(lhs) is Name
                                    and type(rhs) is New and rhs.type_name in resource_types):
                                opened.setdefault(lhs.ident, (rhs.type_name, rhs.line))
                            elif (type(lhs) is FieldAccess and type(lhs.target) is Name
                                    and lhs.target.ident in params):
                                ident = lhs.target.ident
                                mutated.setdefault(ident,
                                                   (f"{ident}.{lhs.name} = ...", expr.line))
            if call_sites:
                itu_sites.append((class_name, file_path, call_sites, name_uses))
            if mutated:
                mutations[id(method)] = mutated
                mutating_keys.add((method.name, len(method.params)))
            for var, (type_name, line) in opened.items():
                if var not in closed:
                    findings.append(_finding(
                        5, class_name, file_path, line,
                        f"resource '{var}' of type {type_name} is opened but never "
                        f"closed in this method",
                        {"variable": var, "resource_type": type_name},
                    ))
    for class_name, file_path, call_sites, name_uses in itu_sites:
        _itu_findings(model, class_name, file_path, call_sites, name_uses, mutations,
                      mutating_keys, findings)
    findings.sort(key=Finding.sort_key)
    return findings
