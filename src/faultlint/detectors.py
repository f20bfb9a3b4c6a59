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

ERROR_CATALOG, defined in the package's __init__ and imported here, is
the only copy of the names. A Finding carries its code; the store and the
reports look the name up where they write it.

run_all is the one entry point: it walks the classes once. Rules 2 and 3
read each class header. Rule 3 counts the edges of a class's
first-superclass chain, seeded edges included; an unknown external
superclass counts one edge. It skips a class in model.cyclic, on or
leading into a cycle, which is already a model diagnostic.
Rules 1, 4, 5 and 6 read method bodies: each body is walked once with
model.walk_body, which yields every statement and expression while the
method's scope dict holds the names in effect there, and every rule
checks each node as it comes, in one dispatch on node type, whichever
rules are enabled: those only choose which findings run_all returns.

Rule 1 flags == and != when either side has the declared type String,
unless either side is the null literal: a null check is no string
comparison.

Rule 4 flags a call site when all three hold: a Name argument's declared
type is a strict descendant of the callee's declared parameter type there;
the callee mutates that parameter (a non-accessor call p.m(...) or a field
write p.f = ..., shadowing ignored); and the caller invokes any method on
the same name on a later line. Callees resolve through the class
hierarchy from the receiver's static type: the enclosing class for
g(...) and this.g(...), the declared type of x for x.g(...). Any other
receiver, or an x of unknown type, falls back to the methods of the same
name and arity that mutate a parameter, in (file path, position) order:
no other method could give a finding. The body walk records each
method's call sites, its name uses and its first mutation of each
parameter, the last in one map from (name, arity) to the mutating
methods; the call sites are resolved once every method is walked, so a
callee's summary is complete wherever it stands. A call site is resolved
only when the map holds its name and arity, since every callee hierarchy
resolution returns has that name and arity; a later use is found by
bisection in an index of the method's name uses, built once per method.

Rule 5 is path-insensitive: a close() on the name anywhere in the opening
method's body (branches, catch and finally blocks included) counts. Its
closes are the x.close(...) calls on a bare name x among the name uses
rule 4 records, read only for a method that opened a resource.

Rule 6 checks while, do-while and for loops: a body holding no statement
but empty ones is flagged.

Each rule's findings come in class order, then method order, then walk
order, rule 4's after every method. The one sort by (file, line, code)
ties only findings of one rule, so the merged list is deterministic.
Every check reads an immutable ProgramModel.
"""

from __future__ import annotations

from bisect import bisect_right

from faultlint import ALL_RULES, ERROR_CATALOG
from faultlint.model import (
    ProgramModel,
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
    Paren,
    While,
)
from faultlint.record import Record

SPAGHETTI_DEPTH = 6


class Finding(Record):
    __slots__ = ("class_name", "error_code", "file_path", "line", "message", "detail")

    def __init__(self, class_name: str, error_code: int, file_path: str, line: int,
                 message: str, detail: dict | None = None):
        self.class_name = class_name
        self.error_code = error_code
        self.file_path = file_path
        self.line = line
        self.message = message
        self.detail = {} if detail is None else detail

    def __hash__(self):
        # every field but the last, detail, a dict: equality compares it, the hash cannot
        return hash(self._values()[:-1])

    def sort_key(self):
        return (self.file_path, self.line, self.error_code)


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
                  call_sites: list, name_uses: list, mutating: dict,
                  findings: list[Finding]) -> None:
    """Rule 4 over one method's call sites, each (call, typed args,
    receiver type) as run_all records it, after run_all has walked every
    method: mutating maps (name, arity) to {id(method): (class name,
    method, its first mutation of each parameter by parameter name)} of
    every method with one. A call site no such method could answer is not
    resolved: every callee resolve_callee returns has the call's name and
    arity, and only those in the map are read. A call with no receiver
    type takes the map's methods as its callees."""
    uses_by_ident = None  # built on the first candidate that needs a later use
    for call, typed_args, receiver_type in call_sites:
        summaries = mutating.get((call.name, len(call.args)))
        if summaries is None:
            continue
        if receiver_type is None:
            resolution = "name-arity"
            callees = summaries.values()
        else:
            resolution = "hierarchy"
            callees = (summaries[id(callee)] for _, callee
                       in resolve_callee(call.name, len(call.args), model, receiver_type)
                       if id(callee) in summaries)
        emitted = False
        for callee_class, callee, mutated in callees:
            for position, ident, arg_type in typed_args:
                param = callee.params[position]
                mutation = mutated.get(param.name)
                if mutation is None:
                    continue
                base_type = param.type_name
                if not is_descendant(arg_type, base_type, model.parent):
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
                findings.append(Finding(
                    class_name, 4, file_path, call.line,
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


def _is_null(expr) -> bool:
    """Rule 1: expr is the null literal, which the parser reads as a Name,
    in any parentheses."""
    while type(expr) is Paren:
        expr = expr.inner
    return type(expr) is Name and expr.ident == "null"


def run_all(model: ProgramModel, enabled_rules=None) -> list[Finding]:
    """Findings of the enabled rules (default: all six), sorted by
    (file, line, code). ValueError on a code outside the catalog. Every
    rule runs whatever is enabled; the filter comes last."""
    rules = ALL_RULES if enabled_rules is None else frozenset(enabled_rules)
    bad = rules - ALL_RULES
    if bad:
        raise ValueError(f"unknown rule codes: {sorted(bad)}")
    resource_types = model.seed.resource_types
    is_pure_accessor = model.seed.pure_accessor_matcher()
    findings: list[Finding] = []
    itu_sites = []  # rule 4: (class name, file path, call sites, name uses) per method
    # rule 4: (name, arity) -> {id(method): (class name, method, {parameter name:
    # (mutation, line)})} of the methods with a mutation, in class order, then
    # method order; keyed by identity, as hashing a MethodDecl would hash its
    # body, and the model keeps each alive
    mutating: dict[tuple[str, int], dict[int, tuple]] = {}
    parent = model.parent
    cyclic = model.cyclic
    for class_name, decl in model.classes.items():
        file_path = model.class_files[class_name]
        if len(decl.extends_list) > 1:
            findings.append(Finding(
                class_name, 2, file_path, decl.line,
                f"class {class_name} extends multiple classes: {', '.join(decl.extends_list)}",
                {"superclasses": list(decl.extends_list)},
            ))
        if class_name not in cyclic:  # a cycle is a model diagnostic
            chain = _first_superclasses(class_name, parent)
            depth = len(chain) - 1
            if depth >= SPAGHETTI_DEPTH:
                findings.append(Finding(
                    class_name, 3, file_path, decl.line,
                    f"inheritance depth {depth} reaches the threshold of "
                    f"{SPAGHETTI_DEPTH}: {' -> '.join(chain)}",
                    {"depth": depth, "chain": chain},
                ))
        for method in decl.methods:
            call_sites = []   # rule 4: (call, typed args, receiver type)
            name_uses = []    # rules 4, 5: (receiver ident, line, method name) of x.m(...)
            params = {p.name for p in method.params}
            mutated: dict[str, tuple[str, int]] = {}  # rule 4: first mutation per parameter
            opened: dict[str, tuple[str, int]] = {}  # rule 5: var -> (type, line of new)
            scope = method_scope(decl, method)
            for node in walk_body(method.body, scope):
                kind = type(node)
                if kind is Name:  # the commonest node; no rule reads a bare name
                    continue
                if kind is MethodCall:
                    receiver = node.receiver
                    if type(receiver) is Name:
                        ident = receiver.ident
                        name_uses.append((ident, node.line, node.name))
                        if (ident in params and ident not in mutated
                                and not is_pure_accessor(node.name)):
                            mutated[ident] = (f"{ident}.{node.name}(...)", node.line)
                    # (position, ident, declared type) of each Name argument
                    # with a declared type; built at the first one
                    typed_args = None
                    for position, arg in enumerate(node.args):
                        if type(arg) is Name:
                            declared = scope.get(arg.ident)
                            if declared is not None:
                                if typed_args is None:
                                    typed_args = []
                                typed_args.append((position, arg.ident, declared))
                    if typed_args is None:
                        continue  # no typed Name argument that could be flagged
                    if receiver is None or (type(receiver) is Name
                                            and receiver.ident == "this"):
                        receiver_type = class_name
                    elif type(receiver) is Name:
                        receiver_type = scope.get(receiver.ident)
                    else:
                        receiver_type = None
                    call_sites.append((node, typed_args, receiver_type))
                elif kind is Binary:
                    if node.op != "==" and node.op != "!=":
                        continue
                    left = static_type_of(node.lhs, scope)
                    right = static_type_of(node.rhs, scope)
                    if ((left == "String" or right == "String")
                            and not _is_null(node.lhs) and not _is_null(node.rhs)):
                        findings.append(Finding(
                            class_name, 1, file_path, node.line,
                            f"strings compared with '{node.op}'; use .equals() "
                            f"for value equality",
                            {"op": node.op, "left_type": left, "right_type": right},
                        ))
                elif kind is LocalVarDecl:
                    init = node.init
                    if type(init) is New and init.type_name in resource_types:
                        opened.setdefault(node.name, (init.type_name, init.line))
                elif kind is Assign:
                    lhs = node.lhs
                    rhs = node.rhs
                    if (type(lhs) is Name
                            and type(rhs) is New and rhs.type_name in resource_types):
                        opened.setdefault(lhs.ident, (rhs.type_name, rhs.line))
                    elif (type(lhs) is FieldAccess and type(lhs.target) is Name
                            and lhs.target.ident in params):
                        ident = lhs.target.ident
                        mutated.setdefault(ident, (f"{ident}.{lhs.name} = ...", node.line))
                elif kind in _LOOP_KINDS:
                    if all(type(s) is Empty for s in node.body.stmts):
                        loop_kind = _LOOP_KINDS[kind]
                        findings.append(Finding(
                            class_name, 6, file_path, node.line,
                            f"empty {loop_kind} loop body",
                            {"loop_kind": loop_kind},
                        ))
            if call_sites:
                itu_sites.append((class_name, file_path, call_sites, name_uses))
            if mutated:
                mutating.setdefault((method.name, len(method.params)), {})[id(method)] = (
                    class_name, method, mutated)
            if opened:
                closed_names = {ident for ident, _, name in name_uses if name == "close"}
                for var, (type_name, line) in opened.items():
                    if var not in closed_names:
                        findings.append(Finding(
                            class_name, 5, file_path, line,
                            f"resource '{var}' of type {type_name} is opened but never "
                            f"closed in this method",
                            {"variable": var, "resource_type": type_name},
                        ))
    for class_name, file_path, call_sites, name_uses in itu_sites:
        _itu_findings(model, class_name, file_path, call_sites, name_uses, mutating, findings)
    findings.sort(key=Finding.sort_key)
    return [finding for finding in findings if finding.error_code in rules]
