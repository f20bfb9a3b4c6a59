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

Each detector is a pure function of an immutable ProgramModel, so none
can change what another sees, and run_all merges their findings in a
deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from faultlint.model import (
    CycleError,
    ProgramModel,
    Scope,
    is_descendant,
    iter_scoped_exprs,
    resolve_callee,
    static_type_of,
    superclass_chain,
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
    MethodDecl,
    Name,
    New,
    While,
    walk_exprs,
)

ERROR_CATALOG: dict[int, str] = {
    1: "Lvalue required",
    2: "Incorrect inheritance error",
    3: "Spaghetti error",
    4: "Inconsistent Type Usage error",
    5: "Illicit file usage exception",
    6: "Undefined loop exception",
}


@dataclass(frozen=True, eq=True)
class Finding:
    class_name: str
    error_code: int
    error_name: str
    file_path: str
    line: int
    message: str
    detail: dict = field(default_factory=dict, hash=False)

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


def detect_lvalue_required(model: ProgramModel) -> list[Finding]:
    """Code 1: == or != applied where either operand is a String."""
    findings = []
    for class_name, file_path, decl, method in model.iter_methods():
        for expr, scope in iter_scoped_exprs(decl, method):
            if not (isinstance(expr, Binary) and expr.op in ("==", "!=")):
                continue
            left = static_type_of(expr.lhs, scope, model)
            right = static_type_of(expr.rhs, scope, model)
            if left == "String" or right == "String":
                findings.append(_finding(
                    1, class_name, file_path, expr.line,
                    f"strings compared with '{expr.op}'; use .equals() for value equality",
                    {"op": expr.op, "left_type": left, "right_type": right},
                ))
    return findings


def detect_incorrect_inheritance(model: ProgramModel) -> list[Finding]:
    """Code 2: a class header extending more than one class."""
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


SPAGHETTI_DEPTH = 6


def detect_spaghetti(model: ProgramModel) -> list[Finding]:
    """Code 3: every class whose inheritance chain depth reaches six."""
    findings = []
    for name, decl in model.classes.items():
        try:
            chain = superclass_chain(name, model.hierarchy)
        except CycleError:
            continue  # already a model diagnostic, not a finding
        depth = len(chain) - 1
        if depth >= SPAGHETTI_DEPTH:
            findings.append(_finding(
                3, name, model.class_files[name], decl.line,
                f"inheritance depth {depth} reaches the threshold of "
                f"{SPAGHETTI_DEPTH}: {' -> '.join(chain)}",
                {"depth": depth, "chain": chain},
            ))
    return findings


def _param_mutation(callee: MethodDecl, param_name: str,
                    model: ProgramModel) -> tuple[str, int] | None:
    """First non-accessor call or field write on param_name in the body."""
    for _, exprs, _ in walk_body(callee.body, Scope()):
        for top in exprs:
            for expr in walk_exprs(top):
                if (isinstance(expr, MethodCall)
                        and isinstance(expr.receiver, Name)
                        and expr.receiver.ident == param_name
                        and not model.seed.is_pure_accessor(expr.name)):
                    return f"{param_name}.{expr.name}(...)", expr.line
                if (isinstance(expr, Assign)
                        and isinstance(expr.lhs, FieldAccess)
                        and isinstance(expr.lhs.target, Name)
                        and expr.lhs.target.ident == param_name):
                    return f"{param_name}.{expr.lhs.name} = ...", expr.line
    return None


def detect_itu(model: ProgramModel) -> list[Finding]:
    """Code 4: inconsistent type usage across a call boundary.

    Flags a call site when all three hold: a Name argument's declared type
    is a strict descendant of the callee's declared parameter type there;
    the callee mutates that parameter (non-accessor call or field write);
    and the caller invokes any method on the same name on a later line.

    Callees resolve through the class hierarchy from the receiver's static
    type: the enclosing class for g(...) and this.g(...), the declared type
    of x for x.g(...). Any other receiver, or an x of unknown type, falls
    back to every method of the same name and arity.
    """
    findings = []
    for class_name, file_path, decl, method in model.iter_methods():
        call_sites = []   # (call expr, arg idents, arg declared types, receiver type)
        name_uses = []    # (receiver ident, line) for x.m(...) anywhere
        for expr, scope in iter_scoped_exprs(decl, method):
            if not isinstance(expr, MethodCall):
                continue
            receiver = expr.receiver
            if isinstance(receiver, Name):
                name_uses.append((receiver.ident, expr.line, expr.name))
            types = [static_type_of(a, scope, model) if isinstance(a, Name) else None
                     for a in expr.args]
            if all(t is None for t in types):
                continue  # no typed Name argument that could be flagged
            idents = [a.ident if isinstance(a, Name) else None for a in expr.args]
            if receiver is None or (isinstance(receiver, Name) and receiver.ident == "this"):
                receiver_type = class_name
            elif isinstance(receiver, Name):
                receiver_type = static_type_of(receiver, scope, model)
            else:
                receiver_type = None
            call_sites.append((expr, idents, types, receiver_type))

        for call, idents, types, receiver_type in call_sites:
            resolution = "name-arity" if receiver_type is None else "hierarchy"
            emitted = False
            for callee_class, callee in resolve_callee(
                    call.name, len(call.args), model, receiver_type):
                for position, (ident, arg_type) in enumerate(zip(idents, types)):
                    if ident is None or arg_type is None:
                        continue
                    base_type = callee.params[position].type_name
                    if not is_descendant(arg_type, base_type, model.hierarchy):
                        continue
                    mutation = _param_mutation(callee, callee.params[position].name, model)
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
                    break  # one finding per call site
                if emitted:
                    break
    return findings


def detect_illicit_file_usage(model: ProgramModel) -> list[Finding]:
    """Code 5: a resource opened in a method without a close() on that name.

    Path-insensitive: a close anywhere in the same method body (branches,
    catch and finally blocks included) counts.
    """
    findings = []
    for class_name, file_path, decl, method in model.iter_methods():
        opened: dict[str, tuple[str, int]] = {}  # var -> (type, line of new)
        closed: set[str] = set()
        for stmt, exprs, _ in walk_body(method.body, Scope()):
            if (isinstance(stmt, LocalVarDecl)
                    and isinstance(stmt.init, New)
                    and stmt.init.type_name in model.seed.resource_types):
                opened.setdefault(stmt.name, (stmt.init.type_name, stmt.init.line))
            for top in exprs:
                for expr in walk_exprs(top):
                    if (isinstance(expr, Assign)
                            and isinstance(expr.lhs, Name)
                            and isinstance(expr.rhs, New)
                            and expr.rhs.type_name in model.seed.resource_types):
                        opened.setdefault(expr.lhs.ident, (expr.rhs.type_name, expr.rhs.line))
                    if (isinstance(expr, MethodCall)
                            and expr.name == "close"
                            and isinstance(expr.receiver, Name)):
                        closed.add(expr.receiver.ident)
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


def detect_undefined_loop(model: ProgramModel) -> list[Finding]:
    """Code 6: while/do-while/for whose body holds no real statement."""
    findings = []
    for class_name, file_path, decl, method in model.iter_methods():
        for stmt, _, _ in walk_body(method.body, Scope()):
            if isinstance(stmt, While):
                kind, body = "while", stmt.body
            elif isinstance(stmt, DoWhile):
                kind, body = "do-while", stmt.body
            elif isinstance(stmt, For):
                kind, body = "for", stmt.body
            else:
                continue
            if all(isinstance(s, Empty) for s in body.stmts):
                findings.append(_finding(
                    6, class_name, file_path, stmt.line,
                    f"empty {kind} loop body",
                    {"loop_kind": kind},
                ))
    return findings


_DETECTORS = {
    1: detect_lvalue_required,
    2: detect_incorrect_inheritance,
    3: detect_spaghetti,
    4: detect_itu,
    5: detect_illicit_file_usage,
    6: detect_undefined_loop,
}

ALL_RULES = frozenset(_DETECTORS)


def run_all(model: ProgramModel, enabled_rules=None) -> list[Finding]:
    """Run the enabled detectors and merge, sorted by (file, line, code)."""
    rules = ALL_RULES if enabled_rules is None else frozenset(enabled_rules)
    bad = rules - ALL_RULES
    if bad:
        raise ValueError(f"unknown rule codes: {sorted(bad)}")
    findings: list[Finding] = []
    for code in sorted(rules):
        findings.extend(_DETECTORS[code](model))
    findings.sort(key=Finding.sort_key)
    return findings
