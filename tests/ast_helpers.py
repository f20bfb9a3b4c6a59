"""Test helpers over the AST: canonical source rendering, a structural
fingerprint, and a flat scoped expression walk.

unparse_unit renders a unit as canonical source. Parsing the rendered
text again yields a structurally identical AST (modulo line numbers);
the round-trip tests rely on this. Grouping is preserved because parsed
ASTs keep explicit Paren nodes.
"""

from __future__ import annotations

from faultlint.model import method_scope, walk_body
from faultlint.nodes import (
    Assign,
    Binary,
    Block,
    BoolLit,
    CharLit,
    ClassDecl,
    CompilationUnit,
    DoWhile,
    Empty,
    Expr,
    ExprStmt,
    FieldAccess,
    For,
    If,
    LocalVarDecl,
    MethodCall,
    MethodDecl,
    Name,
    New,
    NumLit,
    Paren,
    Return,
    Stmt,
    StringLit,
    TryCatch,
    UnaryIncDec,
    While,
    walk_exprs,
)
from faultlint.record import Record

_INDENT = "    "


def unparse_expr(expr: Expr) -> str:
    if isinstance(expr, (StringLit, NumLit, CharLit)):
        return expr.lexeme
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, FieldAccess):
        return f"{unparse_expr(expr.target)}.{expr.name}"
    if isinstance(expr, MethodCall):
        args = ", ".join(unparse_expr(a) for a in expr.args)
        if expr.receiver is None:
            return f"{expr.name}({args})"
        return f"{unparse_expr(expr.receiver)}.{expr.name}({args})"
    if isinstance(expr, New):
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return f"new {expr.type_name}({args})"
    if isinstance(expr, Binary):
        return f"{unparse_expr(expr.lhs)} {expr.op} {unparse_expr(expr.rhs)}"
    if isinstance(expr, Assign):
        return f"{unparse_expr(expr.lhs)} = {unparse_expr(expr.rhs)}"
    if isinstance(expr, UnaryIncDec):
        inner = unparse_expr(expr.operand)
        return f"{expr.op}{inner}" if expr.prefix else f"{inner}{expr.op}"
    if isinstance(expr, Paren):
        return f"({unparse_expr(expr.inner)})"
    raise TypeError(f"cannot unparse {type(expr).__name__}")


def _stmt_lines(stmt: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Block):
        return [pad + "{"] + _block_body(stmt, depth) + [pad + "}"]
    if isinstance(stmt, LocalVarDecl):
        if stmt.init is None:
            return [f"{pad}{stmt.type_name} {stmt.name};"]
        return [f"{pad}{stmt.type_name} {stmt.name} = {unparse_expr(stmt.init)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{unparse_expr(stmt.expr)};"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({unparse_expr(stmt.cond)})"]
        lines += _stmt_lines(stmt.then_block, depth)
        if stmt.else_block is not None:
            lines.append(pad + "else")
            lines += _stmt_lines(stmt.else_block, depth)
        return lines
    if isinstance(stmt, While):
        return [f"{pad}while ({unparse_expr(stmt.cond)})"] + _stmt_lines(stmt.body, depth)
    if isinstance(stmt, DoWhile):
        lines = [pad + "do"] + _stmt_lines(stmt.body, depth)
        lines.append(f"{pad}while ({unparse_expr(stmt.cond)});")
        return lines
    if isinstance(stmt, For):
        if not stmt.init:
            init = ""
        elif isinstance(stmt.init[0], LocalVarDecl):
            # `int a[], b` declares an int[] and an int: name the shorter type
            base = min((decl.type_name for decl in stmt.init), key=len)
            init = base + " " + ", ".join(
                decl.name + ("" if decl.type_name == base else "[]")
                + ("" if decl.init is None else f" = {unparse_expr(decl.init)}")
                for decl in stmt.init)
        else:
            assert all(isinstance(expr_stmt, ExprStmt) for expr_stmt in stmt.init)
            init = ", ".join(unparse_expr(expr_stmt.expr) for expr_stmt in stmt.init)
        cond = "" if stmt.cond is None else unparse_expr(stmt.cond)
        update = ", ".join(unparse_expr(expr) for expr in stmt.update)
        return [f"{pad}for ({init}; {cond}; {update})"] + _stmt_lines(stmt.body, depth)
    if isinstance(stmt, TryCatch):
        lines = [pad + "try"] + _stmt_lines(stmt.try_block, depth)
        for clause in stmt.catches:
            lines.append(f"{pad}catch ({clause.type_name} {clause.var_name})")
            lines += _stmt_lines(clause.body, depth)
        if stmt.finally_block is not None:
            lines.append(pad + "finally")
            lines += _stmt_lines(stmt.finally_block, depth)
        return lines
    if isinstance(stmt, Return):
        if stmt.expr is None:
            return [pad + "return;"]
        return [f"{pad}return {unparse_expr(stmt.expr)};"]
    if isinstance(stmt, Empty):
        return [pad + ";"]
    raise TypeError(f"cannot unparse {type(stmt).__name__}")


def _block_body(block: Block, depth: int) -> list[str]:
    lines: list[str] = []
    for stmt in block.stmts:
        lines += _stmt_lines(stmt, depth + 1)
    return lines


def _method_lines(method: MethodDecl, depth: int) -> list[str]:
    pad = _INDENT * depth
    params = ", ".join(f"{p.type_name} {p.name}" for p in method.params)
    # the return type is not retained by the AST, so every plain method
    # canonicalizes to void
    head = method.name if method.is_constructor else f"void {method.name}"
    lines = [f"{pad}{head}({params})", pad + "{"]
    lines += _block_body(method.body, depth)
    lines.append(pad + "}")
    return lines


def _class_lines(decl: ClassDecl) -> list[str]:
    head = f"class {decl.name}"
    if decl.extends_list:
        head += " extends " + ", ".join(decl.extends_list)
    if decl.implements_list:
        head += " implements " + ", ".join(decl.implements_list)
    lines = [head, "{"]
    for field in decl.fields:
        lines.append(f"{_INDENT}{field.type_name} {field.name};")
    for method in decl.methods:
        lines += _method_lines(method, 1)
    lines.append("}")
    return lines


def unparse_unit(unit: CompilationUnit) -> str:
    """Render a unit as canonical, re-parsable subset source."""
    lines: list[str] = []
    for decl in unit.classes:
        lines += _class_lines(decl)
    return "\n".join(lines) + ("\n" if lines else "")


def structure(node):
    """Line-insensitive structural fingerprint, for round-trip comparisons."""
    if isinstance(node, Record):
        parts = [type(node).__name__]
        for name in type(node)._fields:
            if name == "line":
                continue
            parts.append(structure(getattr(node, name)))
        return tuple(parts)
    if isinstance(node, tuple):
        return tuple(structure(item) for item in node)
    return node


def iter_scoped_exprs(class_decl: ClassDecl, method: MethodDecl):
    """Yield (expr, scope) for every expression in the body, source order.

    Includes all subexpressions. The yielded scope reflects declarations in
    effect at that point and is only valid at yield time (it keeps mutating
    as the walk proceeds).
    """
    for _, exprs, scope in walk_body(method.body, method_scope(class_decl, method)):
        for top in exprs:
            for expr in walk_exprs(top):
                yield expr, scope
