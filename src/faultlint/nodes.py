"""AST node types for the analyzed Java subset.

Nodes are immutable after construction (plain slotted classes on the
`Record` base, which refuses assignment and deletion; tuple children), so
the model and every detector can share one parsed tree without copying
it, and none of them can change what another reads. A node stores its
fields in fixed slots, with no per-instance `__dict__`, which makes it
smaller and quicker to build; its class lists the field names, in
constructor order, as `_fields`. The `Expr` and `Stmt` bases declare empty
`__slots__` so that their subclasses stay dict-free too. Every node
carries the 1-based source line of its anchor token: the operator for
Binary/Assign, the keyword for loops and `new`, the name for calls.

`model.walk_body` walks a method body: every statement and expression,
with the scope in effect at each. It uses an explicit stack, not
recursion, because the parser builds arbitrarily deep trees from flat
input, such as a long `a + a + ... + a` chain or `a.f().f()...` call chain.
"""

from __future__ import annotations

from faultlint.record import Record, _set


class Expr(Record):
    __slots__ = ()


class Stmt(Record):
    __slots__ = ()


# --- expressions -----------------------------------------------------------

class StringLit(Expr):
    __slots__ = ("lexeme", "line")

    def __init__(self, lexeme: str, line: int):
        _set(self, "lexeme", lexeme)  # with quotes, exactly as in source
        _set(self, "line", line)


class NumLit(Expr):
    __slots__ = ("lexeme", "line")

    def __init__(self, lexeme: str, line: int):
        _set(self, "lexeme", lexeme)
        _set(self, "line", line)


class BoolLit(Expr):
    __slots__ = ("value", "line")

    def __init__(self, value: bool, line: int):
        _set(self, "value", value)
        _set(self, "line", line)


class CharLit(Expr):
    __slots__ = ("lexeme", "line")

    def __init__(self, lexeme: str, line: int):
        _set(self, "lexeme", lexeme)
        _set(self, "line", line)


class Name(Expr):
    __slots__ = ("ident", "line")

    def __init__(self, ident: str, line: int):
        _set(self, "ident", ident)
        _set(self, "line", line)


class FieldAccess(Expr):
    __slots__ = ("target", "name", "line")

    def __init__(self, target: Expr, name: str, line: int):
        _set(self, "target", target)
        _set(self, "name", name)
        _set(self, "line", line)


class MethodCall(Expr):
    __slots__ = ("receiver", "name", "args", "line")

    def __init__(self, receiver: Expr | None, name: str, args: tuple[Expr, ...], line: int):
        _set(self, "receiver", receiver)  # None for bare calls like g(s)
        _set(self, "name", name)
        _set(self, "args", args)
        _set(self, "line", line)


class New(Expr):
    __slots__ = ("type_name", "args", "line")

    def __init__(self, type_name: str, args: tuple[Expr, ...], line: int):
        _set(self, "type_name", type_name)
        _set(self, "args", args)
        _set(self, "line", line)


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs", "line")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int):
        _set(self, "op", op)  # one of == != < > <= >= + - * / && ||
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "line", line)


class Assign(Expr):
    __slots__ = ("lhs", "rhs", "line")

    def __init__(self, lhs: Expr, rhs: Expr, line: int):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "line", line)


class UnaryIncDec(Expr):
    __slots__ = ("op", "operand", "prefix", "line")

    def __init__(self, op: str, operand: Expr, prefix: bool, line: int):
        _set(self, "op", op)  # ++ or --
        _set(self, "operand", operand)
        _set(self, "prefix", prefix)
        _set(self, "line", line)


class Paren(Expr):
    __slots__ = ("inner", "line")

    def __init__(self, inner: Expr, line: int):
        _set(self, "inner", inner)
        _set(self, "line", line)


# --- statements ------------------------------------------------------------

class Block(Stmt):
    __slots__ = ("stmts", "line")

    def __init__(self, stmts: tuple[Stmt, ...], line: int):
        _set(self, "stmts", stmts)
        _set(self, "line", line)


class LocalVarDecl(Stmt):
    __slots__ = ("type_name", "name", "init", "line")

    def __init__(self, type_name: str, name: str, init: Expr | None, line: int):
        _set(self, "type_name", type_name)
        _set(self, "name", name)
        _set(self, "init", init)
        _set(self, "line", line)


class ExprStmt(Stmt):
    __slots__ = ("expr", "line")

    def __init__(self, expr: Expr, line: int):
        _set(self, "expr", expr)
        _set(self, "line", line)


class If(Stmt):
    __slots__ = ("cond", "then_block", "else_block", "line")

    def __init__(self, cond: Expr, then_block: Block, else_block: Block | None, line: int):
        _set(self, "cond", cond)
        _set(self, "then_block", then_block)
        _set(self, "else_block", else_block)
        _set(self, "line", line)


class While(Stmt):
    __slots__ = ("cond", "body", "line")

    def __init__(self, cond: Expr, body: Block, line: int):
        _set(self, "cond", cond)
        _set(self, "body", body)
        _set(self, "line", line)


class DoWhile(Stmt):
    __slots__ = ("body", "cond", "line")

    def __init__(self, body: Block, cond: Expr, line: int):
        _set(self, "body", body)
        _set(self, "cond", cond)
        _set(self, "line", line)


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body", "line")

    def __init__(self, init: tuple[Stmt, ...], cond: Expr | None,
                 update: tuple[Expr, ...], body: Block, line: int):
        # () without an init; else one ExprStmt per expression, or one
        # LocalVarDecl per declarator
        _set(self, "init", init)
        _set(self, "cond", cond)
        _set(self, "update", update)  # one Expr per comma-separated expression
        _set(self, "body", body)
        _set(self, "line", line)


class CatchClause(Record):
    __slots__ = ("type_name", "var_name", "body", "line")

    def __init__(self, type_name: str, var_name: str, body: Block, line: int):
        _set(self, "type_name", type_name)
        _set(self, "var_name", var_name)
        _set(self, "body", body)
        _set(self, "line", line)


class TryCatch(Stmt):
    __slots__ = ("try_block", "catches", "finally_block", "line")

    def __init__(self, try_block: Block, catches: tuple[CatchClause, ...],
                 finally_block: Block | None, line: int):
        _set(self, "try_block", try_block)
        _set(self, "catches", catches)
        _set(self, "finally_block", finally_block)
        _set(self, "line", line)


class Return(Stmt):
    __slots__ = ("expr", "line")

    def __init__(self, expr: Expr | None, line: int):
        _set(self, "expr", expr)
        _set(self, "line", line)


class Empty(Stmt):
    __slots__ = ("line",)

    def __init__(self, line: int):
        _set(self, "line", line)


# --- declarations ----------------------------------------------------------

class TypedName(Record):
    __slots__ = ("type_name", "name")

    def __init__(self, type_name: str, name: str):
        _set(self, "type_name", type_name)
        _set(self, "name", name)


class MethodDecl(Record):
    __slots__ = ("name", "params", "body", "is_constructor", "line")

    def __init__(self, name: str, params: tuple[TypedName, ...], body: Block,
                 is_constructor: bool, line: int):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "body", body)
        _set(self, "is_constructor", is_constructor)
        _set(self, "line", line)


class ClassDecl(Record):
    __slots__ = ("name", "extends_list", "implements_list", "fields", "methods", "line")

    def __init__(self, name: str, extends_list: tuple[str, ...], implements_list: tuple[str, ...],
                 fields: tuple[TypedName, ...], methods: tuple[MethodDecl, ...], line: int):
        _set(self, "name", name)
        _set(self, "extends_list", extends_list)  # length > 1 preserved, never collapsed
        _set(self, "implements_list", implements_list)
        _set(self, "fields", fields)
        _set(self, "methods", methods)
        _set(self, "line", line)


class ParseDiagnostic(Record):
    __slots__ = ("file_path", "line", "message", "skipped_span")

    def __init__(self, file_path: str, line: int, message: str, skipped_span: tuple[int, int]):
        _set(self, "file_path", file_path)
        _set(self, "line", line)
        _set(self, "message", message)
        _set(self, "skipped_span", skipped_span)  # (start line, end line), start <= end


class CompilationUnit(Record):
    __slots__ = ("file_path", "classes", "diagnostics")

    def __init__(self, file_path: str, classes: tuple[ClassDecl, ...],
                 diagnostics: tuple[ParseDiagnostic, ...]):
        _set(self, "file_path", file_path)
        _set(self, "classes", classes)
        _set(self, "diagnostics", diagnostics)

