"""AST node types for the analyzed Java subset.

Nodes are not changed after construction (plain slotted classes on the
`Record` base, tuple children): each `__init__` stores each field once
with `self.field = value`, and no other code in the package stores a
field, a rule of the source that a test checks over it. So the model and
every detector can share one parsed tree without copying it, and none of
them can change what another reads. A node stores its fields in fixed
slots, with no per-instance `__dict__`, which makes it smaller and quicker
to build; its class lists the field names, in constructor order, as
`_fields`. The `Expr` and `Stmt` bases declare empty `__slots__` so that
their subclasses stay dict-free too. Every node
carries the 1-based source line of its anchor token: the operator for
Binary/Assign, the keyword for loops and `new`, the name for calls.

A literal is one node, `Literal`, holding its token kind and lexeme: a
rule asks only whether a literal is a string. `null`, `this` and `super`
are `Name`s.

`model.walk_body` walks a method body: every statement and expression,
with the scope in effect at each. It uses an explicit stack, not
recursion, because the parser builds arbitrarily deep trees from flat
input, such as a long `a + a + ... + a` chain or `a.f().f()...` call chain.
"""

from __future__ import annotations

from faultlint.record import Record


class Expr(Record):
    __slots__ = ()


class Stmt(Record):
    __slots__ = ()


# --- expressions -----------------------------------------------------------

class Literal(Expr):
    __slots__ = ("kind", "lexeme", "line")

    def __init__(self, kind: str, lexeme: str, line: int):
        self.kind = kind  # lexer.NUMBER, STRING or CHAR; KEYWORD for true and false
        self.lexeme = lexeme  # exactly as in source, quotes included; "-1" for a negative number
        self.line = line


class Name(Expr):
    __slots__ = ("ident", "line")

    def __init__(self, ident: str, line: int):
        self.ident = ident
        self.line = line


class FieldAccess(Expr):
    __slots__ = ("target", "name", "line")

    def __init__(self, target: Expr, name: str, line: int):
        self.target = target
        self.name = name
        self.line = line


class MethodCall(Expr):
    __slots__ = ("receiver", "name", "args", "line")

    def __init__(self, receiver: Expr | None, name: str, args: tuple[Expr, ...], line: int):
        self.receiver = receiver  # None for bare calls like g(s)
        self.name = name
        self.args = args
        self.line = line


class New(Expr):
    __slots__ = ("type_name", "args", "line")

    def __init__(self, type_name: str, args: tuple[Expr, ...], line: int):
        self.type_name = type_name
        self.args = args
        self.line = line


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs", "line")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int):
        self.op = op  # one of == != < > <= >= + - * / && ||
        self.lhs = lhs
        self.rhs = rhs
        self.line = line


class Assign(Expr):
    __slots__ = ("lhs", "rhs", "line")

    def __init__(self, lhs: Expr, rhs: Expr, line: int):
        self.lhs = lhs
        self.rhs = rhs
        self.line = line


class UnaryIncDec(Expr):
    __slots__ = ("op", "operand", "prefix", "line")

    def __init__(self, op: str, operand: Expr, prefix: bool, line: int):
        self.op = op  # ++ or --
        self.operand = operand
        self.prefix = prefix
        self.line = line


class Paren(Expr):
    __slots__ = ("inner", "line")

    def __init__(self, inner: Expr, line: int):
        self.inner = inner
        self.line = line


# --- statements ------------------------------------------------------------

class Block(Stmt):
    __slots__ = ("stmts", "line")

    def __init__(self, stmts: tuple[Stmt, ...], line: int):
        self.stmts = stmts
        self.line = line


class LocalVarDecl(Stmt):
    __slots__ = ("type_name", "name", "init", "line")

    def __init__(self, type_name: str, name: str, init: Expr | None, line: int):
        self.type_name = type_name
        self.name = name
        self.init = init
        self.line = line


class ExprStmt(Stmt):
    __slots__ = ("expr", "line")

    def __init__(self, expr: Expr, line: int):
        self.expr = expr
        self.line = line


class If(Stmt):
    __slots__ = ("cond", "then_block", "else_block", "line")

    def __init__(self, cond: Expr, then_block: Block, else_block: Block | None, line: int):
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block
        self.line = line


class While(Stmt):
    __slots__ = ("cond", "body", "line")

    def __init__(self, cond: Expr, body: Block, line: int):
        self.cond = cond
        self.body = body
        self.line = line


class DoWhile(Stmt):
    __slots__ = ("body", "cond", "line")

    def __init__(self, body: Block, cond: Expr, line: int):
        self.body = body
        self.cond = cond
        self.line = line


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body", "line")

    def __init__(self, init: tuple[Stmt, ...], cond: Expr | None,
                 update: tuple[Expr, ...], body: Block, line: int):
        # () without an init; else one ExprStmt per expression, or one
        # LocalVarDecl per declarator
        self.init = init
        self.cond = cond
        self.update = update  # one Expr per comma-separated expression
        self.body = body
        self.line = line


class CatchClause(Record):
    __slots__ = ("type_name", "var_name", "body", "line")

    def __init__(self, type_name: str, var_name: str, body: Block, line: int):
        self.type_name = type_name
        self.var_name = var_name
        self.body = body
        self.line = line


class TryCatch(Stmt):
    __slots__ = ("try_block", "catches", "finally_block", "line")

    def __init__(self, try_block: Block, catches: tuple[CatchClause, ...],
                 finally_block: Block | None, line: int):
        self.try_block = try_block
        self.catches = catches
        self.finally_block = finally_block
        self.line = line


class Return(Stmt):
    __slots__ = ("expr", "line")

    def __init__(self, expr: Expr | None, line: int):
        self.expr = expr
        self.line = line


class Empty(Stmt):
    __slots__ = ("line",)

    def __init__(self, line: int):
        self.line = line


# --- declarations ----------------------------------------------------------

class TypedName(Record):
    __slots__ = ("type_name", "name")

    def __init__(self, type_name: str, name: str):
        self.type_name = type_name
        self.name = name


class MethodDecl(Record):
    __slots__ = ("name", "params", "body", "is_constructor", "line")

    def __init__(self, name: str, params: tuple[TypedName, ...], body: Block,
                 is_constructor: bool, line: int):
        self.name = name
        self.params = params
        self.body = body
        self.is_constructor = is_constructor
        self.line = line


class ClassDecl(Record):
    __slots__ = ("name", "extends_list", "implements_list", "fields", "methods", "line")

    def __init__(self, name: str, extends_list: tuple[str, ...], implements_list: tuple[str, ...],
                 fields: tuple[TypedName, ...], methods: tuple[MethodDecl, ...], line: int):
        self.name = name
        self.extends_list = extends_list  # length > 1 preserved, never collapsed
        self.implements_list = implements_list
        self.fields = fields
        self.methods = methods
        self.line = line


class ParseDiagnostic(Record):
    __slots__ = ("file_path", "line", "message", "skipped_span")

    def __init__(self, file_path: str, line: int, message: str, skipped_span: tuple[int, int]):
        self.file_path = file_path
        self.line = line
        self.message = message
        self.skipped_span = skipped_span  # (start line, end line), start <= end


class CompilationUnit(Record):
    __slots__ = ("file_path", "classes", "diagnostics")

    def __init__(self, file_path: str, classes: tuple[ClassDecl, ...],
                 diagnostics: tuple[ParseDiagnostic, ...]):
        self.file_path = file_path
        self.classes = classes
        self.diagnostics = diagnostics

