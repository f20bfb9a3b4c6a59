"""AST node types for the analyzed Java subset.

Nodes are immutable after construction (frozen dataclasses, tuple
children) so parsed units can be shared freely across concurrent detector
runs. They are slotted: a node stores its fields in fixed slots, with no
per-instance `__dict__`, which makes it smaller and quicker to build. The
`Expr` and `Stmt` bases declare empty `__slots__` so that their subclasses
stay dict-free too. Every node carries the 1-based source line of its
anchor token: the operator for Binary/Assign, the keyword for loops and
`new`, the name for calls.

The tree walkers use explicit stacks, not recursion, so trees of any
depth can be walked: the parser builds arbitrarily deep trees from flat
input, such as a long `a + a + ... + a` chain or `a.f().f()...` call chain.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


class Expr:
    __slots__ = ()


class Stmt:
    __slots__ = ()


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StringLit(Expr):
    lexeme: str  # with quotes, exactly as in source
    line: int


@dataclass(frozen=True, slots=True)
class NumLit(Expr):
    lexeme: str
    line: int


@dataclass(frozen=True, slots=True)
class BoolLit(Expr):
    value: bool
    line: int


@dataclass(frozen=True, slots=True)
class CharLit(Expr):
    lexeme: str
    line: int


@dataclass(frozen=True, slots=True)
class Name(Expr):
    ident: str
    line: int


@dataclass(frozen=True, slots=True)
class FieldAccess(Expr):
    target: Expr
    name: str
    line: int


@dataclass(frozen=True, slots=True)
class MethodCall(Expr):
    receiver: Expr | None  # None for bare calls like g(s)
    name: str
    args: tuple[Expr, ...]
    line: int


@dataclass(frozen=True, slots=True)
class New(Expr):
    type_name: str
    args: tuple[Expr, ...]
    line: int


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str  # one of == != < > <= >= + - * / && ||
    lhs: Expr
    rhs: Expr
    line: int


@dataclass(frozen=True, slots=True)
class Assign(Expr):
    lhs: Expr
    rhs: Expr
    line: int


@dataclass(frozen=True, slots=True)
class UnaryIncDec(Expr):
    op: str  # ++ or --
    operand: Expr
    prefix: bool
    line: int


@dataclass(frozen=True, slots=True)
class Paren(Expr):
    inner: Expr
    line: int


# --- statements ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]
    line: int


@dataclass(frozen=True, slots=True)
class LocalVarDecl(Stmt):
    type_name: str
    name: str
    init: Expr | None
    line: int


@dataclass(frozen=True, slots=True)
class ExprStmt(Stmt):
    expr: Expr
    line: int


@dataclass(frozen=True, slots=True)
class If(Stmt):
    cond: Expr
    then_block: Block
    else_block: Block | None
    line: int


@dataclass(frozen=True, slots=True)
class While(Stmt):
    cond: Expr
    body: Block
    line: int


@dataclass(frozen=True, slots=True)
class DoWhile(Stmt):
    body: Block
    cond: Expr
    line: int


@dataclass(frozen=True, slots=True)
class For(Stmt):
    init: Stmt | None  # LocalVarDecl or ExprStmt
    cond: Expr | None
    update: Expr | None
    body: Block
    line: int


@dataclass(frozen=True, slots=True)
class CatchClause:
    type_name: str
    var_name: str
    body: Block
    line: int


@dataclass(frozen=True, slots=True)
class TryCatch(Stmt):
    try_block: Block
    catches: tuple[CatchClause, ...]
    finally_block: Block | None
    line: int


@dataclass(frozen=True, slots=True)
class Return(Stmt):
    expr: Expr | None
    line: int


@dataclass(frozen=True, slots=True)
class Empty(Stmt):
    line: int


# --- declarations ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TypedName:
    type_name: str
    name: str


@dataclass(frozen=True, slots=True)
class MethodDecl:
    name: str
    params: tuple[TypedName, ...]
    body: Block
    is_constructor: bool
    line: int


@dataclass(frozen=True, slots=True)
class ClassDecl:
    name: str
    extends_list: tuple[str, ...]  # length > 1 preserved, never collapsed
    implements_list: tuple[str, ...]
    fields: tuple[TypedName, ...]
    methods: tuple[MethodDecl, ...]
    line: int


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    file_path: str
    line: int
    message: str
    skipped_span: tuple[int, int]  # (start line, end line), start <= end


@dataclass(frozen=True, slots=True)
class CompilationUnit:
    file_path: str
    classes: tuple[ClassDecl, ...]
    diagnostics: tuple[ParseDiagnostic, ...]


# --- traversal helpers -----------------------------------------------------

def walk_exprs(expr: Expr):
    """Yield expr and all its subexpressions, preorder, source order."""
    stack = [expr]
    push = stack.append
    while stack:
        expr = stack.pop()
        yield expr
        # children go on the stack last-first, so they come off in source order
        if isinstance(expr, FieldAccess):
            push(expr.target)
        elif isinstance(expr, MethodCall):
            stack.extend(reversed(expr.args))
            if expr.receiver is not None:
                push(expr.receiver)
        elif isinstance(expr, New):
            stack.extend(reversed(expr.args))
        elif isinstance(expr, (Binary, Assign)):
            push(expr.rhs)
            push(expr.lhs)
        elif isinstance(expr, UnaryIncDec):
            push(expr.operand)
        elif isinstance(expr, Paren):
            push(expr.inner)


def child_exprs(stmt: Stmt):
    """Direct expressions of a statement, excluding nested statements."""
    if isinstance(stmt, LocalVarDecl):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, DoWhile):
        yield stmt.cond
    elif isinstance(stmt, For):
        if stmt.cond is not None:
            yield stmt.cond
        if stmt.update is not None:
            yield stmt.update
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            yield stmt.expr


def child_stmts(stmt: Stmt):
    """Direct nested statements, source order."""
    if isinstance(stmt, Block):
        yield from stmt.stmts
    elif isinstance(stmt, If):
        yield stmt.then_block
        if stmt.else_block is not None:
            yield stmt.else_block
    elif isinstance(stmt, While):
        yield stmt.body
    elif isinstance(stmt, DoWhile):
        yield stmt.body
    elif isinstance(stmt, For):
        if stmt.init is not None:
            yield stmt.init
        yield stmt.body
    elif isinstance(stmt, TryCatch):
        yield stmt.try_block
        for clause in stmt.catches:
            yield clause.body
        if stmt.finally_block is not None:
            yield stmt.finally_block


def iter_stmts(root: Stmt):
    """Preorder walk over a statement tree, source order."""
    stack = [root]
    while stack:
        stmt = stack.pop()
        yield stmt
        stack.extend(reversed(tuple(child_stmts(stmt))))


def structure(node):
    """Line-insensitive structural fingerprint, for round-trip comparisons."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        parts = [type(node).__name__]
        for field in dataclasses.fields(node):
            if field.name == "line":
                continue
            parts.append(structure(getattr(node, field.name)))
        return tuple(parts)
    if isinstance(node, tuple):
        return tuple(structure(item) for item in node)
    return node
