"""AST node types for the analyzed Java subset.

Nodes are immutable after construction (frozen dataclasses, tuple
children), so the model and every detector can share one parsed tree
without copying it, and none of them can change what another reads. They
are slotted: a node stores its fields in fixed slots, with no per-instance
`__dict__`, which makes it smaller and quicker to build. The `Expr` and
`Stmt` bases declare empty `__slots__` so that their subclasses stay
dict-free too. Every node carries the 1-based source line of its
anchor token: the operator for Binary/Assign, the keyword for loops and
`new`, the name for calls.

`walk_exprs` uses an explicit stack, not recursion, so expressions of any
depth can be walked: the parser builds arbitrarily deep trees from flat
input, such as a long `a + a + ... + a` chain or `a.f().f()...` call chain.
Statements are walked by `model.walk_body`, which also tracks scopes.
"""

from __future__ import annotations

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
        # commonest types first (no node type is subclassed); children go
        # on the stack last-first, so they come off in source order
        kind = type(expr)
        if kind is Name:
            continue  # a leaf
        if kind is MethodCall:
            stack.extend(reversed(expr.args))
            if expr.receiver is not None:
                push(expr.receiver)
        elif kind is Binary or kind is Assign:
            push(expr.rhs)
            push(expr.lhs)
        elif kind is FieldAccess:
            push(expr.target)
        elif kind is New:
            stack.extend(reversed(expr.args))
        elif kind is UnaryIncDec:
            push(expr.operand)
        elif kind is Paren:
            push(expr.inner)
