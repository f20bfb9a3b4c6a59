"""Recursive-descent parser for the analyzed Java subset.

The parser is deliberately tolerant: it accepts one construct real javac
rejects (a comma-separated extends clause, which a detector must observe)
and it never aborts. Anything outside the subset is skipped to the next
`;` outside parentheses or past a brace-balanced `}` and reported as one
ParseDiagnostic per skip.
"""

from __future__ import annotations

from faultlint.lexer import CHAR, IDENTIFIER, NUMBER, STRING, LexError, scan
from faultlint.nodes import (
    Assign,
    Binary,
    Block,
    CatchClause,
    ClassDecl,
    CompilationUnit,
    DoWhile,
    Empty,
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
    ParseDiagnostic,
    Return,
    Stmt,
    TryCatch,
    TypedName,
    UnaryIncDec,
    While,
)
MODIFIER_KEYWORDS = frozenset(
    """
    public private protected static final abstract native synchronized
    transient volatile strictfp
    """.split()
)

PRIMITIVE_TYPES = frozenset(
    "boolean byte char short int long float double".split()
)

_LITERAL_KINDS = frozenset((NUMBER, STRING, CHAR))  # a Literal's kinds; KEYWORD for true, false

# Binary operator -> precedence, tighter binding higher. Every one is
# left-associative; `=` is parsed apart and is right-associative.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
}

# What a package or import directive may hold besides names.
_DIRECTIVE_PARTS = frozenset((".", "*", "static"))

# The parser recurses into blocks, if/loop bodies, parentheses, argument
# lists, the right side of `=`, prefix `++`/`--` and the right operand of a
# tighter-binding operator. At most MAX_NESTING of these may be open at once
# inside one class member, its body counting as one; deeper input is skipped
# with a diagnostic before it can exhaust the interpreter's recursion limit.
MAX_NESTING = 100


class _ParseFailure(Exception):
    """Internal signal that the current construct left the subset; its
    argument is the diagnostic message."""


class _NotAStatement(_ParseFailure):
    """A statement read to its end whose expression is no statement
    expression; recovery resumes at the cursor, just after it."""

    def __init__(self):
        super().__init__("not a statement")


# Keywords the parser models as names that are no variable.
_VALUE_NAMES = frozenset(("this", "super", "null"))


def _is_statement_expression(expr: Expr) -> bool:
    """JLS 14.8: an assignment, a `++`/`--`, a method call or a `new`. Each
    assignment of a chain `a = b = c` must assign to a variable (15.26): a
    name or a field access, in parentheses or not."""
    kind = type(expr)
    if kind is not Assign:
        return kind is UnaryIncDec or kind is MethodCall or kind is New
    while kind is Assign:
        target = expr.lhs
        while type(target) is Paren:
            target = target.inner
        if not (type(target) is FieldAccess
                or type(target) is Name and target.ident not in _VALUE_NAMES):
            return False
        expr = expr.rhs
        kind = type(expr)
    return True


# Kind of the two sentinel tokens that end the parser's token list. Their
# lexeme is "", which no real token has, so no lexeme query matches them
# and no cursor read needs a bounds test.
END = "end"
_END_TOKEN = (END, "")

# Lexemes that start a statement other than a declaration or an
# expression statement; "" is the end sentinel.
_STATEMENT_KEYWORDS = frozenset(("{", ";", "if", "while", "do", "for", "try", "return", ""))

# What ends the members of a class or the statements of a block.
_BODY_END = frozenset(("}", ""))


class _Parser:
    # A token is the lexer's pair (kind, lexeme): tok[0] is the kind, tok[1]
    # the lexeme; lines[pos] is the line of the token at pos.
    # Punctuator, operator and keyword lexemes each occur with one token kind
    # only, so the cursor compares lexemes alone: `at`/`expect` take a
    # lexeme, and only identifiers, literals and numbers are told apart by
    # kind (`expect_ident`, `tok[0]`). The parser owns both lists and ends
    # them in two END sentinels, so a read at pos or pos + 1 is always in
    # range; a sentinel's empty lexeme words "reached end of file".
    # `_type_name` is the one reader of the type grammar, `_declarator` of
    # declarators and `_parse_operand` of operands.

    def __init__(self, tokens: list[tuple[str, str]], lines: list[int], file_path: str):
        tokens += (_END_TOKEN, _END_TOKEN)
        last = lines[-1] if lines else 1
        lines += (last, last)
        self.tokens = tokens
        self.lines = lines
        self.pos = 0
        self.depth = 0  # open nested constructs, see MAX_NESTING
        self.file_path = file_path
        self.classes: list[ClassDecl] = []
        self.diagnostics: list[ParseDiagnostic] = []

    # -- cursor ---------------------------------------------------------

    def advance(self) -> int:
        """Consume the token at the cursor; returns its line."""
        pos = self.pos
        self.pos = pos + 1
        return self.lines[pos]

    def at(self, lexeme: str, offset: int = 0) -> bool:
        return self.tokens[self.pos + offset][1] == lexeme

    def expect(self, lexeme: str) -> int:
        """Consume the token at the cursor, which must be lexeme; returns its line."""
        pos = self.pos
        if self.tokens[pos][1] != lexeme:
            raise _ParseFailure(f"expected '{lexeme}' but {self._found(pos)}")
        self.pos = pos + 1
        return self.lines[pos]

    def expect_ident(self) -> str:
        """Consume the identifier at the cursor; returns its lexeme."""
        tok = self.tokens[self.pos]
        if tok[0] != IDENTIFIER:
            raise _ParseFailure(f"expected 'identifier' but {self._found(self.pos)}")
        self.pos += 1
        return tok[1]

    def _found(self, pos: int) -> str:
        """What a failure met at pos, for "expected X but ..." messages."""
        lexeme = self.tokens[pos][1]
        return f"found '{lexeme}'" if lexeme else "reached end of file"

    def _nest(self) -> int:
        """Open one nested construct; returns the new depth."""
        depth = self.depth + 1
        if depth > MAX_NESTING:
            raise _ParseFailure(f"nesting deeper than {MAX_NESTING} levels")
        self.depth = depth
        return depth

    def _skip_modifiers(self) -> None:
        tokens = self.tokens
        pos = self.pos
        while tokens[pos][1] in MODIFIER_KEYWORDS:
            pos += 1
        self.pos = pos

    # -- recovery ---------------------------------------------------------

    def diagnose(self, message: str, start_line: int, end_line: int) -> None:
        span = (start_line, max(start_line, end_line))
        self.diagnostics.append(
            ParseDiagnostic(self.file_path, span[0], message, span)
        )

    def skip_to_sync(self, start_pos: int) -> tuple[int, int]:
        """Skip from start_pos to the next `;` outside braces and parentheses,
        or past a brace-balanced `}` outside parentheses.

        A complete `{...}` group counts as a sync point; a `}` that would
        close the enclosing block is left unconsumed. A `;` or a group's `}`
        inside `(...)`, as in a `for` header or `run(new T() { ... });`,
        ends nothing; a `)` with no open `(` is skipped like any other
        token. The cost: inside a `(` never closed, the skip runs past a
        group's `}` as past a `;` to the enclosing block's end, so
        `foo(a { b } c = 1; }` loses `c = 1;`. Returns the skipped (start
        line, end line) span. Always consumes at least one token unless
        the very first is the enclosing `}` or input is exhausted.
        """
        tokens = self.tokens
        pos = start_pos
        depth = 0
        parens = 0
        while True:
            lexeme = tokens[pos][1]
            if not lexeme or (lexeme == "}" and depth == 0):  # end, or the block's end
                break
            pos += 1
            if lexeme == "{":
                depth += 1
            elif lexeme == "}":
                depth -= 1
                if depth == 0 and parens == 0:
                    break
            elif lexeme == "(":
                parens += 1
            elif lexeme == ")":
                if parens:
                    parens -= 1
            elif lexeme == ";" and depth == 0 and parens == 0:
                break
        self.pos = pos
        # the span ends on the last skipped token's line
        lines = self.lines
        start_line = lines[start_pos]
        return start_line, lines[pos - 1] if pos > start_pos else start_line

    def skip_top_level(self, start_pos: int) -> tuple[int, int]:
        """Skip past the token at start_pos to the next top-level `class`
        keyword (or end of input)."""
        tokens = self.tokens
        pos = start_pos
        depth = 0
        while True:
            lexeme = tokens[pos][1]
            if not lexeme or (lexeme == "class" and depth == 0 and pos > start_pos):
                break
            if lexeme == "{":
                depth += 1
            elif lexeme == "}" and depth:
                depth -= 1
            pos += 1
        self.pos = pos
        # the span ends on the last skipped token's line
        lines = self.lines
        start_line = lines[start_pos]
        return start_line, lines[pos - 1] if pos > start_pos else start_line

    # -- top level --------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        tokens = self.tokens
        while tokens[self.pos][1]:  # up to the end sentinel
            start_pos = self.pos
            if tokens[start_pos][1] in ("package", "import"):
                self._skip_simple_directive()
                continue
            try:
                self._skip_modifiers()
                lexeme = tokens[self.pos][1]
                if lexeme == "class":
                    self.classes.append(self.parse_class())
                elif lexeme:
                    raise _ParseFailure(f"unsupported top-level construct starting at '{lexeme}'")
                else:  # modifiers with no class after them
                    raise _ParseFailure(f"expected 'class' but {self._found(self.pos)}")
            except _ParseFailure as failure:
                self.depth = 0
                span = self.skip_top_level(start_pos)
                self.diagnose(str(failure), *span)
        return CompilationUnit(
            self.file_path, tuple(self.classes), tuple(self.diagnostics)
        )

    def _skip_simple_directive(self) -> None:
        """package/import: consume through the terminating `;`.

        A directive holds only names, `.`, `*` and `static`. At any other
        token it ends before that token, with a diagnostic over its lines,
        so a missing `;` cannot swallow the classes that follow.
        """
        tokens = self.tokens
        start = self.pos
        pos = start + 1
        while True:
            tok = tokens[pos]
            if tok[1] == ";":
                self.pos = pos + 1
                return
            if tok[0] != IDENTIFIER and tok[1] not in _DIRECTIVE_PARTS:
                break
            pos += 1
        self.pos = pos
        self.diagnose(f"expected ';' to end the {tokens[start][1]} directive but "
                      f"{self._found(pos)}",
                      self.lines[start], self.lines[pos - 1])

    def parse_class(self) -> ClassDecl:
        line = self.expect("class")
        name = self.expect_ident()
        # Comma-separated superclass lists are preserved verbatim: they are
        # detector input, not a parse failure.
        extends_list = self._type_list("extends")
        implements_list = self._type_list("implements")
        self.expect("{")

        fields: list[TypedName] = []
        methods: list[MethodDecl] = []
        tokens = self.tokens
        while tokens[self.pos][1] not in _BODY_END:
            start_pos = self.pos
            try:
                self.parse_member(name, fields, methods)
            except _ParseFailure as failure:
                self.depth = 0
                span = self.skip_to_sync(start_pos)
                self.diagnose(str(failure), *span)
        if self.at("}"):
            self.pos += 1
        else:
            end_line = self.lines[self.pos]
            self.diagnose(f"missing '}}' for class {name}", end_line, end_line)
        return ClassDecl(
            name=name,
            extends_list=extends_list,
            implements_list=implements_list,
            fields=tuple(fields),
            methods=tuple(methods),
            line=line,
        )

    def _type_list(self, keyword: str) -> tuple[str, ...]:
        """The type names of `keyword T, U, ...` at the cursor, else ()."""
        if self.tokens[self.pos][1] != keyword:
            return ()
        self.pos += 1
        names = [self.parse_type_name()]
        while self.at(","):
            self.pos += 1
            names.append(self.parse_type_name())
        return tuple(names)

    # -- class members ------------------------------------------------------

    def parse_member(
        self,
        class_name: str,
        fields: list[TypedName],
        methods: list[MethodDecl],
    ) -> None:
        tokens = self.tokens
        if tokens[self.pos][1] == ";":
            self.pos += 1
            return
        self._skip_modifiers()
        pos = self.pos
        lexeme = tokens[pos][1]

        # constructor: bare class name followed by a parameter list
        if lexeme == class_name and tokens[pos + 1][1] == "(":
            self.pos = pos + 1
            methods.append(self._parse_method_rest(lexeme, self.lines[pos], is_constructor=True))
            return

        if lexeme == "void":
            self.pos = pos + 1
            type_name = "void"
        else:
            type_name = self.parse_type_name()
        if tokens[self.pos + 1][1] == "(":
            line = self.lines[self.pos]
            methods.append(self._parse_method_rest(self.expect_ident(), line,
                                                   is_constructor=False))
            return
        while True:
            name, declared = self._declarator(type_name)
            fields.append(TypedName(declared, name))
            if self.at("="):  # parsed for syntax, not retained
                self.pos += 1
                self.parse_expr()
            if not self.at(","):
                break
            self.pos += 1
        self.expect(";")

    def _type_name(self) -> str | None:
        """A primitive or dotted type name with an optional `[]`, read at
        the cursor; None, having consumed nothing, if none starts there."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        name = tok[1]
        pos += 1
        if tok[0] == IDENTIFIER:
            while tokens[pos][1] == "." and tokens[pos + 1][0] == IDENTIFIER:
                name += "." + tokens[pos + 1][1]
                pos += 2
        elif name not in PRIMITIVE_TYPES:
            return None
        if tokens[pos][1] == "[" and tokens[pos + 1][1] == "]":
            name += "[]"
            pos += 2
        self.pos = pos
        return name

    def parse_type_name(self) -> str:
        name = self._type_name()
        if name is None:
            raise _ParseFailure(f"expected a type name but {self._found(self.pos)}")
        return name

    def _declarator(self, type_name: str) -> tuple[str, str]:
        """One `name` or C-style `name[]` with its declared type, the cursor
        just after it. The field, local and parameter readers loop over it,
        each handling a declarator (and its initializer) before reading the
        next, so those read before a failing one stay declared."""
        name = self.expect_ident()
        if self.at("[") and self.at("]", 1):
            self.pos += 2
            if not type_name.endswith("[]"):
                type_name += "[]"
        return name, type_name

    def _parse_method_rest(self, name: str, line: int, is_constructor: bool) -> MethodDecl:
        params: list[TypedName] = []
        self.expect("(")
        if not self.at(")"):
            while True:
                p_name, p_type = self._declarator(self.parse_type_name())
                params.append(TypedName(p_type, p_name))
                if not self.at(","):
                    break
                self.pos += 1
        self.expect(")")
        self._type_list("throws")
        if self.at(";"):
            body = Block((), self.advance())
        else:
            body = self.parse_block()
        return MethodDecl(
            name=name,
            params=tuple(params),
            body=body,
            is_constructor=is_constructor,
            line=line,
        )

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> Block:
        line = self.expect("{")
        depth = self._nest()
        stmts: list[Stmt] = []
        tokens = self.tokens
        while tokens[self.pos][1] not in _BODY_END:
            start_pos = self.pos
            try:
                self.parse_statement_into(stmts)
            except _NotAStatement as failure:
                self.depth = depth
                self.diagnose(str(failure), self.lines[start_pos], self.lines[self.pos - 1])
            except _ParseFailure as failure:
                self.depth = depth
                span = self.skip_to_sync(start_pos)
                self.diagnose(str(failure), *span)
        self.expect("}")
        self.depth = depth - 1
        return Block(tuple(stmts), line)

    def _substatement(self) -> Block:
        """Loop bodies and if branches are always Blocks."""
        if self.at("{"):
            return self.parse_block()
        depth = self._nest()
        stmts: list[Stmt] = []
        line = self.lines[self.pos]
        self.parse_statement_into(stmts)
        self.depth = depth - 1
        return Block(tuple(stmts), stmts[0].line if stmts else line)

    def parse_statement_into(self, out: list[Stmt]) -> None:
        tok = self.tokens[self.pos]
        lexeme = tok[1]
        if tok[0] == IDENTIFIER or lexeme not in _STATEMENT_KEYWORDS:
            type_name = self._decl_type()
            if type_name is None:
                expr = self.parse_expr()
                self.expect(";")
                if not _is_statement_expression(expr):
                    raise _NotAStatement()
                out.append(ExprStmt(expr, expr.line))
            else:
                self._local_decls(type_name, out)
                self.expect(";")
        elif lexeme == "{":
            out.append(self.parse_block())
        elif lexeme == ";":
            out.append(Empty(self.advance()))
        elif lexeme == "if":
            out.append(self._parse_if())
        elif lexeme == "while":
            line = self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            out.append(While(cond, self._substatement(), line))
        elif lexeme == "do":
            line = self.advance()
            body = self._substatement()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            out.append(DoWhile(body, cond, line))
        elif lexeme == "for":
            out.append(self._parse_for())
        elif lexeme == "try":
            out.append(self._parse_try())
        elif lexeme == "return":
            line = self.advance()
            expr = None if self.at(";") else self.parse_expr()
            self.expect(";")
            out.append(Return(expr, line))
        else:
            raise _ParseFailure(f"expected a statement but {self._found(self.pos)}")

    def _decl_type(self) -> str | None:
        """The type of a local declaration starting at the cursor (a type
        name followed by an identifier), or None with the cursor unmoved."""
        start = self.pos
        type_name = self._type_name()
        if type_name is not None and self.tokens[self.pos][0] == IDENTIFIER:
            return type_name
        self.pos = start
        return None

    def _local_decls(self, type_name: str, out: list[Stmt]) -> None:
        """Append a LocalVarDecl to out for each declarator of the list."""
        while True:
            line = self.lines[self.pos]
            name, declared = self._declarator(type_name)
            init = None
            if self.at("="):
                self.pos += 1
                init = self.parse_expr()
            out.append(LocalVarDecl(declared, name, init, line))
            if not self.at(","):
                return
            self.pos += 1

    def _parse_if(self) -> If:
        line = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_block = self._substatement()
        else_block = None
        if self.at("else"):
            self.pos += 1
            else_block = self._substatement()
        return If(cond, then_block, else_block, line)

    def _parse_for(self) -> For:
        line = self.expect("for")
        self.expect("(")
        init: list[Stmt] = []
        if self.at(";"):
            self.pos += 1
        else:
            type_name = self._decl_type()
            if type_name is None:
                init.extend(ExprStmt(expr, expr.line) for expr in self._expr_list())
            else:
                self._local_decls(type_name, init)
            self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        update = () if self.at(")") else self._expr_list()
        self.expect(")")
        body = self._substatement()
        exprs = [stmt.expr for stmt in init if type(stmt) is ExprStmt]
        if not all(_is_statement_expression(expr) for expr in exprs + list(update)):
            raise _NotAStatement()
        return For(tuple(init), cond, update, body, line)

    def _parse_try(self) -> TryCatch:
        line = self.expect("try")
        try_block = self.parse_block()
        catches: list[CatchClause] = []
        while self.at("catch"):
            catch_line = self.advance()
            self.expect("(")
            ex_type = self.parse_type_name()
            ex_name = self.expect_ident()
            self.expect(")")
            body = self.parse_block()
            catches.append(CatchClause(ex_type, ex_name, body, catch_line))
        finally_block = None
        if self.at("finally"):
            self.pos += 1
            finally_block = self.parse_block()
        return TryCatch(try_block, tuple(catches), finally_block, line)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        lhs = self._parse_binary(1)
        if self.tokens[self.pos][1] == "=":
            line = self.advance()
            depth = self._nest()
            rhs = self.parse_expr()
            self.depth = depth - 1
            return Assign(lhs, rhs, line)
        return lhs

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing over operators binding at least min_prec."""
        lhs = self._parse_operand()
        tokens = self.tokens
        while True:
            pos = self.pos
            op = tokens[pos][1]
            prec = _BINARY_PRECEDENCE.get(op)
            if prec is None or prec < min_prec:
                return lhs
            self.pos = pos + 1
            depth = self._nest()
            # left-associative: the right operand binds strictly tighter
            rhs = self._parse_binary(prec + 1)
            self.depth = depth - 1
            lhs = Binary(op, lhs, rhs, self.lines[pos])

    def _parse_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        depth = self._nest()
        args = () if self.at(")") else self._expr_list()
        self.expect(")")
        self.depth = depth - 1
        return args

    def _expr_list(self) -> tuple[Expr, ...]:
        """One or more comma-separated expressions: call arguments, or a
        for loop's init or update."""
        exprs = [self.parse_expr()]
        while self.at(","):
            self.pos += 1
            exprs.append(self.parse_expr())
        return tuple(exprs)

    def _parse_operand(self) -> Expr:
        """A prefix `++`/`--` applied to an operand, a negative numeric
        literal, or a primary followed by its `.name`, `.name(...)`,
        `name(...)` and postfix `++`/`--` suffixes."""
        tokens = self.tokens
        pos = self.pos
        kind, lexeme = tokens[pos]
        line = self.lines[pos]
        self.pos = pos + 1  # every operand starts by consuming one token
        if kind == IDENTIFIER:
            expr = Name(lexeme, line)
        elif kind in _LITERAL_KINDS or lexeme == "true" or lexeme == "false":
            expr = Literal(kind, lexeme, line)
        elif lexeme == "++" or lexeme == "--":
            depth = self._nest()
            operand = self._parse_operand()
            self.depth = depth - 1
            return UnaryIncDec(lexeme, operand, True, line)
        elif lexeme == "-" and tokens[pos + 1][0] == NUMBER:
            self.pos = pos + 2
            return Literal(NUMBER, "-" + tokens[pos + 1][1], line)
        elif lexeme == "(":
            depth = self._nest()
            inner = self.parse_expr()
            self.expect(")")
            self.depth = depth - 1
            expr = Paren(inner, line)
        elif lexeme == "null" or lexeme == "this" or lexeme == "super":
            # modeled as plain names; no detector gives them special meaning
            expr = Name(lexeme, line)
        elif lexeme == "new":
            if tokens[pos + 1][0] != IDENTIFIER:
                raise _ParseFailure(
                    f"expected a class name after 'new' but {self._found(pos + 1)}")
            type_name = self._type_name()
            if type_name.endswith("[]") or self.at("["):
                raise _ParseFailure("array creation is not supported")
            expr = New(type_name, self._parse_args(), line)
        elif not lexeme:  # the end sentinel
            raise _ParseFailure("expected an expression but reached end of file")
        else:
            raise _ParseFailure(f"unexpected '{lexeme}' in expression")
        while True:
            pos = self.pos
            lexeme = tokens[pos][1]
            if lexeme == ".":
                name_tok = tokens[pos + 1]
                if name_tok[0] != IDENTIFIER:
                    return expr
                self.pos = pos + 2
                if tokens[pos + 2][1] == "(":
                    expr = MethodCall(expr, name_tok[1], self._parse_args(),
                                      self.lines[pos + 1])
                else:
                    expr = FieldAccess(expr, name_tok[1], self.lines[pos + 1])
            elif lexeme == "(" and type(expr) is Name:
                expr = MethodCall(None, expr.ident, self._parse_args(), expr.line)
            elif lexeme == "++" or lexeme == "--":
                self.pos = pos + 1
                expr = UnaryIncDec(lexeme, expr, False, self.lines[pos])
            else:
                return expr


def parse_source(source_text: str, file_path: str = "<memory>",
                 memo: dict | None = None) -> CompilationUnit:
    """Tokenize and parse; a lexical error becomes a diagnostic-only unit.

    memo is the lexer's line table (`lexer.scan`): the texts of one scan may
    share one, so that each distinct line is tokenized once. Without it the
    call uses a fresh one."""
    try:
        tokens, lines = scan(source_text, {} if memo is None else memo)
    except LexError as err:
        diag = ParseDiagnostic(file_path, err.line, str(err), (err.line, err.line))
        return CompilationUnit(file_path, (), (diag,))
    return _Parser(tokens, lines, file_path).parse_unit()
