"""Recursive-descent parser for the analyzed Java subset.

The parser is deliberately tolerant: it accepts one construct real javac
rejects (a comma-separated extends clause, which a detector must observe)
and it never aborts. Anything outside the subset is skipped to the next
`;` or brace-balanced `}` and reported as one ParseDiagnostic per skip.
"""

from __future__ import annotations

from collections.abc import Iterator

from faultlint.lexer import CHAR, IDENTIFIER, NUMBER, STRING, LexError, tokenize
from faultlint.nodes import (
    Assign,
    Binary,
    Block,
    BoolLit,
    CatchClause,
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
    ParseDiagnostic,
    Return,
    Stmt,
    StringLit,
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


class _Parser:
    # A token is the lexer's tuple (kind, lexeme, line, column): tok[0] is
    # the kind, tok[1] the lexeme, tok[2] the line; the column is not read.
    # Punctuator, operator and keyword lexemes each occur with one token kind
    # only, so the cursor compares lexemes alone: `at`/`expect` take a
    # lexeme, and only identifiers, literals and numbers are told apart by
    # kind (`at_ident`, `expect_ident`). `_type_name` is the one reader of
    # the type grammar and `_declarators` the one reader of declarators.

    def __init__(self, tokens: list[tuple], file_path: str):
        self.tokens = tokens
        self.n = len(tokens)
        self.pos = 0
        self.depth = 0  # open nested constructs, see MAX_NESTING
        self.file_path = file_path
        self.classes: list[ClassDecl] = []
        self.diagnostics: list[ParseDiagnostic] = []

    # -- cursor ---------------------------------------------------------

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, lexeme: str, offset: int = 0) -> bool:
        i = self.pos + offset
        return i < self.n and self.tokens[i][1] == lexeme

    def at_ident(self, offset: int = 0) -> bool:
        i = self.pos + offset
        return i < self.n and self.tokens[i][0] == IDENTIFIER

    def expect(self, lexeme: str) -> tuple:
        pos = self.pos
        if pos >= self.n:
            raise _ParseFailure(f"expected '{lexeme}' but reached end of file")
        tok = self.tokens[pos]
        if tok[1] != lexeme:
            raise _ParseFailure(f"expected '{lexeme}' but found '{tok[1]}'")
        self.pos = pos + 1
        return tok

    def expect_ident(self) -> tuple:
        pos = self.pos
        if pos >= self.n:
            raise _ParseFailure("expected 'identifier' but reached end of file")
        tok = self.tokens[pos]
        if tok[0] != IDENTIFIER:
            raise _ParseFailure(f"expected 'identifier' but found '{tok[1]}'")
        self.pos = pos + 1
        return tok

    def _last_line(self) -> int:
        if not self.tokens:
            return 1
        return self.tokens[min(self.pos, self.n - 1)][2]

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
        while pos < self.n and tokens[pos][1] in MODIFIER_KEYWORDS:
            pos += 1
        self.pos = pos

    # -- recovery ---------------------------------------------------------

    def diagnose(self, message: str, start_line: int, end_line: int) -> None:
        span = (start_line, max(start_line, end_line))
        self.diagnostics.append(
            ParseDiagnostic(self.file_path, span[0], message, span)
        )

    def skip_to_sync(self, start_pos: int) -> tuple[int, int]:
        """Skip from start_pos to the next `;` or brace-balanced `}`.

        A complete `{...}` group counts as a sync point; a `}` that would
        close the enclosing block is left unconsumed. Returns the skipped
        (start line, end line) span. Always consumes at least one token
        unless the very first is the enclosing `}` or input is exhausted.
        """
        self.pos = start_pos
        start_line = self._last_line()
        end_line = start_line
        tokens = self.tokens
        n = self.n
        pos = start_pos
        depth = 0
        first = True
        while pos < n:
            tok = tokens[pos]
            lexeme = tok[1]
            if lexeme == "}":
                if depth == 0:
                    if first:
                        end_line = tok[2]
                    break
                depth -= 1
                end_line = tok[2]
                pos += 1
                if depth == 0:
                    break
            elif lexeme == "{":
                depth += 1
                end_line = tok[2]
                pos += 1
            elif depth == 0 and lexeme == ";":
                end_line = tok[2]
                pos += 1
                break
            else:
                end_line = tok[2]
                pos += 1
            first = False
        self.pos = pos
        return start_line, end_line

    def skip_top_level(self, start_pos: int) -> tuple[int, int]:
        """Skip past the token at start_pos to the next top-level `class`
        keyword (or end of input)."""
        self.pos = start_pos
        start_line = self._last_line()
        end_line = start_line
        tokens = self.tokens
        n = self.n
        pos = start_pos
        depth = 0
        first = True
        while pos < n:
            tok = tokens[pos]
            lexeme = tok[1]
            if depth == 0 and lexeme == "class" and not first:
                break
            if lexeme == "{":
                depth += 1
            elif lexeme == "}":
                depth = max(0, depth - 1)
            end_line = tok[2]
            pos += 1
            first = False
        self.pos = pos
        return start_line, end_line

    # -- top level --------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        tokens = self.tokens
        while self.pos < self.n:
            start_pos = self.pos
            if tokens[start_pos][1] in ("package", "import"):
                self._skip_simple_directive()
                continue
            try:
                self._skip_modifiers()
                if self.at("class"):
                    self.classes.append(self.parse_class())
                elif self.pos < self.n:
                    raise _ParseFailure("unsupported top-level construct starting at "
                                        f"'{tokens[self.pos][1]}'")
                else:
                    break
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
        while pos < self.n:
            tok = tokens[pos]
            if tok[1] == ";":
                self.pos = pos + 1
                return
            if tok[0] != IDENTIFIER and tok[1] not in _DIRECTIVE_PARTS:
                break
            pos += 1
        self.pos = pos
        found = f"found '{tokens[pos][1]}'" if pos < self.n else "reached end of file"
        self.diagnose(f"expected ';' to end the {tokens[start][1]} directive but {found}",
                      tokens[start][2], tokens[pos - 1][2])

    def parse_class(self) -> ClassDecl:
        class_tok = self.expect("class")
        name_tok = self.expect_ident()
        # Comma-separated superclass lists are preserved verbatim: they are
        # detector input, not a parse failure.
        extends_list = self._type_list("extends")
        implements_list = self._type_list("implements")
        self.expect("{")

        fields: list[TypedName] = []
        methods: list[MethodDecl] = []
        tokens = self.tokens
        while self.pos < self.n and tokens[self.pos][1] != "}":
            start_pos = self.pos
            try:
                self.parse_member(name_tok[1], fields, methods)
            except _ParseFailure as failure:
                self.depth = 0
                span = self.skip_to_sync(start_pos)
                self.diagnose(str(failure), *span)
        if self.pos < self.n:
            self.pos += 1
        else:
            self.diagnose(
                f"missing '}}' for class {name_tok[1]}",
                self._last_line(),
                self._last_line(),
            )
        return ClassDecl(
            name=name_tok[1],
            extends_list=extends_list,
            implements_list=implements_list,
            fields=tuple(fields),
            methods=tuple(methods),
            line=class_tok[2],
        )

    def _type_list(self, keyword: str) -> tuple[str, ...]:
        """The type names of `keyword T, U, ...` at the cursor, else ()."""
        if not self.at(keyword):
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
        if self.at(";"):
            self.pos += 1
            return
        self._skip_modifiers()

        # constructor: bare class name followed by a parameter list
        if self.at(class_name) and self.at("(", 1):
            name_tok = self.advance()
            methods.append(self._parse_method_rest(name_tok, is_constructor=True))
            return

        if self.at("void"):
            self.pos += 1
            type_name = "void"
        else:
            type_name = self.parse_type_name()
        if self.at("(", 1):
            name_tok = self.expect_ident()
            methods.append(self._parse_method_rest(name_tok, is_constructor=False))
            return
        for name_tok, declared in self._declarators(type_name):
            fields.append(TypedName(declared, name_tok[1]))
            if self.at("="):  # parsed for syntax, not retained
                self.pos += 1
                self.parse_expr()
        self.expect(";")

    def _type_name(self) -> str | None:
        """A primitive or dotted type name with an optional `[]`, read at
        the cursor; None, having consumed nothing, if none starts there."""
        tokens = self.tokens
        n = self.n
        pos = self.pos
        if pos >= n:
            return None
        tok = tokens[pos]
        name = tok[1]
        pos += 1
        if tok[0] == IDENTIFIER:
            while pos + 1 < n and tokens[pos][1] == "." and tokens[pos + 1][0] == IDENTIFIER:
                name += "." + tokens[pos + 1][1]
                pos += 2
        elif name not in PRIMITIVE_TYPES:
            return None
        if pos + 1 < n and tokens[pos][1] == "[" and tokens[pos + 1][1] == "]":
            name += "[]"
            pos += 2
        self.pos = pos
        return name

    def parse_type_name(self) -> str:
        name = self._type_name()
        if name is None:
            if self.pos >= self.n:
                raise _ParseFailure("expected a type name but reached end of file")
            raise _ParseFailure(
                f"expected a type name but found '{self.tokens[self.pos][1]}'"
            )
        return name

    def _declarators(self, type_name: str) -> Iterator[tuple[tuple, str]]:
        """Yield each `name` or C-style `name[]` of a comma-separated list
        with its declared type, the cursor just after it.

        A caller reads one declarator with next(). A list reader handles
        each declarator (and its initializer) before asking for the next,
        so those read before a failing one stay declared.
        """
        while True:
            name_tok = self.expect_ident()
            declared = type_name
            if self.at("[") and self.at("]", 1):
                self.pos += 2
                if not declared.endswith("[]"):
                    declared += "[]"
            yield name_tok, declared
            if not self.at(","):
                return
            self.pos += 1

    def _parse_method_rest(self, name_tok: tuple, is_constructor: bool) -> MethodDecl:
        params: list[TypedName] = []
        self.expect("(")
        if not self.at(")"):
            while True:
                p_name, p_type = next(self._declarators(self.parse_type_name()))
                params.append(TypedName(p_type, p_name[1]))
                if not self.at(","):
                    break
                self.pos += 1
        self.expect(")")
        self._type_list("throws")
        if self.at(";"):
            semi = self.advance()
            body = Block((), semi[2])
        else:
            body = self.parse_block()
        return MethodDecl(
            name=name_tok[1],
            params=tuple(params),
            body=body,
            is_constructor=is_constructor,
            line=name_tok[2],
        )

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> Block:
        open_tok = self.expect("{")
        depth = self._nest()
        stmts: list[Stmt] = []
        tokens = self.tokens
        n = self.n
        while self.pos < n and tokens[self.pos][1] != "}":
            start_pos = self.pos
            try:
                self.parse_statement_into(stmts)
            except _ParseFailure as failure:
                self.depth = depth
                span = self.skip_to_sync(start_pos)
                self.diagnose(str(failure), *span)
        self.expect("}")
        self.depth = depth - 1
        return Block(tuple(stmts), open_tok[2])

    def _substatement(self) -> Block:
        """Loop bodies and if branches are always Blocks."""
        if self.at("{"):
            return self.parse_block()
        depth = self._nest()
        stmts: list[Stmt] = []
        line = self._last_line()
        self.parse_statement_into(stmts)
        self.depth = depth - 1
        return Block(tuple(stmts), stmts[0].line if stmts else line)

    def parse_statement_into(self, out: list[Stmt]) -> None:
        if self.pos >= self.n:
            raise _ParseFailure("expected a statement but reached end of file")
        lexeme = self.tokens[self.pos][1]

        if lexeme == "{":
            out.append(self.parse_block())
        elif lexeme == ";":
            out.append(Empty(self.advance()[2]))
        elif lexeme == "if":
            out.append(self._parse_if())
        elif lexeme == "while":
            kw = self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            out.append(While(cond, self._substatement(), kw[2]))
        elif lexeme == "do":
            kw = self.advance()
            body = self._substatement()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            out.append(DoWhile(body, cond, kw[2]))
        elif lexeme == "for":
            out.append(self._parse_for())
        elif lexeme == "try":
            out.append(self._parse_try())
        elif lexeme == "return":
            kw = self.advance()
            expr = None if self.at(";") else self.parse_expr()
            self.expect(";")
            out.append(Return(expr, kw[2]))
        else:
            type_name = self._decl_type()
            if type_name is None:
                expr = self.parse_expr()
                self.expect(";")
                out.append(ExprStmt(expr, expr.line))
            else:
                # extend keeps the declarations read before a failing one
                out.extend(self._local_decls(type_name))
                self.expect(";")

    def _decl_type(self) -> str | None:
        """The type of a local declaration starting at the cursor (a type
        name followed by an identifier), or None with the cursor unmoved."""
        start = self.pos
        type_name = self._type_name()
        if type_name is not None and self.at_ident():
            return type_name
        self.pos = start
        return None

    def _local_decls(self, type_name: str) -> Iterator[LocalVarDecl]:
        for name_tok, declared in self._declarators(type_name):
            init = None
            if self.at("="):
                self.pos += 1
                init = self.parse_expr()
            yield LocalVarDecl(declared, name_tok[1], init, name_tok[2])

    def _parse_if(self) -> If:
        kw = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_block = self._substatement()
        else_block = None
        if self.at("else"):
            self.pos += 1
            else_block = self._substatement()
        return If(cond, then_block, else_block, kw[2])

    def _parse_for(self) -> For:
        kw = self.expect("for")
        self.expect("(")
        init: tuple[Stmt, ...] = ()
        if self.at(";"):
            self.pos += 1
        else:
            type_name = self._decl_type()
            if type_name is None:
                init = tuple(ExprStmt(expr, expr.line) for expr in self._expr_list())
            else:
                init = tuple(self._local_decls(type_name))
            self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        update = () if self.at(")") else self._expr_list()
        self.expect(")")
        return For(init, cond, update, self._substatement(), kw[2])

    def _parse_try(self) -> TryCatch:
        kw = self.expect("try")
        try_block = self.parse_block()
        catches: list[CatchClause] = []
        while self.at("catch"):
            catch_tok = self.advance()
            self.expect("(")
            ex_type = self.parse_type_name()
            ex_name = self.expect_ident()
            self.expect(")")
            body = self.parse_block()
            catches.append(CatchClause(ex_type, ex_name[1], body, catch_tok[2]))
        finally_block = None
        if self.at("finally"):
            self.pos += 1
            finally_block = self.parse_block()
        return TryCatch(try_block, tuple(catches), finally_block, kw[2])

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        lhs = self._parse_binary(1)
        pos = self.pos
        if pos < self.n and self.tokens[pos][1] == "=":
            eq = self.advance()
            depth = self._nest()
            rhs = self.parse_expr()
            self.depth = depth - 1
            return Assign(lhs, rhs, eq[2])
        return lhs

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing over operators binding at least min_prec."""
        lhs = self._parse_unary()
        tokens = self.tokens
        n = self.n
        while self.pos < n:
            op = tokens[self.pos]
            prec = _BINARY_PRECEDENCE.get(op[1])
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            depth = self._nest()
            # left-associative: the right operand binds strictly tighter
            rhs = self._parse_binary(prec + 1)
            self.depth = depth - 1
            lhs = Binary(op[1], lhs, rhs, op[2])
        return lhs

    def _parse_unary(self) -> Expr:
        pos = self.pos
        if pos < self.n:
            tok = self.tokens[pos]
            lexeme = tok[1]
            if lexeme == "++" or lexeme == "--":
                self.pos = pos + 1
                depth = self._nest()
                operand = self._parse_unary()
                self.depth = depth - 1
                return UnaryIncDec(lexeme, operand, True, tok[2])
            if lexeme == "-" and pos + 1 < self.n and self.tokens[pos + 1][0] == NUMBER:
                self.pos = pos + 2
                return NumLit("-" + self.tokens[pos + 1][1], tok[2])
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        n = self.n
        while True:
            pos = self.pos
            if pos >= n:
                return expr
            lexeme = tokens[pos][1]
            if lexeme == ".":
                if pos + 1 >= n or tokens[pos + 1][0] != IDENTIFIER:
                    return expr
                name_tok = tokens[pos + 1]
                self.pos = pos + 2
                if pos + 2 < n and tokens[pos + 2][1] == "(":
                    args = self._parse_args()
                    expr = MethodCall(expr, name_tok[1], args, name_tok[2])
                else:
                    expr = FieldAccess(expr, name_tok[1], name_tok[2])
            elif lexeme == "(" and isinstance(expr, Name):
                args = self._parse_args()
                expr = MethodCall(None, expr.ident, args, expr.line)
            elif lexeme == "++" or lexeme == "--":
                self.pos = pos + 1
                expr = UnaryIncDec(lexeme, expr, False, tokens[pos][2])
            else:
                return expr

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

    def _parse_primary(self) -> Expr:
        pos = self.pos
        if pos >= self.n:
            raise _ParseFailure("expected an expression but reached end of file")
        kind, lexeme, line, _ = self.tokens[pos]
        if kind == IDENTIFIER:
            self.pos = pos + 1
            return Name(lexeme, line)
        if kind == STRING:
            self.pos = pos + 1
            return StringLit(lexeme, line)
        if kind == CHAR:
            self.pos = pos + 1
            return CharLit(lexeme, line)
        if kind == NUMBER:
            self.pos = pos + 1
            return NumLit(lexeme, line)
        if lexeme == "true" or lexeme == "false":
            self.pos = pos + 1
            return BoolLit(lexeme == "true", line)
        if lexeme == "null" or lexeme == "this" or lexeme == "super":
            # modeled as plain names; no detector gives them special meaning
            self.pos = pos + 1
            return Name(lexeme, line)
        if lexeme == "new":
            self.pos = pos + 1
            if not self.at_ident():
                found = self.tokens[pos + 1][1] if pos + 1 < self.n else "end of file"
                raise _ParseFailure(f"expected a class name after 'new', found '{found}'")
            type_name = self._type_name()
            if type_name.endswith("[]") or self.at("["):
                raise _ParseFailure("array creation is not supported")
            return New(type_name, self._parse_args(), line)
        if lexeme == "(":
            self.pos = pos + 1
            depth = self._nest()
            inner = self.parse_expr()
            self.expect(")")
            self.depth = depth - 1
            return Paren(inner, line)
        raise _ParseFailure(f"unexpected '{lexeme}' in expression")


def parse_unit(tokens: list[tuple], file_path: str = "<memory>") -> CompilationUnit:
    """Parse a token list into a CompilationUnit. Never raises."""
    return _Parser(tokens, file_path).parse_unit()


def parse_source(source_text: str, file_path: str = "<memory>") -> CompilationUnit:
    """Tokenize and parse; a lexical error becomes a diagnostic-only unit."""
    try:
        tokens = tokenize(source_text)
    except LexError as err:
        diag = ParseDiagnostic(file_path, err.line, str(err), (err.line, err.line))
        return CompilationUnit(file_path, (), (diag,))
    return parse_unit(tokens, file_path)
