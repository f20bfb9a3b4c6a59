"""Recursive-descent parser for the analyzed Java subset.

The parser is deliberately tolerant: it accepts one construct real javac
rejects (a comma-separated extends clause, which a detector must observe)
and it never aborts. Anything outside the subset is skipped to the next
`;` or brace-balanced `}` and reported as one ParseDiagnostic per skip.
"""

from __future__ import annotations

from faultlint.lexer import LexError, tokenize
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
from faultlint.tokens import (
    CHAR,
    IDENTIFIER,
    KEYWORD,
    MODIFIER_KEYWORDS,
    NUMBER,
    OPERATOR,
    PRIMITIVE_TYPES,
    PUNCTUATOR,
    STRING,
    Token,
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

# The parser recurses into blocks, if/loop bodies, parentheses, argument
# lists, the right side of `=`, prefix `++`/`--` and the right operand of a
# tighter-binding operator. At most MAX_NESTING of these may be open at once
# inside one class member, its body counting as one; deeper input is skipped
# with a diagnostic before it can exhaust the interpreter's recursion limit.
MAX_NESTING = 100


class _ParseFailure(Exception):
    """Internal signal that the current construct left the subset."""

    def __init__(self, message: str, token: Token | None):
        super().__init__(message)
        self.message = message
        self.token = token


class _Parser:
    # Punctuator, operator and keyword lexemes each occur with one token kind
    # only, so the hot paths compare lexemes alone.

    def __init__(self, tokens: list[Token], file_path: str):
        self.tokens = tokens
        self.n = len(tokens)
        self.pos = 0
        self.depth = 0  # open nested constructs, see MAX_NESTING
        self.file_path = file_path
        self.classes: list[ClassDecl] = []
        self.diagnostics: list[ParseDiagnostic] = []

    # -- cursor ---------------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < self.n else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= self.n

    def at(self, kind: str, lexeme: str | None = None, offset: int = 0) -> bool:
        i = self.pos + offset
        if i >= self.n:
            return False
        tok = self.tokens[i]
        return tok.kind == kind and (lexeme is None or tok.lexeme == lexeme)

    def expect(self, kind: str, lexeme: str | None = None) -> Token:
        pos = self.pos
        if pos >= self.n:
            want = lexeme or kind
            raise _ParseFailure(f"expected '{want}' but reached end of file", None)
        tok = self.tokens[pos]
        if tok.kind != kind or (lexeme is not None and tok.lexeme != lexeme):
            want = lexeme or kind
            raise _ParseFailure(f"expected '{want}' but found '{tok.lexeme}'", tok)
        self.pos = pos + 1
        return tok

    def _last_line(self) -> int:
        if not self.tokens:
            return 1
        return self.tokens[min(self.pos, self.n - 1)].line

    def _nest(self) -> int:
        """Open one nested construct; returns the new depth."""
        depth = self.depth + 1
        if depth > MAX_NESTING:
            raise _ParseFailure(f"nesting deeper than {MAX_NESTING} levels", self.peek())
        self.depth = depth
        return depth

    def _skip_modifiers(self) -> None:
        tokens = self.tokens
        pos = self.pos
        while pos < self.n and tokens[pos].lexeme in MODIFIER_KEYWORDS:
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
            lexeme = tok.lexeme
            if lexeme == "}":
                if depth == 0:
                    if first:
                        end_line = tok.line
                    break
                depth -= 1
                end_line = tok.line
                pos += 1
                if depth == 0:
                    break
            elif lexeme == "{":
                depth += 1
                end_line = tok.line
                pos += 1
            elif depth == 0 and lexeme == ";":
                end_line = tok.line
                pos += 1
                break
            else:
                end_line = tok.line
                pos += 1
            first = False
        self.pos = pos
        return start_line, end_line

    def skip_top_level(self, start_pos: int, consume_first: bool) -> tuple[int, int]:
        """Skip to the next top-level `class` keyword (or end of input)."""
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
            lexeme = tok.lexeme
            if depth == 0 and lexeme == "class" and not (first and consume_first):
                break
            if lexeme == "{":
                depth += 1
            elif lexeme == "}":
                depth = max(0, depth - 1)
            end_line = tok.line
            pos += 1
            first = False
        self.pos = pos
        return start_line, end_line

    # -- top level --------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        while not self.at_end():
            start_pos = self.pos
            tok = self.peek()
            assert tok is not None
            if tok.kind == KEYWORD and tok.lexeme in ("package", "import"):
                self._skip_simple_directive()
                continue
            try:
                self._skip_modifiers()
                if self.at(KEYWORD, "class"):
                    self.classes.append(self.parse_class())
                else:
                    bad = self.peek()
                    if bad is None:
                        break
                    raise _ParseFailure(
                        f"unsupported top-level construct starting at '{bad.lexeme}'", bad
                    )
            except _ParseFailure as failure:
                self.depth = 0
                span = self.skip_top_level(start_pos, consume_first=True)
                self.diagnose(failure.message, *span)
        return CompilationUnit(
            self.file_path, tuple(self.classes), tuple(self.diagnostics)
        )

    def _skip_simple_directive(self) -> None:
        # package/import: consume through the terminating semicolon
        while not self.at_end():
            tok = self.advance()
            if tok.kind == PUNCTUATOR and tok.lexeme == ";":
                break

    def parse_class(self) -> ClassDecl:
        class_tok = self.expect(KEYWORD, "class")
        name_tok = self.expect(IDENTIFIER)
        extends_list: list[str] = []
        implements_list: list[str] = []
        if self.at(KEYWORD, "extends"):
            self.advance()
            # Comma-separated superclass lists are preserved verbatim:
            # they are detector input, not a parse failure.
            extends_list.append(self.parse_type_name())
            while self.at(PUNCTUATOR, ","):
                self.advance()
                extends_list.append(self.parse_type_name())
        if self.at(KEYWORD, "implements"):
            self.advance()
            implements_list.append(self.parse_type_name())
            while self.at(PUNCTUATOR, ","):
                self.advance()
                implements_list.append(self.parse_type_name())
        self.expect(PUNCTUATOR, "{")

        fields: list[TypedName] = []
        methods: list[MethodDecl] = []
        while not self.at_end() and not self.at(PUNCTUATOR, "}"):
            start_pos = self.pos
            try:
                self.parse_member(name_tok.lexeme, fields, methods)
            except _ParseFailure as failure:
                self.depth = 0
                span = self.skip_to_sync(start_pos)
                self.diagnose(failure.message, *span)
        if self.at(PUNCTUATOR, "}"):
            self.advance()
        else:
            self.diagnose(
                f"missing '}}' for class {name_tok.lexeme}",
                self._last_line(),
                self._last_line(),
            )
        return ClassDecl(
            name=name_tok.lexeme,
            extends_list=tuple(extends_list),
            implements_list=tuple(implements_list),
            fields=tuple(fields),
            methods=tuple(methods),
            line=class_tok.line,
        )

    # -- class members ------------------------------------------------------

    def parse_member(
        self,
        class_name: str,
        fields: list[TypedName],
        methods: list[MethodDecl],
    ) -> None:
        if self.at(PUNCTUATOR, ";"):
            self.advance()
            return
        self._skip_modifiers()

        # constructor: bare class name followed by a parameter list
        if (self.at(IDENTIFIER, class_name) and self.at(PUNCTUATOR, "(", offset=1)):
            name_tok = self.advance()
            methods.append(self._parse_method_rest(name_tok, is_constructor=True))
            return

        type_name = self.parse_member_type()
        name_tok = self.expect(IDENTIFIER)
        if self.at(PUNCTUATOR, "("):
            methods.append(self._parse_method_rest(name_tok, is_constructor=False))
            return
        self._parse_field_declarators(type_name, name_tok, fields)

    def parse_member_type(self) -> str:
        if self.at(KEYWORD, "void"):
            self.advance()
            return "void"
        return self.parse_type_name()

    def parse_type_name(self) -> str:
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("expected a type name but reached end of file", None)
        if tok.kind == KEYWORD and tok.lexeme in PRIMITIVE_TYPES:
            name = self.advance().lexeme
        elif tok.kind == IDENTIFIER:
            name = self.advance().lexeme
            while self.at(PUNCTUATOR, ".") and self.at(IDENTIFIER, offset=1):
                self.advance()
                name += "." + self.advance().lexeme
        else:
            raise _ParseFailure(f"expected a type name but found '{tok.lexeme}'", tok)
        if self.at(PUNCTUATOR, "[") and self.at(PUNCTUATOR, "]", offset=1):
            self.advance()
            self.advance()
            name += "[]"
        return name

    def _array_suffix(self, type_name: str) -> str:
        # C-style suffix on the declarator name: `String arg[]`
        if self.at(PUNCTUATOR, "[") and self.at(PUNCTUATOR, "]", offset=1):
            self.advance()
            self.advance()
            if not type_name.endswith("[]"):
                type_name += "[]"
        return type_name

    def _parse_method_rest(self, name_tok: Token, is_constructor: bool) -> MethodDecl:
        params: list[TypedName] = []
        self.expect(PUNCTUATOR, "(")
        if not self.at(PUNCTUATOR, ")"):
            while True:
                p_type = self.parse_type_name()
                p_name = self.expect(IDENTIFIER)
                p_type = self._array_suffix(p_type)
                params.append(TypedName(p_type, p_name.lexeme))
                if self.at(PUNCTUATOR, ","):
                    self.advance()
                    continue
                break
        self.expect(PUNCTUATOR, ")")
        if self.at(KEYWORD, "throws"):
            self.advance()
            self.parse_type_name()
            while self.at(PUNCTUATOR, ","):
                self.advance()
                self.parse_type_name()
        if self.at(PUNCTUATOR, ";"):
            semi = self.advance()
            body = Block((), semi.line)
        else:
            body = self.parse_block()
        return MethodDecl(
            name=name_tok.lexeme,
            params=tuple(params),
            body=body,
            is_constructor=is_constructor,
            line=name_tok.line,
        )

    def _parse_field_declarators(
        self, type_name: str, first_name: Token, fields: list[TypedName]
    ) -> None:
        # initializer expressions are parsed for syntax but not retained
        name_tok = first_name
        while True:
            declared = self._array_suffix(type_name)
            fields.append(TypedName(declared, name_tok.lexeme))
            if self.at(OPERATOR, "="):
                self.advance()
                self.parse_expr()
            if self.at(PUNCTUATOR, ","):
                self.advance()
                name_tok = self.expect(IDENTIFIER)
                continue
            break
        self.expect(PUNCTUATOR, ";")

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> Block:
        open_tok = self.expect(PUNCTUATOR, "{")
        depth = self._nest()
        stmts: list[Stmt] = []
        tokens = self.tokens
        n = self.n
        while self.pos < n and tokens[self.pos].lexeme != "}":
            start_pos = self.pos
            try:
                self.parse_statement_into(stmts)
            except _ParseFailure as failure:
                self.depth = depth
                span = self.skip_to_sync(start_pos)
                self.diagnose(failure.message, *span)
        self.expect(PUNCTUATOR, "}")
        self.depth = depth - 1
        return Block(tuple(stmts), open_tok.line)

    def _substatement(self) -> Block:
        """Loop bodies and if branches are always Blocks."""
        if self.at(PUNCTUATOR, "{"):
            return self.parse_block()
        depth = self._nest()
        stmts: list[Stmt] = []
        line = self._last_line()
        self.parse_statement_into(stmts)
        self.depth = depth - 1
        return Block(tuple(stmts), stmts[0].line if stmts else line)

    def parse_statement_into(self, out: list[Stmt]) -> None:
        if self.pos >= self.n:
            raise _ParseFailure("expected a statement but reached end of file", None)
        lexeme = self.tokens[self.pos].lexeme

        if lexeme == "{":
            out.append(self.parse_block())
        elif lexeme == ";":
            out.append(Empty(self.advance().line))
        elif lexeme == "if":
            out.append(self._parse_if())
        elif lexeme == "while":
            kw = self.advance()
            self.expect(PUNCTUATOR, "(")
            cond = self.parse_expr()
            self.expect(PUNCTUATOR, ")")
            out.append(While(cond, self._substatement(), kw.line))
        elif lexeme == "do":
            kw = self.advance()
            body = self._substatement()
            self.expect(KEYWORD, "while")
            self.expect(PUNCTUATOR, "(")
            cond = self.parse_expr()
            self.expect(PUNCTUATOR, ")")
            self.expect(PUNCTUATOR, ";")
            out.append(DoWhile(body, cond, kw.line))
        elif lexeme == "for":
            out.append(self._parse_for())
        elif lexeme == "try":
            out.append(self._parse_try())
        elif lexeme == "return":
            kw = self.advance()
            expr = None if self.at(PUNCTUATOR, ";") else self.parse_expr()
            self.expect(PUNCTUATOR, ";")
            out.append(Return(expr, kw.line))
        elif self._looks_like_decl():
            self._parse_local_decls(out)
        else:
            expr = self.parse_expr()
            self.expect(PUNCTUATOR, ";")
            out.append(ExprStmt(expr, expr.line))

    def _parse_if(self) -> If:
        kw = self.expect(KEYWORD, "if")
        self.expect(PUNCTUATOR, "(")
        cond = self.parse_expr()
        self.expect(PUNCTUATOR, ")")
        then_block = self._substatement()
        else_block = None
        if self.at(KEYWORD, "else"):
            self.advance()
            else_block = self._substatement()
        return If(cond, then_block, else_block, kw.line)

    def _parse_for(self) -> For:
        kw = self.expect(KEYWORD, "for")
        self.expect(PUNCTUATOR, "(")
        init: Stmt | None = None
        if self.at(PUNCTUATOR, ";"):
            self.advance()
        elif self._looks_like_decl():
            type_name = self.parse_type_name()
            name_tok = self.expect(IDENTIFIER)
            declared = self._array_suffix(type_name)
            init_expr = None
            if self.at(OPERATOR, "="):
                self.advance()
                init_expr = self.parse_expr()
            init = LocalVarDecl(declared, name_tok.lexeme, init_expr, name_tok.line)
            self.expect(PUNCTUATOR, ";")
        else:
            expr = self.parse_expr()
            init = ExprStmt(expr, expr.line)
            self.expect(PUNCTUATOR, ";")
        cond = None if self.at(PUNCTUATOR, ";") else self.parse_expr()
        self.expect(PUNCTUATOR, ";")
        update = None if self.at(PUNCTUATOR, ")") else self.parse_expr()
        self.expect(PUNCTUATOR, ")")
        return For(init, cond, update, self._substatement(), kw.line)

    def _parse_try(self) -> TryCatch:
        kw = self.expect(KEYWORD, "try")
        try_block = self.parse_block()
        catches: list[CatchClause] = []
        while self.at(KEYWORD, "catch"):
            catch_tok = self.advance()
            self.expect(PUNCTUATOR, "(")
            ex_type = self.parse_type_name()
            ex_name = self.expect(IDENTIFIER)
            self.expect(PUNCTUATOR, ")")
            body = self.parse_block()
            catches.append(CatchClause(ex_type, ex_name.lexeme, body, catch_tok.line))
        finally_block = None
        if self.at(KEYWORD, "finally"):
            self.advance()
            finally_block = self.parse_block()
        return TryCatch(try_block, tuple(catches), finally_block, kw.line)

    def _looks_like_decl(self) -> bool:
        tokens = self.tokens
        n = self.n
        i = self.pos
        if i >= n:
            return False
        tok = tokens[i]
        if tok.kind == IDENTIFIER:
            i += 1
            while i + 1 < n and tokens[i].lexeme == "." and tokens[i + 1].kind == IDENTIFIER:
                i += 2
        elif tok.lexeme in PRIMITIVE_TYPES:
            i += 1
        else:
            return False
        if i + 1 < n and tokens[i].lexeme == "[" and tokens[i + 1].lexeme == "]":
            i += 2
        return i < n and tokens[i].kind == IDENTIFIER

    def _parse_local_decls(self, out: list[Stmt]) -> None:
        type_name = self.parse_type_name()
        while True:
            name_tok = self.expect(IDENTIFIER)
            declared = self._array_suffix(type_name)
            init = None
            if self.at(OPERATOR, "="):
                self.advance()
                init = self.parse_expr()
            out.append(LocalVarDecl(declared, name_tok.lexeme, init, name_tok.line))
            if self.at(PUNCTUATOR, ","):
                self.advance()
                continue
            break
        self.expect(PUNCTUATOR, ";")

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        lhs = self._parse_binary(1)
        pos = self.pos
        if pos < self.n and self.tokens[pos].lexeme == "=":
            eq = self.advance()
            depth = self._nest()
            rhs = self.parse_expr()
            self.depth = depth - 1
            return Assign(lhs, rhs, eq.line)
        return lhs

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing over operators binding at least min_prec."""
        lhs = self._parse_unary()
        tokens = self.tokens
        n = self.n
        while self.pos < n:
            op = tokens[self.pos]
            prec = _BINARY_PRECEDENCE.get(op.lexeme)
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            depth = self._nest()
            # left-associative: the right operand binds strictly tighter
            rhs = self._parse_binary(prec + 1)
            self.depth = depth - 1
            lhs = Binary(op.lexeme, lhs, rhs, op.line)
        return lhs

    def _parse_unary(self) -> Expr:
        pos = self.pos
        if pos < self.n:
            tok = self.tokens[pos]
            lexeme = tok.lexeme
            if lexeme == "++" or lexeme == "--":
                self.pos = pos + 1
                depth = self._nest()
                operand = self._parse_unary()
                self.depth = depth - 1
                return UnaryIncDec(lexeme, operand, True, tok.line)
            if lexeme == "-" and self.at(NUMBER, offset=1):
                self.pos = pos + 2
                return NumLit("-" + self.tokens[pos + 1].lexeme, tok.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        n = self.n
        while True:
            pos = self.pos
            if pos >= n:
                return expr
            lexeme = tokens[pos].lexeme
            if lexeme == ".":
                if pos + 1 >= n or tokens[pos + 1].kind != IDENTIFIER:
                    return expr
                name_tok = tokens[pos + 1]
                self.pos = pos + 2
                if pos + 2 < n and tokens[pos + 2].lexeme == "(":
                    args = self._parse_args()
                    expr = MethodCall(expr, name_tok.lexeme, args, name_tok.line)
                else:
                    expr = FieldAccess(expr, name_tok.lexeme, name_tok.line)
            elif lexeme == "(" and isinstance(expr, Name):
                args = self._parse_args()
                expr = MethodCall(None, expr.ident, args, expr.line)
            elif lexeme == "++" or lexeme == "--":
                self.pos = pos + 1
                expr = UnaryIncDec(lexeme, expr, False, tokens[pos].line)
            else:
                return expr

    def _parse_args(self) -> tuple[Expr, ...]:
        self.expect(PUNCTUATOR, "(")
        depth = self._nest()
        args: list[Expr] = []
        if not self.at(PUNCTUATOR, ")"):
            args.append(self.parse_expr())
            while self.at(PUNCTUATOR, ","):
                self.advance()
                args.append(self.parse_expr())
        self.expect(PUNCTUATOR, ")")
        self.depth = depth - 1
        return tuple(args)

    def _parse_primary(self) -> Expr:
        pos = self.pos
        if pos >= self.n:
            raise _ParseFailure("expected an expression but reached end of file", None)
        tok = self.tokens[pos]
        kind = tok.kind
        if kind == IDENTIFIER:
            self.pos = pos + 1
            return Name(tok.lexeme, tok.line)
        if kind == STRING:
            self.pos = pos + 1
            return StringLit(tok.lexeme, tok.line)
        if kind == CHAR:
            self.pos = pos + 1
            return CharLit(tok.lexeme, tok.line)
        if kind == NUMBER:
            self.pos = pos + 1
            return NumLit(tok.lexeme, tok.line)
        lexeme = tok.lexeme
        if lexeme == "true" or lexeme == "false":
            self.pos = pos + 1
            return BoolLit(lexeme == "true", tok.line)
        if lexeme == "null" or lexeme == "this" or lexeme == "super":
            # modeled as plain names; no detector gives them special meaning
            self.pos = pos + 1
            return Name(lexeme, tok.line)
        if lexeme == "new":
            new_tok = self.advance()
            type_tok = self.peek()
            if type_tok is None or type_tok.kind != IDENTIFIER:
                found = type_tok.lexeme if type_tok else "end of file"
                raise _ParseFailure(f"expected a class name after 'new', found '{found}'", type_tok)
            type_name = self.advance().lexeme
            while self.at(PUNCTUATOR, ".") and self.at(IDENTIFIER, offset=1):
                self.advance()
                type_name += "." + self.advance().lexeme
            if self.at(PUNCTUATOR, "["):
                raise _ParseFailure("array creation is not supported", self.peek())
            args = self._parse_args()
            return New(type_name, args, new_tok.line)
        if lexeme == "(":
            self.pos = pos + 1
            depth = self._nest()
            inner = self.parse_expr()
            self.expect(PUNCTUATOR, ")")
            self.depth = depth - 1
            return Paren(inner, tok.line)
        raise _ParseFailure(f"unexpected '{lexeme}' in expression", tok)


def parse_unit(tokens: list[Token], file_path: str = "<memory>") -> CompilationUnit:
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
