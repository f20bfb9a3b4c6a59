from __future__ import annotations

import random
from collections import ChainMap

import pytest

from faultlint.lexer import CHAR, KEYWORD, NUMBER, STRING
from faultlint.model import method_scope, walk_body
from faultlint.nodes import (
    Assign,
    Binary,
    Block,
    DoWhile,
    Expr,
    ExprStmt,
    FieldAccess,
    For,
    If,
    Literal,
    LocalVarDecl,
    MethodCall,
    Name,
    New,
    Paren,
    Return,
    TryCatch,
    TypedName,
    UnaryIncDec,
    While,
)
from faultlint.parser import MAX_NESTING, parse_source

from ast_helpers import iter_scoped_exprs, structure, unparse_unit
from conftest import (
    CASES_DIR,
    NESTING_SHAPES,
    REFERENCE_CORPUS_DIR,
    nested_source,
    parse_fixture,
)
from test_generated_roundtrip import gen_stmt

TWO_CLASS_CHAIN_TEXT = """\
public class ML_A
{
    ML_A()
    {
        System.out.print("Welcome to ML_A");
    }
}
// MLI 2, MLI 3, MLI 4, MLI 5,.....
class ML_G extends ML_F
{
    ML_G()
    {
        System.out.print("Welcome to ML_G");
    }
    public static void main(String arg[])
    {
        ML_G mlf = new ML_G();
    }
}
"""


def test_two_class_chain_with_comment_gap():
    unit = parse_source(TWO_CLASS_CHAIN_TEXT, "chain.java")
    assert [c.name for c in unit.classes] == ["ML_A", "ML_G"]
    assert unit.classes[1].extends_list == ("ML_F",)
    assert unit.diagnostics == ()
    main = unit.classes[1].methods[1]
    assert main.name == "main"
    assert main.params == (TypedName("String[]", "arg"),)


def test_comma_separated_extends_is_not_a_diagnostic():
    unit = parse_source("class C extends B, A { }", "C.java")
    assert len(unit.classes) == 1
    assert unit.classes[0].extends_list == ("B", "A")
    assert unit.diagnostics == ()


def test_out_of_subset_statement_is_skipped_with_one_diagnostic():
    unit = parse_source(
        "class X { void m() { synchronized(this) { } } }", "X.java"
    )
    assert [c.name for c in unit.classes] == ["X"]
    methods = unit.classes[0].methods
    assert [m.name for m in methods] == ["m"]
    assert methods[0].body.stmts == ()
    assert len(unit.diagnostics) == 1
    start, end = unit.diagnostics[0].skipped_span
    assert start <= end


def test_package_and_import_are_consumed():
    unit = parse_source(
        "package a.b.c;\nimport java.util.Vector;\nimport java.io.*;\nclass K { }",
        "K.java",
    )
    assert [c.name for c in unit.classes] == ["K"]
    assert unit.diagnostics == ()


def test_constructor_vs_method():
    unit = parse_source(
        "class T { T() { } void T_run() { } T make() { return this; } }", "T.java"
    )
    decl = unit.classes[0]
    assert [(m.name, m.is_constructor) for m in decl.methods] == [
        ("T", True), ("T_run", False), ("make", False),
    ]


def test_field_declarator_list():
    unit = parse_source('class F { int a, b, c,x; String d="WEL"; }', "F.java")
    fields = unit.classes[0].fields
    assert fields == (
        TypedName("int", "a"), TypedName("int", "b"),
        TypedName("int", "c"), TypedName("int", "x"),
        TypedName("String", "d"),
    )


def test_implements_list_parsed_and_kept():
    unit = parse_source("class C extends B implements I, J { }", "C.java")
    decl = unit.classes[0]
    assert decl.extends_list == ("B",)
    assert decl.implements_list == ("I", "J")
    assert unit.diagnostics == ()


def test_interface_declaration_recovers():
    unit = parse_source(
        "interface Shape { void draw(); }\nclass Circle { }", "S.java"
    )
    assert [c.name for c in unit.classes] == ["Circle"]
    assert len(unit.diagnostics) == 1


def test_nested_class_recovers_inside_body():
    unit = parse_source(
        "class Outer { class Inner { int y; } int x; }", "O.java"
    )
    decl = unit.classes[0]
    assert decl.name == "Outer"
    assert decl.fields == (TypedName("int", "x"),)
    assert len(unit.diagnostics) == 1


def test_loop_bodies_are_blocks():
    unit = parse_source(
        "class L { void m() { while (a > 0) a--; if (a > 0) a--; else a++; } }",
        "L.java",
    )
    body = unit.classes[0].methods[0].body
    loop, branch = body.stmts
    assert isinstance(loop.body, Block)
    assert len(loop.body.stmts) == 1
    assert isinstance(branch.then_block, Block)
    assert isinstance(branch.else_block, Block)


def test_do_while_line_is_do_keyword():
    unit = parse_source("class D { void m() {\n  do\n  {\n  } while (a > 1);\n} }", "D.java")
    stmt = unit.classes[0].methods[0].body.stmts[0]
    assert isinstance(stmt, DoWhile)
    assert stmt.line == 2


def test_binary_node_line_is_operator_line():
    unit = parse_source('class B { String d; String e; void m() { if (d\n== e) { } } }', "B.java")
    cond = unit.classes[0].methods[0].body.stmts[0].cond
    assert isinstance(cond, Binary)
    assert cond.line == 2


def _expr(source: str):
    unit = parse_source(f"class E {{ void m() {{ return {source}; }} }}", "E.java")
    assert unit.diagnostics == ()
    return unit.classes[0].methods[0].body.stmts[0].expr


def _bin(op, lhs, rhs):
    return Binary(op, lhs, rhs, 1)


a, b, c, d, e, f, g, x = (Name(ident, 1) for ident in "abcdefgx")


@pytest.mark.parametrize("source, tree", [
    ("a - b - c", _bin("-", _bin("-", a, b), c)),
    ("a / b * c", _bin("*", _bin("/", a, b), c)),
    ("a < b < c", _bin("<", _bin("<", a, b), c)),
    ("a || b && c == d < e + f * g",
     _bin("||", a, _bin("&&", b, _bin("==", c, _bin("<", d, _bin("+", e, _bin("*", f, g))))))),
    ("a * b + c < d == e && f || g",
     _bin("||", _bin("&&", _bin("==", _bin("<", _bin("+", _bin("*", a, b), c), d), e), f), g)),
    ("a = b = c", Assign(a, Assign(b, c, 1), 1)),
    ("a = b + c", Assign(a, _bin("+", b, c), 1)),
    ("-1 * x", _bin("*", Literal(NUMBER, "-1", 1), x)),
    ("(a + b) * c", _bin("*", Paren(_bin("+", a, b), 1), c)),
])
def test_expression_shape(source, tree):
    # associativity and precedence; the round-trip tests compare the parser
    # with itself and cannot see a mis-nested tree
    assert _expr(source) == tree


def test_equality_operands_kept_verbatim():
    unit = parse_source('class B { void m() { if ("x" == name) { } } }', "B.java")
    cond = unit.classes[0].methods[0].body.stmts[0].cond
    assert isinstance(cond.lhs, Literal)
    assert cond.lhs.kind == STRING
    assert cond.lhs.lexeme == '"x"'
    assert cond.rhs.ident == "name"


def test_for_with_empty_statement_body():
    unit = parse_source("class F { void m() { for(i=0;i<10;i++){;} } }", "F.java")
    loop = unit.classes[0].methods[0].body.stmts[0]
    assert [type(s).__name__ for s in loop.body.stmts] == ["Empty"]


def test_try_catch_finally():
    unit = parse_source(
        "class T { void m() { try { open(); } catch (IOException e) { log(e); } finally { done(); } } }",
        "T.java",
    )
    stmt = unit.classes[0].methods[0].body.stmts[0]
    assert len(stmt.catches) == 1
    assert stmt.catches[0].type_name == "IOException"
    assert stmt.finally_block is not None


def test_worst_case_returns_diagnostics_not_classes():
    unit = parse_source("@#$%^&* not java at all ;;;", "junk.java")
    assert unit.classes == ()
    assert len(unit.diagnostics) >= 1


def test_lex_error_becomes_diagnostic_only_unit():
    unit = parse_source('class A { String s = "unterminated', "bad.java")
    assert unit.classes == ()
    assert len(unit.diagnostics) == 1
    assert "unterminated" in unit.diagnostics[0].message


# Declarators, type names and their failures: each source with the class
# structure and the (line, message, skipped span) of each diagnostic.
@pytest.mark.parametrize("source, classes, diagnostics", [
    pytest.param(
        "class F {\n"
        "  int[] a, b[], c = 1;\n"
        "  String s[] = null, t;\n"
        "}\n",
        (('ClassDecl',
          'F',
          (),
          (),
          (('TypedName', 'int[]', 'a'),
           ('TypedName', 'int[]', 'b'),
           ('TypedName', 'int[]', 'c'),
           ('TypedName', 'String[]', 's'),
           ('TypedName', 'String', 't')),
          ()),),
        [],
        id="field-declarators",
    ),
    pytest.param(
        "class L {\n"
        "  void m() {\n"
        "    int[] a, b[], c = 1;\n"
        "    int d[] = x, e = d;\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'L',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block',
             (('LocalVarDecl', 'int[]', 'a', None),
              ('LocalVarDecl', 'int[]', 'b', None),
              ('LocalVarDecl', 'int[]', 'c', ('Literal', NUMBER, '1')),
              ('LocalVarDecl', 'int[]', 'd', ('Name', 'x')),
              ('LocalVarDecl', 'int', 'e', ('Name', 'd')))),
            False),)),),
        [],
        id="local-declarators",
    ),
    pytest.param(
        "class F {\n"
        "  int a = 1, ;\n"
        "  int b;\n"
        "}\n",
        (('ClassDecl',
          'F',
          (),
          (),
          (('TypedName', 'int', 'a'), ('TypedName', 'int', 'b')),
          ()),),
        [(2, "expected 'identifier' but found ';'", (2, 2))],
        id="field-second-declarator-fails",
    ),
    pytest.param(
        "class L {\n"
        "  void m() {\n"
        "    int a = 1, ;\n"
        "    a = 2;\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'L',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block',
             (('LocalVarDecl', 'int', 'a', ('Literal', NUMBER, '1')),
              ('ExprStmt', ('Assign', ('Name', 'a'), ('Literal', NUMBER, '2'))))),
            False),)),),
        [(3, "expected 'identifier' but found ';'", (3, 3))],
        id="local-second-declarator-fails",
    ),
    pytest.param(
        "class A { ; int x; void m() { } }",
        (('ClassDecl',
          'A',
          (),
          (),
          (('TypedName', 'int', 'x'),),
          (('MethodDecl', 'm', (), ('Block', ()), False),)),),
        [],
        id="lone-semicolon-member",
    ),
    pytest.param(
        "class R {\n"
        "  void m() {\n"
        "    for (int i = 0, j = 0; i < n; i++) { }\n"
        "    for (int k[] = x; ; ) { }\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'R',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block',
             (('For',
               (('LocalVarDecl', 'int', 'i', ('Literal', NUMBER, '0')),
                ('LocalVarDecl', 'int', 'j', ('Literal', NUMBER, '0'))),
               ('Binary', '<', ('Name', 'i'), ('Name', 'n')),
               (('UnaryIncDec', '++', ('Name', 'i'), False),),
               ('Block', ())),
              ('For',
               (('LocalVarDecl', 'int[]', 'k', ('Name', 'x')),),
               None,
               (),
               ('Block', ())))),
            False),)),),
        [],
        id="for-init",
    ),
    pytest.param(
        "class R {\n"
        "  void m() {\n"
        "    for (i = 0, j = 0; i < n; i++) { }\n"
        "    for (int i = 0; i < n; i++, j--) { }\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'R',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block',
             (('For',
               (('ExprStmt', ('Assign', ('Name', 'i'), ('Literal', NUMBER, '0'))),
                ('ExprStmt', ('Assign', ('Name', 'j'), ('Literal', NUMBER, '0')))),
               ('Binary', '<', ('Name', 'i'), ('Name', 'n')),
               (('UnaryIncDec', '++', ('Name', 'i'), False),),
               ('Block', ())),
              ('For',
               (('LocalVarDecl', 'int', 'i', ('Literal', NUMBER, '0')),),
               ('Binary', '<', ('Name', 'i'), ('Name', 'n')),
               (('UnaryIncDec', '++', ('Name', 'i'), False),
                ('UnaryIncDec', '--', ('Name', 'j'), False)),
               ('Block', ())))),
            False),)),),
        [],
        id="for-comma-expressions",
    ),
    pytest.param(
        "class Q {\n"
        "  void m() {\n"
        "    java.io.File f;\n"
        "    a.b.c(x);\n"
        "    a.b = c;\n"
        "    java.io.File g = new java.io.File(p);\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'Q',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block',
             (('LocalVarDecl', 'java.io.File', 'f', None),
              ('ExprStmt',
               ('MethodCall', ('FieldAccess', ('Name', 'a'), 'b'), 'c', (('Name', 'x'),))),
              ('ExprStmt', ('Assign', ('FieldAccess', ('Name', 'a'), 'b'), ('Name', 'c'))),
              ('LocalVarDecl',
               'java.io.File',
               'g',
               ('New', 'java.io.File', (('Name', 'p'),))))),
            False),)),),
        [],
        id="qualified-type-against-statements",
    ),
    pytest.param(
        "class S {\n"
        "  void m() {\n"
        "    Foo[] ;\n"
        "    int(x);\n"
        "    ok();\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'S',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block', (('ExprStmt', ('MethodCall', None, 'ok', ())),)),
            False),)),),
        [(3, "expected ';' but found '['", (3, 3)),
         (4, "unexpected 'int' in expression", (4, 4))],
        id="array-type-and-primitive-call",
    ),
    pytest.param(
        "class T extends A, B implements I, J.K {\n"
        "  void m() throws E, F.G { }\n"
        "  void n(int a, String b[]) throws E;\n"
        "}\n",
        (('ClassDecl',
          'T',
          ('A', 'B'),
          ('I', 'J.K'),
          (),
          (('MethodDecl', 'm', (), ('Block', ()), False),
           ('MethodDecl',
            'n',
            (('TypedName', 'int', 'a'), ('TypedName', 'String[]', 'b')),
            ('Block', ()),
            False))),),
        [],
        id="type-lists",
    ),
    pytest.param(
        "class M {\n"
        "  int ;\n"
        "  String\n"
        "  ;\n"
        "  void p(int) { }\n"
        "  void m() { int = 3; }\n"
        "}\n",
        (('ClassDecl', 'M', (), (), (), (('MethodDecl', 'm', (), ('Block', ()), False),)),),
        [(2, "expected 'identifier' but found ';'", (2, 2)),
         (3, "expected 'identifier' but found ';'", (3, 4)),
         (5, "expected 'identifier' but found ')'", (5, 5)),
         (6, "unexpected 'int' in expression", (6, 6))],
        id="missing-identifier-after-type",
    ),
    pytest.param(
        "class N {\n"
        "  void m() {\n"
        "    x = new int(1);\n"
        "    y = new Foo[3];\n"
        "    v = new Foo[](1);\n"
        "    z = new a.B(1);\n"
        "  }\n"
        "}\n",
        (('ClassDecl',
          'N',
          (),
          (),
          (),
          (('MethodDecl',
            'm',
            (),
            ('Block',
             (('ExprStmt', ('Assign', ('Name', 'z'), ('New', 'a.B', (('Literal', NUMBER, '1'),)))),)),
            False),)),),
        [(3, "expected a class name after 'new' but found 'int'", (3, 3)),
         (4, 'array creation is not supported', (4, 4)),
         (5, 'array creation is not supported', (5, 5))],
        id="new",
    ),
    pytest.param(
        "class N {\n"
        "  void m() {\n"
        "    w = new",
        (('ClassDecl', 'N', (), (), (), ()),),
        [(3, "expected a class name after 'new' but reached end of file", (3, 3)),
         (2, "expected '}' but reached end of file", (2, 3)),
         (3, "missing '}' for class N", (3, 3))],
        id="new-at-end-of-file",
    ),
    pytest.param(
        "class V {\n"
        "  void x;\n"
        "  void y[], z = 1;\n"
        "}\n",
        (('ClassDecl',
          'V',
          (),
          (),
          (('TypedName', 'void', 'x'),
           ('TypedName', 'void[]', 'y'),
           ('TypedName', 'void', 'z')),
          ()),),
        [],
        id="void-field",
    ),
    pytest.param(
        "import c.D\n"
        "class P { int x; }\n"
        "class Q { }\n",
        (('ClassDecl', 'P', (), (), (('TypedName', 'int', 'x'),), ()),
         ('ClassDecl', 'Q', (), (), (), ())),
        [(1, "expected ';' to end the import directive but found 'class'", (1, 1))],
        id="directive-missing-semicolon",
    ),
    pytest.param(
        "package a.b\n"
        "class P { }\n",
        (('ClassDecl', 'P', (), (), (), ()),),
        [(1, "expected ';' to end the package directive but found 'class'", (1, 1))],
        id="package-missing-semicolon",
    ),
    pytest.param(
        "import static a.B.*;\n"
        "import c\n"
        "  .D = 1;\n"
        "class P { }\n"
        "import e.\n"
        "  f",
        (('ClassDecl', 'P', (), (), (), ()),),
        [(2, "expected ';' to end the import directive but found '='", (2, 3)),
         (3, "unsupported top-level construct starting at '='", (3, 3)),
         (5, "expected ';' to end the import directive but reached end of file", (5, 6))],
        id="directive-stops-at-foreign-token",
    ),
    pytest.param(
        "class A { }\n"
        "public\n"
        "  static",
        (('ClassDecl', 'A', (), (), (), ()),),
        [(2, "expected 'class' but reached end of file", (2, 3))],
        id="trailing-modifiers",
    ),
    pytest.param(
        "public",
        (),
        [(1, "expected 'class' but reached end of file", (1, 1))],
        id="only-a-modifier",
    ),
])
def test_declarators_and_type_names(source, classes, diagnostics):
    unit = parse_source(source, "T.java")
    assert structure(unit.classes) == classes
    assert [(d.line, d.message, d.skipped_span) for d in unit.diagnostics] == diagnostics


def _method_body(statement):
    unit = parse_source(f"class S {{\n  void m() {{\n    {statement}\n    k++;\n  }}\n}}\n",
                        "S.java")
    return unit.classes[0].methods[0].body, unit.diagnostics


@pytest.mark.parametrize("statement, span", [
    # generics outside the subset once read as comparisons, silently
    ("List<String> l = null;", (3, 3)),
    ("List<String> l;", (3, 3)),
    ("Foo<Bar> y = z;", (3, 3)),
    ("a < b;", (3, 3)),
    ("x;", (3, 3)),
    ('"s";', (3, 3)),
    ("(x = 1);", (3, 3)),
    # an assignment to a value (JLS 15.26)
    ("f() = 1;", (3, 3)),
    ("this = x;", (3, 3)),
    ("x = f() = 1;", (3, 3)),
    ("a + b = c;", (3, 3)),
    # each expression of a for init or update list
    ("for (x; ; ) ;", (3, 3)),
    ("for (i = 0, j; ; ) { }", (3, 3)),
    ("for (; ; i++, i < n) {\n      k--;\n    }", (3, 5)),
    # the whole statement that holds one is skipped
    ("while (c)\n      a < b;", (3, 4)),
    ("if (c) { } else for (f() = 1; ; ) ;", (3, 3)),
])
def test_non_statement_is_skipped_with_one_diagnostic(statement, span):
    body, diagnostics = _method_body(statement)
    assert [(d.line, d.message, d.skipped_span) for d in diagnostics] == [
        (3, "not a statement", span)]
    assert [type(s) for s in body.stmts] == [ExprStmt]
    assert type(body.stmts[0].expr) is UnaryIncDec


@pytest.mark.parametrize("statement", [
    "x = 1;", "(x) = 1;", "((o.f)) = 1;", "this.f = 1;", "x = y = z;", "x = (y = z) + 1;",
    "x++;", "--x;", "f();", "o.f().g();", "new T();",
    "for (i = 0, f(), new T(); ; i++, --j, g()) ;",
])
def test_statement_expressions_parse_without_diagnostics(statement):
    body, diagnostics = _method_body(statement)
    assert diagnostics == ()
    assert len(body.stmts) == 2


@pytest.mark.parametrize("statement, diagnostic, kept", [
    # a `;` inside the header's parentheses ends no skip: the loop and its
    # body go as one, and the statement after it still parses
    ("for (int i = 0; i < n; i += 2) {\n      k--;\n    }\n    while (k > 0) k--;",
     (3, "expected ')' but found '+='", (3, 5)), [While, ExprStmt]),
    # a `)` with no open `(` leaves the next `;` a sync point
    ("x = 1); k--;", (3, "expected ';' but found ')'", (3, 3)), [ExprStmt, ExprStmt]),
    ("f(a)); k--;", (3, "expected ';' but found ')'", (3, 3)), [ExprStmt, ExprStmt]),
    # nor does a group's `}` inside parentheses: the call goes as one skip
    ("run(new Runnable() { void r() { } }); int k; k = 1;",
     (3, "expected ')' but found '{'", (3, 3)), [LocalVarDecl, ExprStmt, ExprStmt]),
    # the cost: in a `(` never closed, the skip runs to the block's end
    ("foo(a { b } c = 1;", (3, "expected ')' but found '{'", (3, 4)), []),
])
def test_skip_ends_at_a_semicolon_outside_parentheses(statement, diagnostic, kept):
    body, diagnostics = _method_body(statement)
    assert [(d.line, d.message, d.skipped_span) for d in diagnostics] == [diagnostic]
    assert [type(s) for s in body.stmts] == kept


NESTING_DEPTHS = (1, 50, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 500, 5000)


@pytest.mark.parametrize("depth", NESTING_DEPTHS)
@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_deep_nesting_is_skipped_with_one_diagnostic(shape, depth):
    # the method body is one level, so `depth` inner levels total depth + 1
    unit = parse_source(nested_source(shape, depth), "Deep.java")  # must not raise
    assert [m.name for c in unit.classes for m in c.methods] == ["m"]
    if depth + 1 <= MAX_NESTING:
        assert unit.diagnostics == ()
    else:
        assert [d.message for d in unit.diagnostics] == [
            f"nesting deeper than {MAX_NESTING} levels"
        ]
        assert unit.diagnostics[0].skipped_span == (5, 5)


def test_empty_source():
    unit = parse_source("", "empty.java")
    assert unit.classes == ()
    assert unit.diagnostics == ()


# --- invariants and properties ----------------------------------------------


ALL_FIXTURES = sorted(REFERENCE_CORPUS_DIR.glob("*.java")) + sorted(CASES_DIR.glob("*.java"))


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_round_trip_canonical_form(fixture):
    unit = parse_fixture(fixture)
    assert unit.diagnostics == (), "fixture must be fully in-subset"
    canonical = unparse_unit(unit)
    reparsed = parse_source(canonical, fixture.name)
    assert reparsed.diagnostics == ()
    assert structure(reparsed) == structure(unit)


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_node_lines_within_source(fixture):
    text = fixture.read_text(encoding="utf-8")
    line_count = text.count("\n") + 1
    unit = parse_fixture(fixture)
    for decl in unit.classes:
        assert 1 <= decl.line <= line_count
        for method in decl.methods:
            assert 1 <= method.line <= line_count
            for node in walk_body(method.body, {}):
                assert 1 <= node.line <= line_count


def _walk_exprs_recursive(expr):
    yield expr
    if isinstance(expr, FieldAccess):
        yield from _walk_exprs_recursive(expr.target)
    elif isinstance(expr, MethodCall):
        if expr.receiver is not None:
            yield from _walk_exprs_recursive(expr.receiver)
        for arg in expr.args:
            yield from _walk_exprs_recursive(arg)
    elif isinstance(expr, New):
        for arg in expr.args:
            yield from _walk_exprs_recursive(arg)
    elif isinstance(expr, (Binary, Assign)):
        yield from _walk_exprs_recursive(expr.lhs)
        yield from _walk_exprs_recursive(expr.rhs)
    elif isinstance(expr, UnaryIncDec):
        yield from _walk_exprs_recursive(expr.operand)
    elif isinstance(expr, Paren):
        yield from _walk_exprs_recursive(expr.inner)


def _scoped_block_reference(block, scope):
    yield block
    for stmt in block.stmts:
        yield from _scoped_stmt_reference(stmt, scope)


def _scoped_stmt_reference(stmt, scope):
    """The recursive scoped walk that model.walk_body replaced.

    Yields each statement, then (expr, scope) for each of its expressions,
    recursively. Kept as the reference the iterative walk must match.
    """
    if isinstance(stmt, Block):
        yield from _scoped_block_reference(stmt, scope.new_child())
        return
    yield stmt
    if isinstance(stmt, LocalVarDecl):
        if stmt.init is not None:
            for expr in _walk_exprs_recursive(stmt.init):
                yield expr, scope
        scope[stmt.name] = stmt.type_name
    elif isinstance(stmt, ExprStmt):
        for expr in _walk_exprs_recursive(stmt.expr):
            yield expr, scope
    elif isinstance(stmt, If):
        for expr in _walk_exprs_recursive(stmt.cond):
            yield expr, scope
        yield from _scoped_block_reference(stmt.then_block, scope.new_child())
        if stmt.else_block is not None:
            yield from _scoped_block_reference(stmt.else_block, scope.new_child())
    elif isinstance(stmt, While):
        for expr in _walk_exprs_recursive(stmt.cond):
            yield expr, scope
        yield from _scoped_block_reference(stmt.body, scope.new_child())
    elif isinstance(stmt, DoWhile):
        yield from _scoped_block_reference(stmt.body, scope.new_child())
        for expr in _walk_exprs_recursive(stmt.cond):
            yield expr, scope
    elif isinstance(stmt, For):
        inner = scope.new_child()
        for init in stmt.init:
            yield from _scoped_stmt_reference(init, inner)
        for part in (stmt.cond, *stmt.update):
            if part is not None:
                for expr in _walk_exprs_recursive(part):
                    yield expr, inner
        yield from _scoped_block_reference(stmt.body, inner.new_child())
    elif isinstance(stmt, TryCatch):
        yield from _scoped_block_reference(stmt.try_block, scope.new_child())
        for clause in stmt.catches:
            catch_scope = scope.new_child()
            catch_scope[clause.var_name] = clause.type_name
            yield from _scoped_block_reference(clause.body, catch_scope)
        if stmt.finally_block is not None:
            yield from _scoped_block_reference(stmt.finally_block, scope.new_child())
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            for expr in _walk_exprs_recursive(stmt.expr):
                yield expr, scope


def _expr_event(expr, scope):
    # a Name's lookup is taken at once: the scope changes as the walk goes on
    return id(expr), scope.get(expr.ident) if isinstance(expr, Name) else None


def _reference_events(decl, method):
    events = []
    scope = ChainMap(method_scope(decl, method)).new_child()
    for item in _scoped_block_reference(method.body, scope):
        events.append(_expr_event(*item) if isinstance(item, tuple) else id(item))
    return events


def _walk_body_events(decl, method, kinds):
    events = []
    scope = method_scope(decl, method)
    for node in walk_body(method.body, scope):
        kinds.add(type(node).__name__)
        if isinstance(node, Literal):
            kinds.add(f"Literal {node.kind}")
        events.append(_expr_event(node, scope) if isinstance(node, Expr) else id(node))
    assert scope == method_scope(decl, method)  # every declaration undone
    return events


# node kinds the fixtures lack: Paren, true and char literals, Return, Empty,
# else, finally, prefix ++, nested calls as receivers and arguments
WALKER_EXTRA_SOURCE = """\
class W
{
    int m(W w, int k)
    {
        for (int i = 0; (i < k) == true; ++i) ;
        if (w.f(k).g(new W(), 'c', (k)) != null) { k--; } else { return (k + 1) * 2; }
        try { w.h(); } catch (Exception e) { ; } finally { k = k - 1; }
        return w.n.m(k - 1, w).n;
    }
}
"""


def _generated_walker_units(count):
    rng = random.Random(4242)
    units = []
    for index in range(count):
        body = " ".join(gen_stmt(rng, 3) for _ in range(rng.randrange(1, 6)))
        source = (
            f"class G{index} {{ String x; int count; "
            f"void m(Thing y, String i) {{ {body} }} }}"
        )
        units.append(parse_source(source, "gen.java"))
    return units


def test_walkers_match_recursive_reference():
    # the same statements by identity, the same expressions in the same
    # order, and the same scope lookup for every Name as a recursive walk
    units = [parse_fixture(f) for f in ALL_FIXTURES]
    units.append(parse_source(WALKER_EXTRA_SOURCE, "W.java"))
    units.extend(_generated_walker_units(200))
    kinds = set()
    resolved = 0
    for unit in units:
        assert unit.diagnostics == ()
        for decl in unit.classes:
            for method in decl.methods:
                expected = _reference_events(decl, method)
                assert _walk_body_events(decl, method, kinds) == expected
                scoped = [_expr_event(e, scope) for e, scope in iter_scoped_exprs(decl, method)]
                assert scoped == [e for e in expected if isinstance(e, tuple)]
                resolved += sum(1 for e in scoped if e[1] is not None)
    assert kinds >= {
        "Block", "LocalVarDecl", "ExprStmt", "If", "While", "DoWhile", "For",
        "TryCatch", "Return", "Empty", "Literal", f"Literal {STRING}",
        f"Literal {NUMBER}", f"Literal {KEYWORD}", f"Literal {CHAR}", "Name",
        "FieldAccess", "MethodCall", "New", "Binary", "Assign", "UnaryIncDec", "Paren",
    }
    assert resolved > 1000  # names resolve to fields, parameters and locals


def test_walk_body_handles_nesting_beyond_the_recursion_limit():
    # the parser caps nesting at MAX_NESTING, so the tree is built directly
    depth = 5_000
    use = ExprStmt(Name("x", 1), 1)
    node = Block((use,), 1)
    for level in range(depth):
        node = Block((node,), 1) if level % 2 else If(Name("c", 1), node, None, 1)
    root = Block((LocalVarDecl("int", "x", None, 1), node), 1)
    scope = {}
    entries = [(node, scope.get("x")) for node in walk_body(root, scope)]
    assert len(entries) == depth + depth // 2 + 5  # an If also yields its condition
    assert entries[-2][0] is use
    assert entries[-1] == (use.expr, "int")
    # left-deep expression chains, as the parser builds from flat input
    chain = Name("x", 1)
    for _ in range(depth):
        chain = Binary("+", chain, Name("x", 1), 1)
    calls = Name("x", 1)
    for _ in range(depth):
        calls = MethodCall(calls, "f", (), 1)
    root = Block((ExprStmt(chain, 1), Return(calls, 1)), 1)
    walked = list(walk_body(root, {}))
    assert len(walked) == 3 + (2 * depth + 1) + (depth + 1)
    assert walked[2] is chain and walked[4 + 2 * depth] is calls
    assert type(walked[-1]) is Name


def test_multiple_extends_tolerance_property():
    # class C extends T1, ..., Tn keeps exactly n entries in source order
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(1, 5)
        names = [f"T{rng.randrange(1000)}_{i}" for i in range(n)]
        sep = rng.choice([", ", ",", " , "])
        source = f"class C extends {sep.join(names)} {{ }}"
        unit = parse_source(source, "C.java")
        assert unit.diagnostics == ()
        assert list(unit.classes[0].extends_list) == names


def test_parser_never_raises_on_token_soup():
    rng = random.Random(99)
    atoms = [
        "class", "extends", "implements", "if", "else", "while", "do", "for",
        "try", "catch", "finally", "return", "new", "int", "String", "void",
        "name", "x", '"s"', "'c'", "7", "==", "=", "+", "-", "{", "}", "(",
        ")", ";", ",", ".", "[", "]", "&&", "synchronized", "static", "@",
    ]
    for _ in range(400):
        text = " ".join(rng.choice(atoms) for _ in range(rng.randrange(0, 60)))
        unit = parse_source(text, "soup.java")  # must not raise
        for diag in unit.diagnostics:
            start, end = diag.skipped_span
            assert start <= end
            assert diag.line == start


def test_canonical_form_is_fixed_point():
    # unparse(parse(unparse(parse(s)))) == unparse(parse(s))
    for fixture in ALL_FIXTURES:
        unit = parse_fixture(fixture)
        once = unparse_unit(unit)
        twice = unparse_unit(parse_source(once, fixture.name))
        assert once == twice, fixture.name
