from __future__ import annotations

import random

import pytest

from faultlint.nodes import (
    Assign,
    Binary,
    Block,
    DoWhile,
    FieldAccess,
    MethodCall,
    Name,
    New,
    NumLit,
    Paren,
    StringLit,
    TypedName,
    UnaryIncDec,
    child_exprs,
    child_stmts,
    iter_stmts,
    structure,
    walk_exprs,
)
from faultlint.parser import MAX_NESTING, parse_source
from faultlint.unparse import unparse_unit

from conftest import (
    CASES_DIR,
    NESTING_SHAPES,
    REFERENCE_CORPUS_DIR,
    nested_source,
    parse_fixture,
)

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
    unit = parse_source(f"class E {{ void m() {{ {source}; }} }}", "E.java")
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
    ("-1 * x", _bin("*", NumLit("-1", 1), x)),
    ("(a + b) * c", _bin("*", Paren(_bin("+", a, b), 1), c)),
])
def test_expression_shape(source, tree):
    # associativity and precedence; the round-trip tests compare the parser
    # with itself and cannot see a mis-nested tree
    assert _expr(source) == tree


def test_equality_operands_kept_verbatim():
    unit = parse_source('class B { void m() { if ("x" == name) { } } }', "B.java")
    cond = unit.classes[0].methods[0].body.stmts[0].cond
    assert isinstance(cond.lhs, StringLit)
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
            for stmt in iter_stmts(method.body):
                assert 1 <= stmt.line <= line_count
                for top in _stmt_exprs(stmt):
                    for expr in walk_exprs(top):
                        assert 1 <= expr.line <= line_count


def _stmt_exprs(stmt):
    return list(child_exprs(stmt))


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


def _iter_stmts_recursive(root):
    yield root
    for child in child_stmts(root):
        yield from _iter_stmts_recursive(child)


# node kinds the fixtures lack: Paren, BoolLit, CharLit, Return, Empty,
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


def test_walkers_match_recursive_reference():
    # same nodes, by identity, in the same order as a recursive preorder walk
    units = [parse_fixture(f) for f in ALL_FIXTURES]
    units.append(parse_source(WALKER_EXTRA_SOURCE, "W.java"))
    assert units[-1].diagnostics == ()
    kinds = set()
    for unit in units:
        for decl in unit.classes:
            for method in decl.methods:
                stmts = list(iter_stmts(method.body))
                expected = list(_iter_stmts_recursive(method.body))
                assert [id(s) for s in stmts] == [id(s) for s in expected]
                for stmt in stmts:
                    kinds.add(type(stmt).__name__)
                    for top in child_exprs(stmt):
                        exprs = list(walk_exprs(top))
                        expected = list(_walk_exprs_recursive(top))
                        assert [id(e) for e in exprs] == [id(e) for e in expected]
                        kinds.update(type(e).__name__ for e in exprs)
    assert kinds >= {
        "Block", "LocalVarDecl", "ExprStmt", "If", "While", "DoWhile", "For",
        "TryCatch", "Return", "Empty", "StringLit", "NumLit", "BoolLit",
        "CharLit", "Name", "FieldAccess", "MethodCall", "New", "Binary",
        "Assign", "UnaryIncDec", "Paren",
    }


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
