from __future__ import annotations

import random

import pytest

from faultlint.detectors import (
    ERROR_CATALOG,
    Finding,
    run_all,
)
from faultlint.model import build_model
from faultlint.parser import parse_source

from conftest import (
    CASES_DIR,
    linear_chain_source,
    model_for_files,
    model_for_source,
)


def case_model(name):
    return model_for_files(CASES_DIR / name)


# --- catalog ------------------------------------------------------------------


def test_catalog_is_bijective_and_spelled_exactly():
    assert ERROR_CATALOG == {
        1: "Lvalue required",
        2: "Incorrect inheritance error",
        3: "Spaghetti error",
        4: "Inconsistent Type Usage error",
        5: "Illicit file usage exception",
        6: "Undefined loop exception",
    }
    assert len(set(ERROR_CATALOG.values())) == 6


# --- code 1: Lvalue required ----------------------------------------------------


def test_d1_string_field_equality_case():
    findings = run_all(case_model("string_equality.java"), {1})
    assert [(f.class_name, f.line) for f in findings] == [("A", 8)]


def test_d1_int_comparison_not_flagged():
    findings = run_all(case_model("empty_do_while.java"), {1})
    assert findings == []


def test_d1_literal_operand_suffices():
    model = model_for_source(
        'class W { void m() { if ("x" == name) { } } }', "w.java"
    )
    findings = run_all(model, {1})
    assert len(findings) == 1
    assert findings[0].detail["left_type"] == "String"
    assert findings[0].detail["right_type"] is None


def test_d1_not_equal_also_flagged():
    model = model_for_source(
        'class W { String a; String b; void m() { if (a != b) { } } }', "w.java"
    )
    assert [f.detail["op"] for f in run_all(model, {1})] == ["!="]


def test_d1_null_comparison_not_flagged():
    # the parser reads the null literal as the Name "null"
    model = model_for_source(
        "class W { void m(String s, String t) {\n"
        "    if (s == null) { }\n"
        "    if (null != t) { }\n"
        "    if (s == (null)) { }\n"
        "    if (s == t) { }\n"
        "} }", "w.java"
    )
    assert [(f.line, f.detail["op"]) for f in run_all(model, {1})] == [(5, "==")]


def test_d1_exhaustive_operand_type_and_op_table():
    # oracle: flagged iff op in {==, !=} and either side is a String
    declarations = {
        "String": 'String {v} = "s";',
        "int": "int {v} = 1;",
        "Unknown": "",  # never declared
    }
    for left in declarations:
        for right in declarations:
            for op in ("==", "!=", "<"):
                body = " ".join((
                    declarations[left].format(v="lhs"),
                    declarations[right].format(v="rhs"),
                    f"if (lhs {op} rhs) {{ }}",
                ))
                model = model_for_source(
                    f"class T {{ void m() {{ {body} }} }}", "t.java"
                )
                expected = op in ("==", "!=") and "String" in (left, right)
                found = bool(run_all(model, {1}))
                assert found == expected, (left, right, op)


# --- code 2: Incorrect inheritance ----------------------------------------------


def test_d2_multiple_extends_flagged_at_header():
    findings = run_all(case_model("double_extends.java"), {2})
    assert [(f.class_name, f.line) for f in findings] == [("C", 1)]
    assert "B, A" in findings[0].message


def test_d2_single_extends_not_flagged():
    model = model_for_source("class C extends B { }", "c.java")
    assert run_all(model, {2}) == []


def test_d2_plural_interfaces_are_legal():
    model = model_for_source("class C extends B implements I, J { }", "c.java")
    assert run_all(model, {2}) == []


def test_d2_iff_extends_list_length_property():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 5)
        names = [f"S{i}" for i in range(n)]
        model = model_for_source(
            f"class H extends {', '.join(names)} {{ }}", "h.java"
        )
        findings = run_all(model, {2})
        assert bool(findings) == (n > 1)
        if findings:
            assert findings[0].detail["superclasses"] == names


# --- code 3: Spaghetti ----------------------------------------------------------


def test_d3_seven_class_chain_flags_only_deepest():
    findings = run_all(case_model("deep_chain.java"), {3})
    assert [(f.class_name, f.error_code) for f in findings] == [("ML_G", 3)]
    assert findings[0].detail["depth"] == 6
    assert findings[0].detail["chain"] == [
        "ML_G", "ML_F", "ML_E", "ML_D", "ML_C", "ML_B", "ML_A",
    ]


def test_d3_five_class_chain_not_flagged():
    model = model_for_source(
        linear_chain_source(["K0", "K1", "K2", "K3", "K4"]), "k.java"
    )
    assert run_all(model, {3}) == []


def test_d3_eight_class_chain_flags_both_deep_classes():
    names = [f"E{i}" for i in range(8)]
    model = model_for_source(linear_chain_source(names), "e.java")
    flagged = [f.class_name for f in run_all(model, {3})]
    assert flagged == ["E6", "E7"]


def test_d3_threshold_randomized_chains():
    # oracle: edge-count walk over the generated parent map
    rng = random.Random(33)
    for _ in range(100):
        k = rng.randint(0, 10)
        names = [f"C{i}" for i in range(k + 1)]
        model = model_for_source(linear_chain_source(names), "c.java")
        flagged = {f.class_name for f in run_all(model, {3})}
        assert flagged == {names[i] for i in range(k + 1) if i >= 6}


def test_d3_cycles_are_skipped_not_findings():
    model = model_for_source(
        "class A extends B { }\nclass B extends A { }", "cyc.java"
    )
    assert run_all(model, {3}) == []
    assert any("inheritance cycle" in d for d in model.diagnostics)


# --- code 4: Inconsistent Type Usage ---------------------------------------------


ITU_TEMPLATE = """\
class ituDemo
{{
    public void f (Stack s)
    {{
        String s1 = "s1";
        s.push (s1);
        g (s);
        {post_call}
    }}
    public void g ({param_type} v)
    {{
        {callee_body}
    }}
}}
"""


def _itu_model(param_type="Vector", callee_body="v.removeElementAt (v.size()-1);",
               post_call="s.pop();"):
    return model_for_source(
        ITU_TEMPLATE.format(
            param_type=param_type, callee_body=callee_body, post_call=post_call
        ),
        "itu.java",
    )


def test_d4_stack_vector_case_finding_at_call_site():
    findings = run_all(case_model("stack_vector_itu.java"), {4})
    assert [(f.class_name, f.line) for f in findings] == [("ituDemo", 11)]
    detail = findings[0].detail
    assert detail["descendant_type"] == "Stack"
    assert detail["base_type"] == "Vector"
    assert "removeElementAt" in detail["mutation"]


def test_d4_no_post_call_use_no_finding():
    assert run_all(_itu_model(post_call=";"), {4}) == []


def test_d4_same_type_param_no_finding():
    assert run_all(_itu_model(param_type="Stack"), {4}) == []


def test_d4_pure_accessor_callee_no_finding():
    assert run_all(_itu_model(callee_body="v.size();"), {4}) == []


def test_d4_field_assignment_counts_as_mutation():
    findings = run_all(_itu_model(callee_body="v.count = 0;"), {4})
    assert len(findings) == 1
    assert "count" in findings[0].detail["mutation"]


def test_d4_unresolved_callee_no_finding():
    model = model_for_source(
        "class U { void f(Stack s) { mystery(s); s.pop(); } }", "u.java"
    )
    assert run_all(model, {4}) == []


def test_d4_argument_must_be_a_plain_name():
    # a parenthesized name is not the Name argument the rule asks for
    assert run_all(_itu_model_with_call("g ((s));"), {4}) == []
    assert run_all(_itu_model_with_call("g (s);"), {4})


def _itu_mutation(param, callee_body):
    source = (
        "class ord\n{\n"
        "    void f (Stack s)\n    {\n"
        "        g (s);\n"
        "        s.pop();\n    }\n"
        f"    void g (Vector {param})\n    {{\n"
        f"{callee_body}"
        "    }\n}\n"
    )
    findings = run_all(model_for_source(source, "ord.java"), {4})
    assert len(findings) == 1
    return findings[0].detail["mutation"], findings[0].detail["mutation_line"]


def test_d4_first_mutation_in_for_header_is_the_init():
    # source order: init, then condition, then update
    body = "        for (p.clear(); p.add(1) > 0; p.trim()) { p.size(); }\n"
    assert _itu_mutation("p", body) == ("p.clear(...)", 10)


def test_d4_first_mutation_in_do_while_is_in_the_body():
    body = (
        "        do\n        {\n"
        "            q.push(3);\n"
        "        }\n        while (q.remove(4) > 0);\n"
    )
    assert _itu_mutation("q", body) == ("q.push(...)", 12)


def _itu_model_with_call(call_stmt):
    source = (
        "class p\n{\n"
        "    public void f (Stack s)\n    {\n"
        f"        {call_stmt}\n"
        "        s.pop();\n    }\n"
        "    public void g (Vector v)\n    {\n"
        "        v.removeElementAt (v.size()-1);\n    }\n}\n"
    )
    return model_for_source(source, "p.java")


def test_d4_three_condition_ablation():
    # removing any one of the three conditions removes the finding
    rng = random.Random(44)
    for _ in range(50):
        descendant = rng.random() < 0.5
        mutating = rng.random() < 0.5
        post_use = rng.random() < 0.5
        model = _itu_model(
            param_type="Vector" if descendant else "Stack",
            callee_body=(
                "v.removeElementAt (v.size()-1);" if mutating else "v.size();"
            ),
            post_call="s.pop();" if post_use else ";",
        )
        expected = descendant and mutating and post_use
        assert bool(run_all(model, {4})) == expected, (descendant, mutating, post_use)


def test_d4_descendant_relation_may_come_from_corpus():
    source = """\
class Base { }
class Derived extends Base { }
class User
{
    void caller(Derived d)
    {
        helper(d);
        d.finish();
    }
    void helper(Base b)
    {
        b.reset();
    }
}
"""
    findings = run_all(model_for_source(source, "corp.java"), {4})
    assert [(f.class_name, f.line) for f in findings] == [("User", 7)]


@pytest.mark.parametrize("call", ["g (s);", "this.g (s);"])
def test_d4_same_named_method_in_unrelated_class_not_flagged(call):
    source = f"""\
class Keeper
{{
    void f(Stack s)
    {{
        {call}
        s.pop();
    }}
    void g(Vector v)
    {{
        v.size();
    }}
}}
class Mutator
{{
    void g(Vector v)
    {{
        v.removeElementAt (v.size()-1);
    }}
}}
"""
    assert run_all(model_for_source(source, "two.java"), {4}) == []


def test_d4_mutating_subclass_override_flagged_through_base_type():
    source = """\
class Base
{
    void g(Vector v)
    {
        v.size();
    }
}
class Derived extends Base
{
    void g(Vector v)
    {
        v.removeElementAt (v.size()-1);
    }
}
class User
{
    void f(Stack s, Base b)
    {
        b.g (s);
        s.pop();
    }
}
"""
    findings = run_all(model_for_source(source, "override.java"), {4})
    assert [(f.class_name, f.line) for f in findings] == [("User", 19)]
    assert findings[0].detail["callee"] == "Derived.g"
    assert findings[0].detail["resolution"] == "hierarchy"


def test_d4_unknown_receiver_type_falls_back_to_name_arity():
    source = """\
class Chained
{
    void f(Stack s)
    {
        a.b.g (s);
        s.pop();
    }
}
class Elsewhere
{
    void g(Vector v)
    {
        v.removeElementAt (v.size()-1);
    }
}
"""
    findings = run_all(model_for_source(source, "chained.java"), {4})
    assert [(f.class_name, f.line) for f in findings] == [("Chained", 5)]
    assert findings[0].detail["callee"] == "Elsewhere.g"
    assert findings[0].detail["resolution"] == "name-arity"


def _name_arity_callees(findings):
    return [(f.line, f.detail["callee"], f.detail["base_type"], f.detail["resolution"])
            for f in findings]


def test_d4_name_arity_single_callee():
    model = model_for_source(
        "class I { void f(Stack s) { x.g(s);\n s.pop(); } "
        "void g(Vector v) { v.removeElementAt(v.size()-1); } }",
        "i.java",
    )
    assert _name_arity_callees(run_all(model, {4})) == [(1, "I.g", "Vector", "name-arity")]


def test_d4_name_arity_absent_callee_no_finding():
    # no method absent/1; the mutating absent/2 has another arity
    model = model_for_source(
        "class I { void f(Stack s) { x.absent(s);\n s.pop(); } "
        "void absent(Vector v, int n) { v.push(n); } }",
        "i.java",
    )
    assert run_all(model, {4}) == []


def test_d4_name_arity_same_signature_callees_in_file_order():
    # run/1 in three classes, the files given out of order: the finding
    # names the mutating one in the first file, not the first class name
    # and not the earlier method that mutates nothing
    units = [
        parse_source("class A2 { void run(Vector v) { v.push(1); } }", "z.java"),
        parse_source("class C2 { void run(Vector v) { v.size(); } }", "a.java"),
        parse_source("class User { void f(Stack s) { x.run(s);\n s.pop(); } }", "u.java"),
        parse_source("class B2 { void run(Vector v) { v.push(2); } }", "b.java"),
    ]
    model = build_model(units)
    # oracle: linear scan of every MethodDecl in (file, line) order
    oracle = [f"{decl.name}.{method.name}"
              for unit in sorted(units, key=lambda u: u.file_path)
              for decl in unit.classes for method in decl.methods
              if method.name == "run" and len(method.params) == 1]
    assert oracle == ["C2.run", "B2.run", "A2.run"]
    assert _name_arity_callees(run_all(model, {4})) == [(1, "B2.run", "Vector", "name-arity")]


def test_finding_is_hashable_and_compares_detail():
    finding = run_all(case_model("stack_vector_itu.java"), {4})[0]

    def copy(detail):
        return Finding(finding.class_name, finding.error_code, finding.file_path,
                       finding.line, finding.message, detail)

    twin = copy(dict(finding.detail))
    other = copy({**finding.detail, "argument": "t"})
    assert hash(finding) == hash(twin) == hash(other)
    assert finding == twin and finding != other
    assert twin in {finding}
    assert other not in {finding}


# --- code 5: Illicit file usage --------------------------------------------------


def test_d5_case_flags_only_data_out():
    findings = run_all(case_model("unclosed_stream.java"), {5})
    assert [(f.detail["variable"], f.line) for f in findings] == [("data_out", 10)]
    assert findings[0].detail["resource_type"] == "DataOutputStream"


def test_d5_both_closed_no_finding():
    source = """\
class ok
{
    void m()
    {
        FileOutputStream a = new FileOutputStream(f);
        DataOutputStream b = new DataOutputStream(a);
        b.close();
        a.close();
    }
}
"""
    assert run_all(model_for_source(source, "ok.java"), {5}) == []


@pytest.mark.parametrize("close, closes_r", [
    ("r.close();", True),
    ("r.close(1);", True),
    ("this.r.close();", False),
    ("(r).close();", False),
    ("get().close();", False),
], ids=["bare-name", "bare-name-with-argument", "field-of-this", "parenthesized",
        "call-result"])
def test_d5_only_a_close_on_the_bare_name_closes_it(close, closes_r):
    # the receiver must be the Name itself: any other expression closes nothing
    source = (
        "class C\n{\n    FileReader r;\n"
        "    void m()\n    {\n"
        f"        FileReader r = new FileReader(f);\n        {close}\n"
        "    }\n}\n"
    )
    unit = parse_source(source, "c.java")
    assert unit.diagnostics == ()
    findings = run_all(build_model([unit]), {5})
    expected = [] if closes_r else [(6, {"variable": "r", "resource_type": "FileReader"})]
    assert [(f.line, f.detail) for f in findings] == expected


def test_d5_close_in_other_branch_still_counts():
    # path-insensitive whole-body search
    source = """\
class branchy
{
    void m(int flag)
    {
        FileReader r = new FileReader(f);
        if (flag > 0)
        {
            r.read();
        }
        else
        {
            r.close();
        }
    }
}
"""
    assert run_all(model_for_source(source, "b.java"), {5}) == []


def test_d5_close_in_finally_counts():
    source = """\
class fin
{
    void m()
    {
        FileWriter w = new FileWriter(f);
        try
        {
            w.write(x);
        }
        finally
        {
            w.close();
        }
    }
}
"""
    assert run_all(model_for_source(source, "f.java"), {5}) == []


def test_d5_assignment_initialization_counts_as_open():
    source = """\
class assign
{
    void m()
    {
        FileInputStream s;
        s = new FileInputStream(f);
    }
}
"""
    findings = run_all(model_for_source(source, "a.java"), {5})
    assert [f.detail["variable"] for f in findings] == ["s"]
    assert findings[0].line == 6


def test_d5_non_resource_new_ignored():
    model = model_for_source(
        "class n { void m() { Thing t = new Thing(); } }", "n.java"
    )
    assert run_all(model, {5}) == []


def test_d5_for_header_records_the_init_open():
    source = """\
class loop
{
    void m()
    {
        for (f = new FileReader(a); f.ready(); f = new FileWriter(b))
        {
            f.read();
        }
    }
}
"""
    findings = run_all(model_for_source(source, "l.java"), {5})
    assert [(f.detail["resource_type"], f.line) for f in findings] == [("FileReader", 5)]


def test_d5_do_while_records_the_body_open():
    source = """\
class again
{
    void m()
    {
        do
        {
            r = new FileReader(a);
        }
        while ((r = new FileReader(b)) != null);
    }
}
"""
    findings = run_all(model_for_source(source, "a.java"), {5})
    assert [(f.detail["variable"], f.line) for f in findings] == [("r", 7)]


def test_d5_generated_open_close_sequences_vs_text_oracle():
    # oracle: per-variable text scan for a `.close()` receiver match
    rng = random.Random(55)
    resource_types = ["FileOutputStream", "FileReader", "BufferedWriter"]
    for _ in range(100):
        var_count = rng.randint(1, 4)
        names = [f"res{i}" for i in range(var_count)]
        opens = [
            f"{rng.choice(resource_types)} {name} = "
            f"new {rng.choice(resource_types)}(f);"
            for name in names
        ]
        closes = [f"{name}.close();" for name in names if rng.random() < 0.5]
        rng.shuffle(closes)
        body = "\n        ".join(opens + closes)
        source = f"class gen\n{{\n    void m()\n    {{\n        {body}\n    }}\n}}\n"
        expected = {
            name for name in names if f"{name}.close()" not in source
        }
        model = model_for_source(source, "gen.java")
        flagged = {f.detail["variable"] for f in run_all(model, {5})}
        assert flagged == expected


# --- code 6: Undefined loop ------------------------------------------------------


def test_d6_case_empty_do_while():
    findings = run_all(case_model("empty_do_while.java"), {6})
    assert [(f.detail["loop_kind"], f.line) for f in findings] == [("do-while", 10)]


def test_d6_non_empty_while_not_flagged():
    model = model_for_source(
        "class w { void m() { while(a>0){a--;} } }", "w.java"
    )
    assert run_all(model, {6}) == []


def test_d6_for_with_only_empty_statements():
    model = model_for_source(
        "class f { void m() { for(i=0;i<10;i++){;} } }", "f.java"
    )
    findings = run_all(model, {6})
    assert [f.detail["loop_kind"] for f in findings] == ["for"]


@pytest.mark.parametrize("bound", [".5", "1."])
def test_d6_loop_bounded_by_a_float_with_digits_on_one_side(bound):
    # `.5` and `1.` are floating-point literals (JLS 3.10.2), not a stray '.'
    unit = parse_source(f"class L {{ void m(double x) {{ while (x < {bound}) ; }} }}", "l.java")
    assert unit.diagnostics == ()
    findings = run_all(build_model([unit]), {6})
    assert [(f.line, f.detail) for f in findings] == [(1, {"loop_kind": "while"})]


def test_d6_loop_bounded_by_binary_and_underscored_literals():
    # `1_000` and `0b101` are one token each (JLS 3.10.1), not a number and a name
    unit = parse_source("class L { void m() { int x = 1_000; while (x < 0b101) ; } }", "l.java")
    assert unit.diagnostics == ()
    findings = run_all(build_model([unit]), {6})
    assert [(f.line, f.detail) for f in findings] == [(1, {"loop_kind": "while"})]


def test_for_init_with_several_declarators_is_analysed():
    # every declarator is walked: r is closed in the body, s never is
    source = (
        "class f\n{\n"
        "    void m()\n    {\n"
        "        for (int i = 0, j = 0; i < n; i++) { }\n"
        "        for (FileReader r = new FileReader(a), s = new FileReader(b); ; ) { r.close(); }\n"
        "    }\n}\n"
    )
    unit = parse_source(source, "f.java")
    assert unit.diagnostics == ()
    assert [(f.error_code, f.line, f.detail) for f in run_all(build_model([unit]))] == [
        (6, 5, {"loop_kind": "for"}),
        (5, 6, {"variable": "s", "resource_type": "FileReader"}),
    ]


def test_for_header_expression_lists_are_analysed():
    # every init and update expression is walked: r is closed in the update, s never is
    source = (
        "class f\n{\n"
        "    void m()\n    {\n"
        "        for (r = new FileReader(a), s = new FileReader(b); ; r.close(), i++) { }\n"
        "        for (i = 0, j = 0; i < n; i++, j--) { }\n"
        "    }\n}\n"
    )
    unit = parse_source(source, "f.java")
    assert unit.diagnostics == ()
    assert [(f.error_code, f.line, f.detail) for f in run_all(build_model([unit]))] == [
        (5, 5, {"variable": "s", "resource_type": "FileReader"}),
        (6, 5, {"loop_kind": "for"}),
        (6, 6, {"loop_kind": "for"}),
    ]


def test_d6_empty_bodies_property():
    # oracle: recursive walk flags a loop iff its body holds no
    # non-Empty statement
    rng = random.Random(66)
    fillers = ["a--;", ";", "", ";;", "b = 1;"]
    for _ in range(100):
        body = rng.choice(fillers)
        kind = rng.choice(["while", "do", "for"])
        if kind == "while":
            loop = f"while (a > 0) {{ {body} }}"
        elif kind == "do":
            loop = f"do {{ {body} }} while (a > 0);"
        else:
            loop = f"for (i = 0; i < 9; i++) {{ {body} }}"
        model = model_for_source(
            f"class L {{ void m() {{ {loop} }} }}", "l.java"
        )
        expected = body.replace(";", "").strip() == ""
        assert bool(run_all(model, {6})) == expected, loop


def test_d6_nested_empty_loop_found_anywhere():
    model = model_for_source(
        "class n { void m() { if (a > 0) { while (b > 0) { } } } }", "n.java"
    )
    assert len(run_all(model, {6})) == 1


# --- run_all ---------------------------------------------------------------------


def test_run_all_merged_string_eq_and_empty_loop_class():
    # class A merging the string == with the empty do-while
    source = (CASES_DIR.parent / "reference_corpus" / "A.java").read_text(encoding="utf-8")
    model = model_for_source(source, "A.java")
    findings = run_all(model)
    assert sorted({f.error_code for f in findings}) == [1, 6]
    assert all(f.class_name == "A" for f in findings)


def test_run_all_empty_corpus():
    assert run_all(build_model([])) == []


def test_run_all_subset_equals_filtered_full_run(reference_model):
    full = run_all(reference_model)
    for subset in [set(), {1}, {3, 4}, {2, 5, 6}, {1, 2, 3, 4, 5, 6}]:
        partial = run_all(reference_model, subset)
        assert partial == [f for f in full if f.error_code in subset]


def test_run_all_sorted_and_deterministic(reference_model):
    first = run_all(reference_model)
    second = run_all(reference_model)
    assert first == second
    keys = [f.sort_key() for f in first]
    assert keys == sorted(keys)


def test_run_all_rejects_unknown_codes(reference_model):
    with pytest.raises(ValueError):
        run_all(reference_model, {0, 7})
