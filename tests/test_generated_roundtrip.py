"""Round-trip property over generated in-subset programs.

A grammar-directed generator emits random programs built only from
supported constructs; each must parse without diagnostics, and
parse(unparse(ast)) must be structurally identical to ast.
"""

from __future__ import annotations

import random

from faultlint.parser import parse_source

from ast_helpers import structure, unparse_unit

TYPES = ["int", "String", "FileReader", "Thing"]


def gen_expr(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return rng.choice(
            ["x", "y", "count", '"str"', "'c'", "7", "3.5", "true", "false", "this"]
        )
    if r < 0.45:
        return "(" + gen_expr(rng, depth - 1) + ")"
    if r < 0.60:
        op = rng.choice(["==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "&&", "||"])
        return gen_expr(rng, depth - 1) + " " + op + " " + gen_expr(rng, depth - 1)
    if r < 0.70:
        args = ", ".join(gen_expr(rng, depth - 1) for _ in range(rng.randrange(3)))
        return "new " + rng.choice(["Thing", "FileReader"]) + "(" + args + ")"
    if r < 0.85:
        recv = rng.choice(["x", "y", "obj.field", ""])
        args = ", ".join(gen_expr(rng, depth - 1) for _ in range(rng.randrange(3)))
        name = rng.choice(["run", "size", "close", "pop"])
        return (recv + "." + name if recv else name) + "(" + args + ")"
    if r < 0.95:
        return rng.choice(["x", "y"]) + "." + rng.choice(["f", "g", "data"])
    return rng.choice(["x++", "--y", "i++"])


def gen_stmt(rng, depth):
    r = rng.random()
    if depth <= 0:
        r = min(r, 0.49)  # only non-nesting statements at the leaves
    if r < 0.12:
        return rng.choice(TYPES) + f" v{rng.randrange(50)} = " + gen_expr(rng, depth - 1) + ";"
    if r < 0.18:
        return rng.choice(["int", "String"]) + f" v{rng.randrange(50)};"
    if r < 0.30:
        return rng.choice(["x", "y", "obj.field"]) + " = " + gen_expr(rng, depth - 1) + ";"
    if r < 0.40:
        if rng.random() < 0.6:
            return "run(" + gen_expr(rng, depth - 1) + ");"
        return gen_expr(rng, depth - 1) + ";"
    if r < 0.44:
        return ";"
    if r < 0.47:
        return "return;"
    if r < 0.50:
        return "return " + gen_expr(rng, depth - 1) + ";"
    if r < 0.62:
        out = "if (" + gen_expr(rng, depth - 1) + ") " + gen_block(rng, depth - 1)
        if rng.random() < 0.4:
            out += " else " + gen_block(rng, depth - 1)
        return out
    if r < 0.72:
        return "while (" + gen_expr(rng, depth - 1) + ") " + gen_block(rng, depth - 1)
    if r < 0.80:
        return "do " + gen_block(rng, depth - 1) + " while (" + gen_expr(rng, depth - 1) + ");"
    if r < 0.90:
        init = rng.choice(["int i = 0", "i = 0", "", "int i = 0, j = i", "int k[] = x, i",
                           "i = 0, j = i"])
        cond = rng.choice(["i < 10", ""])
        update = rng.choice(["i++", "", "i++, j--"])
        return "for (" + init + "; " + cond + "; " + update + ") " + gen_block(rng, depth - 1)
    catches = "".join(
        f" catch (IOException e{j}) " + gen_block(rng, depth - 1)
        for j in range(rng.randrange(1, 3))
    )
    tail = (" finally " + gen_block(rng, depth - 1)) if rng.random() < 0.3 else ""
    return "try " + gen_block(rng, depth - 1) + catches + tail


def gen_block(rng, depth):
    stmts = " ".join(gen_stmt(rng, depth) for _ in range(rng.randrange(0, 4)))
    return "{ " + stmts + " }"


def gen_class(rng, idx):
    fields = " ".join(
        rng.choice(["int", "String"]) + f" f{j};" for j in range(rng.randrange(3))
    )
    methods = []
    for j in range(rng.randrange(1, 4)):
        params = ", ".join(
            rng.choice(["int", "String", "Stack"]) + f" p{k}"
            for k in range(rng.randrange(3))
        )
        methods.append(f"void m{j}(" + params + ") " + gen_block(rng, 3))
    header = f"class Gen{idx}"
    if rng.random() < 0.5:
        header += f" extends Base{rng.randrange(3)}"
    return header + " { " + fields + " " + " ".join(methods) + " }"


def test_generated_programs_round_trip():
    rng = random.Random(31337)
    for _ in range(300):
        source = "\n".join(gen_class(rng, i) for i in range(rng.randrange(1, 3)))
        unit = parse_source(source, "gen.java")
        assert unit.diagnostics == (), source[:300]
        canonical = unparse_unit(unit)
        reparsed = parse_source(canonical, "gen.java")
        assert reparsed.diagnostics == (), canonical[:300]
        assert structure(reparsed) == structure(unit), source[:300]
