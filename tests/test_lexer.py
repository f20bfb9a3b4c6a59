from __future__ import annotations

import random
import re

import pytest

from faultlint.lexer import (
    IDENTIFIER,
    KEYWORD,
    NUMBER,
    OPERATOR,
    PUNCTUATOR,
    STRING,
    LexError,
    tokenize,
)
from faultlint.detectors import run_all
from faultlint.model import build_model
from faultlint.parser import parse_source

from conftest import CASES_DIR, REFERENCE_CORPUS_DIR


def kinds_and_lexemes(text):
    return [(t[0], t[1]) for t in tokenize(text)]


def test_minimal_class():
    assert kinds_and_lexemes("class A { }") == [
        (KEYWORD, "class"),
        (IDENTIFIER, "A"),
        (PUNCTUATOR, "{"),
        (PUNCTUATOR, "}"),
    ]


def test_string_field_line():
    assert kinds_and_lexemes('String d="WEL";') == [
        (IDENTIFIER, "String"),
        (IDENTIFIER, "d"),
        (OPERATOR, "="),
        (STRING, '"WEL"'),
        (PUNCTUATOR, ";"),
    ]


def test_unterminated_string():
    with pytest.raises(LexError) as err:
        tokenize('"unterminated')
    assert err.value.line == 1
    assert err.value.column == 1


def test_unterminated_string_at_newline():
    with pytest.raises(LexError) as err:
        tokenize('int a;\nString s = "oops\nint b;')
    assert err.value.line == 2


def test_unterminated_block_comment():
    with pytest.raises(LexError) as err:
        tokenize("int a; /* no end")
    assert err.value.line == 1
    assert err.value.column == 8


def test_unterminated_char_literal():
    with pytest.raises(LexError):
        tokenize("char c = 'x")


def test_comments_and_whitespace_not_emitted():
    text = "// line comment\nint a; /* block\ncomment */ int b;"
    assert kinds_and_lexemes(text) == [
        (KEYWORD, "int"), (IDENTIFIER, "a"), (PUNCTUATOR, ";"),
        (KEYWORD, "int"), (IDENTIFIER, "b"), (PUNCTUATOR, ";"),
    ]


def test_string_escapes_kept_verbatim():
    toks = tokenize(r'String s = "a\"b\\";')
    assert toks[3][1] == r'"a\"b\\"'


def test_two_char_operators_max_munch():
    ops = [t[1] for t in tokenize("a==b!=c<=d>=e&&f||g++ --h")
           if t[0] == OPERATOR]
    assert ops == ["==", "!=", "<=", ">=", "&&", "||", "++", "--"]


def test_numeric_literals():
    # a floating-point literal may lack digits on one side of the point
    toks = tokenize("0 42 3.14 1e9 2.5e-3 10L 1.5f 0xFF 1. .5 1.e3 1.f 5.d .5e2")
    assert [t[1] for t in toks] == [
        "0", "42", "3.14", "1e9", "2.5e-3", "10L", "1.5f", "0xFF",
        "1.", ".5", "1.e3", "1.f", "5.d", ".5e2",
    ]
    assert {t[0] for t in toks} == {NUMBER}
    # binary, hex floating point, and underscores between digits (JLS 3.10.1-2)
    toks = tokenize("1_000 0b101 0B1 0b1_0L 0xFF_FFL 0x1p3 0x1.8P-3d 0x.8p1 1__0 0_7 "
                    "1_000.5_5e1_0f")
    assert [t[1] for t in toks] == [
        "1_000", "0b101", "0B1", "0b1_0L", "0xFF_FFL", "0x1p3", "0x1.8P-3d", "0x.8p1",
        "1__0", "0_7", "1_000.5_5e1_0f",
    ]
    assert {t[0] for t in toks} == {NUMBER}


@pytest.mark.parametrize("text, lexemes", [
    # an underscore not followed by a digit is not part of the number
    ("1_", ["1", "_"]),
    ("1__a", ["1", "__a"]),
    ("1e_1", ["1", "e_1"]),
    ("1._5", ["1.", "_5"]),
    ("0b1_", ["0b1", "_"]),
    # a hex fraction needs its binary exponent; `0b` needs a binary digit
    ("0x1.f", ["0x1", ".", "f"]),
    ("0x1p", ["0x1", "p"]),
    ("0b2", ["0", "b2"]),
])
def test_numeric_literal_ends(text, lexemes):
    assert [t[1] for t in tokenize(text)] == lexemes


def test_line_and_column_point_at_lexeme_start():
    positions = assert_tokens_cover_positions("class A\n{\n  int x;\n}")
    by_lexeme = {lexeme: (line, column) for lexeme, line, column in positions}
    assert by_lexeme["class"] == (1, 1)
    assert by_lexeme["A"] == (1, 7)
    assert by_lexeme["{"] == (2, 1)
    assert by_lexeme["int"] == (3, 3)
    assert by_lexeme["x"] == (3, 7)
    assert by_lexeme["}"] == (4, 1)


_LINE_END = re.compile("\r\n?|\n")
_LINE_COMMENT = re.compile("//[^\r\n]*")


def assert_tokens_cover_positions(text):
    """(lexeme, line, column) of each token, found by a walk over the source
    that skips only ASCII blanks, line ends and comments: each lexeme must
    start exactly where the walk stands, on the token's line, so the tokens
    are exact slices of the source in source order. CR LF, CR and LF each
    end a line."""
    pos, line, line_start = 0, 1, 0

    def skip():
        nonlocal pos, line, line_start
        while pos < len(text):
            if text[pos] in " \t\f\v":
                pos += 1
                continue
            line_end = _LINE_END.match(text, pos)
            if line_end:
                pos = line_start = line_end.end()
                line += 1
            elif text.startswith("//", pos):
                pos = _LINE_COMMENT.match(text, pos).end()
            elif text.startswith("/*", pos):
                end = text.index("*/", pos + 2) + 2
                for inner in _LINE_END.finditer(text, pos, end):
                    line, line_start = line + 1, inner.end()
                pos = end
            else:
                return

    positions = []
    for _, lexeme, token_line in tokenize(text):
        skip()
        assert text.startswith(lexeme, pos), (lexeme, text[pos:pos + 10])
        assert token_line == line, lexeme
        positions.append((lexeme, line, pos - line_start + 1))
        pos += len(lexeme)
    skip()
    assert pos == len(text), text[pos:pos + 10]
    return positions


@pytest.mark.parametrize(
    "fixture", sorted(REFERENCE_CORPUS_DIR.glob("*.java")) + sorted(CASES_DIR.glob("*.java")),
    ids=lambda p: p.name,
)
def test_tokens_cover_input_positions(fixture):
    assert_tokens_cover_positions(fixture.read_text(encoding="utf-8"))


def _random_java_soup(rng: random.Random) -> str:
    atoms = [
        "class", "extends", "if", "while", "int", "String", "name", "x9",
        "$d", "_u", '"str"', "'c'", "12", "3.5", "0x1F", "==", "!=", "<=",
        "&&", "+", "-", "{", "}", "(", ")", ";", ",", ".", "//c\n",
        "/*b*/", "/*\n*/", " ", "\n", "\t", "\r", "\f", "\v", "\xa0",
        "naïve", "数", "€", "#", "²", "٣",
    ]
    return "".join(rng.choice(atoms) for _ in range(rng.randrange(0, 120)))


def test_random_soup_tokens_cover_positions():
    rng = random.Random(0xFA17)
    for _ in range(300):
        assert_tokens_cover_positions(_random_java_soup(rng))


@pytest.mark.parametrize("text, expected", [
    ("²", [(NUMBER, "²")]),
    ("٣", [(NUMBER, "٣")]),
    ("\xa0", [(PUNCTUATOR, "\xa0")]),
    ("\u2003", [(PUNCTUATOR, "\u2003")]),
    ("€", [(PUNCTUATOR, "€")]),
    ("#", [(PUNCTUATOR, "#")]),
    ("naïve", [(IDENTIFIER, "naïve")]),
    ("数", [(IDENTIFIER, "数")]),
    ("$x", [(IDENTIFIER, "$x")]),
    ("e٣", [(IDENTIFIER, "e٣")]),
    ("a\xa0b", [(IDENTIFIER, "a"), (PUNCTUATOR, "\xa0"), (IDENTIFIER, "b")]),
    ("x²", [(IDENTIFIER, "x²")]),
])
def test_non_ascii_characters(text, expected):
    # str.isdigit() starts a number (so `²` does, though it is not `\d`);
    # only ASCII blanks separate tokens; isalnum() continues an identifier
    assert kinds_and_lexemes(text) == expected


def test_columns_count_every_blank_character():
    # the lone CR after the blanks ends line 1, as CR LF ends line 2
    assert assert_tokens_cover_positions("a\t\f\v\r b\r\n\t\tc \f\vd") == [
        ("a", 1, 1), ("b", 2, 2), ("c", 3, 3), ("d", 3, 7),
    ]


def test_cr_and_crlf_line_ends_read_as_lf():
    lf = "class A {\n  // note\n  void f() {\n    while (true) ;\n  }\n}\n"
    outcomes = []
    for end in ("\n", "\r\n", "\r"):
        text = lf.replace("\n", end)
        unit = parse_source(text, "A.java")
        assert unit.diagnostics == ()
        findings = [(f.error_code, f.line) for f in run_all(build_model([unit]))]
        outcomes.append((tokenize(text), findings))
    assert outcomes[0][1] == [(6, 4)]
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def test_columns_after_multiline_block_comment():
    assert assert_tokens_cover_positions("a /* one\n two\n*/ b\n  c") == [
        ("a", 1, 1), ("b", 3, 4), ("c", 4, 3),
    ]


def test_unterminated_block_comment_after_tokens():
    with pytest.raises(LexError) as err:
        tokenize("int a;\n\tb = c; /* never\n closed * / ")
    assert (err.value.line, err.value.column) == (2, 9)
    assert err.value.message == "unterminated block comment"


def test_tokenize_returns_tokens():
    # a token is a plain (kind, lexeme, line) tuple, no record type
    tok = tokenize("\n  class")[0]
    assert type(tok) is tuple
    assert tok == (KEYWORD, "class", 2)


def test_identifiers_from_two_sources_are_one_object():
    first = parse_source("class SharedName { }", "a.java").classes[0]
    second = parse_source("class B extends SharedName { SharedName f; }", "b.java").classes[0]
    assert second.extends_list[0] is first.name
    assert second.fields[0].type_name is first.name
