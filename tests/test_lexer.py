from __future__ import annotations

import random

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
    toks = tokenize("0 42 3.14 1e9 2.5e-3 10L 1.5f 0xFF")
    assert [t[1] for t in toks] == [
        "0", "42", "3.14", "1e9", "2.5e-3", "10L", "1.5f", "0xFF"
    ]


def test_line_and_column_point_at_lexeme_start():
    toks = tokenize("class A\n{\n  int x;\n}")
    by_lexeme = {t[1]: (t[2], t[3]) for t in toks}
    assert by_lexeme["class"] == (1, 1)
    assert by_lexeme["A"] == (1, 7)
    assert by_lexeme["{"] == (2, 1)
    assert by_lexeme["int"] == (3, 3)
    assert by_lexeme["x"] == (3, 7)
    assert by_lexeme["}"] == (4, 1)


def assert_tokens_cover_positions(text):
    # every token's (line, column) slice of the source equals its lexeme,
    # and tokens appear in strictly increasing source order
    lines = text.split("\n")
    previous = (0, 0)
    for _, lexeme, line, column in tokenize(text):
        line_text = lines[line - 1]
        start = column - 1
        assert line_text[start:start + len(lexeme)] == lexeme
        assert (line, column) > previous
        previous = (line, column)


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
    toks = tokenize("a\t\f\v\r b\r\n\t\tc \f\vd")
    assert [t[1:] for t in toks] == [
        ("a", 1, 1), ("b", 1, 7), ("c", 2, 3), ("d", 2, 7),
    ]


def test_columns_after_multiline_block_comment():
    toks = tokenize("a /* one\n two\n*/ b\n  c")
    assert [t[1:] for t in toks] == [
        ("a", 1, 1), ("b", 3, 4), ("c", 4, 3),
    ]


def test_unterminated_block_comment_after_tokens():
    with pytest.raises(LexError) as err:
        tokenize("int a;\n\tb = c; /* never\n closed * / ")
    assert (err.value.line, err.value.column) == (2, 9)
    assert err.value.message == "unterminated block comment"


def test_tokenize_returns_tokens():
    # a token is a plain (kind, lexeme, line, column) tuple, no record type
    tok = tokenize("  class")[0]
    assert type(tok) is tuple
    assert tok == (KEYWORD, "class", 1, 3)


def test_identifiers_from_two_sources_are_one_object():
    first = parse_source("class SharedName { }", "a.java").classes[0]
    second = parse_source("class B extends SharedName { SharedName f; }", "b.java").classes[0]
    assert second.extends_list[0] is first.name
    assert second.fields[0].type_name is first.name
