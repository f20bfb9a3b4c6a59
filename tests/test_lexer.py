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
    scan,
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


def assert_tokens_cover_positions(text, tokens=None):
    """(lexeme, line, column) of each token, found by a walk over the source
    that skips only ASCII blanks, line ends and comments: each lexeme must
    start exactly where the walk stands, on the token's line, so the tokens
    are exact slices of the source in source order. CR LF, CR and LF each
    end a line. tokens defaults to `tokenize(text)`."""
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
    for _, lexeme, token_line in tokenize(text) if tokens is None else tokens:
        skip()
        assert text.startswith(lexeme, pos), (lexeme, text[pos:pos + 10])
        assert token_line == line, lexeme
        positions.append((lexeme, line, pos - line_start + 1))
        pos += len(lexeme)
    skip()
    assert pos == len(text), text[pos:pos + 10]
    return positions


ALL_FIXTURES = sorted(REFERENCE_CORPUS_DIR.glob("*.java")) + sorted(CASES_DIR.glob("*.java"))


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
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


# --- the line memo ------------------------------------------------------------


class _NeverHit(dict):
    """A memo that stores lines but never finds one: the scan without reuse."""

    def get(self, key, default=None):
        return default


def _scan_outcome(text, memo):
    """The triples of a scan through memo, or its LexError's message, line
    and column."""
    try:
        pairs, lines = scan(text, memo)
    except LexError as err:
        return err.message, err.line, err.column
    assert len(lines) == len(pairs)
    return [pair + (line,) for pair, line in zip(pairs, lines)]


def _random_lines_soup(rng: random.Random, pool: list[str]) -> str:
    """Lines drawn from a small pool, so that lines repeat within and across
    soups, each indented at random and ended by LF, CR LF or a lone CR."""
    lines = [rng.choice(" \t") * rng.randrange(3) + rng.choice(pool)
             for _ in range(rng.randrange(1, 12))]
    ends = [rng.choice(("\n", "\r\n", "\r")) for _ in lines]
    if rng.random() < 0.5:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def test_memo_scan_matches_the_scan_without_reuse():
    # one memo for every soup, as for the files of one scan
    rng = random.Random(0x11E)
    atoms = ["int", "x", "=", "1", ";", "(", ")", "{", "}", "f", ".", "5", "==",
             '"s"', "'c'", " ", "\t", "//c", "/*b*/", "/*", "*/", "#", "\xa0"]
    pool = ["".join(rng.choice(atoms) for _ in range(rng.randrange(6))) for _ in range(40)]
    # block comments over several lines, and unterminated literals
    pool += ["a /* open", "close */ b", "* /", 's = "open', "c = 'o"]
    memo = {}
    outcomes = {"tokens": 0, "errors": 0}
    for _ in range(10000):
        text = _random_lines_soup(rng, pool)
        expected = _scan_outcome(text, _NeverHit())
        assert _scan_outcome(text, memo) == expected, repr(text)
        outcomes["errors" if type(expected) is tuple else "tokens"] += 1
    assert min(outcomes.values()) > 2000, outcomes
    assert len(memo) > 20


def _memo_with(*texts):
    memo = {}
    for text in texts:
        scan(text, memo)
    return memo


def test_memoized_line_inside_a_later_block_comment():
    memo = _memo_with("int x = 1;\n")
    text = "a /* start\nint x = 1;\n end */ b;\nint x = 1;"
    assert _scan_outcome(text, memo) == _scan_outcome(text, _NeverHit()) == [
        (IDENTIFIER, "a", 1), (IDENTIFIER, "b", 3), (PUNCTUATOR, ";", 3),
        (KEYWORD, "int", 4), (IDENTIFIER, "x", 4), (OPERATOR, "=", 4), (NUMBER, "1", 4),
        (PUNCTUATOR, ";", 4),
    ]


def test_line_raising_lex_error_raises_again_where_it_recurs():
    memo = _memo_with("int a;\n")
    with pytest.raises(LexError) as first:
        scan('String s = "oops\n', memo)
    with pytest.raises(LexError) as again:
        scan('int a;\n\t  String s = "oops\n', memo)
    assert (first.value.line, first.value.column) == (1, 12)
    assert (again.value.line, again.value.column) == (2, 15)
    assert again.value.message == first.value.message == "unterminated string literal"
    assert 'String s = "oops' not in memo


def test_lf_and_crlf_files_share_their_lines():
    lf = "class A {\n  int x;\n}\n"
    memo = _memo_with(lf)
    stored = dict(memo)
    crlf = lf.replace("\n", "\r\n")
    assert _scan_outcome(crlf, memo) == _scan_outcome(lf, _NeverHit())
    assert memo == stored


def test_hit_on_a_files_first_line():
    memo = _memo_with("int a;\nclass Q { }\n")
    first = scan("class Q { }\nint b;", memo)[0]
    assert first[1] is memo["class Q { }"][1]  # the stored pair, not a fresh one
    assert _scan_outcome("class Q { }\nint b;", memo) == [
        (KEYWORD, "class", 1), (IDENTIFIER, "Q", 1), (PUNCTUATOR, "{", 1),
        (PUNCTUATOR, "}", 1), (KEYWORD, "int", 2), (IDENTIFIER, "b", 2), (PUNCTUATOR, ";", 2),
    ]


def test_line_that_a_block_comment_enters_or_leaves_is_not_stored():
    memo = _memo_with("int a; /* open\nclose */ int b;\nint c;\n")
    assert set(memo) == {"int c;", ""}
    # the same lines with no comment open between them
    text = "int a; /* open\n*/\nclose */ int b;\n"
    assert _scan_outcome(text, memo) == _scan_outcome(text, _NeverHit()) == [
        (KEYWORD, "int", 1), (IDENTIFIER, "a", 1), (PUNCTUATOR, ";", 1),
        (IDENTIFIER, "close", 3), (OPERATOR, "*", 3), (OPERATOR, "/", 3),
        (KEYWORD, "int", 3), (IDENTIFIER, "b", 3), (PUNCTUATOR, ";", 3),
    ]


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_tokens_cover_input_positions_after_a_primed_memo(fixture):
    memo = _memo_with(*(other.read_text(encoding="utf-8")
                        for other in ALL_FIXTURES if other != fixture))
    text = fixture.read_text(encoding="utf-8")
    tokens = _scan_outcome(text, memo)
    assert tokens == tokenize(text)
    assert_tokens_cover_positions(text, tokens)


# --- rows: where the text is split and what a row's key drops -----------------


def test_rows_split_only_at_line_ends_and_drop_only_blanks():
    # Rows indented with every blank and with `\xa0`, which is none, holding
    # characters that str.splitlines() takes for line ends and a bare
    # lstrip() for blanks. The memo path and the never-hit path share the
    # row split, so the positions walk, which finds each line on its own,
    # is the check that sees a split or a strip too many.
    rng = random.Random(0x5E6)
    atoms = ["int", "x", "=", "1", ";", "{", "}", '"s"', "'c'", " ", "//c", "/*b*/",
             "/*", "*/", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
    pool = ["".join(rng.choice(atoms) for _ in range(rng.randrange(6))) for _ in range(40)]
    pool += ["a /* open", "close */ b", 's = "open']
    memo = {}
    lexed = 0
    for _ in range(3000):
        rows = ["".join(rng.choice(" \t\f\v\xa0") for _ in range(rng.randrange(3)))
                + rng.choice(pool) + rng.choice(("\n", "\r\n", "\r"))
                for _ in range(rng.randrange(1, 10))]
        text = "".join(rows)[:rng.choice((None, -1))]
        tokens = _scan_outcome(text, memo)
        assert tokens == _scan_outcome(text, _NeverHit()), repr(text)
        if type(tokens) is list:
            assert_tokens_cover_positions(text, tokens)
            lexed += 1
    assert lexed > 1000
    assert len(memo) > 20


def test_form_feed_and_line_separator_inside_a_line_end_no_line():
    text = "a\u2028b\x0cc\x85d\ne"
    expected = [(IDENTIFIER, "a", 1), (PUNCTUATOR, "\u2028", 1), (IDENTIFIER, "b", 1),
                (IDENTIFIER, "c", 1), (PUNCTUATOR, "\x85", 1), (IDENTIFIER, "d", 1),
                (IDENTIFIER, "e", 2)]
    # the pieces between them, each a row of its own elsewhere, are no rows here
    assert _scan_outcome(text, _memo_with("b\nc\nd\n")) == expected


def test_row_starting_with_no_break_space_keeps_it_as_a_punctuator():
    memo = _memo_with("x;\n")
    assert _scan_outcome("\t\xa0x;\n \xa0x;", memo) == [
        (PUNCTUATOR, "\xa0", 1), (IDENTIFIER, "x", 1), (PUNCTUATOR, ";", 1),
        (PUNCTUATOR, "\xa0", 2), (IDENTIFIER, "x", 2), (PUNCTUATOR, ";", 2),
    ]
    assert "\xa0x;" in memo


def test_row_after_a_closing_block_comment_is_a_hit_on_its_line():
    memo = _memo_with("int c;\n")
    pairs, lines = scan("a /* one\n two\n */\nint c;", memo)
    assert pairs[1:] == memo["int c;"] and pairs[2] is memo["int c;"][1]
    assert lines == [1, 4, 4, 4]


@pytest.mark.parametrize("text, expected", [
    ("", []),
    ("\n", []),
    ("\r\n\r\n", []),
    ("int a;", [(KEYWORD, "int", 1), (IDENTIFIER, "a", 1), (PUNCTUATOR, ";", 1)]),
    ("\nint a;", [(KEYWORD, "int", 2), (IDENTIFIER, "a", 2), (PUNCTUATOR, ";", 2)]),
])
def test_texts_with_no_row_or_no_final_line_end(text, expected):
    memo = {}
    assert _scan_outcome(text, memo) == _scan_outcome(text, memo) == expected
