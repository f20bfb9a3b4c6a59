"""Tokenizer: the token layout, the lexical tables and one pure-Python scan
loop that emits tokens directly.

`scan` gives the parser two parallel lists: a token is a plain pair
`(kind, lexeme)`, and `lines[i]` is the 1-based line of token i. A token
holds no column: only a LexError reports one, worked out from the text
where it is raised. There is no record type: a named tuple built through
`tuple.__new__` would make a temporary tuple and then a copy of it for
every token, and each field read would go through a descriptor. The kinds
are the seven constants below; `KEYWORDS` decides keyword against
identifier, and the operator tables give the longest match first. Every
punctuator, operator and keyword lexeme occurs with one kind only, which
the parser relies on, and every token of one of these lexemes is the same
module-level pair. `tokenize` gives the same tokens as `(kind, lexeme,
line)` triples.

The loop dispatches on the first character of each lexeme; a '.' starts
a numeric literal when a digit follows it (`.5`). Runs of blanks
and identifier tails are consumed with precompiled regular expressions;
on str patterns `\\w` is exactly `str.isalnum()` plus `_`, so `[\\w$]` is the
identifier-part test. First characters keep the `str` predicates: `\\d` is
narrower than `str.isdigit()` (`²` starts a numeric literal). Identifier
and keyword lexemes are interned: the trees, the model and the findings
then share one string per distinct name, however often it occurs.

Source lines repeat, within a file and across the files of a scan, so the
loop runs once per distinct line text: `scan` splits the text into rows
once, and a row seen before costs one lookup in its caller's memo and two
list extends (the token reuse of incremental lexing: Wagner & Graham,
TOPLAS 1998). Nothing is cached at module level.
"""

from __future__ import annotations

import re
from sys import intern

__all__ = ["scan", "tokenize", "LexError", "scanner_backend"]

KEYWORD = "keyword"
IDENTIFIER = "identifier"
STRING = "string-literal"
CHAR = "char-literal"
NUMBER = "numeric-literal"
PUNCTUATOR = "punctuator"
OPERATOR = "operator"

# Reserved words of the analyzed language, including true and false,
# which the parser reads as literals, and null, which it reads as a name.
KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

# Longest-match first; two-character operators must be checked before their
# one-character prefixes. Any other non-space character lexes as a
# one-character punctuator and is left to parse recovery.
TWO_CHAR_OPERATORS = ("==", "!=", "<=", ">=", "&&", "||", "++", "--",
                      "+=", "-=", "*=", "/=", "%=")
ONE_CHAR_OPERATORS = "=<>+-*/%!&|^~?"


class LexError(Exception):
    """Unterminated string/char literal or block comment."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.message = message
        self.line = line
        self.column = column


_is_hex_digit = frozenset("0123456789abcdefABCDEF").__contains__
_is_binary_digit = frozenset("01").__contains__
_NUM_SUFFIXES = "lLfFdD"
# The one pair of each punctuator that never starts a longer lexeme, each
# operator and each keyword: every token of these lexemes is that pair.
_PUNCTUATOR_PAIRS = {ch: (PUNCTUATOR, ch) for ch in "{}();,.[]"}
_TWO_CHAR_PAIRS = {op: (OPERATOR, op) for op in TWO_CHAR_OPERATORS}
_ONE_CHAR_PAIRS = {op: (OPERATOR, op) for op in ONE_CHAR_OPERATORS}
_KEYWORD_PAIRS = {word: (KEYWORD, word) for word in map(intern, KEYWORDS)}
_BLANKS = " \t\f\v"

_skip_blanks = re.compile(f"[{_BLANKS}]*").match
_ident_tail = re.compile(r"[\w$]*").match
_underscores = re.compile("_+").match
# A backslash escapes any character but a newline; a literal ends at the
# first newline or at end of input without its closing quote.
_string_literal = re.compile(r'"(?:[^"\\\n]|\\[^\n])*"').match
_char_literal = re.compile(r"'(?:[^'\\\n]|\\[^\n])*'").match


def scanner_backend() -> str:
    """Name of the scan loop in use; there is one, written in Python."""
    return "python"


def _digits_end(text: str, pos: int, n: int, is_digit=str.isdigit) -> int:
    """End of the digits from pos on. A run of underscores belongs to them
    only between two digits (`1_000`, `1__0`; JLS 3.10.1)."""
    start = pos
    while pos < n:
        if is_digit(text[pos]):
            pos += 1
        elif text[pos] == "_" and pos > start:
            after = _underscores(text, pos).end()
            if after == n or not is_digit(text[after]):
                break
            pos = after
        else:
            break
    return pos


def _exponent_end(text: str, pos: int, n: int) -> int:
    """End of the exponent whose sign or digits start at pos; 0 when no
    digit follows."""
    if pos < n and text[pos] in "+-":
        pos += 1
    if pos < n and text[pos].isdigit():
        return _digits_end(text, pos, n)
    return 0


def _number_end(text: str, pos: int, n: int) -> int:
    """End of the numeric literal at pos, a digit or a '.' before one
    (JLS 3.10.1-2): hex, with a fraction only before a binary exponent
    (`0x1.8p3`, `0x1p3`); binary (`0b101`); or decimal with an optional '.'
    (`1.`, `.5`) and exponent. Underscores may stand between digits; a type
    suffix may end any of them."""
    if text.startswith(("0x", "0X"), pos):
        pos = _digits_end(text, pos + 2, n, _is_hex_digit)
        end = pos
        if end < n and text[end] == ".":
            end = _digits_end(text, end + 1, n, _is_hex_digit)
        if end < n and text[end] in "pP":
            pos = _exponent_end(text, end + 1, n) or pos
    elif text.startswith(("0b", "0B"), pos) and pos + 2 < n and text[pos + 2] in "01":
        pos = _digits_end(text, pos + 2, n, _is_binary_digit)
    else:
        pos = _digits_end(text, pos, n)
        if pos < n and text[pos] == ".":
            pos = _digits_end(text, pos + 1, n)
        if pos < n and text[pos] in "eE":
            pos = _exponent_end(text, pos + 1, n) or pos
    if pos < n and text[pos] in _NUM_SUFFIXES:
        pos += 1
    return pos


def _column(text: str, pos: int) -> int:
    """1-based column of offset pos in its line."""
    return pos - text.rfind("\n", 0, pos)


def scan(source_text: str, memo: dict) -> tuple[list[tuple[str, str]], list[int]]:
    """Tokenize source text into `(kind, lexeme)` pairs and the parallel
    list of their lines: `lines[i]` is the 1-based line of pair i.

    Comments and whitespace are consumed but not emitted; string and char
    literals keep their quotes in the lexeme. CR LF and a lone CR end a
    line as LF does; callers pass text with its line ends as read, and this
    is the one place that translates them. Raises LexError (with line and
    column) on an unterminated string/char literal or block comment.

    The text is split at LF into rows once. memo maps a row less its
    leading `_BLANKS` (not `\xa0`, a punctuator) to the row's pairs: a row
    found there is not scanned, its pairs and lines are appended. A missed
    row is scanned from its first non-blank character on, and the scan
    resumes at the row after the one where that stopped, past any rows a
    block comment spans. A row is stored only when its scan stopped at its
    own line end, so no row that a block comment enters or leaves, or that
    raised LexError, is stored; a stored row's tokens depend on its text
    alone, so one memo may serve every text of a scan.
    """
    text = source_text
    if "\r" in text:  # CR LF and a lone CR end a line, as LF does (JLS 3.4)
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = text.split("\n")  # not splitlines(): it also breaks at \f, \x85, ...
    pairs: list[tuple[str, str]] = []
    lines: list[int] = []
    append = pairs.append
    memo_get = memo.get
    n = len(text)
    pos = line = 0  # pos is the offset of the start of rows[line]
    while line < len(rows):  # one row per round, more when a block comment spans
        row = rows[line]
        line += 1
        key = row.lstrip(_BLANKS)
        stored = memo_get(key)
        if stored is not None:
            pairs += stored
            lines += [line] * len(stored)
            pos += len(row) + 1
            continue
        pos += len(row) - len(key)
        first = len(pairs)
        while pos < n:
            ch = text[pos]

            tok = _PUNCTUATOR_PAIRS.get(ch)
            if tok is not None:
                if ch == "." and pos + 1 < n and text[pos + 1].isdigit():  # .5
                    end = _number_end(text, pos, n)
                    append((NUMBER, text[pos:end]))
                    pos = end
                    continue
                append(tok)
                pos += 1
                continue

            if ch == "\n":
                break
            if ch in _BLANKS:
                pos += 1
                if pos < n and text[pos] in _BLANKS:
                    pos = _skip_blanks(text, pos).end()
                continue

            if ch.isdigit():
                end = _number_end(text, pos, n)
                append((NUMBER, text[pos:end]))
                pos = end
                continue

            if ch.isalpha() or ch == "_" or ch == "$":
                start = pos
                pos = _ident_tail(text, pos + 1).end()
                lexeme = intern(text[start:pos])
                append(_KEYWORD_PAIRS.get(lexeme) or (IDENTIFIER, lexeme))
                continue

            if ch == "/" and pos + 1 < n:
                after = text[pos + 1]
                if after == "/":
                    end = text.find("\n", pos + 2)
                    pos = n if end < 0 else end
                    continue
                if after == "*":
                    end = text.find("*/", pos + 2)
                    if end < 0:
                        raise LexError("unterminated block comment", line,
                                       _column(text, pos))
                    spanned = text.count("\n", pos + 2, end)
                    if spanned:  # this line and the comment's last are not stored
                        lines += [line] * (len(pairs) - len(lines))
                        line += spanned
                        key = None
                    pos = end + 2
                    continue

            if ch == '"' or ch == "'":
                match = (_string_literal if ch == '"' else _char_literal)(text, pos)
                if match is None:
                    kind = "string" if ch == '"' else "char"
                    raise LexError(f"unterminated {kind} literal", line, _column(text, pos))
                end = match.end()
                append((STRING if ch == '"' else CHAR, text[pos:end]))
                pos = end
                continue

            tok = _TWO_CHAR_PAIRS.get(text[pos:pos + 2])
            if tok is not None:
                append(tok)
                pos += 2
                continue
            # Anything else that is no operator (including out-of-subset
            # characters like '#') becomes a one-character punctuator;
            # the parser's recovery deals with it.
            append(_ONE_CHAR_PAIRS.get(ch) or (PUNCTUATOR, ch))
            pos += 1
        if key is not None:
            memo[key] = pairs[first:]
        lines += [line] * (len(pairs) - len(lines))
        pos += 1  # past the line end
    return pairs, lines


def tokenize(source_text: str) -> list[tuple[str, str, int]]:
    """The tokens of source text as `(kind, lexeme, line)` triples: a view
    of `scan` with a memo of its own."""
    pairs, lines = scan(source_text, {})
    return [(kind, lexeme, line) for (kind, lexeme), line in zip(pairs, lines)]
