"""Tokenizer: the token layout, the lexical tables and one pure-Python scan
loop that emits tokens directly.

A token is a plain 4-tuple `(kind, lexeme, line, column)`, line and column
1-based; the parser reads its fields by constant index (`tok[1]` is the
lexeme). There is no record type: a named tuple built through
`tuple.__new__` made a temporary tuple and then a copy of it for every
token, and each field read went through a descriptor (README "Scanner"
gives the measured cost). The kinds are the seven constants below;
`KEYWORDS` decides keyword against identifier, and the operator tables
give the longest match first. Every punctuator, operator and keyword
lexeme occurs with one kind only, which the parser relies on.

The loop dispatches on the first character of each lexeme. Runs of blanks
and identifier tails are consumed with precompiled regular expressions;
on str patterns `\\w` is exactly `str.isalnum()` plus `_`, so `[\\w$]` is the
identifier-part test. First characters keep the `str` predicates: `\\d` is
narrower than `str.isdigit()` (`²` starts a numeric literal). Identifier
and keyword lexemes are interned: the trees, the model and the findings
then share one string per distinct name, however often it occurs.
"""

from __future__ import annotations

import re
from sys import intern

__all__ = ["tokenize", "LexError", "scanner_backend"]

KEYWORD = "keyword"
IDENTIFIER = "identifier"
STRING = "string-literal"
CHAR = "char-literal"
NUMBER = "numeric-literal"
PUNCTUATOR = "punctuator"
OPERATOR = "operator"

# Reserved words of the analyzed language, including the literal words
# true/false/null which the parser maps to literal nodes.
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


_HEX_DIGITS = "0123456789abcdefABCDEF"
_NUM_SUFFIXES = "lLfFdD"
# Punctuators that never start a longer lexeme.
_SIMPLE_PUNCTUATORS = frozenset("{}();,.[]")
_BLANKS = " \t\r\f\v"

_skip_blanks = re.compile(f"[{_BLANKS}]*").match
_ident_tail = re.compile(r"[\w$]*").match
# A backslash escapes any character but a newline; a literal ends at the
# first newline or at end of input without its closing quote.
_string_literal = re.compile(r'"(?:[^"\\\n]|\\[^\n])*"').match
_char_literal = re.compile(r"'(?:[^'\\\n]|\\[^\n])*'").match


def scanner_backend() -> str:
    """Name of the scan loop in use; there is one, written in Python."""
    return "python"


def tokenize(source_text: str) -> list[tuple[str, str, int, int]]:
    """Tokenize source text.

    Comments and whitespace are consumed but not emitted; string and char
    literals keep their quotes in the lexeme. Raises LexError (with line
    and column) on an unterminated string/char literal or block comment.
    """
    text = source_text
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    n = len(text)
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    while pos < n:
        ch = text[pos]

        if ch in _SIMPLE_PUNCTUATORS:
            append((PUNCTUATOR, ch, line, pos - line_start + 1))
            pos += 1
            continue

        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos = _skip_blanks(text, line_start).end()
            continue
        if ch in _BLANKS:
            pos += 1
            if pos < n and text[pos] in _BLANKS:
                pos = _skip_blanks(text, pos).end()
            continue

        if ch.isdigit():
            start = pos
            if ch == "0" and pos + 1 < n and text[pos + 1] in "xX":
                pos += 2
                while pos < n and text[pos] in _HEX_DIGITS:
                    pos += 1
            else:
                pos += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
                if pos + 1 < n and text[pos] == "." and text[pos + 1].isdigit():
                    pos += 1
                    while pos < n and text[pos].isdigit():
                        pos += 1
                if pos < n and text[pos] in "eE":
                    mark = pos
                    pos += 1
                    if pos < n and text[pos] in "+-":
                        pos += 1
                    if pos < n and text[pos].isdigit():
                        while pos < n and text[pos].isdigit():
                            pos += 1
                    else:
                        pos = mark
            if pos < n and text[pos] in _NUM_SUFFIXES:
                pos += 1
            append((NUMBER, text[start:pos], line, start - line_start + 1))
            continue

        if ch.isalpha() or ch == "_" or ch == "$":
            start = pos
            pos = _ident_tail(text, pos + 1).end()
            lexeme = intern(text[start:pos])
            kind = KEYWORD if lexeme in KEYWORDS else IDENTIFIER
            append((kind, lexeme, line, start - line_start + 1))
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
                    raise LexError("unterminated block comment", line, pos - line_start + 1)
                newlines = text.count("\n", pos + 2, end)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", pos + 2, end) + 1
                pos = end + 2
                continue

        if ch == '"' or ch == "'":
            match = (_string_literal if ch == '"' else _char_literal)(text, pos)
            if match is None:
                kind = "string" if ch == '"' else "char"
                raise LexError(f"unterminated {kind} literal", line, pos - line_start + 1)
            end = match.end()
            append((STRING if ch == '"' else CHAR, text[pos:end], line,
                    pos - line_start + 1))
            pos = end
            continue

        col = pos - line_start + 1
        pair = text[pos:pos + 2]
        if pair in TWO_CHAR_OPERATORS:
            append((OPERATOR, pair, line, col))
            pos += 2
            continue
        if ch in ONE_CHAR_OPERATORS:
            append((OPERATOR, ch, line, col))
        else:
            # Anything else (including out-of-subset characters like '#')
            # becomes a one-character punctuator; the parser's recovery
            # deals with it.
            append((PUNCTUATOR, ch, line, col))
        pos += 1

    return tokens
