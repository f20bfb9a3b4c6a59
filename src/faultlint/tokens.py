"""Token model and lexical tables shared by the scanner and the parser."""

from __future__ import annotations

from typing import NamedTuple

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

MODIFIER_KEYWORDS = frozenset(
    """
    public private protected static final abstract native synchronized
    transient volatile strictfp
    """.split()
)

PRIMITIVE_TYPES = frozenset(
    "boolean byte char short int long float double".split()
)


class LexError(Exception):
    """Unterminated string/char literal or block comment."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.message = message
        self.line = line
        self.column = column


class Token(NamedTuple):
    """One lexeme with its 1-based source position.

    A tuple, so the scan loop builds each token in one step and the parser
    reads fields without a per-token object layer.
    """

    kind: str
    lexeme: str
    line: int
    column: int

    def __repr__(self):
        return f"Token({self.kind}, {self.lexeme!r}, {self.line}:{self.column})"
