"""Token definitions for the mini-FORTRAN lexer."""

from __future__ import annotations

import enum

from repro.errors import SourceLocation


class TokenKind(enum.Enum):
    """Every lexical category produced by :func:`repro.lang.lexer.tokenize`."""

    # Literals and names.
    IDENT = "ident"
    INT = "int"
    REAL = "real"

    # Keywords (mini-FORTRAN is case-insensitive; the lexer folds to lower).
    KW_PROGRAM = "program"
    KW_SUBROUTINE = "subroutine"
    KW_FUNCTION = "function"
    KW_INTEGER = "integer"
    KW_REAL = "real_kw"
    KW_IF = "if"
    KW_THEN = "then"
    KW_ELSE = "else"
    KW_ELSEIF = "elseif"
    KW_ENDIF = "endif"
    KW_DO = "do"
    KW_WHILE = "while"
    KW_ENDDO = "enddo"
    KW_CALL = "call"
    KW_RETURN = "return"
    KW_CONTINUE = "continue"
    KW_STOP = "stop"
    KW_END = "end"
    KW_GOTO = "goto"
    KW_PRINT = "print"

    # Dotted logical/relational operators (.lt. .and. ...).
    OP_LT = ".lt."
    OP_LE = ".le."
    OP_GT = ".gt."
    OP_GE = ".ge."
    OP_EQ = ".eq."
    OP_NE = ".ne."
    OP_AND = ".and."
    OP_OR = ".or."
    OP_NOT = ".not."

    # Punctuation and arithmetic.
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    POWER = "**"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    ASSIGN = "="
    COLON = ":"

    # Statement separators.
    NEWLINE = "newline"
    EOF = "eof"


#: Keywords recognised after case folding.  ``end if``/``end do`` are handled
#: in the lexer by fusing ``end`` + ``if``/``do`` into the single-token forms.
KEYWORDS = {
    "program": TokenKind.KW_PROGRAM,
    "subroutine": TokenKind.KW_SUBROUTINE,
    "function": TokenKind.KW_FUNCTION,
    "integer": TokenKind.KW_INTEGER,
    "real": TokenKind.KW_REAL,
    "if": TokenKind.KW_IF,
    "then": TokenKind.KW_THEN,
    "else": TokenKind.KW_ELSE,
    "elseif": TokenKind.KW_ELSEIF,
    "endif": TokenKind.KW_ENDIF,
    "do": TokenKind.KW_DO,
    "while": TokenKind.KW_WHILE,
    "enddo": TokenKind.KW_ENDDO,
    "call": TokenKind.KW_CALL,
    "return": TokenKind.KW_RETURN,
    "continue": TokenKind.KW_CONTINUE,
    "stop": TokenKind.KW_STOP,
    "end": TokenKind.KW_END,
    "goto": TokenKind.KW_GOTO,
    "print": TokenKind.KW_PRINT,
}

#: Dotted operators by spelling; the lexer matches them case-insensitively.
DOTTED_OPERATORS = {
    ".and.": TokenKind.OP_AND,
    ".not.": TokenKind.OP_NOT,
    ".or.": TokenKind.OP_OR,
    ".lt.": TokenKind.OP_LT,
    ".le.": TokenKind.OP_LE,
    ".gt.": TokenKind.OP_GT,
    ".ge.": TokenKind.OP_GE,
    ".eq.": TokenKind.OP_EQ,
    ".ne.": TokenKind.OP_NE,
}


class Token:
    """A single lexeme with its source location.

    ``value`` holds the identifier text (lower-cased), or the numeric value
    for INT/REAL literals, or ``None`` for fixed-spelling tokens.
    """

    __slots__ = ("kind", "value", "location")

    def __init__(self, kind: TokenKind, value, location: SourceLocation):
        self.kind = kind
        self.value = value
        self.location = location

    def __repr__(self) -> str:
        if self.value is None:
            return f"Token({self.kind.name})"
        return f"Token({self.kind.name}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value
