"""Lexer for mini-FORTRAN: one compiled regular expression.

The language is line-oriented: a NEWLINE token separates statements (``;`` is
accepted as a synonym).  Comments run from ``!`` to end of line, and ``&``
continues a statement on the next line.  Keywords and identifiers are
case-insensitive and folded to lower case.  ``end if``, ``end do``,
``else if`` and ``go to`` are fused into their single-word forms so the
parser only ever sees ``endif``/``enddo``/``elseif``/``goto``.
"""

from __future__ import annotations

import re

from repro.errors import LexError, SourceLocation
from repro.lang.tokens import DOTTED_OPERATORS, KEYWORDS, Token, TokenKind

_DOTTED = r"\.(?i:%s)\." % "|".join(op.strip(".") for op in DOTTED_OPERATORS)

#: One alternative per token class, tried in order at the current position.
#: A dot after digits starts a real unless it starts a dotted operator
#: (``1.lt.2``).  Identifiers accept U+212A KELVIN SIGN, which folds to
#: ``k``.
_TOKEN = re.compile(rf"""
    (?P<skip> [ \t\r]+ | ![^\n]* | &[ \t\r]*\n? )
  | (?P<newline> [\n;] )
  | (?P<dotted> {_DOTTED} )
  | (?P<number> (?: [0-9]+ (?: (?!{_DOTTED}) \.[0-9]* )? | \.[0-9]+ )
                (?: [eEdD][+-]?[0-9]+ )? )
  | (?P<word> [A-Za-z_\u212a][A-Za-z0-9_\u212a]* )
  | (?P<symbol> \*\* | [=<>]= | [-+*/(),:=<>] )
""", re.VERBOSE)

_SYMBOLS = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "**": TokenKind.POWER,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "=": TokenKind.ASSIGN,
    "==": TokenKind.OP_EQ,
    "<": TokenKind.OP_LT,
    "<=": TokenKind.OP_LE,
    ">": TokenKind.OP_GT,
    ">=": TokenKind.OP_GE,
}

#: Adjacent words that lex as one keyword.
_FUSED = {
    ("end", "if"): TokenKind.KW_ENDIF,
    ("end", "do"): TokenKind.KW_ENDDO,
    ("else", "if"): TokenKind.KW_ELSEIF,
    ("go", "to"): TokenKind.KW_GOTO,
}


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Lex ``source`` into tokens, ending in NEWLINE and EOF."""
    tokens: list[Token] = []
    match = _TOKEN.match
    pos, end = 0, len(source)
    line, line_start = 1, 0
    # The previous token's text when it was a word, for fusing.
    last_word = None
    while pos < end:
        found = match(source, pos)
        if found is None:
            column = pos - line_start + 1
            raise LexError(
                f"unexpected character {source[pos]!r}",
                SourceLocation(filename, line, column),
            )
        start, pos = pos, found.end()
        group = found.lastgroup
        if group == "skip":
            if source[pos - 1] == "\n":  # a continuation and its newline
                line, line_start = line + 1, pos
            continue
        loc = SourceLocation(filename, line, start - line_start + 1)
        text = found.group()
        if group == "word":
            text = text.lower()
            fused = _FUSED.get((last_word, text))
            if fused is not None:
                tokens[-1] = Token(fused, None, tokens[-1].location)
                last_word = None
                continue
            kind = KEYWORDS.get(text)
            if kind is None:
                tokens.append(Token(TokenKind.IDENT, text, loc))
            else:
                tokens.append(Token(kind, None, loc))
            last_word = text
            continue
        last_word = None
        if group == "symbol":
            tokens.append(Token(_SYMBOLS[text], None, loc))
        elif group == "newline":
            # Runs of blank lines collapse into a single NEWLINE.
            if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                tokens.append(Token(TokenKind.NEWLINE, None, loc))
            if text == "\n":
                line, line_start = line + 1, pos
        elif group == "number":
            if text.isdigit():
                tokens.append(Token(TokenKind.INT, int(text), loc))
            else:
                value = float(text.lower().replace("d", "e"))
                tokens.append(Token(TokenKind.REAL, value, loc))
        else:
            tokens.append(Token(DOTTED_OPERATORS[text.lower()], None, loc))
    column = end - line_start + 1
    if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
        tokens.append(
            Token(TokenKind.NEWLINE, None, SourceLocation(filename, line, column))
        )
    tokens.append(Token(TokenKind.EOF, None, SourceLocation(filename, line, column)))
    return tokens
