"""Recursive-descent parser for mini-FORTRAN.

Grammar (statements are newline-terminated; ``;`` also terminates):

    program     : unit*
    unit        : ("program" NAME | "subroutine" NAME params?
                  | [type] "function" NAME params?) NL decl* stmt* "end" NL
    params      : "(" [NAME ("," NAME)*] ")"
    decl        : ("integer" | "real") item ("," item)* NL
    item        : NAME ["(" dim ("," dim)* ")"]
    dim         : INT | "*"
    stmt        : assign | if | do | dowhile | call | return | continue
                | stop | print
    assign      : designator "=" expr NL
    if          : "if" "(" expr ")" "then" NL stmt* (elseif | else)* "endif" NL
                | "if" "(" expr ")" simple_stmt NL
    do          : "do" NAME "=" expr "," expr ["," expr] NL stmt* "enddo" NL
    dowhile     : "do" "while" "(" expr ")" NL stmt* "enddo" NL

Expressions are parsed by precedence climbing over :data:`OPERATORS`,
loosest first: ``.or.`` < ``.and.`` < ``.not.`` < relational < additive <
multiplicative < unary minus < ``**`` (right associative) < primary.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import ScalarType

#: Every operator, loosest first: the token that spells it, the AST node
#: and op it parses to, and its precedence.  The binary operators
#: associate to the left, except the relationals, which do not associate
#: (``a < b < c`` is an error), and ``**``, which associates to the right.
#: :mod:`repro.lang.pretty` prints expressions from the same table.
OPERATORS = (
    (TokenKind.OP_OR, ast.BinOp, "or", 1),
    (TokenKind.OP_AND, ast.BinOp, "and", 2),
    (TokenKind.OP_NOT, ast.UnOp, "not", 3),
    (TokenKind.OP_LT, ast.BinOp, "<", 4),
    (TokenKind.OP_LE, ast.BinOp, "<=", 4),
    (TokenKind.OP_GT, ast.BinOp, ">", 4),
    (TokenKind.OP_GE, ast.BinOp, ">=", 4),
    (TokenKind.OP_EQ, ast.BinOp, "==", 4),
    (TokenKind.OP_NE, ast.BinOp, "!=", 4),
    (TokenKind.PLUS, ast.BinOp, "+", 5),
    (TokenKind.MINUS, ast.BinOp, "-", 5),
    (TokenKind.STAR, ast.BinOp, "*", 6),
    (TokenKind.SLASH, ast.BinOp, "/", 6),
    (TokenKind.MINUS, ast.UnOp, "-", 7),
    (TokenKind.POWER, ast.BinOp, "**", 8),
)

#: The operators precedence climbing applies: token kind -> (op,
#: precedence).  Unary minus and ``**`` have their own methods.
_BINARY = {
    kind: (op, prec)
    for kind, node, op, prec in OPERATORS
    if node is ast.BinOp and kind is not TokenKind.POWER
}
_TIGHTEST = max(prec for _, prec in _BINARY.values())
_RELATIONAL = _BINARY[TokenKind.OP_LT][1]
_NOT = next(prec for kind, _, _, prec in OPERATORS if kind is TokenKind.OP_NOT)


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind == kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, what: str) -> Token:
        if not self._at(kind):
            tok = self._peek()
            raise ParseError(
                f"expected {what}, found {tok.kind.value!r}", tok.location
            )
        return self._advance()

    def _expect_newline(self) -> None:
        if self._at(TokenKind.EOF):
            return
        self._expect(TokenKind.NEWLINE, "end of statement")

    def _skip_newlines(self) -> None:
        while self._accept(TokenKind.NEWLINE):
            pass

    def _expect_name(self, what: str = "identifier") -> str:
        return self._expect(TokenKind.IDENT, what).value

    # ------------------------------------------------------------------
    # Program units
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        units = []
        self._skip_newlines()
        while not self._at(TokenKind.EOF):
            units.append(self._parse_unit())
            self._skip_newlines()
        return ast.Program(units)

    def _parse_unit(self) -> ast.Subprogram:
        loc = self._peek().location
        if self._accept(TokenKind.KW_PROGRAM):
            name = self._expect_name("program name")
            self._expect_newline()
            decls, body = self._parse_unit_body()
            return ast.MainProgram(name, [], decls, body, loc)
        if self._accept(TokenKind.KW_SUBROUTINE):
            name = self._expect_name("subroutine name")
            params = self._parse_params()
            self._expect_newline()
            decls, body = self._parse_unit_body()
            return ast.Subroutine(name, params, decls, body, loc)
        result_type = None
        if self._at(TokenKind.KW_INTEGER) and self._peek(1).kind == TokenKind.KW_FUNCTION:
            self._advance()
            result_type = ScalarType.INTEGER
        elif self._at(TokenKind.KW_REAL) and self._peek(1).kind == TokenKind.KW_FUNCTION:
            self._advance()
            result_type = ScalarType.REAL
        if self._accept(TokenKind.KW_FUNCTION):
            name = self._expect_name("function name")
            params = self._parse_params()
            self._expect_newline()
            decls, body = self._parse_unit_body()
            return ast.Function(name, params, decls, body, result_type, loc)
        tok = self._peek()
        raise ParseError(
            f"expected PROGRAM, SUBROUTINE or FUNCTION, found {tok.kind.value!r}",
            tok.location,
        )

    def _parse_params(self) -> list:
        params: list[str] = []
        if not self._accept(TokenKind.LPAREN):
            return params
        if self._accept(TokenKind.RPAREN):
            return params
        params.append(self._expect_name("parameter name"))
        while self._accept(TokenKind.COMMA):
            params.append(self._expect_name("parameter name"))
        self._expect(TokenKind.RPAREN, "')'")
        return params

    def _parse_unit_body(self):
        decls = []
        self._skip_newlines()
        while self._at(TokenKind.KW_INTEGER) or self._at(TokenKind.KW_REAL):
            decls.append(self._parse_decl())
            self._skip_newlines()
        body = self._parse_stmts()
        self._expect(TokenKind.KW_END, "'end'")
        if not self._at(TokenKind.EOF):
            self._expect_newline()
        return decls, body

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _parse_decl(self) -> ast.Decl:
        loc = self._peek().location
        if self._accept(TokenKind.KW_INTEGER):
            scalar = ScalarType.INTEGER
        else:
            self._expect(TokenKind.KW_REAL, "'integer' or 'real'")
            scalar = ScalarType.REAL
        items = [self._parse_decl_item()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_decl_item())
        self._expect_newline()
        return ast.Decl(scalar, items, loc)

    def _parse_decl_item(self) -> ast.DeclItem:
        loc = self._peek().location
        name = self._expect_name("declared name")
        dims = None
        if self._accept(TokenKind.LPAREN):
            dims = [self._parse_dim()]
            while self._accept(TokenKind.COMMA):
                dims.append(self._parse_dim())
            self._expect(TokenKind.RPAREN, "')'")
            dims = tuple(dims)
        return ast.DeclItem(name, dims, loc)

    def _parse_dim(self):
        if self._accept(TokenKind.STAR):
            return None
        if self._at(TokenKind.IDENT):
            # Adjustable extent (FORTRAN 77): names an integer dummy arg.
            return self._advance().value
        tok = self._expect(TokenKind.INT, "array extent (integer, name or '*')")
        if tok.value <= 0:
            raise ParseError("array extent must be positive", tok.location)
        return tok.value

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    _STMT_STOPPERS = {
        TokenKind.KW_END,
        TokenKind.KW_ENDIF,
        TokenKind.KW_ENDDO,
        TokenKind.KW_ELSE,
        TokenKind.KW_ELSEIF,
        TokenKind.EOF,
    }

    def _parse_stmts(self) -> list:
        stmts = []
        self._skip_newlines()
        while self._peek().kind not in self._STMT_STOPPERS:
            stmts.append(self._parse_stmt())
            self._skip_newlines()
        return stmts

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind == TokenKind.KW_IF:
            return self._parse_if()
        if tok.kind == TokenKind.KW_DO:
            return self._parse_do()
        if tok.kind == TokenKind.KW_GOTO:
            raise ParseError(
                "goto is not supported by mini-FORTRAN; use structured loops",
                tok.location,
            )
        stmt = self._parse_simple_stmt()
        self._expect_newline()
        return stmt

    def _parse_simple_stmt(self) -> ast.Stmt:
        """A statement with no trailing NEWLINE consumed (usable after IF)."""
        tok = self._peek()
        if tok.kind == TokenKind.KW_CALL:
            return self._parse_call()
        if tok.kind == TokenKind.KW_RETURN:
            self._advance()
            return ast.Return(tok.location)
        if tok.kind == TokenKind.KW_CONTINUE:
            self._advance()
            return ast.Continue(tok.location)
        if tok.kind == TokenKind.KW_STOP:
            self._advance()
            return ast.Stop(tok.location)
        if tok.kind == TokenKind.KW_PRINT:
            return self._parse_print()
        if tok.kind == TokenKind.IDENT:
            return self._parse_assign()
        raise ParseError(f"unexpected token {tok.kind.value!r}", tok.location)

    def _parse_assign(self) -> ast.Assign:
        loc = self._peek().location
        target = self._parse_designator()
        self._expect(TokenKind.ASSIGN, "'='")
        value = self._parse_expr()
        return ast.Assign(target, value, loc)

    def _parse_designator(self) -> ast.Expr:
        loc = self._peek().location
        name = self._expect_name()
        if self._accept(TokenKind.LPAREN):
            indices = [self._parse_expr()]
            while self._accept(TokenKind.COMMA):
                indices.append(self._parse_expr())
            self._expect(TokenKind.RPAREN, "')'")
            return ast.ArrayRef(name, indices, loc)
        return ast.VarRef(name, loc)

    def _parse_call(self) -> ast.CallStmt:
        loc = self._expect(TokenKind.KW_CALL, "'call'").location
        name = self._expect_name("subroutine name")
        args = []
        if self._accept(TokenKind.LPAREN):
            if not self._at(TokenKind.RPAREN):
                args.append(self._parse_expr())
                while self._accept(TokenKind.COMMA):
                    args.append(self._parse_expr())
            self._expect(TokenKind.RPAREN, "')'")
        return ast.CallStmt(name, args, loc)

    def _parse_print(self) -> ast.Print:
        loc = self._expect(TokenKind.KW_PRINT, "'print'").location
        args = [self._parse_expr()]
        while self._accept(TokenKind.COMMA):
            args.append(self._parse_expr())
        return ast.Print(args, loc)

    def _parse_if(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_IF, "'if'").location
        self._expect(TokenKind.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "')'")
        if not self._at(TokenKind.KW_THEN):
            # Logical IF: a single simple statement on the same line.
            stmt = self._parse_simple_stmt()
            self._expect_newline()
            return ast.If([(cond, [stmt])], [], loc)
        self._advance()  # then
        self._expect_newline()
        arms = [(cond, self._parse_stmts())]
        else_body: list = []
        while True:
            if self._accept(TokenKind.KW_ELSEIF):
                self._expect(TokenKind.LPAREN, "'('")
                arm_cond = self._parse_expr()
                self._expect(TokenKind.RPAREN, "')'")
                self._expect(TokenKind.KW_THEN, "'then'")
                self._expect_newline()
                arms.append((arm_cond, self._parse_stmts()))
                continue
            if self._accept(TokenKind.KW_ELSE):
                self._expect_newline()
                else_body = self._parse_stmts()
            break
        self._expect(TokenKind.KW_ENDIF, "'end if'")
        self._expect_newline()
        return ast.If(arms, else_body, loc)

    def _parse_do(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_DO, "'do'").location
        if self._accept(TokenKind.KW_WHILE):
            self._expect(TokenKind.LPAREN, "'('")
            cond = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            self._expect_newline()
            body = self._parse_stmts()
            self._expect(TokenKind.KW_ENDDO, "'end do'")
            self._expect_newline()
            return ast.DoWhile(cond, body, loc)
        var = self._expect_name("loop variable")
        self._expect(TokenKind.ASSIGN, "'='")
        start = self._parse_expr()
        self._expect(TokenKind.COMMA, "','")
        limit = self._parse_expr()
        step = None
        if self._accept(TokenKind.COMMA):
            step = self._parse_expr()
        self._expect_newline()
        body = self._parse_stmts()
        self._expect(TokenKind.KW_ENDDO, "'end do'")
        self._expect_newline()
        return ast.DoLoop(var, start, limit, step, body, loc)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expr(self, min_prec: int = 1) -> ast.Expr:
        """Parse an expression whose binary operators bind at least as
        tightly as ``min_prec``, by precedence climbing over OPERATORS."""
        tok = self._peek()
        if tok.kind is TokenKind.OP_NOT and min_prec <= _NOT:
            self._advance()
            expr = ast.UnOp("not", self._parse_expr(_NOT), tok.location)
            # Only .and. and .or. may follow a negation.
            max_prec = _NOT - 1
        else:
            expr = self._parse_unary()
            max_prec = _TIGHTEST
        while True:
            op, prec = _BINARY.get(self._peek().kind, (None, 0))
            # Operators tighter than the last one applied here went into
            # its right operand, except a second relational, which ends
            # the whole expression: relationals do not associate.
            if not min_prec <= prec <= max_prec:
                return expr
            loc = self._advance().location
            expr = ast.BinOp(op, expr, self._parse_expr(prec + 1), loc)
            max_prec = prec - 1 if prec == _RELATIONAL else prec

    def _parse_unary(self) -> ast.Expr:
        if self._at(TokenKind.MINUS):
            loc = self._advance().location
            return ast.UnOp("-", self._parse_unary(), loc)
        if self._at(TokenKind.PLUS):
            self._advance()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_primary()
        if self._at(TokenKind.POWER):
            loc = self._advance().location
            # ``**`` is right-associative and binds tighter than unary minus
            # on its right operand (a ** -b is legal FORTRAN).
            exponent = self._parse_unary()
            return ast.BinOp("**", base, exponent, loc)
        return base

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == TokenKind.INT:
            self._advance()
            return ast.IntLit(tok.value, tok.location)
        if tok.kind == TokenKind.REAL:
            self._advance()
            return ast.RealLit(tok.value, tok.location)
        if tok.kind == TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return expr
        if tok.kind == TokenKind.KW_REAL and self._peek(1).kind == TokenKind.LPAREN:
            # The REAL(x) conversion intrinsic collides with the type
            # keyword; recognise it here.
            self._advance()
            self._advance()
            arg = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return ast.FuncCall("real", [arg], tok.location)
        if tok.kind == TokenKind.IDENT:
            self._advance()
            if self._accept(TokenKind.LPAREN):
                args = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self._parse_expr())
                    while self._accept(TokenKind.COMMA):
                        args.append(self._parse_expr())
                self._expect(TokenKind.RPAREN, "')'")
                # Array reference vs call is resolved during semantic
                # analysis; FuncCall is the neutral parse.
                return ast.FuncCall(tok.value, args, tok.location)
            return ast.VarRef(tok.value, tok.location)
        raise ParseError(f"unexpected token {tok.kind.value!r}", tok.location)


def parse_program(source: str, filename: str = "<source>") -> ast.Program:
    """Lex and parse ``source`` into an AST :class:`~repro.lang.ast.Program`."""
    return Parser(tokenize(source, filename)).parse_program()
