"""Pretty-printer: render an AST back to mini-FORTRAN source.

The output re-parses to an equivalent tree, which the test suite uses as a
round-trip property.  Operator precedence, read from the parser's
:data:`~repro.lang.parser.OPERATORS`, is re-established with minimal
parentheses.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.parser import OPERATORS
from repro.lang.types import ScalarType

#: (AST node, op) -> (spelling, precedence), from the parser's table.
_OPERATORS = {
    (node, op): (kind.value, prec) for kind, node, op, prec in OPERATORS
}


def format_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Render ``expr`` with the fewest parentheses that preserve meaning."""
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.RealLit):
        text = repr(expr.value)
        return text if ("." in text or "e" in text) else text + ".0"
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.ArrayRef):
        indices = ", ".join(format_expr(i) for i in expr.indices)
        return f"{expr.name}({indices})"
    if isinstance(expr, ast.FuncCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.UnOp):
        spelling, prec = _OPERATORS[ast.UnOp, expr.op]
        if expr.op == "not":
            spelling += " "
        inner = format_expr(expr.operand, prec)
        text = f"{spelling}{inner}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, ast.BinOp):
        op, prec = _OPERATORS[ast.BinOp, expr.op]
        lhs = format_expr(expr.lhs, prec)
        # +1 on the right side forces parens for same-precedence right
        # children of left-associative operators (a - (b - c)).
        right_prec = prec if expr.op == "**" else prec + 1
        rhs = format_expr(expr.rhs, right_prec)
        text = f"{lhs} {op} {rhs}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"cannot format {expr!r}")


class PrettyPrinter:
    """Accumulates indented source lines for a whole program."""

    def __init__(self, indent: str = "  "):
        self.indent = indent
        self.lines: list[str] = []
        self.depth = 0

    def _emit(self, text: str) -> None:
        self.lines.append(f"{self.indent * self.depth}{text}")

    def format_program(self, program: ast.Program) -> str:
        for unit in program.units:
            self._format_unit(unit)
            self.lines.append("")
        return "\n".join(self.lines)

    def _format_unit(self, unit: ast.Subprogram) -> None:
        params = f"({', '.join(unit.params)})" if unit.params else "()"
        if isinstance(unit, ast.MainProgram):
            self._emit(f"program {unit.name}")
        elif isinstance(unit, ast.Function):
            prefix = ""
            if unit.result_type is not None:
                prefix = f"{unit.result_type} "
            self._emit(f"{prefix}function {unit.name}{params}")
        else:
            self._emit(f"subroutine {unit.name}{params}")
        self.depth += 1
        for decl in unit.decls:
            items = ", ".join(self._format_decl_item(item) for item in decl.items)
            keyword = "integer" if decl.scalar == ScalarType.INTEGER else "real"
            self._emit(f"{keyword} {items}")
        self._format_stmts(unit.body)
        self.depth -= 1
        self._emit("end")

    @staticmethod
    def _format_decl_item(item: ast.DeclItem) -> str:
        if item.dims is None:
            return item.name
        dims = ", ".join("*" if d is None else str(d) for d in item.dims)
        return f"{item.name}({dims})"

    def _format_stmts(self, stmts: list) -> None:
        for stmt in stmts:
            self._format_stmt(stmt)

    def _format_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._emit(f"{format_expr(stmt.target)} = {format_expr(stmt.value)}")
        elif isinstance(stmt, ast.If):
            first_cond, first_body = stmt.arms[0]
            self._emit(f"if ({format_expr(first_cond)}) then")
            self.depth += 1
            self._format_stmts(first_body)
            self.depth -= 1
            for cond, body in stmt.arms[1:]:
                self._emit(f"else if ({format_expr(cond)}) then")
                self.depth += 1
                self._format_stmts(body)
                self.depth -= 1
            if stmt.else_body:
                self._emit("else")
                self.depth += 1
                self._format_stmts(stmt.else_body)
                self.depth -= 1
            self._emit("end if")
        elif isinstance(stmt, ast.DoLoop):
            header = f"do {stmt.var} = {format_expr(stmt.start)}, {format_expr(stmt.limit)}"
            if stmt.step is not None:
                header += f", {format_expr(stmt.step)}"
            self._emit(header)
            self.depth += 1
            self._format_stmts(stmt.body)
            self.depth -= 1
            self._emit("end do")
        elif isinstance(stmt, ast.DoWhile):
            self._emit(f"do while ({format_expr(stmt.cond)})")
            self.depth += 1
            self._format_stmts(stmt.body)
            self.depth -= 1
            self._emit("end do")
        elif isinstance(stmt, ast.CallStmt):
            args = ", ".join(format_expr(a) for a in stmt.args)
            self._emit(f"call {stmt.name}({args})")
        elif isinstance(stmt, ast.Print):
            args = ", ".join(format_expr(a) for a in stmt.args)
            self._emit(f"print {args}")
        elif isinstance(stmt, ast.Return):
            self._emit("return")
        elif isinstance(stmt, ast.Continue):
            self._emit("continue")
        elif isinstance(stmt, ast.Stop):
            self._emit("stop")
        else:  # pragma: no cover
            raise TypeError(f"cannot format {stmt!r}")


def format_program(program: ast.Program) -> str:
    """Render a whole program back to parseable mini-FORTRAN source."""
    return PrettyPrinter().format_program(program)
