"""Negative tests: the parser's error reporting on malformed programs."""

import pytest

from repro.errors import ParseError
from repro.lang.parser import parse_program


def expect_error(source, pattern):
    with pytest.raises(ParseError, match=pattern) as caught:
        parse_program(source)
    return caught.value


class TestUnitErrors:
    def test_garbage_top_level(self):
        expect_error("banana()\nend\n", "PROGRAM, SUBROUTINE or FUNCTION")

    def test_missing_subroutine_name(self):
        expect_error("subroutine ()\nend\n", "subroutine name")

    def test_unclosed_param_list(self):
        expect_error("subroutine s(a, b\nend\n", r"\)")

    def test_missing_end(self):
        expect_error("subroutine s()\nx = 1\n", "end")

    def test_declaration_after_statement(self):
        # Declarations must precede statements; a late decl is a parse
        # error at the statement position.
        expect_error("subroutine s()\nx = 1\ninteger i\nend\n", "unexpected")


class TestStatementErrors:
    def test_assignment_without_rhs(self):
        expect_error("subroutine s()\nx =\nend\n", "unexpected")

    def test_if_without_then_or_statement(self):
        expect_error("subroutine s()\nif (x .lt. 1)\nend\n", "unexpected")

    def test_unterminated_if(self):
        expect_error(
            "subroutine s()\nif (x .lt. 1) then\ny = 1\nend\n", "end if"
        )

    def test_unterminated_do(self):
        expect_error("subroutine s()\ndo i = 1, 5\nx = 1\nend\n", "end do")

    def test_do_missing_comma(self):
        expect_error("subroutine s()\ndo i = 1 5\nend do\nend\n", ",")

    def test_else_without_if(self):
        # A stray 'else' stops statement parsing; 'end' is then missing.
        expect_error("subroutine s()\nelse\nend if\nend\n", "end")

    def test_two_statements_one_line_without_separator(self):
        expect_error("subroutine s()\nx = 1 y = 2\nend\n", "end of statement")


class TestExpressionErrors:
    def test_dangling_operator(self):
        expect_error("subroutine s()\nx = 1 +\nend\n", "unexpected")

    def test_unbalanced_parens(self):
        expect_error("subroutine s()\nx = (1 + 2\nend\n", r"\)")

    def test_empty_subscript_list(self):
        # a() in expression position parses as a call; in sema it would be
        # rejected, but `a( = ` style garbage dies in the parser.
        expect_error("subroutine s()\nx = a(\nend\n", "unexpected")

    def test_bad_array_extent(self):
        expect_error("subroutine s()\nreal a(1.5)\nend\n", "extent")

    def test_relationals_do_not_associate(self):
        error = expect_error(
            "subroutine s()\nx = a < b < c\nend\n",
            "expected end of statement, found '.lt.'",
        )
        assert (error.location.line, error.location.column) == (2, 11)

    def test_not_after_arithmetic_operator(self):
        error = expect_error(
            "subroutine s()\nx = a + .not. b\nend\n",
            r"unexpected token '\.not\.'",
        )
        assert (error.location.line, error.location.column) == (2, 9)


class TestLocations:
    def test_error_points_at_offending_line(self):
        try:
            parse_program("subroutine s()\nx = 1\ny = *\nend\n")
        except ParseError as error:
            assert error.location.line == 3
        else:  # pragma: no cover
            pytest.fail("expected a ParseError")
