"""Mini-FORTRAN: the surface language of the reproduction's compiler.

The 1989 paper evaluates its allocator inside a FORTRAN compiler.  This
package provides a small FORTRAN-flavoured language — enough to express the
paper's workloads (LINPACK kernels, SVD, the EULER shock code, quicksort) —
with a lexer driven by one compiled regular expression, a recursive-descent
parser that reads expressions by precedence climbing over one operator
table, and a semantic analyser that performs classic FORTRAN implicit typing
(names starting with I..N are INTEGER) plus explicit declarations.

Public entry points:

* :func:`parse_program` — source text to AST.
* :func:`analyze` — AST to a semantically-checked AST with symbol tables.
* :func:`compile_source` (in :mod:`repro.frontend`) — source straight to IR.
"""

from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang.parser import Parser, parse_program
from repro.lang.sema import SemanticAnalyzer, analyze
from repro.lang.types import ArrayType, ScalarType, Type
from repro.lang import ast

__all__ = [
    "tokenize",
    "Token",
    "TokenKind",
    "Parser",
    "parse_program",
    "SemanticAnalyzer",
    "analyze",
    "Type",
    "ScalarType",
    "ArrayType",
    "ast",
]
