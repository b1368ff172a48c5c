"""Seeded random structured-program generator.

Produces valid, terminating, division-safe mini-FORTRAN programs for
differential testing: the property suite compiles each program, runs it in
virtual-register mode, allocates with every method at random register
counts, re-runs in physical mode, and demands identical output.  Any
interference-graph, spill, coalescing or simulator bug shows up as an
output mismatch or a poisoned-register read.

Generation rules that guarantee validity:

* a variable is only read after a statement that *unconditionally*
  assigns it (tracked per scope — branch-local definitions don't leak);
* array subscripts are loop variables (always in range 1..extent) or
  literal constants within bounds;
* integer divisors have the shape ``(e * e + 1)``, float divisors
  ``(e * e + 1.0)`` — always nonzero;
* loops are counted DO loops with small constant bounds, so everything
  terminates;
* the program ends by printing every scalar and an array checksum, which
  is what the differential property compares.
"""

from __future__ import annotations

import random

_INT_NAMES = ["i1", "i2", "i3", "k1", "k2", "m1", "m2", "n1"]
_FLOAT_NAMES = ["a1", "a2", "b1", "b2", "c1", "s1", "s2", "t1"]
_LOOP_VARS = ["lv1", "lv2", "lv3"]
_WHILE_COUNTERS = ["wc1", "wc2"]
_ARRAY = ("arr", 10)  # one float array, extent 10
_IARRAY = ("iarr", 10)  # one integer array, extent 10


class ProgramGenerator:
    """Generates one random program per (seed).

    All randomness flows through one :class:`random.Random` — pass
    ``rng`` to chain the generator into a caller's seeded stream (the
    fuzz loop does this so ``repro fuzz --seed N`` is bit-reproducible);
    otherwise a private ``Random(seed)`` is used.
    """

    def __init__(self, seed: int = 0, max_depth: int = 3,
                 statements: int = 14, calls: bool = True,
                 rng: random.Random | None = None):
        self.rng = rng if rng is not None else random.Random(seed)
        self.max_depth = max_depth
        self.statements = statements
        self.calls = calls
        self.lines: list = []
        self.loop_depth = 0
        self.while_depth = 0
        #: loop variables currently in scope — the only ones that are
        #: guaranteed in-bounds as array subscripts (after a loop the
        #: variable holds limit+1, past the end of the array).
        self.active_loops: list = []

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _int_expr(self, defined: set, depth: int = 0) -> str:
        rng = self.rng
        choices = ["literal"]
        int_vars = [v for v in defined if v in _INT_NAMES or v in _LOOP_VARS]
        if int_vars:
            choices.extend(["var", "var"])
        if self.active_loops:
            choices.append("element")
        if depth < 2:
            choices.extend(["binop", "intrinsic"])
            if self.calls:
                choices.append("fcall")
        kind = rng.choice(choices)
        if kind == "literal":
            return str(rng.randint(0, 9))
        if kind == "var":
            return rng.choice(sorted(int_vars))
        if kind == "element":
            return f"{_IARRAY[0]}({rng.choice(self.active_loops)})"
        if kind == "fcall":
            a = self._int_expr(defined, depth + 1)
            b = self._int_expr(defined, depth + 1)
            return f"hfun({a}, {b})"
        if kind == "intrinsic":
            inner = self._int_expr(defined, depth + 1)
            other = self._int_expr(defined, depth + 1)
            return rng.choice(
                [
                    f"abs({inner})",
                    f"max({inner}, {other})",
                    f"min({inner}, {other})",
                    f"mod({inner}, ({other}) * ({other}) + 7)",
                ]
            )
        op = rng.choice(["+", "-", "*", "+", "-"])
        lhs = self._int_expr(defined, depth + 1)
        rhs = self._int_expr(defined, depth + 1)
        if rng.random() < 0.1:
            return f"({lhs}) / (({rhs}) * ({rhs}) + 1)"
        return f"({lhs}) {op} ({rhs})"

    def _float_expr(self, defined: set, depth: int = 0) -> str:
        rng = self.rng
        choices = ["literal"]
        float_vars = [v for v in defined if v in _FLOAT_NAMES]
        if float_vars:
            choices.extend(["var", "var"])
        if self.active_loops:
            choices.append("element")
        if depth < 2:
            choices.extend(["binop", "intrinsic", "convert"])
        kind = rng.choice(choices)
        if kind == "literal":
            return f"{rng.randint(0, 40) / 8.0}"
        if kind == "var":
            return rng.choice(sorted(float_vars))
        if kind == "element":
            return f"{_ARRAY[0]}({rng.choice(self.active_loops)})"
        if kind == "convert":
            return f"real({self._int_expr(defined, depth + 1)})"
        if kind == "intrinsic":
            inner = self._float_expr(defined, depth + 1)
            other = self._float_expr(defined, depth + 1)
            return rng.choice(
                [
                    f"abs({inner})",
                    f"sqrt(abs({inner}) + 1.0)",
                    f"max({inner}, {other})",
                    f"min({inner}, {other})",
                    f"sign({inner}, {other})",
                ]
            )
        op = rng.choice(["+", "-", "*", "+"])
        lhs = self._float_expr(defined, depth + 1)
        rhs = self._float_expr(defined, depth + 1)
        if rng.random() < 0.1:
            return f"({lhs}) / (({rhs}) * ({rhs}) + 1.0)"
        return f"({lhs}) {op} ({rhs})"

    def _condition(self, defined: set) -> str:
        rng = self.rng
        relop = rng.choice([".lt.", ".le.", ".gt.", ".ge.", ".eq.", ".ne."])
        if rng.random() < 0.5:
            lhs = self._int_expr(defined, 1)
            rhs = self._int_expr(defined, 1)
        else:
            lhs = self._float_expr(defined, 1)
            rhs = self._float_expr(defined, 1)
        simple = f"{lhs} {relop} {rhs}"
        if rng.random() < 0.25:
            other = self._condition(defined) if rng.random() < 0.3 else simple
            junction = rng.choice([".and.", ".or."])
            return f"({simple}) {junction} ({other})"
        return simple

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _emit(self, depth: int, text: str) -> None:
        self.lines.append("  " * (depth + 1) + text)

    def _gen_statement(self, defined: set, depth: int) -> None:
        rng = self.rng
        options = ["assign", "assign", "assign", "store"]
        if depth < self.max_depth:
            options.extend(["if", "if"])
        if depth < self.max_depth and self.loop_depth < len(_LOOP_VARS):
            options.extend(["do", "do"])
        if depth < self.max_depth and self.while_depth < len(_WHILE_COUNTERS):
            options.append("while")
        if self.calls:
            options.append("call")
        kind = rng.choice(options)
        if kind == "assign":
            # Assignments are wrapped so values stay bounded: integers
            # cannot blow up through repeated squaring in loops, floats
            # cannot reach inf/NaN (NaN breaks output comparison).
            if rng.random() < 0.5:
                name = rng.choice(_INT_NAMES)
                expr = self._int_expr(defined)
                self._emit(depth, f"{name} = mod({expr}, 100003)")
            else:
                name = rng.choice(_FLOAT_NAMES)
                expr = self._float_expr(defined)
                self._emit(
                    depth,
                    f"{name} = min(max({expr}, -65536.0), 65536.0)",
                )
            defined.add(name)
        elif kind == "call":
            self._emit(
                depth,
                f"call hsub({self._int_expr(defined, 1)}, {_ARRAY[0]})",
            )
        elif kind == "store":
            index = (
                rng.choice(self.active_loops)
                if self.active_loops
                else str(rng.randint(1, _ARRAY[1]))
            )
            if rng.random() < 0.6:
                self._emit(
                    depth,
                    f"{_ARRAY[0]}({index}) = {self._float_expr(defined)}",
                )
            else:
                expr = self._int_expr(defined)
                self._emit(
                    depth,
                    f"{_IARRAY[0]}({index}) = mod({expr}, 100003)",
                )
        elif kind == "if":
            self._emit(depth, f"if ({self._condition(defined)}) then")
            # Branch-local definitions must not leak into the outer scope.
            then_defined = set(defined)
            for _ in range(rng.randint(1, 3)):
                self._gen_statement(then_defined, depth + 1)
            if rng.random() < 0.6:
                self._emit(depth, "else")
                else_defined = set(defined)
                for _ in range(rng.randint(1, 3)):
                    self._gen_statement(else_defined, depth + 1)
                # Only what BOTH arms defined is defined afterwards.
                defined |= then_defined & else_defined
            self._emit(depth, "end if")
        elif kind == "while":
            # Bounded DO WHILE: a dedicated counter guarantees at most 8
            # iterations regardless of the generated condition.
            counter = _WHILE_COUNTERS[self.while_depth]
            self.while_depth += 1
            self._emit(depth, f"{counter} = 0")
            condition = self._condition(defined)
            self._emit(
                depth,
                f"do while ({counter} .lt. {rng.randint(2, 8)} "
                f".and. ({condition}))",
            )
            body_defined = set(defined)
            for _ in range(rng.randint(1, 3)):
                self._gen_statement(body_defined, depth + 1)
            self._emit(depth + 1, f"{counter} = {counter} + 1")
            self._emit(depth, "end do")
            self.while_depth -= 1
            defined.add(counter)
        else:  # do loop
            var = _LOOP_VARS[self.loop_depth]
            self.loop_depth += 1
            low = rng.randint(1, 3)
            high = rng.randint(low, _ARRAY[1])
            self._emit(depth, f"do {var} = {low}, {high}")
            self.active_loops.append(var)
            body_defined = set(defined) | {var}
            for _ in range(rng.randint(1, 4)):
                self._gen_statement(body_defined, depth + 1)
            self._emit(depth, "end do")
            self.active_loops.pop()
            self.loop_depth -= 1
            defined.add(var)  # holds its final value after the loop

    # ------------------------------------------------------------------
    # Whole program
    # ------------------------------------------------------------------

    def _helper_units(self) -> str:
        """Two deterministic helper routines exercising the call path:
        an array-writing subroutine and an integer function."""
        rng = self.rng
        c1 = rng.randint(1, 9)
        c2 = rng.randint(1, 9)
        c3 = rng.randint(2, 97)
        return (
            "subroutine hsub(n, w)\n"
            "  integer n\n"
            "  real w(*)\n"
            f"  w(1) = real(mod(abs(n), 50)) * {c1}.0 / 8.0\n"
            "  w(2) = w(1) * 0.5 + " + f"{c2}.0\n"
            "  w(3) = abs(w(2)) + real(mod(abs(n), 7))\n"
            "end\n"
            "integer function hfun(k, m)\n"
            "  integer k, m\n"
            f"  hfun = mod(abs(k) + {c1} * abs(m) + {c2}, {c3 + 100})\n"
            "end\n"
        )

    def generate(self) -> str:
        helpers = self._helper_units() if self.calls else ""
        self.lines = [
            "program synth",
            f"  integer {', '.join(_INT_NAMES + _LOOP_VARS + _WHILE_COUNTERS)}",
            f"  real {', '.join(_FLOAT_NAMES)}, {_ARRAY[0]}({_ARRAY[1]}), chk",
            f"  integer synidx, {_IARRAY[0]}({_IARRAY[1]})",
        ]
        defined: set = set()
        # Seed a few unconditional definitions so expressions have fodder.
        self._emit(0, f"do synidx = 1, {_ARRAY[1]}")
        self._emit(1, f"{_ARRAY[0]}(synidx) = real(synidx) * 0.5")
        self._emit(1, f"{_IARRAY[0]}(synidx) = synidx * 3")
        self._emit(0, "end do")
        for name in _INT_NAMES[:3]:
            self._emit(0, f"{name} = {self.rng.randint(0, 9)}")
            defined.add(name)
        for name in _FLOAT_NAMES[:3]:
            self._emit(0, f"{name} = {self.rng.randint(0, 20) / 4.0}")
            defined.add(name)
        for _ in range(self.statements):
            self._gen_statement(defined, 0)
        # Print everything that is definitely assigned, plus a checksum.
        for name in sorted(defined):
            self._emit(0, f"print {name}")
        self._emit(0, "chk = 0.0")
        self._emit(0, f"do synidx = 1, {_ARRAY[1]}")
        self._emit(1, f"chk = chk + {_ARRAY[0]}(synidx) * real(synidx)")
        self._emit(1, f"chk = chk + real({_IARRAY[0]}(synidx))")
        self._emit(0, "end do")
        self._emit(0, "print chk")
        self.lines.append("end")
        return helpers + "\n".join(self.lines) + "\n"


def generate_program(seed: int = 0, statements: int = 14,
                     calls: bool = True,
                     rng: random.Random | None = None) -> str:
    """One random, valid, terminating mini-FORTRAN program.

    ``calls=True`` (default) includes helper routines and call sites, so
    differential tests also exercise argument passing and the
    caller/callee-saved convention.  ``rng`` overrides ``seed`` with a
    caller-owned random stream.
    """
    return ProgramGenerator(
        seed, statements=statements, calls=calls, rng=rng
    ).generate()


# ----------------------------------------------------------------------
# Seeded graph-scale generator (interference-graph shaped, no IR)
# ----------------------------------------------------------------------


class SynthGraph:
    """A seeded sparse random graph at interference-graph scale.

    Holds the adjacency-list form (the only form that is representable
    at 10^6 nodes); :meth:`bitset_rows` materializes the bit-matrix form
    the in-tree :class:`~repro.regalloc.interference.InterferenceGraph`
    uses, for cross-checks on graphs small enough to afford O(n^2) bits.
    """

    __slots__ = ("n", "density", "seed", "adjacency", "edges")

    def __init__(self, n, density, seed, adjacency, edges):
        self.n = n
        #: the *requested* average degree; the realized degree is
        #: slightly lower because duplicate draws collapse.
        self.density = density
        self.seed = seed
        #: ``adjacency[v]`` — sorted, duplicate-free neighbor list.
        self.adjacency = adjacency
        #: realized undirected edge count.
        self.edges = edges

    #: ceiling for :meth:`bitset_rows` — beyond this the bit matrix
    #: alone would cost gigabytes (n^2 / 8 bytes), which is the whole
    #: reason the repair engine runs on adjacency lists.
    MAX_BITSET_NODES = 20_000

    def bitset_rows(self) -> list:
        """The adjacency as one int bitmask per vertex (bit ``u`` set in
        row ``v`` iff ``(u, v)`` is an edge)."""
        if self.n > self.MAX_BITSET_NODES:
            raise ValueError(
                f"bitset rows for {self.n} nodes would need "
                f"~{self.n * self.n // 8} bytes; use .adjacency instead")
        rows = [0] * self.n
        for vertex, neighbors in enumerate(self.adjacency):
            mask = 0
            for neighbor in neighbors:
                mask |= 1 << neighbor
            rows[vertex] = mask
        return rows

    def __repr__(self) -> str:
        return (f"SynthGraph(n={self.n}, edges={self.edges}, "
                f"seed={self.seed})")


def generate_graph(n: int, density: float = 8.0,
                   seed: int = 0) -> SynthGraph:
    """A seeded Erdős–Rényi-style graph with ``n`` vertices and about
    ``n * density / 2`` undirected edges (``density`` = target average
    degree).

    Deterministic for a given ``(n, density, seed)`` — perfbench's
    ``graph`` workload, the CI repair smoke, and the determinism tests rely
    on byte-identical regeneration.  Duplicate edge draws are collapsed
    (not redrawn), so the realized edge count is slightly below the
    target on dense graphs; self-loops are redrawn.  Runs in O(n + m)
    and holds only the adjacency lists — 10^6 nodes at density 8 fits
    in a few hundred MB.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    rng = random.Random(seed)
    target_edges = int(n * density / 2)
    if n < 2:
        target_edges = 0
    adjacency = [[] for _ in range(n)]
    randrange = rng.randrange
    for _ in range(target_edges):
        a = randrange(n)
        b = randrange(n)
        while b == a:
            b = randrange(n)
        adjacency[a].append(b)
        adjacency[b].append(a)
    edges = 0
    for vertex in range(n):
        row = sorted(set(adjacency[vertex]))
        adjacency[vertex] = row
        edges += len(row)
    return SynthGraph(n, density, seed, adjacency, edges // 2)
