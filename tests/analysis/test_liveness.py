"""Tests for liveness analysis and def-use chains."""

from repro.analysis import DefUse, Liveness
from repro.analysis.defuse import ENTRY_SITE
from repro.analysis.bitset import iter_bits, popcount
from repro.frontend import compile_source
from repro.ir import Function, IRBuilder, Instr, RClass


def compiled(body, header="subroutine s(n, m, i, j, k, x, y)", decls=""):
    module = compile_source(f"{header}\n{decls}\n{body}\nend\n")
    return module.function("s")


def named_vreg(function, name):
    return next(v for v in function.vregs if v.name == name)


class TestBitHelpers:
    def test_bits_roundtrip(self):
        mask = (1 << 3) | (1 << 17) | 1
        assert list(iter_bits(mask)) == [0, 3, 17]

    def test_bit_count(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3


class TestLivenessStraightline:
    def test_dead_value_not_live(self):
        f = Function("f")
        b = IRBuilder(f)
        b.start_block("entry")
        dead = b.iconst(1, "dead")
        b.ret()
        live = Liveness(f)
        assert not live.is_live_out("entry0", dead)

    def test_param_live_until_last_use(self):
        f = compiled("m = n\nk = n")
        live = Liveness(f)
        n = f.params[0]
        assert live.is_live_in(f.entry.label, n) or (
            # n may be used only within entry; then it is in the use set
            live.use[f.entry.label] >> n.id & 1
        )

    def test_live_after_walk_matches_instruction_count(self):
        f = compiled("m = n + 1\nk = m * 2")
        live = Liveness(f)
        walk = live.live_after(f.entry)
        assert len(walk) == len(f.entry.instrs)
        assert [w[0] for w in walk] == list(range(len(f.entry.instrs)))


class TestLivenessLoops:
    def test_loop_carried_value_live_around_backedge(self):
        f = compiled("do i = 1, n\nm = m + 1\nend do\nk = m")
        live = Liveness(f)
        m = named_vreg(f, "m")
        # m must be live out of the loop body (it feeds the next iteration
        # and the exit).
        body = next(b for b in f.blocks if "dobody" in b.label)
        assert live.is_live_out(body.label, m)

    def test_loop_variable_live_in_check(self):
        f = compiled("do i = 1, n\nm = m + i\nend do")
        live = Liveness(f)
        i = named_vreg(f, "i")
        check = next(b for b in f.blocks if "docheck" in b.label)
        assert live.is_live_in(check.label, i)

    def test_value_dead_after_last_use(self):
        f = compiled("m = n * 2\nk = m + 1\nj = k")
        live = Liveness(f)
        # At exit nothing is live.
        last = f.blocks[-1]
        assert live.live_out[last.label] == 0

    def test_two_disjoint_loops_local_liveness(self):
        f = compiled(
            "do i = 1, n\nm = i\nend do\n"
            "do j = 1, n\nk = j\nend do"
        )
        live = Liveness(f)
        i = named_vreg(f, "i")
        # i is dead in the second loop's body.
        second_bodies = [b for b in f.blocks if "dobody" in b.label]
        assert not live.is_live_in(second_bodies[-1].label, i)


class TestDefUse:
    def test_counts(self):
        f = compiled("m = n + n\nk = m")
        du = DefUse(f)
        n = f.params[0]
        n_defs, n_uses = du.occurrence_counts(n)
        assert n_defs == 1  # the entry site
        assert n_uses == 2

    def test_param_entry_site(self):
        f = compiled("")
        du = DefUse(f)
        assert du.defs_of(f.params[0]) == [ENTRY_SITE]

    def test_dead_detection(self):
        f = Function("f")
        b = IRBuilder(f)
        b.start_block()
        dead = b.iconst(5, "dead")
        used = b.iconst(1)
        b.emit(Instr("print", uses=[used]))
        b.ret()
        du = DefUse(f)
        assert du.is_dead(dead)
        assert not du.is_dead(used)

    def test_sites_are_block_index_pairs(self):
        f = compiled("m = n", header="subroutine s(n)")
        du = DefUse(f)
        m = named_vreg(f, "m")
        ((label, index),) = du.defs_of(m)
        assert f.block(label).instrs[index].defs == [m]

    def test_never_defined(self):
        f = Function("f")
        ghost = f.new_vreg(RClass.INT)
        du = DefUse(f)
        assert du.never_defined(ghost)
