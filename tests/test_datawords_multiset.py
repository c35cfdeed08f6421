"""Unit tests for the AM multiset domain (paper §3.3)."""

from fractions import Fraction

import pytest

from repro import kernels
from repro.datawords import terms as T
from repro.datawords.multiset import MultisetDomain, MultisetValue
from repro.numeric.linexpr import Constraint, LinExpr

AM = MultisetDomain()


def ms_eq(a, b):
    """Row for ms(a) = ms(b)."""
    return {
        T.mhd(a): Fraction(1),
        T.mtl(a): Fraction(1),
        T.mhd(b): Fraction(-1),
        T.mtl(b): Fraction(-1),
    }


class TestLattice:
    def test_top_bottom(self):
        assert not AM.is_bottom(AM.top())
        assert AM.is_bottom(AM.bottom())

    def test_leq_reflexive(self):
        v = MultisetValue([ms_eq("x", "y")])
        assert AM.leq(v, v)

    def test_leq_top(self):
        v = MultisetValue([ms_eq("x", "y")])
        assert AM.leq(v, AM.top())
        assert not AM.leq(AM.top(), v)

    def test_leq_transitive_consequence(self):
        v = MultisetValue([ms_eq("x", "y"), ms_eq("y", "z")])
        target = MultisetValue([ms_eq("x", "z")])
        assert AM.leq(v, target)

    def test_join_keeps_common(self):
        a = MultisetValue([ms_eq("x", "y"), ms_eq("x", "z")])
        b = MultisetValue([ms_eq("x", "y")])
        j = AM.join(a, b)
        assert AM.leq(j, MultisetValue([ms_eq("x", "y")]))
        assert not AM.leq(j, MultisetValue([ms_eq("x", "z")]))

    def test_join_derives_consequences(self):
        # {x=y, y=z} join {x=w, w=z} both imply x=z.
        a = MultisetValue([ms_eq("x", "y"), ms_eq("y", "z")])
        b = MultisetValue([ms_eq("x", "w"), ms_eq("w", "z")])
        j = AM.join(a, b)
        assert AM.leq(j, MultisetValue([ms_eq("x", "z")]))

    def test_join_with_bottom(self):
        v = MultisetValue([ms_eq("x", "y")])
        assert AM.join(v, AM.bottom()) == v
        assert AM.join(AM.bottom(), v) == v

    def test_meet(self):
        a = MultisetValue([ms_eq("x", "y")])
        b = MultisetValue([ms_eq("y", "z")])
        m = AM.meet(a, b)
        assert AM.leq(m, MultisetValue([ms_eq("x", "z")]))

    def test_widen_is_join(self):
        a = MultisetValue([ms_eq("x", "y")])
        b = MultisetValue([ms_eq("x", "y"), ms_eq("y", "z")])
        assert AM.widen(a, b) == AM.join(a, b)


class TestVocabulary:
    def test_rename(self):
        v = MultisetValue([ms_eq("x", "y")])
        r = AM.rename_words(v, {"x": "a"})
        assert AM.leq(r, MultisetValue([ms_eq("a", "y")]))

    def test_project_words_drops_info(self):
        v = MultisetValue([ms_eq("x", "y")])
        p = AM.project_words(v, ["y"])
        assert not p.rows

    def test_project_words_keeps_transitive(self):
        v = MultisetValue([ms_eq("x", "y"), ms_eq("y", "z")])
        p = AM.project_words(v, ["y"])
        assert AM.leq(p, MultisetValue([ms_eq("x", "z")]))

    def test_forget_data(self):
        v = MultisetValue([{T.mhd("x"): Fraction(1), "d": Fraction(-1)}])
        p = AM.forget_data(v, ["d"])
        assert not p.rows

    def test_add_singleton_word(self):
        v = AM.add_singleton_word(AM.top(), "x")
        assert AM.entails_row(v, {T.mtl("x"): Fraction(1)})


class TestTransformers:
    def test_concat_preserves_total_multiset(self):
        # ms(x)=ms(z); concat x := x·y gives ms(x) = ms(z) ⊎ ms(y)? No --
        # the old relation is on the old x, so afterwards
        # ms(new x) = ms(z) ⊎ mhd(y) ⊎ mtl(y).
        v = MultisetValue([ms_eq("x", "z")])
        c = AM.concat(v, "x", ["x", "y"])
        expected = {
            T.mhd("x"): Fraction(1),
            T.mtl("x"): Fraction(1),
            T.mhd("z"): Fraction(-1),
            T.mtl("z"): Fraction(-1),
            # minus ms(y)... y was absorbed: its terms are gone
        }
        # After the concat, ms(x) = ms(z) ⊎ (the absorbed y): since y's
        # terms left the vocabulary, the equality with z alone must be gone.
        assert not AM.entails_row(c, expected)

    def test_concat_then_totals_add_up(self):
        # ms(a) = ms(p) ⊎ ms(q): concat p := p·q yields ms(a) = ms(p).
        row = {
            T.mhd("a"): Fraction(1),
            T.mtl("a"): Fraction(1),
            T.mhd("p"): Fraction(-1),
            T.mtl("p"): Fraction(-1),
            T.mhd("q"): Fraction(-1),
            T.mtl("q"): Fraction(-1),
        }
        v = MultisetValue([row])
        c = AM.concat(v, "p", ["p", "q"])
        assert AM.entails_row(c, ms_eq("a", "p"))

    def test_concat_into_fresh_target(self):
        row = {
            T.mhd("a"): Fraction(1),
            T.mtl("a"): Fraction(1),
            T.mhd("p"): Fraction(-1),
            T.mtl("p"): Fraction(-1),
            T.mhd("q"): Fraction(-1),
            T.mtl("q"): Fraction(-1),
        }
        v = MultisetValue([row])
        c = AM.concat(v, "r", ["p", "q"])
        assert AM.entails_row(c, ms_eq("a", "r"))

    def test_split_preserves_equality(self):
        v = MultisetValue([ms_eq("x", "z")])
        s = AM.split(v, "x", "t")
        # ms(x before) = mhd(x) ⊎ mhd(t) ⊎ mtl(t) = ms(z)
        row = {
            T.mhd("x"): Fraction(1),
            T.mhd("t"): Fraction(1),
            T.mtl("t"): Fraction(1),
            T.mhd("z"): Fraction(-1),
            T.mtl("z"): Fraction(-1),
        }
        assert AM.entails_row(s, row)

    def test_split_then_concat_roundtrip(self):
        v = MultisetValue([ms_eq("x", "z")])
        s = AM.split(v, "x", "t")
        back = AM.concat(s, "x", ["x", "t"])
        assert AM.entails_row(back, ms_eq("x", "z"))

    def test_restrict_len1(self):
        v = AM.restrict_len1(AM.top(), "x")
        assert AM.entails_row(v, {T.mtl("x"): Fraction(1)})


class TestDataTransformers:
    def test_assign_hd_to_data_var(self):
        v = AM.assign_hd(AM.top(), "x", LinExpr.var("d"))
        assert AM.entails_row(v, {T.mhd("x"): Fraction(1), "d": Fraction(-1)})

    def test_assign_hd_forgets_old(self):
        v = MultisetValue([{T.mhd("x"): Fraction(1), "d": Fraction(-1)}])
        out = AM.assign_hd(v, "x", None)
        assert not out.rows

    def test_assign_hd_from_other_head(self):
        v = AM.assign_hd(AM.top(), "x", LinExpr.var(T.hd("y")))
        assert AM.entails_row(
            v, {T.mhd("x"): Fraction(1), T.mhd("y"): Fraction(-1)}
        )

    def test_assign_hd_complex_expr_is_projected(self):
        v = AM.assign_hd(AM.top(), "x", LinExpr.var("d") + 1)
        assert not v.rows

    def test_assign_data(self):
        v = AM.assign_data(AM.top(), "d", LinExpr.var(T.hd("x")))
        assert AM.entails_row(v, {"d": Fraction(1), T.mhd("x"): Fraction(-1)})

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_assignments_keep_bottom(self, mode):
        with kernels.mode_ctx(mode):
            hd = AM.assign_hd(AM.bottom(), "x", LinExpr.var("d"))
            data = AM.assign_data(AM.bottom(), "d", LinExpr.var("e"))
        assert AM.is_bottom(hd)
        assert AM.is_bottom(data)

    def test_meet_constraint_singleton_equality(self):
        c = Constraint.eq(LinExpr.var(T.hd("x")), LinExpr.var("d"))
        v = AM.meet_constraint(AM.top(), c)
        assert AM.entails_row(v, {T.mhd("x"): Fraction(1), "d": Fraction(-1)})

    def test_meet_constraint_inequality_ignored(self):
        c = Constraint.ge(LinExpr.var(T.hd("x")), LinExpr.var("d"))
        v = AM.meet_constraint(AM.top(), c)
        assert not v.rows

    def test_add_word_copy_eq(self):
        v = AM.add_word_copy_eq(AM.top(), "x", "x0")
        assert AM.entails_row(
            v, {T.mhd("x"): Fraction(1), T.mhd("x0"): Fraction(-1)}
        )
        assert AM.entails_row(v, ms_eq("x", "x0"))


class TestMembership:
    def test_membership_from_ms_equality(self):
        v = MultisetValue([ms_eq("n", "l")])
        decomps = AM.membership_decompositions(T.mhd("n"), v)
        assert any(
            set(d) == {(T.mhd("l"), 1), (T.mtl("l"), 1)} for d in decomps
        )

    def test_membership_from_union(self):
        # ms(a) = ms(l) ⊎ ms(r): mhd(a) ⊑ that union.
        row = {
            T.mhd("a"): Fraction(1),
            T.mtl("a"): Fraction(1),
            T.mhd("l"): Fraction(-1),
            T.mtl("l"): Fraction(-1),
            T.mhd("r"): Fraction(-1),
            T.mtl("r"): Fraction(-1),
        }
        v = MultisetValue([row])
        decomps = AM.membership_decompositions(T.mhd("a"), v)
        assert any(
            set(d) >= {(T.mhd("l"), 1), (T.mhd("r"), 1)} for d in decomps
        )

    def test_no_membership_without_rows(self):
        assert AM.membership_decompositions(T.mhd("x"), AM.top()) == []


class TestEvaluation:
    def test_satisfied_ms_equality(self):
        v = MultisetValue([ms_eq("x", "y")])
        assert AM.satisfied_by(v, {"x": [1, 2, 2], "y": [2, 1, 2]}, {})
        assert not AM.satisfied_by(v, {"x": [1, 2], "y": [1, 3]}, {})

    def test_satisfied_with_data_vars(self):
        v = MultisetValue([{T.mhd("x"): Fraction(1), "d": Fraction(-1)}])
        assert AM.satisfied_by(v, {"x": [7, 1]}, {"d": 7})
        assert not AM.satisfied_by(v, {"x": [8, 1]}, {"d": 7})

    def test_bottom_never_satisfied(self):
        assert not AM.satisfied_by(AM.bottom(), {"x": [1]}, {})

    def test_describe_groups_ms(self):
        v = MultisetValue([ms_eq("x", "y")])
        text = AM.describe(v)
        assert "ms(x)" in text and "ms(y)" in text
