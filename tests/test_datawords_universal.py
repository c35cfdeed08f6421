"""Unit tests for the AU domain and the split#/concat# engine (paper §3.2, §4)."""

import json
import os
import subprocess
import sys
import textwrap

from repro.datawords import terms as T
from repro.datawords.patterns import GuardInstance, pattern_set
from repro.datawords.universal import UniversalDomain, UniversalValue
from repro.numeric.linexpr import Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron


def v(name):
    return LinExpr.var(name)


def au(*patterns):
    return UniversalDomain(pattern_set(*patterns))


def all1_body(word, *constraints):
    return GuardInstance("ALL1", (word,)), Polyhedron(constraints)


class TestLattice:
    def setup_method(self):
        self.d = au("P1")

    def test_top_bottom(self):
        assert not self.d.is_bottom(self.d.top())
        assert self.d.is_bottom(self.d.bottom())

    def test_bottom_via_contradictory_E(self):
        val = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.length("x")), 0))
            .meet_constraints([Constraint.ge(v(T.length("x")), 1)])
        )
        assert self.d.is_bottom(val)

    def test_leq_on_E(self):
        strong = UniversalValue(Polyhedron.of(Constraint.eq(v(T.hd("x")), 3)))
        weak = UniversalValue(Polyhedron.of(Constraint.ge(v(T.hd("x")), 0)))
        assert self.d.leq(strong, weak)
        assert not self.d.leq(weak, strong)

    def test_leq_on_clause(self):
        gi, body = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 0))
        strong = UniversalValue(Polyhedron.top(), {gi: body})
        weak_gi, weak_body = all1_body(
            "x", Constraint.ge(v(T.elem("x", "y1")), 0)
        )
        weak = UniversalValue(Polyhedron.top(), {weak_gi: weak_body})
        assert self.d.leq(strong, weak)
        assert not self.d.leq(weak, strong)

    def test_leq_vacuous_clause_on_left(self):
        # len(x) = 1 makes ALL1(x) vacuous: any body is entailed.
        E = Polyhedron.of(Constraint.eq(v(T.length("x")), 1))
        left = UniversalValue(E)
        gi, body = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 42))
        right = UniversalValue(Polyhedron.top(), {gi: body})
        assert self.d.leq(left, right)

    def test_leq_uses_E_context_for_bodies(self):
        # E: hd(x) = 5; clause body x[y] = hd(x); target body x[y] = 5.
        gi = GuardInstance("ALL1", ("x",))
        left = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.hd("x")), 5)),
            {gi: Polyhedron.of(
                Constraint.eq(v(T.elem("x", "y1")), v(T.hd("x")))
            )},
        )
        right = UniversalValue(
            Polyhedron.top(),
            {gi: Polyhedron.of(Constraint.eq(v(T.elem("x", "y1")), 5))},
        )
        assert self.d.leq(left, right)

    def test_join_of_E(self):
        a = UniversalValue(Polyhedron.of(Constraint.eq(v(T.length("x")), 1)))
        b = UniversalValue(Polyhedron.of(Constraint.eq(v(T.length("x")), 2)))
        j = self.d.join(a, b)
        assert j.E.entails(Constraint.ge(v(T.length("x")), 1))
        assert j.E.entails(Constraint.le(v(T.length("x")), 2))

    def test_join_vacuity_keeps_other_body(self):
        # Side a: singleton list (clause vacuous).  Side b: all zeros.
        a = UniversalValue(Polyhedron.of(Constraint.eq(v(T.length("x")), 1)))
        gi, body = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 0))
        b = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.length("x")), 2)), {gi: body}
        )
        j = self.d.join(a, b)
        assert gi in j.clauses
        assert j.clauses[gi].entails(Constraint.eq(v(T.elem("x", "y1")), 0))

    def test_join_bodies(self):
        gi = GuardInstance("ALL1", ("x",))
        E = Polyhedron.of(Constraint.ge(v(T.length("x")), 2))
        a = UniversalValue(
            E, {gi: Polyhedron.of(Constraint.eq(v(T.elem("x", "y1")), 1))}
        )
        b = UniversalValue(
            E, {gi: Polyhedron.of(Constraint.eq(v(T.elem("x", "y1")), 2))}
        )
        j = self.d.join(a, b)
        assert j.clauses[gi].entails(Constraint.ge(v(T.elem("x", "y1")), 1))
        assert j.clauses[gi].entails(Constraint.le(v(T.elem("x", "y1")), 2))

    def test_widen_stabilizes(self):
        gi = GuardInstance("ALL1", ("x",))
        E1 = Polyhedron.of(Constraint.le(v(T.length("x")), 2))
        E2 = Polyhedron.of(Constraint.le(v(T.length("x")), 3))
        body = Polyhedron.of(Constraint.ge(v(T.elem("x", "y1")), 0))
        a = UniversalValue(E1, {gi: body})
        b = UniversalValue(E2, {gi: body})
        w = self.d.widen(a, b)
        assert not w.E.entails(Constraint.le(v(T.length("x")), 3))
        assert w.clauses[gi].entails(Constraint.ge(v(T.elem("x", "y1")), 0))


class TestVocabulary:
    def setup_method(self):
        self.d = au("P1")

    def test_rename(self):
        gi, body = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 0))
        val = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.hd("x")), 0)), {gi: body}
        )
        out = self.d.rename_words(val, {"x": "z"})
        assert out.E.entails(Constraint.eq(v(T.hd("z")), 0))
        new_gi = GuardInstance("ALL1", ("z",))
        assert new_gi in out.clauses
        assert out.clauses[new_gi].entails(
            Constraint.eq(v(T.elem("z", "y1")), 0)
        )

    def test_project_words(self):
        gi, body = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 0))
        val = UniversalValue(
            Polyhedron.of(
                Constraint.eq(v(T.hd("x")), v(T.hd("z")))
            ),
            {gi: body},
        )
        out = self.d.project_words(val, ["x"])
        assert T.hd("x") not in out.E.support()
        assert not out.clauses

    def test_project_keeps_consequences(self):
        val = UniversalValue(
            Polyhedron.of(
                Constraint.eq(v(T.hd("x")), v(T.hd("y"))),
                Constraint.eq(v(T.hd("y")), v(T.hd("z"))),
            )
        )
        out = self.d.project_words(val, ["y"])
        assert out.E.entails(Constraint.eq(v(T.hd("x")), v(T.hd("z"))))

    def test_forget_data(self):
        val = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.hd("x")), v("d")))
        )
        out = self.d.forget_data(val, ["d"])
        assert "d" not in out.E.support()

    def test_add_singleton(self):
        out = self.d.add_singleton_word(self.d.top(), "x")
        assert out.E.entails(Constraint.eq(v(T.length("x")), 1))


class TestCopyEquality:
    def test_eq_copy_entails_pointwise(self):
        d = au("P=")
        val = d.add_word_copy_eq(d.top(), "x", "x0")
        assert val.E.entails(Constraint.eq(v(T.hd("x")), v(T.hd("x0"))))
        assert val.E.entails(
            Constraint.eq(v(T.length("x")), v(T.length("x0")))
        )
        gi = GuardInstance("EQ2", ("x", "x0"))
        assert gi in val.clauses

    def test_eq_copy_satisfied_by_equal_words(self):
        d = au("P=")
        val = d.add_word_copy_eq(d.top(), "x", "x0")
        assert d.satisfied_by(val, {"x": [1, 2, 3], "x0": [1, 2, 3]}, {})
        assert not d.satisfied_by(val, {"x": [1, 2, 3], "x0": [1, 2, 4]}, {})
        assert not d.satisfied_by(val, {"x": [1, 2], "x0": [1, 2, 3]}, {})


class TestSplit:
    def test_split_basic_lengths(self):
        d = au("P1")
        val = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.length("x")), 5))
        )
        out = d.split(val, "x", "t", all_words=["x"])
        assert out.E.entails(Constraint.eq(v(T.length("x")), 1))
        assert out.E.entails(Constraint.eq(v(T.length("t")), 4))

    def test_split_infeasible_for_singleton(self):
        d = au("P1")
        val = UniversalValue(
            Polyhedron.of(Constraint.eq(v(T.length("x")), 1))
        )
        out = d.split(val, "x", "t", all_words=["x"])
        assert d.is_bottom(out)

    def test_split_propagates_all1_to_new_head(self):
        # forall y in tl(x). x[y] = 7, hd(x) = 7 --> hd(t) = 7 after split.
        d = au("P1")
        gi, body = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 7))
        val = UniversalValue(
            Polyhedron.of(
                Constraint.eq(v(T.hd("x")), 7),
                Constraint.ge(v(T.length("x")), 2),
            ),
            {gi: body},
        )
        out = d.split(val, "x", "t", all_words=["x"])
        assert out.E.entails(Constraint.eq(v(T.hd("t")), 7))
        new_gi = GuardInstance("ALL1", ("t",))
        assert new_gi in out.clauses
        assert out.clauses[new_gi].entails(
            Constraint.eq(v(T.elem("t", "y1")), 7)
        )

    def test_split_keeps_sortedness(self):
        d = au("P2")
        ord2 = GuardInstance("ORD2", ("x",))
        all1 = GuardInstance("ALL1", ("x",))
        sorted_body = Polyhedron.of(
            Constraint.le(v(T.elem("x", "y1")), v(T.elem("x", "y2")))
        )
        hd_body = Polyhedron.of(
            Constraint.le(v(T.hd("x")), v(T.elem("x", "y1")))
        )
        val = UniversalValue(
            Polyhedron.of(Constraint.ge(v(T.length("x")), 2)),
            {ord2: sorted_body, all1: hd_body},
        )
        out = d.split(val, "x", "t", all_words=["x"])
        # hd(x) <= hd(t): head of list <= head of tail.
        assert out.E.entails(Constraint.le(v(T.hd("x")), v(T.hd("t"))))
        new_ord2 = GuardInstance("ORD2", ("t",))
        assert new_ord2 in out.clauses
        assert out.clauses[new_ord2].entails(
            Constraint.le(v(T.elem("t", "y1")), v(T.elem("t", "y2")))
        )
        # hd(t) <= every element of tl(t).
        new_all1 = GuardInstance("ALL1", ("t",))
        assert new_all1 in out.clauses
        assert out.clauses[new_all1].entails(
            Constraint.le(v(T.hd("t")), v(T.elem("t", "y1")))
        )

    def test_split_keeps_equality_with_untouched_copy(self):
        d = au("P=")
        val = d.add_word_copy_eq(d.top(), "x", "z")
        val = d.meet_constraint(
            val, Constraint.ge(v(T.length("x")), 2)
        )
        out = d.split(val, "x", "t", all_words=["x", "z"])
        # hd preserved; tail suffix-aligned with z; anchor for hd(t).
        assert out.E.entails(Constraint.eq(v(T.hd("x")), v(T.hd("z"))))
        suf = GuardInstance("SUF2", ("t", "z"))
        assert suf in out.clauses
        bef = GuardInstance("BEF2", ("t", "z"))
        assert bef in out.clauses
        yb = bef.posvars()[0]
        assert out.clauses[bef].entails(
            Constraint.eq(v(T.elem("z", yb)), v(T.hd("t")))
        )


class TestConcat:
    def test_concat_lengths_add(self):
        d = au("P1")
        val = UniversalValue(
            Polyhedron.of(
                Constraint.eq(v(T.length("x")), 2),
                Constraint.eq(v(T.length("t")), 3),
            )
        )
        out = d.concat(val, "x", ["x", "t"], all_words=["x", "t"])
        assert out.E.entails(Constraint.eq(v(T.length("x")), 5))

    def test_concat_all_equal_elements(self):
        # x = [7, 7...], t = [7, 7...]  -->  x·t all 7.
        d = au("P1")
        gx, bx = all1_body("x", Constraint.eq(v(T.elem("x", "y1")), 7))
        gt, bt = all1_body("t", Constraint.eq(v(T.elem("t", "y1")), 7))
        val = UniversalValue(
            Polyhedron.of(
                Constraint.eq(v(T.hd("x")), 7),
                Constraint.eq(v(T.hd("t")), 7),
            ),
            {gx: bx, gt: bt},
        )
        out = d.concat(val, "x", ["x", "t"], all_words=["x", "t"])
        gi = GuardInstance("ALL1", ("x",))
        assert gi in out.clauses
        assert out.clauses[gi].entails(Constraint.eq(v(T.elem("x", "y1")), 7))
        assert out.E.entails(Constraint.eq(v(T.hd("x")), 7))

    def test_concat_sortedness(self):
        # sorted x, sorted t, all of x <= hd(t), hd(t) <= all of t
        d = au("P2")
        ord_x = GuardInstance("ORD2", ("x",))
        ord_t = GuardInstance("ORD2", ("t",))
        all_x = GuardInstance("ALL1", ("x",))
        all_t = GuardInstance("ALL1", ("t",))
        cross = GuardInstance("CROSS2", ("x", "t"))
        val = UniversalValue(
            Polyhedron.of(
                Constraint.le(v(T.hd("x")), v(T.hd("t"))),
            ),
            {
                ord_x: Polyhedron.of(
                    Constraint.le(v(T.elem("x", "y1")), v(T.elem("x", "y2")))
                ),
                ord_t: Polyhedron.of(
                    Constraint.le(v(T.elem("t", "y1")), v(T.elem("t", "y2")))
                ),
                all_x: Polyhedron.of(
                    Constraint.le(v(T.hd("x")), v(T.elem("x", "y1"))),
                    Constraint.le(v(T.elem("x", "y1")), v(T.hd("t"))),
                ),
                all_t: Polyhedron.of(
                    Constraint.le(v(T.hd("t")), v(T.elem("t", "y1"))),
                ),
                cross: Polyhedron.of(
                    Constraint.le(v(T.elem("x", "y1")), v(T.elem("t", "y2")))
                ),
            },
        )
        out = d.concat(val, "x", ["x", "t"], all_words=["x", "t"])
        gi = GuardInstance("ORD2", ("x",))
        assert gi in out.clauses
        assert out.clauses[gi].entails(
            Constraint.le(v(T.elem("x", "y1")), v(T.elem("x", "y2")))
        )
        gi1 = GuardInstance("ALL1", ("x",))
        assert gi1 in out.clauses
        assert out.clauses[gi1].entails(
            Constraint.le(v(T.hd("x")), v(T.elem("x", "y1")))
        )

    def test_traversal_roundtrip_recovers_full_equality(self):
        """The crux of eq-preservation: split then re-fold keeps eq(x, z)."""
        d = au("P=")
        val = d.add_word_copy_eq(d.top(), "x", "z")
        val = d.meet_constraint(val, Constraint.ge(v(T.length("x")), 2))
        stepped = d.split(val, "x", "t", all_words=["x", "z"])
        back = d.concat(stepped, "x", ["x", "t"], all_words=["x", "t", "z"])
        assert back.E.entails(Constraint.eq(v(T.hd("x")), v(T.hd("z"))))
        assert back.E.entails(
            Constraint.eq(v(T.length("x")), v(T.length("z")))
        )
        eq = GuardInstance("EQ2", ("x", "z"))
        assert eq in back.clauses
        assert back.clauses[eq].entails(
            Constraint.eq(v(T.elem("x", "y1")), v(T.elem("z", "y2")))
        )


class TestDataAssign:
    def setup_method(self):
        self.d = au("P1")

    def test_assign_hd(self):
        val = UniversalValue(Polyhedron.of(Constraint.eq(v("d"), 4)))
        out = self.d.assign_hd(val, "x", v("d"))
        assert out.E.entails(Constraint.eq(v(T.hd("x")), 4))

    def test_assign_hd_havoc(self):
        val = UniversalValue(Polyhedron.of(Constraint.eq(v(T.hd("x")), 4)))
        out = self.d.assign_hd(val, "x", None)
        assert not out.E.entails(Constraint.eq(v(T.hd("x")), 4))

    def test_assign_hd_updates_clause_bodies(self):
        gi = GuardInstance("ALL1", ("x",))
        body = Polyhedron.of(
            Constraint.le(v(T.elem("x", "y1")), v(T.hd("x")))
        )
        val = UniversalValue(Polyhedron.top(), {gi: body})
        out = self.d.assign_hd(val, "x", None)
        assert gi not in out.clauses or T.hd("x") not in out.clauses[gi].support()

    def test_assign_data_increment(self):
        val = UniversalValue(Polyhedron.of(Constraint.eq(v("d"), 1)))
        out = self.d.assign_data(val, "d", v("d") + 1)
        assert out.E.entails(Constraint.eq(v("d"), 2))

    def test_meet_and_entails_constraint(self):
        val = self.d.meet_constraint(
            self.d.top(), Constraint.ge(v(T.hd("x")), 3)
        )
        assert self.d.entails_constraint(val, Constraint.ge(v(T.hd("x")), 0))
        assert not self.d.entails_constraint(
            val, Constraint.ge(v(T.hd("x")), 4)
        )


class TestEvaluation:
    def test_satisfied_all1(self):
        d = au("P1")
        gi, body = all1_body("x", Constraint.ge(v(T.elem("x", "y1")), 5))
        val = UniversalValue(Polyhedron.top(), {gi: body})
        assert d.satisfied_by(val, {"x": [0, 5, 9]}, {})
        assert not d.satisfied_by(val, {"x": [0, 4]}, {})

    def test_satisfied_sortedness(self):
        d = au("P2")
        gi = GuardInstance("ORD2", ("x",))
        body = Polyhedron.of(
            Constraint.le(v(T.elem("x", "y1")), v(T.elem("x", "y2")))
        )
        val = UniversalValue(Polyhedron.top(), {gi: body})
        assert d.satisfied_by(val, {"x": [9, 1, 2, 3]}, {})
        assert not d.satisfied_by(val, {"x": [0, 3, 2]}, {})

    def test_describe_mentions_guards(self):
        d = au("P1")
        gi, body = all1_body("x", Constraint.ge(v(T.elem("x", "y1")), 5))
        val = UniversalValue(Polyhedron.top(), {gi: body})
        assert "ALL1" in d.describe(val)


class TestDeterminism:
    def test_lp_work_is_independent_of_string_hashing(self):
        # The clause merge order used to follow set iteration, so the LP
        # queries of an AU run (and their counters) varied with
        # PYTHONHASHSEED; init/au issued 3,267 vs 3,277 solves at seeds 0/7.
        code = textwrap.dedent(
            """
            import json
            from repro import Analyzer
            from repro.lang.benchlib import benchmark_program
            from repro.numeric import simplex

            simplex.clear_caches()
            result = Analyzer(benchmark_program()).analyze("init", domain="au")
            print(json.dumps({
                "lp": simplex.cache_stats(),
                "hashes": sorted(map(list, result.summary_hashes())),
            }, sort_keys=True))
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        procs = []
        for seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            procs.append(subprocess.Popen(
                [sys.executable, "-c", code], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ))
        runs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            runs.append(json.loads(out))
        assert runs[0] == runs[1]
