"""Tests for the analysis engine subsystem (repro.engine).

Covers: canonical hashing of graphs/heaps/heap sets (agreement modulo
isomorphism, property-style), the summary cache (hits on re-analysis,
LRU eviction, disk store roundtrip), SCC-aware scheduling (condensation
ranks, pop order, old-vs-new engine agreement), telemetry (counters,
JSONL traces, ``result.stats``), and the structured budget diagnostics.
"""

import json

import pytest
from hypothesis import given, settings

from repro import Analyzer, EngineOptions, SummaryCache
from repro.core.interproc import AnalysisBudgetExceeded, Engine
from repro.datawords.multiset import MultisetDomain
from repro.engine.canon import (
    domain_descriptor,
    graph_hash,
    heap_hash,
    heapset_hash,
    icfg_fingerprint,
)
from repro.engine.scheduler import FifoScheduler, Scheduler, condensation, tarjan_scc
from repro.engine.telemetry import Telemetry
from repro.lang.benchlib import benchmark_program
from repro.lang.cfg import build_icfg
from repro.shape.abstract_heap import AbstractHeap
from repro.shape.graph import NULL, HeapGraph
from repro.shape.heap_set import HeapSet

from tests.test_shape_graph import chain, graph_st

_AM = MultisetDomain()


# ---------------------------------------------------------------------------
# canon: stable hashing


class TestCanonicalHashing:
    def test_isomorphic_graphs_same_hash(self):
        g1 = chain({"x": 0, "y": 1})
        g2 = HeapGraph(["p", "q"], {"p": "q", "q": NULL}, {"x": "p", "y": "q"})
        assert graph_hash(g1) == graph_hash(g2)

    def test_label_placement_distinguishes_hash(self):
        assert graph_hash(chain({"x": 0, "y": 1})) != graph_hash(
            chain({"x": 0, "y": 0})
        )

    def test_hash_cached_on_graph(self):
        g = chain({"x": 0})
        h = graph_hash(g)
        assert g._stable_hash == h
        assert graph_hash(g) is h

    def test_heap_hash_modulo_isomorphism(self):
        g1 = chain({"x": 0, "y": 1})
        g2 = HeapGraph(["p", "q"], {"p": "q", "q": NULL}, {"x": "p", "y": "q"})
        h1 = AbstractHeap(g1, _AM.top())
        h2 = AbstractHeap(g2, _AM.top())
        assert heap_hash(h1, _AM) == heap_hash(h2, _AM)

    def test_heapset_hash_order_independent(self):
        a = AbstractHeap(chain({"x": 0}), _AM.top())
        b = AbstractHeap(chain({"x": 0, "y": 1}), _AM.top())
        s1 = HeapSet.of(_AM, [a, b])
        s2 = HeapSet.of(_AM, [b, a])
        assert heapset_hash(s1, _AM) == heapset_hash(s2, _AM)

    @settings(max_examples=60, deadline=None)
    @given(graph_st())
    def test_property_renamed_graph_same_hash(self, g):
        renamed = g.rename_nodes({n: f"zz_{n}" for n in g.nodes if n != NULL})
        assert graph_hash(renamed) == graph_hash(g)
        heap = AbstractHeap(g, _AM.top())
        heap2 = AbstractHeap(renamed, _AM.top())
        assert heap_hash(heap, _AM) == heap_hash(heap2, _AM)

    def test_icfg_fingerprint_distinguishes_programs(self):
        a1 = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        a2 = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = NULL; }"
        )
        a3 = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        assert icfg_fingerprint(a1.icfg) != icfg_fingerprint(a2.icfg)
        assert icfg_fingerprint(a1.icfg) == icfg_fingerprint(a3.icfg)

    def test_domain_descriptor(self):
        from repro.datawords.patterns import pattern_set
        from repro.datawords.universal import UniversalDomain

        am = domain_descriptor(MultisetDomain())
        au1 = domain_descriptor(UniversalDomain(pattern_set("P=", "P1")))
        au2 = domain_descriptor(UniversalDomain(pattern_set("P=", "P1", "P2")))
        assert am != au1 != au2
        assert au1 == domain_descriptor(UniversalDomain(pattern_set("P=", "P1")))


# ---------------------------------------------------------------------------
# scheduler: SCCs and pop order


MUTUAL_RECURSION = """
proc even(x: list) returns (n: int) {
  local t: list;
  local m: int;
  if (x == NULL) { n = 1; }
  else { t = x->next; m = odd(t); n = m; }
}
proc odd(x: list) returns (n: int) {
  local t: list;
  local m: int;
  if (x == NULL) { n = 0; }
  else { t = x->next; m = even(t); n = m; }
}
proc main(x: list) returns (n: int) {
  n = even(x);
}
"""


class TestScheduler:
    def test_tarjan_groups_mutual_recursion(self):
        icfg = build_icfg(
            Analyzer.from_source(MUTUAL_RECURSION).program
        )
        components = tarjan_scc(icfg.call_graph())
        assert ["even", "odd"] in components
        assert ["main"] in components

    def test_condensation_ranks_callees_first(self):
        rank = condensation(
            build_icfg(Analyzer.from_source(MUTUAL_RECURSION).program).call_graph()
        )
        assert rank["even"] == rank["odd"] < rank["main"]

    def test_benchlib_sort_helpers_rank_below_sorts(self):
        rank = condensation(build_icfg(benchmark_program()).call_graph())
        assert rank["qsplit"] < rank["quicksort"]
        assert rank["clone"] < rank["quicksort"]
        assert rank["concat3"] < rank["quicksort"]
        assert rank["msplit"] < rank["mergesort"]
        assert rank["merge"] < rank["mergesort"]

    def test_pop_order_callees_before_callers(self):
        sched = Scheduler({"main": {"callee"}, "callee": set()})
        sched.push(("main", "e0"), "main", depth=0)
        sched.push(("callee", "e1"), "callee", depth=1)
        assert sched.pop() == ("callee", "e1")
        assert sched.pop() == ("main", "e0")

    def test_deeper_records_first_within_scc(self):
        sched = Scheduler({"a": {"a"}})
        sched.push(("a", "shallow"), "a", depth=0)
        sched.push(("a", "deep"), "a", depth=3)
        assert sched.pop() == ("a", "deep")

    def test_pending_dedup_and_stats(self):
        sched = Scheduler({"a": set()})
        key = ("a", "e")
        sched.push(key, "a")
        sched.push(key, "a")  # already pending: ignored
        assert len(sched) == 1
        assert sched.pop() == key
        sched.push(key, "a")  # re-push after pop counts as a requeue
        stats = sched.stats()
        assert stats["requeues"] == 1
        assert stats["pushes"] == 2

    def test_fifo_scheduler_preserves_order(self):
        sched = FifoScheduler()
        sched.push("k1", "a")
        sched.push("k2", "b")
        assert sched.pop() == "k1"
        assert sched.pop() == "k2"

    def test_mutual_recursion_analyzes(self):
        res = Analyzer.from_source(MUTUAL_RECURSION).analyze("main", domain="am")
        assert res.ok
        assert res.summaries
        sccs = res.stats["scheduler"]["sccs"]
        assert sccs == 2  # {even, odd} and {main}


# ---------------------------------------------------------------------------
# engine agreement: the scheduler must not change computed summaries


def _fingerprint(result):
    domain = result.domain
    out = []
    for entry, summary in result.summaries:
        out.append(
            (
                entry.graph.key(),
                tuple(
                    sorted(
                        (h.graph.key(), domain.describe(h.value)) for h in summary
                    )
                ),
            )
        )
    return out


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "proc,domain",
        [
            ("quicksort", "am"),
            # ~10s and ~17s respectively; the quicksort/am case keeps the
            # old-vs-new agreement check in the fast lane.
            pytest.param("mergesort", "am", marks=pytest.mark.slow),
            pytest.param("init", "au", marks=pytest.mark.slow),
        ],
    )
    def test_fifo_and_scc_summaries_agree(self, proc, domain):
        analyzer = Analyzer(benchmark_program())
        fifo = analyzer.analyze(
            proc,
            domain=domain,
            engine_opts=EngineOptions(scheduler="fifo", use_cache=False),
        )
        scc = analyzer.analyze(
            proc,
            domain=domain,
            engine_opts=EngineOptions(scheduler="scc", use_cache=False),
        )
        assert fifo.ok and scc.ok
        assert _fingerprint(fifo) == _fingerprint(scc)

    def test_cached_rerun_returns_same_summaries(self):
        analyzer = Analyzer(benchmark_program())
        first = analyzer.analyze("init", domain="au")
        second = analyzer.analyze("init", domain="au")
        assert second.stats["from_cache"]
        assert _fingerprint(first) == _fingerprint(second)


# ---------------------------------------------------------------------------
# cache


class TestSummaryCache:
    def test_hit_on_reanalysis(self):
        analyzer = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        analyzer.analyze("id", domain="am")
        res = analyzer.analyze("id", domain="am")
        assert res.stats["from_cache"]
        assert analyzer.cache.hits == 1
        assert analyzer.cache.hit_rate() == 0.5

    def test_different_domain_misses(self):
        analyzer = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        analyzer.analyze("id", domain="am")
        res = analyzer.analyze("id", domain="au")
        assert not res.stats["from_cache"]

    def test_use_cache_false_bypasses(self):
        analyzer = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        analyzer.analyze("id", domain="am")
        res = analyzer.analyze(
            "id", domain="am", engine_opts=EngineOptions(use_cache=False)
        )
        assert not res.stats["from_cache"]

    def test_stateful_assume_handler_is_not_cached(self):
        calls = []

        def handler(op, state, domain):
            calls.append(op)
            return state

        analyzer = Analyzer.from_source(
            """
            proc f(x: list) returns (r: list) {
              r = x;
              assert sorted(r);
            }
            """
        )
        analyzer.analyze("f", domain="am", assume_handler=handler)
        first = len(calls)
        assert first > 0
        res = analyzer.analyze("f", domain="am", assume_handler=handler)
        assert not res.stats["from_cache"]  # handler has no cache_tag
        assert len(calls) == 2 * first

    def test_lru_eviction(self):
        cache = SummaryCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))  # refresh a
        cache.put(("c",), 3)  # evicts b
        assert cache.get(("a",)) == 1
        assert cache.get(("b",)) is None
        assert cache.stats()["evictions"] == 1


# ---------------------------------------------------------------------------
# telemetry


class TestTelemetry:
    def test_counters_and_timers(self):
        tel = Telemetry()
        tel.count("x")
        tel.count("x", 2)
        with tel.phase("p"):
            pass
        report = tel.report()
        assert report["x"] == 3
        assert report["time.p"] >= 0
        assert "events" not in report  # not tracing

    def test_event_collection(self):
        tel = Telemetry(collect_events=True)
        tel.event("summary.grew", proc="f", dependents=2)
        assert tel.events[0]["event"] == "summary.grew"
        assert tel.events[0]["proc"] == "f"
        assert tel.report()["events"] == 1

    def test_jsonl_trace_file(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        analyzer = Analyzer.from_source(
            """
            proc callee(x: list) returns (r: list) { r = x; }
            proc main(x: list) returns (r: list) { r = callee(x); }
            """
        )
        res = analyzer.analyze(
            "main", domain="am", engine_opts=EngineOptions(trace_path=trace)
        )
        assert res.ok
        lines = [json.loads(l) for l in open(trace) if l.strip()]
        assert lines, "trace file is empty"
        kinds = {l["event"] for l in lines}
        assert "record.created" in kinds
        assert "summary.grew" in kinds
        seqs = [l["seq"] for l in lines]
        assert seqs == sorted(seqs)

    def test_result_stats_has_engine_counters(self):
        analyzer = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
        res = analyzer.analyze("id", domain="am")
        assert res.stats["records"] == 2  # NULL and non-NULL entry shapes
        assert res.stats["records.created"] == 2
        assert res.stats["steps"] > 0
        assert res.stats["scheduler"]["policy"] == "scc"
        assert "cache" in res.stats
        assert "time.fixpoint" in res.stats


# ---------------------------------------------------------------------------
# budgets: structured exceptions and diagnostics


RECURSIVE_SRC = """
proc sumlen(x: list) returns (n: int) {
  local t: list;
  local m: int;
  if (x == NULL) { n = 0; }
  else { t = x->next; m = sumlen(t); n = m + 1; }
}
"""


class _GrowingDomain:
    """A stub domain whose widening never stabilizes: every widen returns a
    strictly larger value, modelling an entry widening that livelocks."""

    def is_bottom(self, value):
        return False

    def leq(self, a, b):
        return a <= b

    def join(self, a, b):
        return max(a, b)

    def widen(self, a, b):
        return max(a, b) + 1

    def rename_words(self, value, mapping):
        return value

    def top(self):
        return 0


class TestBudgets:
    def test_record_iteration_budget_is_diagnostic(self):
        analyzer = Analyzer.from_source(RECURSIVE_SRC)
        res = analyzer.analyze(
            "sumlen",
            domain="am",
            engine_opts=EngineOptions(max_record_iterations=1, use_cache=False),
        )
        assert not res.ok
        diag = res.diagnostics[0]
        assert diag.kind == "record_iterations"
        assert diag.proc == "sumlen"
        assert diag.record_key is not None
        assert diag.limit == 1
        assert "sumlen" in str(diag)

    def test_budget_exception_carries_fields(self):
        analyzer = Analyzer.from_source(RECURSIVE_SRC)
        engine = Engine(
            analyzer.icfg,
            MultisetDomain(),
            opts=EngineOptions(max_record_iterations=1, use_cache=False),
        )
        with pytest.raises(AnalysisBudgetExceeded) as exc_info:
            engine.analyze("sumlen")
        exc = exc_info.value
        assert exc.kind == "record_iterations"
        assert exc.proc == "sumlen"
        assert exc.limit == 1
        assert exc.to_dict()["proc"] == "sumlen"

    def test_global_step_budget_is_structured(self):
        analyzer = Analyzer.from_source(RECURSIVE_SRC)
        res = analyzer.analyze(
            "sumlen",
            domain="am",
            max_steps=1,
            engine_opts=EngineOptions(use_cache=False),
        )
        assert not res.ok
        assert res.diagnostics[0].kind == "global_steps"
        assert res.diagnostics[0].limit == 1

    def test_wall_clock_budget_is_structured(self):
        analyzer = Analyzer.from_source(RECURSIVE_SRC)
        res = analyzer.analyze(
            "sumlen",
            domain="am",
            max_seconds=0.0,  # expires on the first step
            engine_opts=EngineOptions(use_cache=False),
        )
        assert not res.ok
        assert res.diagnostics[0].kind == "wall_clock"
        assert res.diagnostics[0].limit == 0.0

    def test_entry_widening_livelock_is_bounded(self):
        """Regression: resetting record.iterations on entry growth used to
        defeat the iteration budget when the entry widening never
        stabilized; the monotone entry_widenings counter bounds it."""
        analyzer = Analyzer.from_source(RECURSIVE_SRC)
        domain = _GrowingDomain()
        engine = Engine(
            analyzer.icfg,
            domain,
            opts=EngineOptions(max_entry_widenings=3, use_cache=False),
        )
        graph = HeapGraph.empty(["x"])
        record = engine.get_record("sumlen", AbstractHeap(graph, 0))
        # Each call brings a strictly larger entry; the widening grows it
        # further, so the entry never stabilizes.  iterations is reset on
        # every growth (the seed behavior) but entry_widenings is monotone.
        with pytest.raises(AnalysisBudgetExceeded) as exc_info:
            for step in range(10):
                engine.get_record("sumlen", AbstractHeap(graph, record.entry.value + 1))
        exc = exc_info.value
        assert exc.kind == "entry_widenings"
        assert exc.proc == "sumlen"
        assert exc.limit == 3
        assert record.entry_widenings == 4  # monotone, never reset
        assert record.iterations == 0  # still reset per entry growth


# ---------------------------------------------------------------------------
# equivalence integration


def test_equivalence_reports_cache_stats():
    """check_equivalence analyzes each procedure in AM and then repeats the
    AM pass inside the strengthened analysis; the analyzer's summary cache
    collapses the repeats and the accounting lands on result.stats.

    ``init`` keeps this fast (sorting-class AU analyses take minutes); its
    verdict is rightly negative — init overwrites the data, so multiset
    preservation cannot be derived — but all four analysis passes run.
    """
    from repro.core.equivalence import check_equivalence

    analyzer = Analyzer(benchmark_program())
    res = check_equivalence(analyzer, "init", "init")
    assert not res.equivalent
    assert res.detail == "multiset preservation not derived"
    assert res.stats is not None
    assert res.stats["cache"]["hits"] > 0
