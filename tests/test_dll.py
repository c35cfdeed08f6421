"""Tests of the doubly-linked-list subsystem (DESIGN.md section 14).

Five layers, mirroring the stack the DLL wiring runs through:

- **lang**: ``prev`` parses, pretty-prints, round-trips and typechecks
  (including the negative cases), and the CFG keeps the prev ops;
- **concrete**: ``to_dll_cells`` builds well-formed lists and
  ``dll_violations`` is exactly the ``n.prev.next == n`` oracle;
- **shape**: prev-aware analysis carries the segment attributes and
  :func:`repro.shape.dll.classify` proves the suite idioms consistent,
  while prev-free programs never grow a DLL attribute;
- **corpus**: every safe DLL benchmark checks finding-free and every
  buggy variant is flagged with exactly the recorded findings;
- **identity**: the committed prev-free summary-hash baseline
  regenerates bit-identically (the DLL wiring is invisible to SLL
  programs), and the fuzz corpus carries DLL replay seeds.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.checker import CheckOptions, check_source
from repro.concrete.heap import (
    Cell,
    dll_violations,
    from_cells,
    to_cells,
    to_dll_cells,
)
from repro.core.api import Analyzer
from repro.lang.ast import uses_prev
from repro.lang.cfg import icfg_uses_prev
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.typecheck import TypeError_, typecheck_program
from repro.shape import dll as dll_rules
from repro.shape.graph import NULL, HeapGraph

ROOT = Path(__file__).parent.parent
CORPUS = Path(__file__).parent / "corpus"
DLL_SAFE = CORPUS / "dll" / "safe"
DLL_BUGGY = CORPUS / "dll" / "buggy"

PUSH_FRONT = """\
proc main(x: list, v: int) returns (r: list) {
  local t: list;
  t = new;
  t->data = v;
  t->next = x;
  t->prev = NULL;
  if (x != NULL) {
    x->prev = t;
  }
  r = t;
}
"""

SLL_PUSH = """\
proc main(x: list, v: int) returns (r: list) {
  local t: list;
  t = new;
  t->data = v;
  t->next = x;
  r = t;
}
"""


class TestLangPrev:
    def test_parse_pretty_roundtrip(self):
        program = parse_program(PUSH_FRONT)
        printed = pretty_program(program)
        assert "t->prev = NULL;" in printed
        assert "x->prev = t;" in printed
        again = pretty_program(parse_program(printed))
        assert printed == again

    def test_prev_load_parses_and_typechecks(self):
        src = (
            "proc main(x: list) returns (r: list) {\n"
            "  r = x->prev;\n"
            "}\n"
        )
        program = typecheck_program(parse_program(src))
        assert uses_prev(normalize_program(program))

    def test_prev_on_int_rejected(self):
        src = (
            "proc main(n: int) returns (r: list) {\n"
            "  r = n->prev;\n"
            "}\n"
        )
        with pytest.raises(TypeError_, match="not a list"):
            typecheck_program(parse_program(src))

    def test_prev_store_of_int_rejected(self):
        src = (
            "proc main(x: list, n: int) returns (r: list) {\n"
            "  x->prev = n;\n"
            "  r = x;\n"
            "}\n"
        )
        with pytest.raises(TypeError_):
            typecheck_program(parse_program(src))

    def test_uses_prev_detection(self):
        dll = normalize_program(typecheck_program(parse_program(PUSH_FRONT)))
        sll = normalize_program(typecheck_program(parse_program(SLL_PUSH)))
        assert uses_prev(dll)
        assert not uses_prev(sll)

    def test_cfg_keeps_prev_ops(self):
        analyzer = Analyzer.from_source(PUSH_FRONT)
        assert icfg_uses_prev(analyzer.icfg)
        analyzer = Analyzer.from_source(SLL_PUSH)
        assert not icfg_uses_prev(analyzer.icfg)


class TestConcreteDll:
    def test_to_dll_cells_is_well_formed(self):
        head = to_dll_cells([1, 2, 3])
        assert from_cells(head) == [1, 2, 3]
        assert head.prev is None
        assert dll_violations(head) == []

    def test_to_cells_has_no_back_pointers(self):
        head = to_cells([1, 2])
        assert head.prev is None and head.next.prev is None

    def test_interior_mismatch_is_violation(self):
        head = to_dll_cells([1, 2, 3])
        head.next.prev = head.next.next  # break the second cell's back link
        assert dll_violations(head)

    def test_mid_list_head_is_not_a_violation(self):
        # A pointer aimed at an interior cell sees head.prev != None, but
        # the back pointer matches its forward link: still well-formed.
        head = to_dll_cells([1, 2, 3])
        assert dll_violations(head.next) == []

    def test_dangling_head_prev_is_violation(self):
        head = to_dll_cells([1, 2])
        head.prev = Cell(data=9)  # prev.next is None, not head
        assert dll_violations(head)

    def test_cycle_raises_instead_of_looping(self):
        head = to_dll_cells([1, 2])
        head.next.next = head
        with pytest.raises(ValueError, match="cyclic"):
            dll_violations(head)


class TestShapeClassify:
    def _summaries(self, source, proc="main", domain="am"):
        analyzer = Analyzer.from_source(source)
        result = analyzer.analyze(proc, domain=domain, max_steps=400_000)
        assert not result.diagnostics
        return result

    def test_prev_free_program_has_no_dll_attrs(self):
        result = self._summaries(SLL_PUSH)
        for entry, summary in result.summaries:
            assert not entry.graph.has_dll_attrs()
            for heap in summary:
                assert not heap.graph.has_dll_attrs()

    def test_push_front_output_classifies_consistent(self):
        result = self._summaries(PUSH_FRONT)
        assert result.summaries
        for _, summary in result.summaries:
            for heap in summary:
                verdict = dll_rules.classify_heap(heap, result.domain, ["r"])
                assert verdict == dll_rules.CONSISTENT, heap.graph

    def test_classify_broken_on_provable_mismatch(self):
        # prevof[b] = c, but c's forward link bypasses b: provably broken.
        graph = HeapGraph(
            nodes=["a", "b", "c"],
            succ={"a": "b", "b": NULL, "c": NULL},
            labels={"x": "a"},
            prevof={"a": NULL, "b": "c"},
            dllseg=["a", "b", "c"],
        )
        def entails_len1(node):
            return True
        assert dll_rules.classify(graph, ["x"], entails_len1) == dll_rules.BROKEN

    def test_classify_unknown_without_attributes(self):
        graph = HeapGraph(
            nodes=["a"], succ={"a": NULL}, labels={"x": "a"}
        )
        def entails_len1(node):
            return True
        assert dll_rules.classify(graph, ["x"], entails_len1) == dll_rules.UNKNOWN


def _finding_tuples(report):
    return [
        {
            "ruleId": f.rule_id,
            "verdict": f.verdict,
            "procedure": f.procedure,
            "line": f.line,
        }
        for f in report.findings
    ]


@pytest.mark.parametrize(
    "path", sorted(DLL_SAFE.glob("*.lisl")), ids=lambda p: p.stem
)
def test_safe_dll_corpus_is_finding_free(path):
    report = check_source(path.read_text(), CheckOptions(), path=str(path))
    assert report.findings == []
    assert report.ok


@pytest.mark.parametrize(
    "path", sorted(DLL_BUGGY.glob("*.lisl")), ids=lambda p: p.stem
)
def test_buggy_dll_corpus_matches_golden(path):
    report = check_source(path.read_text(), CheckOptions(), path=str(path))
    golden = json.loads(path.with_suffix(".expected.json").read_text())
    assert _finding_tuples(report) == golden["findings"]
    assert report.findings  # every buggy entry is flagged


def test_dll_corpus_is_populated():
    assert len(list(DLL_SAFE.glob("*.lisl"))) >= 5
    assert len(list(DLL_BUGGY.glob("*.lisl"))) >= 2


def test_fuzz_corpus_carries_dll_seeds():
    # Replayed green by tests/test_corpus_replay.py with the rest of the
    # corpus; here we only pin their existence and that they are DLL.
    seeds = sorted(CORPUS.glob("dll_gen_seed*.lisl"))
    assert len(seeds) >= 3
    for path in seeds:
        norm = normalize_program(typecheck_program(parse_program(path.read_text())))
        assert uses_prev(norm), path


class TestSllIdentity:
    def test_baseline_summary_hashes_are_bit_identical(self):
        """The DLL wiring must be invisible to prev-free programs.

        Regenerates the (graph_hash, heapset_hash) rows of every Table 1
        benchmark and prev-free corpus entry and compares them with the
        committed pre-DLL baseline.  An intentional representation
        change must rerun ``tools/gen_sll_baseline.py`` and say so.
        """
        sys.path.insert(0, str(ROOT / "tools"))
        try:
            from gen_sll_baseline import build_baseline
        finally:
            sys.path.pop(0)
        committed = json.loads(
            (Path(__file__).parent / "baseline_summary_hashes.json").read_text()
        )
        fresh = build_baseline()
        assert fresh["benchmarks"] == committed["benchmarks"]
        assert fresh["corpus"] == committed["corpus"]
