"""Differential validation of Tier-B verdicts (``repro.checker.crosscheck``).

The harness's contract is asymmetric: an honest checker must never be
contradicted by a concrete run (``unknown`` is always a legal answer),
while a checker that *lies* — claims ``safe`` for a refutable obligation
— must be caught.  The mutant tests patch the verdict aggregation to
always answer ``safe`` and assert the harness reports the lie, which is
the same evidence the CI ``--check-safety`` fuzz lane relies on.
"""

from pathlib import Path

import pytest

from repro.checker import crosscheck as CC
from repro.checker import safety as S
from repro.fuzz.__main__ import main as fuzz_main
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.typecheck import typecheck_program

BUGGY = Path(__file__).parent / "corpus" / "buggy"
CLEAN = Path(__file__).parent / "corpus" / "clean"


def _program(source: str):
    return typecheck_program(parse_program(source))


DEREF = (
    "proc main(x: list) returns (r: list) {\n"
    "  local t: list;\n"
    "  t = x->next;\n"
    "  r = t;\n"
    "}\n"
)


class TestHonestChecker:
    @pytest.mark.parametrize(
        "path",
        sorted(BUGGY.glob("*.lisl")) + sorted(CLEAN.glob("*.lisl")),
        ids=lambda p: p.stem,
    )
    def test_corpus_never_contradicted(self, path):
        source = path.read_text()
        program = _program(source)
        root = program.procedures[0].name
        findings = CC.CrossChecker().check_program(program, root, seed=11)
        assert findings == []

    def test_input_dependent_deref_not_contradicted(self):
        # The empty-list input makes the concrete run fault, but the
        # verdict there is unknown, not safe — no contradiction.
        checker = CC.CrossChecker()
        findings = checker.check_views(
            _program(DEREF), "main", [[[]], [[1, 2]]], seed=0
        )
        assert findings == []


class TestMutantIsCaught:
    def test_always_safe_mutant_contradicted(self, monkeypatch):
        monkeypatch.setattr(S, "_verdict", lambda bad, good: S.SAFE)
        findings = CC.CrossChecker().check_views(
            _program(DEREF), "main", [[[]]], seed=0
        )
        assert any(
            "contradicts a safe null-deref verdict" in f.message
            for f in findings
        )
        assert all(f.kind == "checker" for f in findings)

    def test_leak_mutant_contradicted(self, monkeypatch):
        monkeypatch.setattr(S, "_verdict", lambda bad, good: S.SAFE)
        source = (BUGGY / "leak_push.lisl").read_text()
        findings = CC.CrossChecker().check_views(
            _program(source), "main", [[[1], 5]], seed=0
        )
        assert any("leak" in f.message for f in findings)

    def test_missed_site_reported(self):
        # A deref the checker has no obligation site for is itself a
        # bug in the checker's site enumeration — reported, not ignored.
        checker = CC.CrossChecker()
        report = S.check_safety(
            CC.Analyzer(normalize_program(_program(DEREF))),
            S.SafetyOptions(),
        )
        report.sites = [s for s in report.sites
                        if s.rule_id != "safety.null-deref"]
        events = [("deref", "main", 3)]
        findings = checker._contradictions(
            report, events, "main", DEREF, seed=0
        )
        assert any("missed dereference" in f.message for f in findings)

    def test_degraded_procs_are_skipped(self):
        checker = CC.CrossChecker()
        report = S.check_safety(
            CC.Analyzer(normalize_program(_program(DEREF))),
            S.SafetyOptions(max_steps=1),
        )
        assert report.proc_status["main"].startswith("budget")
        events = [("deref", "main", 3), ("leak", "main", None)]
        assert checker._contradictions(report, events, "main", DEREF, 0) == []


class TestFuzzLane:
    def test_check_safety_parallel_matches_flags(self, capsys):
        code = fuzz_main(
            ["--check-safety", "--iters", "4", "--seed", "3", "--rounds", "2",
             "--jobs", "2"]
        )
        assert code == 0
        capsys.readouterr()
