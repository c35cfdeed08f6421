"""The termination prover (DESIGN §12): discovery, verdicts, refutation.

Covers the subsystem's public contract end to end:

- **loop discovery** is dominator-based, so nested loops get separate
  regions and the inner entry edge is never mistaken for a back edge;
- **corpus goldens**: every file under ``tests/corpus/terminating`` is
  certified with zero possibly-nonterminating alarms, every file under
  ``tests/corpus/nonterminating`` is flagged, and both match committed
  expected-findings JSON byte for byte;
- **honest budgets**: an exhausted wall-clock budget degrades to
  ``unknown`` plus a ``checker.incomplete`` note, never a stall or an
  invented verdict;
- **refutation**: the concrete cross-checker catches a prover that lies
  (the mutant test) and stays silent on sound certificates;
- **Table 1**: every benchmark procedure gets a verdict, none is a
  false alarm, and at least 80% are proved terminating (slow lane).
"""

import json
from pathlib import Path

import pytest

from repro.checker.__main__ import main as lint_main
from repro.checker.driver import CheckOptions, check_source
from repro.checker.findings import (
    POSSIBLY_NONTERMINATING,
    RULE_SAFETY_TERMINATION,
    TERMINATING,
    UNKNOWN,
)
from repro.core.api import Analyzer
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.oracle import OracleConfig
from repro.lang.benchlib import TABLE1, benchmark_program
from repro.termination import (
    TerminationOptions,
    check_termination,
    find_loops,
    loop_candidates,
)
from repro.termination.crosscheck import TerminationCrossChecker

CORPUS = Path(__file__).parent / "corpus"
TERMINATING_DIR = CORPUS / "terminating"
NONTERMINATING_DIR = CORPUS / "nonterminating"

CHECK = CheckOptions(tier="termination", include_safe=True)

#: proc name and deterministic interpreter inputs per corpus file, for
#: the concrete cross-check lane.
CORPUS_RUNS = {
    "list_walk": ("walk", [[[1, 2, 3]], [[]]]),
    "countdown": ("countdown", [[3], [0], [-2]]),
    "tail_recursion": ("length", [[[5, 1]], [[]]]),
    "nested_sweep": ("sweep", [[[2, 4, 6]], [[]]]),
}


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


# -- loop discovery and candidates ---------------------------------------------


class TestLoopDiscovery:
    def test_nested_loops_have_separate_regions(self):
        source = (TERMINATING_DIR / "nested_sweep.lisl").read_text()
        cfg = Analyzer.from_source(source).icfg.cfg("sweep")
        loops = find_loops(cfg)
        assert len(loops) == 2
        outer, inner = sorted(loops, key=lambda l: len(l.region), reverse=True)
        # Dominator-based back edges: the inner loop's entry edge is
        # reachable from the inner head around the outer loop, but the
        # inner head does not dominate it, so the inner region stays a
        # strict subset of the outer one.
        assert inner.region < outer.region
        assert inner.head != outer.head
        for loop in loops:
            assert all(src in loop.region for src in loop.back_srcs)

    def test_straightline_body_has_no_loops(self):
        cfg = Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        ).icfg.cfg("id")
        assert find_loops(cfg) == []

    def test_guard_and_advanced_pointer_candidates(self):
        source = (TERMINATING_DIR / "list_walk.lisl").read_text()
        cfg = Analyzer.from_source(source).icfg.cfg("walk")
        (loop,) = find_loops(cfg)
        labels = [c.label for c in loop_candidates(cfg, loop)]
        assert "pathlen(c)" in labels

    def test_data_gap_candidate(self):
        source = (TERMINATING_DIR / "countdown.lisl").read_text()
        cfg = Analyzer.from_source(source).icfg.cfg("countdown")
        (loop,) = find_loops(cfg)
        labels = [c.label for c in loop_candidates(cfg, loop)]
        assert "i-0" in labels


# -- corpus gates ---------------------------------------------------------------


@pytest.mark.parametrize(
    "path", sorted(TERMINATING_DIR.glob("*.lisl")), ids=lambda p: p.stem
)
def test_terminating_corpus_is_certified(path):
    report = check_source(path.read_text(), CHECK, path=str(path))
    golden = json.loads(path.with_suffix(".expected.json").read_text())
    assert _finding_tuples(report) == golden["findings"]
    verdicts = {f.verdict for f in report.findings}
    assert verdicts == {TERMINATING}  # zero false alarms, zero unknowns
    assert report.ok


@pytest.mark.parametrize(
    "path", sorted(NONTERMINATING_DIR.glob("*.lisl")), ids=lambda p: p.stem
)
def test_nonterminating_corpus_is_flagged(path):
    report = check_source(path.read_text(), CHECK, path=str(path))
    golden = json.loads(path.with_suffix(".expected.json").read_text())
    assert _finding_tuples(report) == golden["findings"]
    verdicts = [f.verdict for f in report.findings]
    assert POSSIBLY_NONTERMINATING in verdicts
    assert TERMINATING not in verdicts
    assert not report.ok


def test_loop_free_procedure_is_terminating():
    report = check_termination(
        Analyzer.from_source(
            "proc id(x: list) returns (r: list) { r = x; }"
        )
    )
    assert report.proc_status == {"id": "ok"}
    assert report.proc_verdict("id") == TERMINATING
    assert report.findings(include_safe=True) == []


def test_mutual_recursion_is_honest_unknown():
    source = (
        "proc even(n: int) returns (r: int) {\n"
        "  local m: int;\n"
        "  if (n > 0) { m = n - 1; r = odd(m); } else { r = 1; }\n"
        "}\n"
        "proc odd(n: int) returns (r: int) {\n"
        "  local m: int;\n"
        "  if (n > 0) { m = n - 1; r = even(m); } else { r = 0; }\n"
        "}\n"
    )
    report = check_termination(Analyzer.from_source(source))
    for proc in ("even", "odd"):
        assert report.proc_verdict(proc) == UNKNOWN
    messages = [s.message for s in report.sites]
    assert any("outside the prover's scope" in m for m in messages)


# -- honest budget degradation --------------------------------------------------


class TestBudget:
    def test_exhausted_budget_degrades_to_unknown(self):
        source = (TERMINATING_DIR / "list_walk.lisl").read_text()
        report = check_termination(
            Analyzer.from_source(source), TerminationOptions(max_seconds=0.0)
        )
        assert report.proc_status["walk"].startswith("budget")
        assert report.proc_verdict("walk") == UNKNOWN
        rules = {f.rule_id for f in report.findings(include_safe=True)}
        assert rules == {RULE_SAFETY_TERMINATION, "checker.incomplete"}

    def test_budget_threads_through_the_checker_tier(self):
        source = (TERMINATING_DIR / "list_walk.lisl").read_text()
        opts = CheckOptions(
            tier="termination",
            include_safe=True,
            termination=TerminationOptions(max_seconds=0.0),
        )
        report = check_source(source, opts)
        assert "checker.incomplete" in {f.rule_id for f in report.findings}
        assert report.stats["termination_verdicts"].get(TERMINATING, 0) == 0


# -- CLI -----------------------------------------------------------------------


class TestCLI:
    def test_tier_termination_exit_codes(self, capsys):
        good = str(TERMINATING_DIR / "list_walk.lisl")
        bad = str(NONTERMINATING_DIR / "stuck_walk.lisl")
        assert lint_main([good, "--tier", "termination"]) == 0
        assert lint_main([bad, "--tier", "termination"]) == 1
        capsys.readouterr()

    def test_rules_flag_implies_termination_tier(self, capsys):
        bad = str(NONTERMINATING_DIR / "spin_counter.lisl")
        assert lint_main([bad, "--rules", "safety.termination"]) == 1
        capsys.readouterr()

    def test_mixing_termination_with_other_rules_is_usage_error(self, capsys):
        path = str(TERMINATING_DIR / "list_walk.lisl")
        code = lint_main(
            [path, "--rules", "safety.termination,lint.dead-store"]
        )
        assert code == 2
        capsys.readouterr()


# -- concrete cross-validation --------------------------------------------------


class TestCrossCheck:
    def test_mutant_prover_is_caught(self, monkeypatch):
        # Make the prover lie: every entailment "holds", so the stuck
        # walk gets a terminating certificate for pathlen(x).  A concrete
        # run then observes the measure not decreasing at a head arrival
        # — the contradiction the fuzz lane exists to catch.
        from repro.termination import decrease

        monkeypatch.setattr(decrease, "_entails", lambda *args: True)
        source = (NONTERMINATING_DIR / "stuck_walk.lisl").read_text()
        checker = TerminationCrossChecker(
            OracleConfig(domains=("au",), max_interp_steps=2000)
        )
        findings = checker.check_source(source, "stuck", [[[7, 8, 9]]])
        assert findings
        assert any("did not decrease" in f.message for f in findings)

    @pytest.mark.parametrize(
        "path", sorted(TERMINATING_DIR.glob("*.lisl")), ids=lambda p: p.stem
    )
    def test_honest_certificates_survive_concrete_runs(self, path):
        root, views_list = CORPUS_RUNS[path.stem]
        checker = TerminationCrossChecker()
        findings = checker.check_source(path.read_text(), root, views_list)
        assert findings == []

    def test_dll_program_runs_on_dll_inputs(self, monkeypatch):
        # The prover assumes a prev-using program's arguments are DLLs, so
        # the lane must run it on back-linked inputs.  Then the backward
        # walk of dll_traverse_back visits all four cells of [1, 2, 3, 4]
        # (four back-edge arrivals at its head); on a singly-linked input
        # ``c->prev`` is NULL and it stops after one.
        from repro.termination import crosscheck as TC

        arrivals = []
        observe = TC._TerminationObserver.__call__

        def spy(self, cfg, edge, env):
            arrivals.append((edge.src, edge.dst))
            observe(self, cfg, edge, env)

        monkeypatch.setattr(TC._TerminationObserver, "__call__", spy)
        source = (CORPUS / "dll" / "safe" / "dll_traverse_back.lisl").read_text()
        findings = TerminationCrossChecker().check_source(
            source, "main", [[[1, 2, 3, 4]]]
        )
        assert findings == []
        loops = find_loops(Analyzer.from_source(source).icfg.cfg("main"))
        backward = max(loops, key=lambda loop: loop.line)
        back_arrivals = [
            (src, dst)
            for src, dst in arrivals
            if dst == backward.head and src in backward.region
        ]
        assert len(back_arrivals) == 4

    def test_fuzz_cli_flags_are_exclusive(self, capsys):
        code = fuzz_main(["--check-safety", "--check-termination"])
        assert code == 2
        capsys.readouterr()


# -- service integration --------------------------------------------------------


class TestService:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.gateway.server import GatewayConfig, GatewayThread

        gw = GatewayThread(
            GatewayConfig(jobs=0, store_dir=str(tmp_path / "store"))
        ).start()
        yield gw
        gw.stop()

    def test_check_verb_termination_tier_warm_cache(self, server):
        from repro.service.client import ServiceClient

        source = (TERMINATING_DIR / "list_walk.lisl").read_text()
        _, (host, port) = server.address
        with ServiceClient.connect_tcp(host, port) as client:
            cold = client.check(source, tier="termination")
            assert cold["ok"]
            assert cold["result"]["checked"] == ["walk"]
            assert cold["result"]["reused"] == []
            records = cold["result"]["diagnostics"]["runs"][0]["results"]
            assert [r["verdict"] for r in records] == [TERMINATING]

            warm = client.check(source, tier="termination")
            assert warm["result"]["checked"] == []
            assert warm["result"]["reused"] == ["walk"]
            warm_records = warm["result"]["diagnostics"]["runs"][0]["results"]
            assert warm_records == records

    def test_cli_submit_termination_tier(self, server, capsys):
        import repro.gateway.__main__ as gateway_cli
        from repro.service.__main__ import main

        # Every serving entry point runs the one CLI.
        assert gateway_cli.main is main
        _, (host, port) = server.address
        code = main([
            "submit", str(TERMINATING_DIR / "list_walk.lisl"),
            "--addr", f"{host}:{port}", "--check", "--tier", "termination",
            "--json",
        ])
        response = json.loads(capsys.readouterr().out)
        assert code == 0 and response["ok"]
        assert response["result"]["tier"] == "termination"
        records = response["result"]["diagnostics"]["runs"][0]["results"]
        assert [r["verdict"] for r in records] == [TERMINATING]


# -- Table 1 --------------------------------------------------------------------

FAST_PROCS = ("create", "addfst", "addlst", "delfst", "dellst", "init", "max")


class TestTable1:
    def test_fast_subset_is_certified(self):
        report = check_termination(
            Analyzer(benchmark_program()),
            TerminationOptions(procs=list(FAST_PROCS), max_seconds=120.0),
        )
        for proc in FAST_PROCS:
            assert report.proc_status[proc] == "ok"
            assert report.proc_verdict(proc) == TERMINATING

    @pytest.mark.slow
    def test_full_table1_meets_the_bar(self):
        names = [e.name for e in TABLE1]
        report = check_termination(
            Analyzer(benchmark_program()),
            TerminationOptions(procs=names, max_seconds=60.0 * len(names)),
        )
        verdicts = {name: report.proc_verdict(name) for name in names}
        assert set(verdicts) == set(names)  # every proc got a verdict
        assert POSSIBLY_NONTERMINATING not in verdicts.values()  # no alarms
        proved = sum(1 for v in verdicts.values() if v == TERMINATING)
        assert proved >= 0.8 * len(names)
