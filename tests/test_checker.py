"""Tests of the two-tier checker (``repro.checker``).

Five layers:

- **Tier-A units**: each dataflow lint on a minimal trigger program,
  plus purity (linting never mutates the CFG it reads);
- **Tier-B semantics**: safe / unsafe / unknown verdicts on the
  canonical leak, guaranteed-null and input-dependent-null programs,
  budget degradation to ``unknown``;
- **corpus goldens**: every seeded defect in ``tests/corpus/buggy`` is
  flagged with exactly the recorded rule ids, lines and verdicts; the
  clean corpus and the examples are finding-free;
- **stability**: frozen rule-id inventory, byte-identical SARIF across
  runs (and against a committed golden), frontend errors as diagnostics
  with source lines;
- **service**: the server's ``check`` verb answers warm re-checks from
  its per-procedure cache and invalidates on line/declaration edits.
"""

import json
from pathlib import Path

import pytest

from repro.checker import (
    ALL_RULE_IDS,
    CheckOptions,
    SafetyOptions,
    check_safety,
    check_source,
    lint_cfg,
    sarif_dumps,
    to_sarif,
)
from repro.checker import findings as F
from repro.checker.__main__ import main as lint_main
from repro.checker.sarif import SARIF_SCHEMA, SARIF_VERSION
from repro.core.api import Analyzer
from repro.lang.cfg import OpAssignPtr

CORPUS = Path(__file__).parent / "corpus"
BUGGY = CORPUS / "buggy"
CLEAN = CORPUS / "clean"
EXAMPLES = Path(__file__).parent.parent / "examples"


def _lint(source: str, proc: str = "main", rules=None):
    analyzer = Analyzer.from_source(source)
    proc_lines = {p.name: p.line for p in analyzer.program.procedures}
    return lint_cfg(
        analyzer.icfg.cfg(proc), rules=rules, proc_line=proc_lines.get(proc, 0)
    )


def _rules(findings):
    return {f.rule_id for f in findings}


class TestTierALints:
    def test_use_before_init(self):
        found = _lint(
            "proc main(n: int) returns (s: int) {\n"
            "  local d: int;\n"
            "  s = d + n;\n"
            "}\n"
        )
        (f,) = [f for f in found if f.rule_id == F.RULE_USE_BEFORE_INIT]
        assert f.line == 3 and "'d'" in f.message

    def test_dead_store(self):
        found = _lint(
            "proc main(x: list) returns (r: list) {\n"
            "  local t: list;\n"
            "  t = new;\n"
            "  t = x;\n"
            "  r = t;\n"
            "}\n"
        )
        (f,) = [f for f in found if f.rule_id == F.RULE_DEAD_STORE]
        assert f.line == 3

    def test_lint_null_deref(self):
        found = _lint(
            "proc main(x: list) returns (r: list) {\n"
            "  local t: list;\n"
            "  t = NULL;\n"
            "  r = t->next;\n"
            "}\n"
        )
        (f,) = [f for f in found if f.rule_id == F.RULE_LINT_NULL_DEREF]
        assert f.line == 4

    def test_null_deref_not_reported_after_guard(self):
        found = _lint(
            "proc main(x: list) returns (r: list) {\n"
            "  if (x != NULL) {\n"
            "    r = x->next;\n"
            "  } else {\n"
            "    r = NULL;\n"
            "  }\n"
            "}\n"
        )
        assert F.RULE_LINT_NULL_DEREF not in _rules(found)

    def test_missing_return_and_unused_param(self):
        found = _lint(
            "proc main(x: list, d: int) returns (r: list) {\n"
            "  if (x == NULL) {\n"
            "    r = NULL;\n"
            "  }\n"
            "}\n"
        )
        assert F.RULE_MISSING_RETURN in _rules(found)
        (f,) = [f for f in found if f.rule_id == F.RULE_UNUSED_PARAM]
        assert "'d'" in f.message

    def test_unused_local(self):
        found = _lint(
            "proc main(x: list) returns (r: list) {\n"
            "  local t: list;\n"
            "  r = x;\n"
            "}\n"
        )
        (f,) = [f for f in found if f.rule_id == F.RULE_UNUSED_LOCAL]
        assert "'t'" in f.message

    def test_unreachable_on_orphan_node(self):
        # Structured source can't produce graph-unreachable nodes, so
        # graft one onto a parsed CFG by hand.
        analyzer = Analyzer.from_source(
            "proc main(x: list) returns (r: list) { r = x; }\n"
        )
        cfg = analyzer.icfg.cfg("main")
        orphan, dead_end = cfg.new_node(9), cfg.new_node(9)
        cfg.add_edge(orphan, dead_end, OpAssignPtr("r", "var", "x"), line=9)
        found = lint_cfg(cfg, rules=[F.RULE_UNREACHABLE])
        (f,) = found
        assert f.rule_id == F.RULE_UNREACHABLE and f.line == 9

    def test_clean_loop_has_no_lints(self):
        found = _lint(
            "proc main(x: list) returns (s: int) {\n"
            "  local c: list;\n"
            "  s = 0;\n"
            "  c = x;\n"
            "  while (c != NULL) {\n"
            "    s = s + c->data;\n"
            "    c = c->next;\n"
            "  }\n"
            "}\n"
        )
        assert found == []

    def test_lint_is_pure(self):
        analyzer = Analyzer.from_source(
            "proc main(x: list) returns (r: list) {\n"
            "  local t: list;\n"
            "  t = NULL;\n"
            "  r = t->next;\n"
            "}\n"
        )
        cfg = analyzer.icfg.cfg("main")
        before = (
            str(cfg),
            tuple(sorted(cfg.widen_points)),
            tuple(p.name for p in cfg.locals),
        )
        lint_cfg(cfg)
        lint_cfg(cfg)
        after = (
            str(cfg),
            tuple(sorted(cfg.widen_points)),
            tuple(p.name for p in cfg.locals),
        )
        assert before == after


LEAK = (BUGGY / "leak_push.lisl").read_text()
NULL_SURE = (BUGGY / "null_deref_guaranteed.lisl").read_text()
NULL_MAYBE = (BUGGY / "null_deref_input.lisl").read_text()
REVERSE = (CLEAN / "reverse.lisl").read_text()


class TestTierBSafety:
    def test_leak_unsafe(self):
        report = check_safety(Analyzer.from_source(LEAK))
        assert report.leak_verdict("main") == F.UNSAFE

    def test_guaranteed_null_deref_unsafe(self):
        report = check_safety(Analyzer.from_source(NULL_SURE))
        assert report.null_deref_verdict("main", 10) == F.UNSAFE

    def test_input_dependent_null_deref_unknown(self):
        report = check_safety(Analyzer.from_source(NULL_MAYBE))
        assert report.null_deref_verdict("main", 8) == F.UNKNOWN

    def test_reverse_all_safe(self):
        report = check_safety(Analyzer.from_source(REVERSE))
        assert report.proc_status == {"reverse": "ok"}
        assert report.sites and all(
            s.verdict == F.SAFE for s in report.sites
        )
        assert report.findings() == []

    def test_budget_degrades_to_unknown(self):
        report = check_safety(
            Analyzer.from_source(REVERSE), SafetyOptions(max_steps=1)
        )
        assert report.proc_status["reverse"].startswith("budget")
        assert all(s.verdict == F.UNKNOWN for s in report.sites)
        assert any(
            f.rule_id == F.RULE_CHECKER_INCOMPLETE for f in report.findings()
        )

    def test_safety_rule_filter(self):
        report = check_safety(
            Analyzer.from_source(LEAK),
            SafetyOptions(rules=[F.RULE_SAFETY_ACYCLIC]),
        )
        assert {s.rule_id for s in report.sites} == {F.RULE_SAFETY_ACYCLIC}
        with pytest.raises(ValueError):
            check_safety(
                Analyzer.from_source(LEAK), SafetyOptions(rules=["nope"])
            )


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
    "path", sorted(BUGGY.glob("*.lisl")), ids=lambda p: p.stem
)
def test_buggy_corpus_matches_golden(path):
    report = check_source(path.read_text(), CheckOptions(), path=str(path))
    golden = json.loads(path.with_suffix(".expected.json").read_text())
    assert _finding_tuples(report) == golden["findings"]
    assert report.findings  # every buggy entry is flagged


@pytest.mark.parametrize(
    "path",
    sorted(CLEAN.glob("*.lisl")) + sorted(EXAMPLES.glob("*.lisl")),
    ids=lambda p: p.stem,
)
def test_clean_corpus_and_examples_finding_free(path):
    report = check_source(path.read_text(), CheckOptions(), path=str(path))
    assert report.findings == []
    assert report.ok


class TestStability:
    # The frozen rule-id inventory moved to tests/test_rule_inventory.py,
    # which freezes the service/gateway tier's rule ids alongside these.

    def test_sarif_is_deterministic_and_well_formed(self):
        uri = "tests/corpus/buggy/leak_push.lisl"
        report1 = check_source(LEAK, CheckOptions(), path=uri)
        report2 = check_source(LEAK, CheckOptions(), path=uri)
        dump1 = sarif_dumps({uri: report1.findings})
        dump2 = sarif_dumps({uri: report2.findings})
        assert dump1 == dump2  # byte-identical across runs
        log = json.loads(dump1)
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        (run,) = log["runs"]
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rules == sorted(ALL_RULE_IDS)
        (result,) = run["results"]
        assert result["ruleId"] == "safety.leak"
        assert result["level"] == "error"
        assert (
            result["locations"][0]["physicalLocation"]["artifactLocation"][
                "uri"
            ]
            == uri
        )

    def test_sarif_matches_committed_golden(self):
        uri = "tests/corpus/buggy/leak_push.lisl"
        report = check_source(LEAK, CheckOptions(), path=uri)
        golden = (BUGGY / "leak_push.sarif.golden").read_text()
        assert sarif_dumps({uri: report.findings}) == golden

    def test_sarif_safe_results_level_none(self):
        report = check_source(
            REVERSE, CheckOptions(include_safe=True), path="r.lisl"
        )
        log = json.loads(sarif_dumps({"r.lisl": report.findings}))
        levels = {r["level"] for r in log["runs"][0]["results"]}
        assert levels == {"none"}

    def test_type_error_is_a_finding_with_line(self):
        report = check_source(
            "proc main(x: list) returns (r: list) {\n"
            "  local x: list;\n"
            "  r = x;\n"
            "}\n"
        )
        (f,) = report.findings
        assert f.rule_id == "frontend.type-error"
        assert f.verdict == "error"
        assert f.line == 2
        assert not report.ok

    def test_parse_error_is_a_finding(self):
        report = check_source("proc main( {")
        (f,) = report.findings
        assert f.rule_id == "frontend.parse-error"
        assert f.line is not None


class TestCheckerCLI:
    def test_exit_codes(self, capsys):
        assert lint_main([str(CLEAN / "reverse.lisl")]) == 0
        assert lint_main([str(BUGGY / "leak_push.lisl")]) == 1
        assert lint_main([str(BUGGY)]) == 1
        capsys.readouterr()

    def test_fail_on_unsafe_ignores_lints(self, capsys):
        assert (
            lint_main(
                [str(BUGGY / "use_before_init.lisl"), "--fail-on", "unsafe"]
            )
            == 0
        )
        assert (
            lint_main([str(BUGGY / "leak_push.lisl"), "--fail-on", "unsafe"])
            == 1
        )
        capsys.readouterr()

    def test_rules_filter_and_unknown_rule(self, capsys):
        assert (
            lint_main(
                [str(BUGGY / "leak_push.lisl"), "--rules", "lint.dead-store"]
            )
            == 0
        )
        with pytest.raises(SystemExit):
            lint_main([str(BUGGY / "leak_push.lisl"), "--rules", "bogus"])
        capsys.readouterr()

    def test_sarif_and_json_outputs(self, tmp_path, capsys):
        sarif_path = tmp_path / "out.sarif"
        code = lint_main(
            [str(BUGGY / "leak_push.lisl"), "--sarif", str(sarif_path),
             "--json"]
        )
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        uri = str(BUGGY / "leak_push.lisl").replace("\\", "/")
        records = envelope["files"][uri]["runs"][0]["results"]
        assert [r["ruleId"] for r in records] == ["safety.leak"]
        log = json.loads(sarif_path.read_text())
        assert log["version"] == "2.1.0"

    def test_missing_file_is_usage_error(self, capsys):
        assert lint_main([str(BUGGY / "does-not-exist.d")]) == 2
        capsys.readouterr()


SUBSET = ("create", "addfst", "delfst", "init", "max", "concat")


def test_table1_subset_zero_unsafe():
    """Representative Table 1 benchmarks prove memory-safe (fast lane)."""
    from repro.lang.benchlib import benchmark_program

    report = check_safety(
        Analyzer(benchmark_program()), SafetyOptions(procs=SUBSET)
    )
    assert set(report.proc_status.values()) == {"ok"}
    assert all(s.verdict != F.UNSAFE for s in report.sites)


@pytest.mark.slow
def test_table1_full_zero_unsafe():
    """No Table 1 benchmark gets an ``unsafe`` verdict (acceptance)."""
    from repro.lang.benchlib import benchmark_program

    report = check_safety(Analyzer(benchmark_program()))
    unsafe = [s for s in report.sites if s.verdict == F.UNSAFE]
    assert unsafe == []


@pytest.fixture
def check_server(tmp_path):
    from repro.gateway.server import GatewayConfig, GatewayThread

    gw = GatewayThread(
        GatewayConfig(jobs=0, store_dir=str(tmp_path / "store"))
    ).start()
    yield gw
    gw.stop()


def _client(srv):
    from repro.service.client import ServiceClient

    _, (host, port) = srv.address
    return ServiceClient.connect_tcp(host, port)


class TestServiceCheckVerb:
    def test_cold_warm_edit_cycle(self, check_server):
        with _client(check_server) as client:
            cold = client.check(LEAK, program_id="p")
            assert cold["ok"] and not cold["result"]["ok"]
            assert cold["result"]["checked"] == ["main"]
            records = cold["result"]["diagnostics"]["runs"][0]["results"]
            assert [r["ruleId"] for r in records] == ["safety.leak"]

            warm = client.check(LEAK, program_id="p")
            assert warm["result"]["checked"] == []
            assert warm["result"]["reused"] == ["main"]
            assert warm["telemetry"]["isolation"] == "warm"
            # identical findings, served from the cache
            assert (
                warm["result"]["diagnostics"]["runs"][0]["results"] == records
            )

            fixed = LEAK.replace("r = x;", "r = n;")
            edit = client.check(fixed, program_id="p")
            assert edit["result"]["checked"] == ["main"]
            assert edit["result"]["ok"]

    def test_declaration_edit_invalidates(self, check_server):
        src = "proc id(x: list) returns (r: list) {\n  r = x;\n}\n"
        edited = (
            "proc id(x: list) returns (r: list) {\n  local u: list;\n"
            "  r = x;\n}\n"
        )
        with _client(check_server) as client:
            assert client.check(src, program_id="p")["result"]["ok"]
            response = client.check(edited, program_id="p")
            assert response["result"]["checked"] == ["id"]
            records = response["result"]["diagnostics"]["runs"][0]["results"]
            assert [r["ruleId"] for r in records] == ["lint.unused-local"]

    def test_line_shift_invalidates(self, check_server):
        src = "proc id(x: list) returns (r: list) {\n  r = x;\n}\n"
        with _client(check_server) as client:
            client.check(src, program_id="p")
            shifted = client.check("\n\n" + src, program_id="p")
            assert shifted["result"]["checked"] == ["id"]

    def test_unknown_proc_and_tier_rejected(self, check_server):
        with _client(check_server) as client:
            bad = client.check(LEAK, procs=["nope"], program_id="p")
            assert not bad["ok"]
            assert bad["error"]["kind"] == "bad_request"
            worse = client.check(LEAK, tier="turbo", program_id="p")
            assert not worse["ok"]

    def test_per_rule_telemetry(self, check_server):
        with _client(check_server) as client:
            client.check(LEAK, program_id="p")
            counters = client.status()["result"]["telemetry"]
            assert counters["checker.rule.safety.leak"] == 1
            assert counters["check.procs_checked"] == 1

    def test_flush_drops_check_cache(self, check_server):
        with _client(check_server) as client:
            client.check(LEAK, program_id="p")
            assert client.flush("p")["result"]["dropped"] >= 1
            cold_again = client.check(LEAK, program_id="p")
            assert cold_again["result"]["checked"] == ["main"]
