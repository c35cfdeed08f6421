"""Demand-driven query engine tests (strategies, cones, query surfaces).

Five layers:

- **cone units**: ``backward_cone`` on straight-line call chains, mutual
  recursion (an SCC is wholly inside each member's cone) and diamond
  shapes; unknown procedures raise;
- **strategy semantics**: ``DemandStrategy`` never tabulates outside its
  cone, reports cone accounting through ``AnalysisResult.stats``, and
  rejects being run on a different root;
- **the differential gate**: demand answers match the exhaustive
  checker's verdicts *and* site payloads bit-for-bit across the corpus
  (clean, buggy, dll, terminating) and the Table 1 benchmark roots —
  including degradation parity on cutpoint programs;
- **cache regressions**: ``check_safety`` / ``check_termination`` keep
  the run-level summary cache hot (the old ``use_cache=False`` escape
  hatch produced zero hits forever), and ``point_states`` restores
  per-point state tables from warm payloads and upgrades stale ones;
- **surfaces**: ``repro-lint --query`` exit codes and output, the
  server's ``check`` verb with a ``query`` field (warm answers from the
  cone-keyed cache, invalidation on body edits, validation errors).
"""

import json
from pathlib import Path

import pytest

from repro.checker.findings import SAFETY_RULE_IDS, UNKNOWN
from repro.checker.safety import (
    Query,
    SafetyOptions,
    answer_query,
    check_safety,
)
from repro.checker.__main__ import main as lint_main
from repro.core.api import Analyzer
from repro.core.strategy import (
    DemandStrategy,
    ExhaustiveStrategy,
    backward_cone,
)
from repro.engine import EngineOptions
from repro.lang.benchlib import TABLE1, benchmark_program

CORPUS = Path(__file__).parent / "corpus"
CORPUS_DIRS = ("clean", "buggy", "dll", "terminating")

CHAIN = """
proc leaf(x: list) returns (r: list) {
  r = x;
}
proc mid(x: list) returns (r: list) {
  r = leaf(x);
}
proc main(x: list) returns (r: list) {
  r = mid(x);
}
proc other(x: list) returns (r: list) {
  r = x;
}
"""

MUTUAL = """
proc even(x: list) returns (r: list) {
  r = x;
  if (x != NULL) {
    r = odd(x->next);
  }
}
proc odd(x: list) returns (r: list) {
  r = x;
  if (x != NULL) {
    r = even(x->next);
  }
}
proc driver(x: list) returns (r: list) {
  r = even(x);
}
"""

CUTPOINT = """
proc id(x: list) returns (r: list) {
  r = x;
}
proc main(x: list) returns (r: list) {
  local mid: list;
  r = NULL;
  if (x != NULL) {
    mid = x->next;
    if (mid != NULL) {
      r = id(x);
    }
  }
}
"""


def corpus_files():
    files = []
    for sub in CORPUS_DIRS:
        files.extend(sorted((CORPUS / sub).glob("*.lisl")))
    assert files
    return files


def site_payload(site):
    return (
        site.rule_id,
        site.proc,
        site.line,
        site.detail,
        site.verdict,
        site.message,
        json.dumps(site.witness, sort_keys=True),
    )


# -- backward cones -------------------------------------------------------------


class TestBackwardCone:
    def test_chain_and_unrelated_proc(self):
        icfg = Analyzer.from_source(CHAIN).icfg
        assert backward_cone(icfg, "main") == ("leaf", "main", "mid")
        assert backward_cone(icfg, "mid") == ("leaf", "mid")
        assert backward_cone(icfg, "leaf") == ("leaf",)
        assert backward_cone(icfg, "other") == ("other",)

    def test_mutual_recursion_scc_wholly_in_cone(self):
        icfg = Analyzer.from_source(MUTUAL).icfg
        # Either member of the SCC pulls in the other; neither pulls in
        # the caller (roots over-approximate all calling contexts).
        assert backward_cone(icfg, "even") == ("even", "odd")
        assert backward_cone(icfg, "odd") == ("even", "odd")
        assert backward_cone(icfg, "driver") == ("driver", "even", "odd")

    def test_unknown_proc_raises(self):
        icfg = Analyzer.from_source(CHAIN).icfg
        with pytest.raises(KeyError):
            backward_cone(icfg, "nope")


class TestDemandStrategy:
    def test_records_stay_inside_cone(self):
        analyzer = Analyzer.from_source(CHAIN)
        strategy = DemandStrategy("mid")
        result = analyzer.analyze("mid", domain="am", strategy=strategy)
        analyzed = {r.proc for r in result.engine.records.values()}
        assert analyzed == {"leaf", "mid"}
        assert result.stats["strategy"] == "demand"
        assert result.stats["cone_size"] == 2
        assert result.stats["proc_count"] == 4
        assert result.stats["cone"] == ["leaf", "mid"]

    def test_cone_strictly_smaller_than_program(self):
        analyzer = Analyzer.from_source(CHAIN)
        for proc in ("leaf", "mid", "other"):
            strategy = DemandStrategy(proc)
            analyzer.analyze(proc, domain="am", strategy=strategy)
            assert len(strategy.cone) < len(analyzer.icfg.cfgs)

    def test_wrong_root_rejected(self):
        analyzer = Analyzer.from_source(CHAIN)
        with pytest.raises(ValueError):
            analyzer.analyze("main", domain="am", strategy=DemandStrategy("mid"))

    def test_exhaustive_stats_tagged(self):
        analyzer = Analyzer.from_source(CHAIN)
        result = analyzer.analyze(
            "main", domain="am", strategy=ExhaustiveStrategy()
        )
        assert result.stats["strategy"] == "exhaustive"


# -- the differential gate ------------------------------------------------------


def assert_demand_matches_exhaustive(source: str, procs=None):
    """Every (proc, line, rule) coordinate of the exhaustive sweep gets
    the identical verdict, sites and degradation status on demand."""
    exhaustive = Analyzer.from_source(source)
    report = check_safety(
        exhaustive, SafetyOptions(procs=list(procs) if procs else None)
    )
    demand = Analyzer.from_source(source)  # independent caches
    coords = sorted(
        {(s.proc, s.line, s.rule_id) for s in report.sites},
        key=lambda c: (c[0], c[1] or 0, c[2]),
    )
    assert coords, "exhaustive sweep produced no obligations to compare"
    n_smaller = 0
    for proc, line, rule in coords:
        query = Query(proc=proc, line=line, rule=rule)
        answer = answer_query(demand, query)
        expected = [
            s
            for s in report.sites
            if s.proc == proc and s.line == line and s.rule_id == rule
        ]
        assert answer.verdict == report._aggregate(
            [s.verdict for s in expected]
        ), f"verdict mismatch at {proc}:{line}:{rule}"
        assert sorted(site_payload(s) for s in answer.sites) == sorted(
            site_payload(s) for s in expected
        ), f"site payload mismatch at {proc}:{line}:{rule}"
        status = report.proc_status.get(proc, "ok")
        assert (answer.proc_status == "ok") == (status == "ok")
        assert set(answer.cone).issubset(set(demand.icfg.cfgs))
        if answer.cone_size < answer.proc_count:
            n_smaller += 1
    return len(coords), n_smaller


class TestDifferentialGate:
    @pytest.mark.parametrize(
        "path", corpus_files(), ids=lambda p: f"{p.parent.name}/{p.stem}"
    )
    def test_corpus_demand_equals_exhaustive(self, path):
        assert_demand_matches_exhaustive(path.read_text())

    def test_table1_roots_demand_equals_exhaustive(self):
        program = benchmark_program()
        exhaustive = Analyzer(program)
        roots = [e.name for e in TABLE1]
        report = check_safety(exhaustive, SafetyOptions(procs=roots))
        demand = Analyzer(program)
        n_smaller = 0
        for root in roots:
            answer = answer_query(demand, Query(proc=root))
            expected = [s for s in report.sites if s.proc == root]
            assert answer.verdict == report._aggregate(
                [s.verdict for s in expected]
            ), f"verdict mismatch at Table 1 root {root}"
            assert sorted(site_payload(s) for s in answer.sites) == sorted(
                site_payload(s) for s in expected
            ), f"site payload mismatch at Table 1 root {root}"
            if answer.cone_size < answer.proc_count:
                n_smaller += 1
        # The headline demand win: cones are strictly smaller than the
        # whole program on >= 80% of queries (ISSUE acceptance floor).
        assert n_smaller / len(roots) >= 0.8

    def test_cutpoint_degradation_parity(self):
        exhaustive = Analyzer.from_source(CUTPOINT)
        report = check_safety(exhaustive, SafetyOptions(procs=["main"]))
        assert report.proc_status["main"].startswith("cutpoint:")
        demand = Analyzer.from_source(CUTPOINT)
        answer = answer_query(demand, Query(proc="main"))
        assert answer.proc_status.startswith("cutpoint:")
        assert answer.verdict == UNKNOWN
        assert sorted(site_payload(s) for s in answer.sites) == sorted(
            site_payload(s) for s in report.sites if s.proc == "main"
        )
        # Degradation surfaces as a checker.incomplete finding, like the
        # exhaustive report's.
        assert any(
            f.rule_id == "checker.incomplete" for f in answer.findings()
        )

    def test_query_validation(self):
        analyzer = Analyzer.from_source(CHAIN)
        with pytest.raises(ValueError):
            answer_query(analyzer, Query(proc="nope"))
        with pytest.raises(ValueError):
            Query.parse("main")
        with pytest.raises(ValueError):
            Query.parse("main:notaline")
        with pytest.raises(ValueError):
            Query.parse("main:3:not.a.rule")
        q = Query.parse("main:0")
        assert q.line is None and q.rule is None
        q = Query.parse("main:7:safety.leak")
        assert (q.proc, q.line, q.rule) == ("main", 7, "safety.leak")


# -- cache regressions (the use_cache=False fix) --------------------------------


class TestSummaryCacheStaysHot:
    def test_check_safety_hits_cache_on_second_sweep(self):
        analyzer = Analyzer.from_source(CHAIN)
        cold = check_safety(analyzer)
        assert analyzer.cache.hits == 0
        warm = check_safety(analyzer)
        assert analyzer.cache.hits > 0, (
            "Tier-B safety must keep the summary cache hot "
            "(the use_cache=False workaround is gone)"
        )
        assert [site_payload(s) for s in warm.sites] == [
            site_payload(s) for s in cold.sites
        ]

    def test_check_termination_hits_cache_on_second_sweep(self):
        from repro.termination.driver import (
            TerminationOptions,
            check_termination,
        )

        source = """
        proc walk(x: list) returns (r: list) {
          r = x;
          while (r != NULL) {
            r = r->next;
          }
        }
        """
        analyzer = Analyzer.from_source(source)
        cold = check_termination(analyzer, TerminationOptions())
        warm = check_termination(analyzer, TerminationOptions())
        assert analyzer.cache.hits > 0
        assert [
            (s.kind, s.proc, s.line, s.verdict) for s in warm.sites
        ] == [(s.kind, s.proc, s.line, s.verdict) for s in cold.sites]

    def test_point_states_restored_from_warm_payload(self):
        from repro.engine.canon import heapset_hash

        analyzer = Analyzer.from_source(CHAIN)
        opts = EngineOptions(point_states=True)
        cold = analyzer.analyze("main", domain="am", engine_opts=opts)
        assert not cold.engine.from_cache
        cold_states = {
            (r.proc, i): heapset_hash(state, cold.domain)
            for r in cold.engine.records.values()
            for i, state in sorted(r.states.items())
        }
        warm = analyzer.analyze(
            "main", domain="am", engine_opts=EngineOptions(point_states=True)
        )
        assert warm.engine.from_cache
        warm_states = {
            (r.proc, i): heapset_hash(state, warm.domain)
            for r in warm.engine.records.values()
            for i, state in sorted(r.states.items())
        }
        assert warm_states == cold_states and cold_states

    def test_stale_payload_upgraded_when_states_wanted(self):
        analyzer = Analyzer.from_source(CHAIN)
        analyzer.analyze("main", domain="am")  # legacy payload, no states
        result = analyzer.analyze(
            "main", domain="am", engine_opts=EngineOptions(point_states=True)
        )
        assert not result.engine.from_cache  # recomputed, not restored
        assert result.engine.telemetry.counters.get("cache.state_upgrades")
        assert all(r.states for r in result.engine.records.values())

    def test_recorder_hook_streams_records(self):
        seen = []
        analyzer = Analyzer.from_source(CHAIN)
        analyzer.analyze(
            "main",
            domain="am",
            engine_opts=EngineOptions(point_states=seen.append),
        )
        assert {r.proc for r in seen} == {"leaf", "mid", "main"}
        assert all(r.states for r in seen)


# -- the CLI surface ------------------------------------------------------------


class TestLintQueryCLI:
    def test_unsafe_query_exits_one(self, capsys):
        path = str(CORPUS / "buggy" / "null_deref_guaranteed.lisl")
        assert lint_main([path, "--query", "main:10"]) == 1
        out = capsys.readouterr().out
        assert "unsafe" in out and "cone 1/1" in out

    def test_safe_query_exits_zero(self, capsys):
        path = str(CORPUS / "buggy" / "null_deref_guaranteed.lisl")
        assert lint_main([path, "--query", "main:0:safety.leak"]) == 0
        out = capsys.readouterr().out
        assert "safe" in out

    def test_fail_on_none_masks_exit(self):
        path = str(CORPUS / "buggy" / "null_deref_guaranteed.lisl")
        assert lint_main([path, "--query", "main:10", "--fail-on", "none"]) == 0

    def test_json_answer(self, capsys):
        path = str(CORPUS / "buggy" / "null_deref_guaranteed.lisl")
        assert lint_main([path, "--query", "main:10", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unsafe"
        assert payload["cone"] == ["main"]
        assert payload["query"] == {
            "proc": "main", "line": 10, "rule": None,
        }

    def test_usage_errors_exit_two(self, tmp_path):
        path = str(CORPUS / "buggy" / "null_deref_guaranteed.lisl")
        assert lint_main([path, "--query", "nosuch:1"]) == 2
        assert lint_main([path, "--query", "main"]) == 2
        assert lint_main([path, "--query", "main:1:bogus.rule"]) == 2
        other = tmp_path / "other.lisl"
        other.write_text("proc f(x: list) returns (r: list) { r = x; }")
        assert (
            lint_main([path, str(other), "--query", "main:10"]) == 2
        ), "--query must take exactly one file"


# -- the service surface --------------------------------------------------------


class TestServiceQueries:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.gateway.server import GatewayConfig, GatewayThread

        gw = GatewayThread(
            GatewayConfig(jobs=0, store_dir=str(tmp_path / "store"))
        ).start()
        yield gw
        gw.stop()

    def _client(self, srv):
        from repro.service.client import ServiceClient

        _, (host, port) = srv.address
        return ServiceClient.connect_tcp(host, port)

    def test_cold_warm_and_invalidation(self, server):
        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        with self._client(server) as client:
            cold = client.check(source, query="main:10")
            assert cold["ok"] and cold["result"]["mode"] == "cold"
            answer = cold["result"]["query"]
            assert answer["verdict"] == "unsafe"
            assert answer["cone"] == ["main"]

            warm = client.check(source, query="main:10")
            assert warm["result"]["mode"] == "warm"
            assert warm["result"]["query"] == answer

            # An edit that shifts source lines moves the Tier-B key
            # (the cone key folds in the line signature): cold again.
            again = client.check("\n" + source, query="main:11")
            assert again["result"]["mode"] == "cold"

    def test_repeated_source_parses_once(self, server, monkeypatch):
        import repro.service.frontend as frontend_mod

        from repro.lang import parse_source

        parses = []

        def counting_parse(source):
            parses.append(source)
            return parse_source(source)

        monkeypatch.setattr(frontend_mod, "parse_source", counting_parse)
        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        with self._client(server) as client:
            first = client.check(source, query="main:10")
            second = client.check(source, query="main:10")
        assert len(parses) == 1
        assert first["telemetry"]["frontend"] == "miss"
        assert second["telemetry"]["frontend"] == "hit"
        assert second["result"]["mode"] == "warm"
        assert second["result"]["query"] == first["result"]["query"]

    def test_line_shift_misses_frontend(self, server):
        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        at = source.index("proc main(")
        shifted = source[:at] + "\n" + source[at:]
        with self._client(server) as client:
            before = client.check(source, query="main:0")
            assert client.check(source, query="main:0")["result"]["mode"] == "warm"
            after = client.check(shifted, query="main:0")
        assert after["telemetry"]["frontend"] == "miss"
        assert after["result"]["mode"] == "cold"
        def lines_of(reply):
            findings = reply["result"]["query"]["findings"]
            return [f["line"] for f in findings if f.get("line")]

        old_lines, new_lines = lines_of(before), lines_of(after)
        assert old_lines and new_lines == [line + 1 for line in old_lines]
        text = shifted.split("\n")
        for finding in after["result"]["query"]["findings"]:
            if finding["ruleId"] == "safety.null-deref":
                assert "t->next" in text[finding["line"] - 1]

    def test_object_query_and_rule_filter(self, server):
        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        with self._client(server) as client:
            resp = client.check(
                source, query={"proc": "main", "rule": "safety.leak"}
            )
            answer = resp["result"]["query"]
            assert answer["verdict"] == "safe"
            assert {
                f["ruleId"] for f in answer["findings"]
            } == {"safety.leak"}

    def test_validation_errors(self, server):
        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        with self._client(server) as client:
            bad = client.request("check", source=source, query="nosuch:1")
            assert not bad["ok"] and bad["error"]["kind"] == "bad_request"
            bad = client.request("check", source=source, query=42)
            assert not bad["ok"] and bad["error"]["kind"] == "bad_request"
            bad = client.request(
                "check", source=source, query={"proc": ""}
            )
            assert not bad["ok"] and bad["error"]["kind"] == "bad_request"

    def test_query_metrics_exposed(self, server):
        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        with self._client(server) as client:
            client.check(source, query="main:10")
            client.check(source, query="main:10")
            text = client.metrics()
        assert 'repro_query_total{mode="cold"} 1' in text
        assert 'repro_query_total{mode="warm"} 1' in text
        assert "repro_query_latency_ms_count 2" in text

    def test_gateway_query_per_tenant_cache(self, tmp_path):
        from repro.gateway.server import GatewayConfig, GatewayThread
        from repro.service.client import ServiceClient

        source = (CORPUS / "buggy" / "null_deref_guaranteed.lisl").read_text()
        gw = GatewayThread(
            GatewayConfig(
                jobs=0, workers=1, store_dir=str(tmp_path / "store")
            )
        ).start()
        try:
            _, (host, port) = gw.address
            with ServiceClient.connect_tcp(host, port) as client:
                a = client.check(source, query="main:10", tenant="alpha")
                assert a["result"]["mode"] == "cold"
                assert a["result"]["tenant"] == "alpha"
                b = client.check(source, query="main:10", tenant="alpha")
                assert b["result"]["mode"] == "warm"
                # Another tenant's cache is separate by construction.
                c = client.check(source, query="main:10", tenant="beta")
                assert c["result"]["mode"] == "cold"
                assert (
                    c["result"]["query"]["verdict"]
                    == a["result"]["query"]["verdict"]
                )
        finally:
            gw.stop()
