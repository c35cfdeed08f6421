"""Tests of the incremental analysis service (``repro.service``).

Four layers:

- **depindex**: body hashes ignore formatting noise, cone fingerprints
  invalidate exactly the upward cone of an edit, SCC granularity;
- **incremental correctness** (the headline property): for every corpus
  program and a scripted single-procedure edit, a warm re-analysis
  through a session yields summary hashes *identical* to a cold
  sequential run of the edited program, while re-analyzing strictly
  fewer SCC shards (when the program has more than one);
- **diagnostics**: assertion verdicts (pass / fail / budget-exceeded)
  routed through the shared encoder keep stable rule ids and source
  line numbers;
- **server robustness** (the gateway in its single-tenant default
  config): protocol errors, bounded-queue shedding, a SIGKILLed worker
  mid-request and an over-budget request all return structured error
  diagnostics without taking the server down.
"""

import json
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core.api import Analyzer
from repro.service import protocol as P
from repro.service.client import ServiceClient, parse_address
from repro.service.depindex import ConeKeyedStore, DependencyIndex, body_hash
from repro.service.diagnostics import (
    RULE_ASSERTION,
    envelope_records,
    from_assertions,
    run_envelope,
)
from repro.gateway.server import GatewayConfig, GatewayThread

CORPUS = Path(__file__).parent / "corpus"
SLOW_ENTRIES = {"gen_seed17.lisl"}  # mirrors tests/test_parallel.py


CHAIN = """
proc leaf(x: list) returns (r: list) { r = x; }
proc mid(x: list) returns (r: list) { r = leaf(x); }
proc top(x: list) returns (r: list) { r = mid(x); }
proc other(x: list) returns (r: list) { r = x; }
"""


def edit_procedure(source: str, proc: str) -> str:
    """A scripted single-procedure edit: declare a fresh local at the top
    of the procedure (the grammar wants all locals first) and assign it
    at the end of the body, changing this procedure's normalized body and
    nothing else."""
    at = source.index(f"proc {proc}(")
    open_brace = source.index("{", at)
    depth, close_brace = 0, -1
    for i in range(open_brace, len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                close_brace = i
                break
    assert close_brace > open_brace, f"unbalanced body for {proc}"
    return (
        source[: open_brace + 1]
        + " local __edit: int; "
        + source[open_brace + 1 : close_brace]
        + " __edit = 1; "
        + source[close_brace:]
    )


def _top_proc(analyzer) -> str:
    """A procedure no other procedure calls (exists in every program);
    editing it dirties exactly its own SCC."""
    graph = analyzer.icfg.call_graph()
    called = {callee for callees in graph.values() for callee in callees}
    tops = sorted(set(graph) - called) or sorted(graph)
    return tops[0]


def _hashes(report):
    return {tid: out.summary_hashes for tid, out in report.outputs.items()}


def _batch_hashes(batch_report):
    out = {}
    for outcome in batch_report.outcomes:
        assert outcome.status == "ok", outcome.describe()
        out[outcome.task_id] = outcome.result.summary_hashes
    return out


# -- dependency index -----------------------------------------------------------


class TestDependencyIndex:
    def test_body_hash_ignores_formatting(self):
        a = Analyzer.from_source("proc f(x: list) returns (r: list) { r = x; }")
        b = Analyzer.from_source(
            "proc f(x: list)   returns (r: list)\n{\n  r = x;\n}"
        )
        assert body_hash(a.icfg.cfg("f")) == body_hash(b.icfg.cfg("f"))

    def test_cone_fingerprints_stable_across_builds(self):
        i1 = DependencyIndex.build(Analyzer.from_source(CHAIN).icfg)
        i2 = DependencyIndex.build(Analyzer.from_source(CHAIN).icfg)
        assert i1.cone_fingerprints() == i2.cone_fingerprints()

    def test_edit_dirties_exactly_the_upward_cone(self):
        old = DependencyIndex.build(Analyzer.from_source(CHAIN).icfg)
        new = DependencyIndex.build(
            Analyzer.from_source(edit_procedure(CHAIN, "leaf")).icfg
        )
        delta = old.diff(new)
        assert delta.changed == {"leaf"}
        assert delta.dirty == {"leaf", "mid", "top"}  # upward closure
        assert delta.clean == {"other"}  # siblings untouched

    def test_edit_of_top_proc_dirties_only_itself(self):
        old = DependencyIndex.build(Analyzer.from_source(CHAIN).icfg)
        new = DependencyIndex.build(
            Analyzer.from_source(edit_procedure(CHAIN, "top")).icfg
        )
        delta = old.diff(new)
        assert delta.dirty == {"top"}
        assert delta.clean == {"leaf", "mid", "other"}

    def test_added_and_removed_procs(self):
        old = DependencyIndex.build(Analyzer.from_source(CHAIN).icfg)
        extended = CHAIN + "\nproc extra(x: list) returns (r: list) { r = x; }"
        new = DependencyIndex.build(Analyzer.from_source(extended).icfg)
        delta = old.diff(new)
        assert delta.added == {"extra"} and delta.dirty == {"extra"}
        back = new.diff(old)
        assert back.removed == {"extra"} and back.dirty == set()

    def test_recursive_scc_shares_one_cone(self):
        src = """
        proc even(x: list) returns (r: list) { r = odd(x); }
        proc odd(x: list) returns (r: list) { r = even(x); }
        """
        index = DependencyIndex.build(Analyzer.from_source(src).icfg)
        assert index.cone_fingerprint("even") == index.cone_fingerprint("odd")
        assert index.scc_of("even") == ("even", "odd")

    def test_cone_keyed_store_rewrites_program_component(self):
        class Spy:
            def __init__(self):
                self.keys = []

            def get(self, key):
                self.keys.append(key)
                return None

            def put(self, key, payload):
                self.keys.append(key)

            def stats(self):
                return {}

        spy = Spy()
        store = ConeKeyedStore(spy, {"f": "cone-of-f"})
        key = ("program-fp", "f", "am", 0, None, None)
        store.get(key)
        store.put(key, ["payload"])
        assert spy.keys == [("cone-of-f", "f", "am", 0, None, None)] * 2
        # Unknown procs pass through unchanged.
        other = ("program-fp", "ghost", "am", 0, None, None)
        store.get(other)
        assert spy.keys[-1] == other


# -- incremental correctness ----------------------------------------------------


def _corpus_sources():
    params = []
    for path in sorted(CORPUS.glob("*.lisl")):
        marks = [pytest.mark.slow] if path.name in SLOW_ENTRIES else []
        params.append(pytest.param(path, marks=marks, id=path.name))
    return params


@pytest.mark.parametrize("path", _corpus_sources())
def test_corpus_warm_equals_cold(path, tmp_path):
    """Warm re-analysis after a scripted edit: hash-identical to a cold
    sequential run of the edited program, strictly fewer SCC shards."""
    from repro.fuzz.__main__ import load_corpus_entry

    source = load_corpus_entry(path).source
    analyzer = Analyzer.from_source(source)
    proc = _top_proc(analyzer)
    edited = edit_procedure(source, proc)

    session = analyzer.open_session(store_dir=str(tmp_path / "store"))
    cold = session.analyze(domains=("am",))
    assert cold.ok
    assert cold.incremental["reused"] == 0

    session.update_source(edited)
    warm = session.analyze(domains=("am",))
    assert warm.ok

    baseline = Analyzer.from_source(edited).analyze_batch(
        domains=("am",), jobs=0
    )
    assert _hashes(warm) == _batch_hashes(baseline)

    total = warm.incremental["sccs_total"]
    analyzed = warm.incremental["sccs_analyzed"]
    if len(analyzer.icfg.cfgs) > 1:
        assert analyzed < total  # strictly fewer shards re-analyzed
    else:
        assert analyzed == total == 1
    assert proc + ".am" in warm.analyzed


def test_benchmark_warm_equals_cold_both_domains(tmp_path):
    """The Figures 4-6 roots, both domains, through the session."""
    from repro.lang.benchlib import BENCHMARK_SOURCE

    roots = ["create", "addfst", "delfst", "init", "qsplit", "quicksort"]
    analyzer = Analyzer.from_source(BENCHMARK_SOURCE)
    session = analyzer.open_session(store_dir=str(tmp_path / "store"))
    cold = session.analyze(procs=roots, domains=("am",))
    assert cold.ok

    edited = edit_procedure(BENCHMARK_SOURCE, "init")
    delta = session.update_source(edited)
    assert "init" in delta.changed
    warm = session.analyze(procs=roots, domains=("am",))
    assert warm.ok
    baseline = Analyzer.from_source(edited).analyze_batch(
        procs=roots, domains=("am",), jobs=0
    )
    assert _hashes(warm) == _batch_hashes(baseline)
    # init has no callers among the roots: only its shard re-analyzes.
    assert warm.analyzed == ["init.am"]
    assert len(warm.reused) == len(roots) - 1


def test_reverted_edit_rehits_store(tmp_path):
    """Editing and reverting must hit the cone-keyed store again."""
    session = Analyzer.from_source(CHAIN).open_session(
        store_dir=str(tmp_path / "store")
    )
    cold = session.analyze(domains=("am",))
    session.update_source(edit_procedure(CHAIN, "leaf"))
    session.analyze(domains=("am",))
    session.update_source(CHAIN)  # revert
    session.flush()  # drop retained outputs: force the store path
    back = session.analyze(domains=("am",))
    assert back.ok
    assert _hashes(back) == _hashes(cold)
    for task_id in back.analyzed:
        output = back.outputs[task_id]
        assert output.stats.get("from_cache"), task_id  # answered from store

    # A fresh session over the same store is warm from the start.
    other = Analyzer.from_source(CHAIN).open_session(
        store_dir=str(tmp_path / "store")
    )
    again = other.analyze(domains=("am",))
    assert _hashes(again) == _hashes(cold)
    assert all(
        again.outputs[tid].stats.get("from_cache") for tid in again.analyzed
    )


def test_session_pool_jobs_match_inline(tmp_path):
    """jobs=2 dispatch through the worker pool equals the inline run."""
    inline = Analyzer.from_source(CHAIN).open_session(
        store_dir=str(tmp_path / "a")
    ).analyze(domains=("am",), jobs=0)
    pooled = Analyzer.from_source(CHAIN).open_session(
        store_dir=str(tmp_path / "b")
    ).analyze(domains=("am",), jobs=2)
    assert inline.ok and pooled.ok
    assert _hashes(inline) == _hashes(pooled)


# -- diagnostics ----------------------------------------------------------------


ASSERT_SRC = """
proc f(n: int) returns (r: int) {
  r = n + 1;
  assert r > n;
  assert r > n + 1;
}
"""


class TestDiagnostics:
    def _check(self, source, proc, **kw):
        from repro.core.assertions import AssertionChecker

        analyzer = Analyzer.from_source(source)
        checker = AssertionChecker()
        result = analyzer.analyze(
            proc, domain="au", assume_handler=checker, **kw
        )
        return checker, result

    def test_pass_and_fail_records(self):
        checker, _ = self._check(ASSERT_SRC, "f")
        records = checker.diagnostics()
        assert [r.verdict for r in records] == ["pass", "fail"]
        assert all(r.rule_id == RULE_ASSERTION for r in records)
        assert [r.line for r in records] == [4, 5]  # source lines
        assert all(r.procedure == "f" for r in records)

    def test_rule_ids_and_lines_stable_across_runs(self):
        first = [r.to_json() for r in self._check(ASSERT_SRC, "f")[0].diagnostics()]
        second = [r.to_json() for r in self._check(ASSERT_SRC, "f")[0].diagnostics()]
        assert first == second

    def test_callee_asserts_carry_callee_proc_and_line(self):
        src = """
        proc callee(n: int) returns (r: int) {
          r = n;
          assert r == n;
        }
        proc caller(n: int) returns (r: int) {
          r = callee(n);
        }
        """
        checker, _ = self._check(src, "caller")
        records = checker.diagnostics()
        assert len(records) == 1
        assert records[0].procedure == "callee"
        assert records[0].line == 4

    def test_budget_exceeded_is_inconclusive(self):
        from repro.lang.benchlib import BENCHMARK_SOURCE
        from repro.service.diagnostics import from_engine_diagnostics

        analyzer = Analyzer.from_source(BENCHMARK_SOURCE)
        result = analyzer.analyze("mergesort", domain="au", max_seconds=0.05)
        assert not result.ok
        records = from_engine_diagnostics(result.diagnostics)
        assert records
        assert records[0].rule_id == "budget.wall_clock"
        assert records[0].verdict == "inconclusive"

    def test_envelope_counts_and_roundtrip(self):
        checker, _ = self._check(ASSERT_SRC, "f")
        envelope = run_envelope(checker.diagnostics(), stats={"domain": "au"})
        assert envelope["schema"] == "repro-diagnostics/1"
        (run,) = envelope["runs"]
        assert run["counts"] == {"pass": 1, "fail": 1}
        assert run["stats"] == {"domain": "au"}
        flat = envelope_records(envelope)
        assert len(flat) == 2 and flat[0]["ruleId"] == RULE_ASSERTION
        json.dumps(envelope)  # JSON-serializable end to end

    def test_aggregation_is_fail_any(self):
        from repro.core.assertions import AssertionOutcome

        outcomes = [
            AssertionOutcome("x > 0", True, 1, proc="f", line=3),
            AssertionOutcome("x > 0", False, 2, proc="f", line=3),
        ]
        (record,) = from_assertions(outcomes)
        assert record.verdict == "fail"
        assert record.witness["checks"] == 2


# -- protocol -------------------------------------------------------------------


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"verb": "analyze", "id": 7, "source": "proc f() {}"}
        assert P.decode_line(P.encode(message).rstrip(b"\n")) == message

    def test_malformed_line_rejected(self):
        with pytest.raises(P.ProtocolError):
            P.decode_line(b"{ torn")
        with pytest.raises(P.ProtocolError):
            P.decode_line(b'"not an object"')

    def test_unknown_verb_rejected(self):
        with pytest.raises(P.ProtocolError, match="unknown verb"):
            P.validate_request({"verb": "frobnicate"})

    def test_missing_fields_rejected(self):
        with pytest.raises(P.ProtocolError, match="source"):
            P.validate_request({"verb": "analyze"})
        with pytest.raises(P.ProtocolError, match="proc2"):
            P.validate_request(
                {"verb": "equivalence", "source": "", "proc1": "a"}
            )

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7341") == ("127.0.0.1", 7341)
        assert parse_address("/tmp/svc.sock") == "/tmp/svc.sock"
        assert parse_address("./svc.sock") == "./svc.sock"


# -- the server (single-tenant default config) ----------------------------------


@pytest.fixture
def server(tmp_path):
    """An in-process server on an ephemeral TCP port, inline job mode;
    requests name no tenant, so all of them are the default tenant's."""
    gw = GatewayThread(
        GatewayConfig(jobs=0, store_dir=str(tmp_path / "store"))
    ).start()
    yield gw
    gw.stop()


def _client(srv) -> ServiceClient:
    _, (host, port) = srv.address
    return ServiceClient.connect_tcp(host, port)


class TestDaemon:
    def test_submit_edit_resubmit_cycle(self, server):
        with _client(server) as client:
            cold = client.analyze(CHAIN, domains=["am"])
            assert cold["ok"]
            assert cold["result"]["incremental"]["reused"] == 0
            cold_shards = cold["telemetry"]["sccs_analyzed"]

            edited = edit_procedure(CHAIN, "leaf")
            warm = client.analyze(edited, domains=["am"])
            assert warm["ok"]
            inc = warm["result"]["incremental"]
            assert inc["reused"] == 1  # 'other' untouched
            assert warm["telemetry"]["sccs_analyzed"] < cold_shards
            assert warm["result"]["delta"]["changed"] == ["leaf"]
            assert warm["result"]["delta"]["dirty"] == ["leaf", "mid", "top"]

            # Warm hashes == a cold run of the edited program.
            baseline = Analyzer.from_source(edited).analyze_batch(
                domains=("am",), jobs=0
            )
            assert warm["result"]["summary_hashes"] == {
                tid: [list(pair) for pair in hashes]
                for tid, hashes in _batch_hashes(baseline).items()
            }

    def test_warm_store_hit_rate_is_a_ratio(self, server):
        # A second session finds every procedure in the warm store: the
        # reply sums the tasks' counters, never their hit rates.
        with _client(server) as client:
            assert client.analyze(CHAIN, program_id="first")["ok"]
            warm = client.analyze(CHAIN, program_id="second")
        assert warm["ok"]
        store = warm["telemetry"]["store"]
        assert store["hits"] >= 4
        assert store["hit_rate"] == round(
            store["hits"] / (store["hits"] + store["misses"]), 4
        )
        assert 0 < store["hit_rate"] <= 1

    def test_assert_verdicts_over_the_wire(self, server):
        with _client(server) as client:
            response = client.check_asserts(ASSERT_SRC)
            assert response["ok"]
            records = response["result"]["results"]
            assert [r["verdict"] for r in records] == ["pass", "fail"]
            assert [r["line"] for r in records] == [4, 5]

    def test_status_flush_shutdown(self, server):
        with _client(server) as client:
            client.analyze(CHAIN, domains=["am"], program_id="p1")
            status = client.status()["result"]
            assert status["sessions"]["default/p1"]["procs"] == 4
            assert status["tenant_queue_limit"] == 8
            assert status["telemetry"]["requests.analyze"] == 1
            dropped = client.flush()["result"]["dropped"]
            assert dropped == 4
            assert client.shutdown()["ok"]
        assert server.gateway.stopped.wait(10)
        # The socket is really closed.
        _, (host, port) = server.address
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5).close()

    def test_bad_source_is_structured_error(self, server):
        with _client(server) as client:
            response = client.analyze("proc ) nonsense {", domains=["am"])
            assert not response["ok"]
            assert response["error"]["kind"] == "bad_request"
            # ... and the server keeps serving.
            assert client.ping()["ok"]

    def test_malformed_request_line_is_answered(self, server):
        _, (host, port) = server.address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            sock.sendall(b"{ not json\n")
            response = json.loads(sock.makefile("rb").readline())
            assert response["ok"] is False
            assert response["error"]["kind"] == "bad_request"
        finally:
            sock.close()

    def test_queue_full_rejection(self, server):
        # Park every dispatch worker inside a job, then fill the default
        # tenant's bounded queue: the next request must be shed at once
        # (backpressure), not block the connection.
        gateway = server.gateway
        workers = gateway.config.workers
        limit = gateway.config.tenant_queue_limit
        entered, release = threading.Semaphore(0), threading.Event()
        original = gateway.executor.execute

        def gated(*args):
            entered.release()
            release.wait(30)
            return original(*args)

        def send(client, request_id):
            client._sock.sendall(
                P.encode({"verb": "analyze", "id": request_id,
                          "source": CHAIN, "domains": ["am"]})
            )

        gateway.executor.execute = gated
        parked = _client(server)
        try:
            for i in range(workers):
                send(parked, i)
            for _ in range(workers):
                assert entered.acquire(timeout=10)  # all workers busy
            for i in range(workers, workers + limit):
                send(parked, i)
            deadline = time.monotonic() + 10
            while (gateway.scheduler.depth() < limit
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with _client(server) as client:
                response = client.analyze(CHAIN, domains=["am"])
                assert not response["ok"]
                assert response["error"]["kind"] == "shed"
                # A stable queue.shed rule id plus a retry_after_ms
                # backoff hint.
                assert response["error"]["retry_after_ms"] >= 100
                records = envelope_records(response["diagnostics"])
                assert records[0]["ruleId"] == "queue.shed"
                assert records[0]["witness"]["retry_after_ms"] >= 100
        finally:
            release.set()
            del gateway.executor.execute
        # The parked requests still complete normally.
        replies = [
            json.loads(parked._fh.readline()) for _ in range(workers + limit)
        ]
        assert all(reply["ok"] for reply in replies)
        parked.close()


def _raises(request):
    raise ValueError("intentional test failure")


def _over_budget(request):
    from repro.core.interproc import AnalysisBudgetExceeded

    raise AnalysisBudgetExceeded("too slow", kind="wall_clock", limit=1)


@pytest.mark.parametrize("job", [_raises, _over_budget])
def test_inline_job_reply_matches_pool_reply(monkeypatch, job):
    """A job that raises or runs out of budget gets the same structured
    reply with ``jobs=0`` (inline) as in a worker process (``jobs=1``)."""
    import repro.service.executor as executor_mod
    from repro.engine.telemetry import Telemetry

    monkeypatch.setattr(executor_mod, "run_assert_request", job)
    replies = {}
    for jobs in (0, 1):
        executor = executor_mod.VerbExecutor(
            None, Telemetry(), jobs=jobs, hard_grace=5.0, max_sessions=4
        )
        request = {"verb": "assert", "id": "r1", "source": ASSERT_SRC}
        replies[jobs] = executor.execute(request, "assert", "t", None)
    inline, pool = replies[0], replies[1]
    assert inline.pop("telemetry")["isolation"] == "inline"
    assert pool.pop("telemetry")["isolation"] == "pool"
    assert inline == pool
    assert inline["error"]["kind"] == ("failed" if job is _raises else "budget")


class TestDaemonPoolIsolation:
    """Robustness with real worker processes (jobs=1)."""

    @pytest.fixture
    def pool_server(self, tmp_path):
        gw = GatewayThread(
            GatewayConfig(
                jobs=1, store_dir=str(tmp_path / "store"), hard_grace=5.0
            )
        ).start()
        yield gw
        gw.stop()

    def test_sigkilled_worker_returns_structured_error(
        self, pool_server, monkeypatch
    ):
        import repro.service.executor as executor_mod

        def die(request):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(executor_mod, "run_assert_request", die)
        with _client(pool_server) as client:
            response = client.check_asserts(ASSERT_SRC)
            assert not response["ok"]
            assert response["error"]["kind"] == "crashed"
            records = envelope_records(response["diagnostics"])
            assert records[0]["ruleId"] == "worker.crashed"
            monkeypatch.undo()
            # Server survives and the next request succeeds.
            again = client.check_asserts(ASSERT_SRC)
            assert again["ok"]
            assert [r["verdict"] for r in again["result"]["results"]] == [
                "pass",
                "fail",
            ]

    def test_over_budget_analyze_is_structured(self, pool_server):
        from repro.lang.benchlib import BENCHMARK_SOURCE

        with _client(pool_server) as client:
            response = client.analyze(
                BENCHMARK_SOURCE,
                procs=["mergesort"],
                domains=["au"],
                max_seconds=0.05,
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "budget"
            records = envelope_records(response["diagnostics"])
            assert any(r["ruleId"].startswith("budget.") for r in records)
            # Store is not corrupted: a normal request still works.
            ok = client.analyze(CHAIN, domains=["am"])
            assert ok["ok"]


# -- telemetry gauges -----------------------------------------------------------


def test_telemetry_gauges_in_report():
    from repro.engine.telemetry import Telemetry

    tel = Telemetry()
    tel.gauge("queue.depth", 3)
    tel.gauge("queue.depth", 1)  # last value wins
    assert tel.report()["gauge.queue.depth"] == 1
