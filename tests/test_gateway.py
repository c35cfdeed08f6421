"""Tests of the multi-tenant analysis gateway (``repro.gateway``).

Four layers:

- **scheduler**: start-time fair queuing dispatch order, weights, bounded
  per-tenant queues (shed with a retry hint), deadline shedding — all as
  a pure data structure, deterministically;
- **sessions**: LRU residency bound with eviction accounting;
- **gateway end-to-end**: per-tenant isolation, fairness under a gated
  dispatcher (a greedy flood cannot starve a light tenant), deterministic
  shed, deadline rejection, a SIGKILLed worker mid-request surfacing as a
  structured error while the gateway survives;
- **metrics**: the Prometheus exposition document over NDJSON and HTTP.
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.gateway.scheduler import FairScheduler, SchedulerConfig, Shed
from repro.gateway.server import AnalysisGateway, GatewayConfig, GatewayThread
from repro.gateway.sessions import SessionManager
from repro.lang import parse_source
from repro.service.client import ServiceClient
from repro.service.diagnostics import envelope_records
from repro.service.frontend import Frontend, FrontendCache

CHAIN = """
proc leaf(x: list) returns (r: list) { r = x; }
proc mid(x: list) returns (r: list) { r = leaf(x); }
proc top(x: list) returns (r: list) { r = mid(x); }
proc other(x: list) returns (r: list) { r = x; }
"""

ASSERT_SRC = """
proc f(n: int) returns (r: int) {
  r = n + 1;
  assert r > n;
  assert r > n + 1;
}
"""


def edit_procedure(source: str, proc: str) -> str:
    """Scripted single-procedure edit (same helper as test_service)."""
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
    assert close_brace > open_brace
    return (
        source[: open_brace + 1]
        + " local __edit: int; "
        + source[open_brace + 1 : close_brace]
        + " __edit = 1; "
        + source[close_brace:]
    )


# -- scheduler ------------------------------------------------------------------


class TestFairScheduler:
    def test_flood_cannot_starve_light_tenant(self):
        sched = FairScheduler(SchedulerConfig(tenant_queue_limit=100))
        for i in range(10):
            sched.submit("greedy", f"g{i}")
        sched.submit("light", "l0")
        order = [item.payload for item in sched.drain()]
        # The light request's tag ties the flood's *first* tag, so it is
        # dispatched second at the latest — not after the whole backlog.
        assert order.index("l0") <= 1
        assert order[0] == "g0"  # admission order breaks the tie

    def test_interleaving_is_weight_proportional(self):
        sched = FairScheduler(
            SchedulerConfig(
                tenant_queue_limit=100, tenant_weights={"paid": 2.0}
            )
        )
        for i in range(8):
            sched.submit("paid", f"p{i}")
            sched.submit("free", f"f{i}")
        first8 = [item.tenant for item in sched.drain()][:8]
        # Weight 2 gets ~2 of every 3 dispatches while both are backlogged.
        assert first8.count("paid") >= 5

    def test_tenant_queue_bound_sheds_with_hint(self):
        sched = FairScheduler(SchedulerConfig(tenant_queue_limit=2))
        sched.submit("t", 1)
        sched.submit("t", 2)
        with pytest.raises(Shed) as exc:
            sched.submit("t", 3)
        assert exc.value.rule_id == "queue.shed"
        assert exc.value.retry_after_ms > 0
        # Another tenant is unaffected by the full queue.
        sched.submit("other", 4)
        assert sched.depth("other") == 1

    def test_expired_deadline_is_shed_at_admission(self):
        sched = FairScheduler()
        with pytest.raises(Shed) as exc:
            sched.submit("t", 1, deadline=time.monotonic() - 0.1)
        assert exc.value.rule_id == "gateway.deadline"
        assert exc.value.retry_after_ms == 0

    def test_accounting(self):
        sched = FairScheduler(SchedulerConfig(tenant_queue_limit=1))
        sched.submit("a", 1)
        with pytest.raises(Shed):
            sched.submit("a", 2)
        sched.next()
        rows = sched.tenants()
        assert rows["a"]["served"] == 1
        assert rows["a"]["shed"] == 1
        assert rows["a"]["depth"] == 0


# -- sessions -------------------------------------------------------------------


class TestSessionManager:
    def test_lru_eviction_bound(self, tmp_path):
        programs = {
            name: f"proc {name}(x: list) returns (r: list) {{ r = x; }}"
            for name in ("a", "b", "c")
        }
        mgr = SessionManager(max_sessions=2, store_dir=str(tmp_path))
        for tenant in ("a", "b", "c"):
            mgr.acquire(tenant, "p", Frontend(parse_source(programs[tenant])))
        assert len(mgr) == 2
        assert mgr.evictions == 1
        # 'a' (the LRU victim) is gone; 'b' and 'c' are resident.
        assert set(mgr.describe()) == {"b/p", "c/p"}
        mgr.close()

    def test_touch_refreshes_recency(self, tmp_path):
        program = Frontend(parse_source(CHAIN))
        mgr = SessionManager(max_sessions=2, store_dir=str(tmp_path))
        mgr.acquire("a", "p", program)
        mgr.acquire("b", "p", program)
        mgr.acquire("a", "p", program)  # touch: 'a' is now most recent
        mgr.acquire("c", "p", program)  # evicts 'b'
        assert set(mgr.describe()) == {"a/p", "c/p"}
        mgr.close()


# -- gateway end-to-end ---------------------------------------------------------


def _lines_client(gw):
    """Raw pipelining socket: send many request lines, then collect the
    replies (the synchronous ServiceClient is strictly request/reply)."""
    _, (host, port) = gw.address
    sock = socket.create_connection((host, port), timeout=30)
    fh = sock.makefile("rwb")
    return sock, fh


def _send(fh, **request):
    fh.write((json.dumps(request) + "\n").encode())
    fh.flush()


def _recv(fh):
    return json.loads(fh.readline())


@pytest.fixture
def gateway(tmp_path):
    gw = GatewayThread(
        GatewayConfig(
            jobs=0,
            workers=1,
            tenant_queue_limit=4,
            store_dir=str(tmp_path / "store"),
        )
    ).start()
    yield gw
    gw.stop()


def _client(gw) -> ServiceClient:
    _, (host, port) = gw.address
    return ServiceClient.connect_tcp(host, port)


class TestGateway:
    def test_tenants_keep_independent_sessions(self, gateway):
        with _client(gateway) as client:
            a1 = client.analyze(CHAIN, domains=["am"], tenant="alice")
            assert a1["ok"] and a1["result"]["incremental"]["reused"] == 0
            b1 = client.analyze(CHAIN, domains=["am"], tenant="bob")
            assert b1["ok"]
            # bob edits; alice's warm session is untouched.
            edited = edit_procedure(CHAIN, "leaf")
            b2 = client.analyze(edited, domains=["am"], tenant="bob")
            assert b2["result"]["delta"]["changed"] == ["leaf"]
            a2 = client.analyze(CHAIN, domains=["am"], tenant="alice")
            assert a2["result"]["incremental"]["analyzed"] == 0  # all warm
            status = client.status()["result"]
            assert status["tier"] == "gateway"
            assert status["sessions_resident"] == 2
            served = {
                name: row["served"]
                for name, row in status["tenants"].items()
            }
            assert served == {"alice": 2, "bob": 2}

    def test_check_verb_warm_reuse_per_tenant(self, gateway):
        with _client(gateway) as client:
            cold = client.check(CHAIN, tenant="alice")
            assert cold["ok"] is True
            assert len(cold["result"]["checked"]) == 4
            warm = client.check(CHAIN, tenant="alice")
            assert warm["result"]["reused"] == ["leaf", "mid", "other", "top"]
            # A different tenant starts cold (no cross-tenant cache).
            other = client.check(CHAIN, tenant="bob")
            assert len(other["result"]["checked"]) == 4

    def test_gated_dispatcher_fairness_and_deterministic_shed(
        self, gateway, monkeypatch
    ):
        """With the single dispatcher gated on a slow request, a greedy
        tenant fills its bounded queue (deterministic sheds) while a
        light tenant's request overtakes the whole backlog."""
        import repro.service.executor as executor_mod

        gate = threading.Event()
        real = executor_mod.run_assert_request

        def gated(request):
            gate.wait(30)
            return real(request)

        monkeypatch.setattr(executor_mod, "run_assert_request", gated)
        sock, fh = _lines_client(gateway)
        try:
            # One request occupies the (gated) dispatcher...
            _send(fh, verb="assert", id=0, tenant="greedy", source=ASSERT_SRC)
            deadline = time.monotonic() + 10
            while gateway.gateway.telemetry.counters.get(
                "requests.assert", 0
            ) < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            while (gateway.gateway.scheduler.tenants().get("greedy", {})
                   .get("served", 0) < 1) and time.monotonic() < deadline:
                time.sleep(0.01)
            # ...the flood fills greedy's queue (limit 4): 4 admitted,
            # the rest shed deterministically with a retry hint.
            for i in range(1, 7):
                _send(fh, verb="assert", id=i, tenant="greedy",
                      source=ASSERT_SRC)
            # The light tenant's request is admitted behind the flood.
            _send(fh, verb="analyze", id=100, tenant="light", source=CHAIN,
                  domains=["am"])
            sheds = [_recv(fh) for _ in range(2)]  # ids 5, 6 overflow
            for response in sheds:
                assert response["id"] in (5, 6)
                assert response["error"]["kind"] == "shed"
                assert response["error"]["retry_after_ms"] > 0
                records = envelope_records(response["diagnostics"])
                assert records[0]["ruleId"] == "queue.shed"
            # The sheds prove only that ids 5 and 6 were admitted; the
            # light request is sent after them, so wait until it is
            # queued before releasing the dispatcher.
            while (gateway.gateway.scheduler.tenants().get("light", {})
                   .get("depth", 0) < 1) and time.monotonic() < deadline:
                time.sleep(0.01)
            gate.set()
            rest = [_recv(fh) for _ in range(6)]  # 0..4 + light's 100
            order = [r["id"] for r in rest]
            # SFQ: light's single request carries a virtual tag that ties
            # the *first* queued greedy request, so it is dispatched after
            # at most one of the backlog — never behind the whole flood.
            assert order[0] == 0
            assert order.index(100) <= 2
            assert order.index(100) < min(order.index(i) for i in (2, 3, 4))
            light = rest[order.index(100)]
            assert light["ok"] is True
            greedy_waits = [
                r["telemetry"]["queue_wait_s"] for r in rest if r["id"] in
                (3, 4)
            ]
            assert light["telemetry"]["queue_wait_s"] < min(greedy_waits)
        finally:
            gate.set()
            sock.close()

    def test_deadline_expired_is_shed_with_rule(self, gateway):
        with _client(gateway) as client:
            response = client.analyze(
                CHAIN, domains=["am"], tenant="t", deadline_ms=0
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "deadline"
            assert response["error"]["retry_after_ms"] == 0
            records = envelope_records(response["diagnostics"])
            assert records[0]["ruleId"] == "gateway.deadline"
            # The tenant is not poisoned: a normal request succeeds.
            assert client.analyze(CHAIN, domains=["am"], tenant="t")["ok"]

    def test_session_lru_eviction_over_gateway(self, tmp_path):
        gw = GatewayThread(
            GatewayConfig(jobs=0, workers=1, max_sessions=2,
                          store_dir=str(tmp_path / "store"))
        ).start()
        try:
            with _client(gw) as client:
                for tenant in ("a", "b", "c"):
                    assert client.analyze(
                        CHAIN, domains=["am"], tenant=tenant
                    )["ok"]
                status = client.status()["result"]
                assert status["sessions_resident"] == 2
                assert status["sessions_evicted"] == 1
                # The evicted tenant still works (recreated, store-warm).
                again = client.analyze(CHAIN, domains=["am"], tenant="a")
                assert again["ok"]
        finally:
            gw.stop()

    def test_flush_and_equivalence(self, gateway):
        with _client(gateway) as client:
            assert client.analyze(CHAIN, domains=["am"], tenant="t")["ok"]
            flushed = client.flush(tenant="t")
            assert flushed["ok"] and flushed["result"]["dropped"] >= 1
            eq = client.equivalence(CHAIN, "leaf", "other")
            assert eq["ok"]

    def test_flush_drops_exactly_its_scope(self, gateway):
        with _client(gateway) as client:
            for tenant, program_id in (("alice", "p1"), ("alice", "p2"),
                                       ("bob", "p1")):
                assert client.analyze(CHAIN, domains=["am"], tenant=tenant,
                                      program_id=program_id)["ok"]
                assert client.check(CHAIN, query="mid:0", tenant=tenant,
                                    program_id=program_id)["ok"]
            # alice/p1: 4 retained outputs + 1 cached query answer.
            flushed = client.flush("p1", tenant="alice")
            assert flushed["result"]["dropped"] == 5
            sessions = client.status()["result"]["sessions"]
            assert sessions["alice/p1"]["retained"] == 0
            assert sessions["alice/p2"]["retained"] == 4
            again = client.check(CHAIN, query="mid:0", tenant="alice",
                                 program_id="p2")
            assert again["result"]["mode"] == "warm"
            # A tenant-wide flush leaves the other tenant warm.
            client.flush(tenant="alice")
            bob = client.check(CHAIN, query="mid:0", tenant="bob",
                               program_id="p1")
            assert bob["result"]["mode"] == "warm"
            alice = client.check(CHAIN, query="mid:0", tenant="alice",
                                 program_id="p2")
            assert alice["result"]["mode"] == "cold"

    def test_bad_requests_are_structured(self, gateway):
        sock, fh = _lines_client(gateway)
        try:
            fh.write(b"this is not json\n")
            fh.flush()
            response = _recv(fh)
            assert not response["ok"]
            assert response["error"]["kind"] == "bad_request"
            _send(fh, verb="analyze", id=2, source="proc broken(")
            response = _recv(fh)
            assert not response["ok"]
            assert "parse" in response["error"]["message"]
        finally:
            sock.close()


    def test_finding_cache_bounded_by_max_sessions(self, tmp_path):
        gw = GatewayThread(
            GatewayConfig(jobs=0, workers=1, max_sessions=2,
                          store_dir=str(tmp_path / "store"))
        ).start()
        try:
            with _client(gw) as client:

                def mode(program_id):
                    reply = client.check(CHAIN, query="mid:0",
                                         program_id=program_id)
                    return reply["result"]["mode"]

                for program_id in ("p1", "p2", "p3"):
                    assert mode(program_id) == "cold"
                    assert mode(program_id) == "warm"
                # p1 was the least recently used owner when p3 arrived.
                assert mode("p2") == "warm"
                assert mode("p3") == "warm"
                assert mode("p1") == "cold"
            assert len(gw.gateway.executor.check_cache) == 2
        finally:
            gw.stop()

    def test_interleaved_sources_answer_their_own_findings(self):
        """Two sources checked on one owner, interleaved: a request
        answers the procedures it found reusable from the entries its
        own partition validated, not from the entries a concurrent
        request on the other source wrote in between."""
        from repro.service.checkcache import CheckFindingCache

        shifted = "\n" + CHAIN  # every line moves, so every key does
        keys = {src: Frontend(parse_source(src)).keys
                for src in (CHAIN, shifted)}
        procs = sorted(keys[CHAIN])
        assert all(keys[CHAIN][p] != keys[shifted][p] for p in procs)
        cache, owner, config = CheckFindingCache(max_owners=2), ("t", "p"), (
            "lint", "am", 0)

        def fresh(tag, dirty):
            return {"lint": {p: [{"procedure": p, "ruleId": "r",
                                  "message": tag}] for p in dirty},
                    "safety": {}, "termination": {}, "proc_status": {},
                    "termination_status": {}}

        def partition(src):
            return cache.partition(owner, config, procs, keys[src],
                                   True, False, False)

        def merge(src, snapshot, results):
            records, _ = cache.merge_and_answer(
                owner, config, procs, snapshot, keys[src], results,
                True, False, False)
            return {r["procedure"]: r["message"] for r in records}

        dirty, snapshot = partition(CHAIN)
        assert merge(CHAIN, snapshot, fresh("a", dirty)) == dict.fromkeys(
            procs, "a")
        dirty_a, snapshot_a = partition(CHAIN)
        assert dirty_a == [] and sorted(snapshot_a) == procs
        dirty_b, snapshot_b = partition(shifted)
        assert dirty_b == procs
        assert merge(shifted, snapshot_b, fresh("b", dirty_b)) == dict.fromkeys(
            procs, "b")
        # The reused answer is the one validated against this source.
        assert merge(CHAIN, snapshot_a, fresh("-", [])) == dict.fromkeys(
            procs, "a")
        # A flush in between cannot take reused entries away either.
        dirty_b, snapshot_b = partition(shifted)
        assert dirty_b == []
        cache.flush()
        assert merge(shifted, snapshot_b, fresh("-", [])) == dict.fromkeys(
            procs, "b")


# -- the shared frontend cache --------------------------------------------------

NULL_DEREF = """
proc main(x: list) returns (r: list) {
  local t: list;
  t = x->next;
  r = t;
}
proc wrap(x: list) returns (r: list) {
  r = main(x);
}
"""


class TestFrontendCache:
    SOURCES = (CHAIN, edit_procedure(CHAIN, "leaf"), NULL_DEREF)
    ROOTS = ("top", "mid", "wrap")

    def _ops(self):
        ops = []
        for tenant in ("t0", "t1", "t2"):
            for i in range(len(self.SOURCES)):
                ops += [("analyze", tenant, i), ("check", tenant, i),
                        ("query", tenant, i)]
        return ops * 2  # repeats meet warm sessions, caches and hits

    def _answer(self, client, op):
        verb, tenant, i = op
        kwargs = {"tenant": tenant, "program_id": f"p{i}"}
        if verb == "analyze":
            reply = client.analyze(self.SOURCES[i], domains=["am"], **kwargs)
            hashes = reply["result"]["summary_hashes"]
            answer = {key: sorted(pairs) for key, pairs in hashes.items()}
        elif verb == "check":
            reply = client.check(self.SOURCES[i], **kwargs)
            result = reply["result"]
            answer = [result["ok"], result["proc_status"],
                      envelope_records(result["diagnostics"])]
        else:
            reply = client.check(self.SOURCES[i], query=f"{self.ROOTS[i]}:0",
                                 **kwargs)
            answer = {key: value for key, value in reply["result"]["query"].items()
                      if key != "seconds"}
        assert reply["ok"], reply
        return json.dumps(answer, sort_keys=True)

    def test_concurrent_answers_equal_sequential(self, tmp_path):
        ops = self._ops()
        sequential = GatewayThread(
            GatewayConfig(jobs=0, workers=1, store_dir=str(tmp_path / "seq"))
        ).start()
        try:
            with _client(sequential) as client:
                expected = [self._answer(client, op) for op in ops]
        finally:
            sequential.stop()

        gw = GatewayThread(
            GatewayConfig(jobs=0, workers=4, store_dir=str(tmp_path / "par"))
        ).start()
        got = [None] * len(ops)
        errors = []

        def drive(k):
            try:
                with _client(gw) as client:
                    for n in range(k, len(ops), 8):
                        got[n] = self._answer(client, ops[n])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=drive, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            gw.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert got == expected

    def test_shared_caches_under_thread_stress(self):
        """More threads than cores, a short switch interval: a resolve
        never returns another source's frontend, an owner never reads
        another owner's answer, and both bounds hold."""
        import sys

        from repro.service.checkcache import CheckFindingCache

        frontends = FrontendCache(max_entries=8)
        findings = CheckFindingCache(max_owners=4)
        sources = [f"proc p{i}(x: list) returns (r: list) {{ r = x; }}"
                   for i in range(12)]
        errors = []

        def hammer(k):
            try:
                for n in range(40):
                    i = (k + n) % len(sources)
                    frontend, _ = frontends.resolve(sources[i])
                    names = [p.name for p in frontend.program.procedures]
                    assert names == [f"p{i}"] and list(frontend.keys) == names
                    owner = (f"t{k % 3}", f"p{i}")
                    findings.query_put(owner, ("q",), "cone", {"i": i})
                    answer = findings.query_get(owner, ("q",), "cone")
                    assert answer in (None, {"i": i})
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(4 * (os.cpu_count() or 2))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(frontends) == 8
        assert len(findings) <= 4

    def test_resident_sources_bounded_by_max_sessions(self, tmp_path):
        gw = GatewayThread(
            GatewayConfig(jobs=0, workers=1, max_sessions=8,
                          store_dir=str(tmp_path / "store"))
        ).start()
        sources = [f"proc p{i}(x: list) returns (r: list) {{ r = x; }}"
                   for i in range(9)]
        try:
            with _client(gw) as client:
                for source in sources:
                    assert client.analyze(source, domains=["am"])["ok"]
                assert len(gw.gateway.executor.frontend) == 8
                latest = client.analyze(sources[-1], domains=["am"])
                assert latest["telemetry"]["frontend"] == "hit"
                oldest = client.analyze(sources[0], domains=["am"])
                assert oldest["telemetry"]["frontend"] == "miss"
        finally:
            gw.stop()

    def test_edit_session_misses_once_per_source(self, gateway):
        edits = ("leaf", "mid", "other")
        roots = ("leaf", "mid", "top", "other")
        source = CHAIN
        with _client(gateway) as client:
            assert client.analyze(source, domains=["am"])["ok"]
            for proc in edits:
                source = edit_procedure(source, proc)
                edit = client.analyze(source, domains=["am"])
                assert edit["telemetry"]["frontend"] == "miss"
                for n in range(9):
                    query = client.check(source, query=f"{roots[n % 4]}:0")
                    assert query["telemetry"]["frontend"] == "hit"
            text = client.metrics()
        assert f'repro_frontend_total{{result="miss"}} {len(edits) + 1}' in text
        assert f'repro_frontend_total{{result="hit"}} {9 * len(edits)}' in text


class TestGatewayPoolIsolation:
    """Robustness with real worker processes (jobs=1)."""

    def test_sigkilled_worker_is_structured_and_gateway_survives(
        self, tmp_path, monkeypatch
    ):
        import repro.service.executor as executor_mod

        def die(request):
            os.kill(os.getpid(), signal.SIGKILL)

        gw = GatewayThread(
            GatewayConfig(jobs=1, workers=1, hard_grace=5.0,
                          store_dir=str(tmp_path / "store"))
        ).start()
        try:
            monkeypatch.setattr(executor_mod, "run_assert_request", die)
            with _client(gw) as client:
                response = client.check_asserts(ASSERT_SRC, tenant="t")
                assert not response["ok"]
                assert response["error"]["kind"] == "crashed"
                records = envelope_records(response["diagnostics"])
                assert records[0]["ruleId"] == "worker.crashed"
                monkeypatch.undo()
                # Gateway survives; the next request succeeds.
                again = client.check_asserts(ASSERT_SRC, tenant="t")
                assert again["ok"]
                verdicts = [
                    r["verdict"] for r in again["result"]["results"]
                ]
                assert verdicts == ["pass", "fail"]
        finally:
            gw.stop()


# -- metrics --------------------------------------------------------------------


class TestMetrics:
    def test_exposition_over_ndjson_and_http(self, gateway):
        with _client(gateway) as client:
            assert client.analyze(CHAIN, domains=["am"], tenant="alice")["ok"]
            text = client.metrics()
        assert 'repro_requests_total{verb="analyze"} 1' in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_tenant_requests_total{tenant="alice"} 1' in text
        assert "repro_queue_depth 0" in text
        assert "repro_request_exec_s_count 1" in text
        assert 'repro_request_exec_s{quantile="0.5"}' in text
        assert "# TYPE repro_frontend_total counter" in text
        assert 'repro_frontend_total{result="miss"} 1' in text
        # HTTP scrape of the same port returns the same document shape.
        _, (host, port) = gateway.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        sock.close()
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain; version=0.0.4" in head
        assert b"repro_tenant_requests_total" in body

    def test_http_unknown_path_is_404(self, gateway):
        _, (host, port) = gateway.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"GET /nope HTTP/1.0\r\n\r\n")
        data = sock.recv(65536)
        sock.close()
        assert data.startswith(b"HTTP/1.0 404")

    def test_daemon_metrics_verb_shares_renderer(self, tmp_path):
        """The single-tenant default config (no tenant on any request)
        answers the ``metrics`` verb from the same renderer."""
        gw = GatewayThread(
            GatewayConfig(jobs=0, store_dir=str(tmp_path / "s"))
        ).start()
        try:
            with _client(gw) as client:
                assert client.analyze(CHAIN, domains=["am"])["ok"]
                text = client.metrics()
            assert 'repro_requests_total{verb="analyze"} 1' in text
            assert 'repro_tenant_requests_total{tenant="default"} 1' in text
            assert "repro_queue_depth" in text
        finally:
            gw.stop()
