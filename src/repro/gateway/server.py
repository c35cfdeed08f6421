"""The analysis server: an asyncio multi-tenant gateway.

Architecture::

    asyncio event loop (one process)
        ├─ connection tasks: read NDJSON lines (:mod:`repro.service.protocol`)
        │    — or answer an HTTP ``GET /metrics`` scrape
        │    ├─ control verbs (ping/status/metrics/flush/shutdown): inline
        │    └─ job verbs: admission through the per-tenant FairScheduler
        │         (bounded tenant queues; full -> ``shed`` + retry_after)
        ├─ N dispatch workers: pop the globally fairest request, run it
        │    through the VerbExecutor on an executor thread, reply on the
        │    request's socket
        └─ maintenance task: store compaction + byte-budget GC

    tenant state
        ├─ sessions: (tenant, program_id) -> incremental Session, LRU
        └─ check cache: CheckFindingCache keyed per tenant/program

This module keeps admission, fair dispatch, transport and maintenance;
executing a verb is :mod:`repro.service.executor`'s job.  A client that
sends no ``tenant`` is the ``default`` tenant, so the default config
serves a single user as well as many.

Fairness: admission stamps each request with a start-time-fair-queuing
virtual tag; dispatch always takes the smallest tag, so a light tenant's
requests overtake a flooding tenant's backlog — its latency is bounded
by in-flight work, not by the flood's queue depth.  Deadlines: a request
can carry ``deadline_ms``; whatever remains at dispatch time becomes the
worker pool's cooperative budget *and* its hard-kill budget, so a
request can never hold a worker past its deadline plus the grace.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.telemetry import Telemetry
from repro.gateway import metrics as M
from repro.gateway.scheduler import FairScheduler, SchedulerConfig, Shed
from repro.gateway.sessions import SessionManager
from repro.parallel.store import PersistentSummaryStore
from repro.service import diagnostics as D
from repro.service import protocol as P
from repro.service.executor import VerbExecutor

DEFAULT_TENANT = "default"
MAINTENANCE_INTERVAL_S = 5.0  # seconds between store maintenance passes


@dataclass
class GatewayConfig:
    """Server knobs; ``socket_path`` (Unix) wins over host/port (TCP)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off gateway.address
    socket_path: Optional[str] = None
    workers: int = 2  # concurrent dispatches (executor threads)
    jobs: int = 1  # worker processes per job; 0 = inline (test mode)
    store_dir: Optional[str] = None  # shared persistent summary store
    max_store_bytes: Optional[int] = None  # GC budget; None = unbounded
    max_sessions: int = 64  # LRU bound on sessions, finding owners, sources
    tenant_queue_limit: int = 8
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    default_max_seconds: Optional[float] = None
    default_deadline_s: Optional[float] = None  # None = no implicit deadline
    hard_grace: float = 10.0


@dataclass
class _GatewayJob:
    request: Dict[str, Any]
    verb: str
    tenant: str
    writer: asyncio.StreamWriter
    wlock: asyncio.Lock


class AnalysisGateway:
    """One gateway instance: scheduler, sessions, summary store, metrics."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        self.telemetry = Telemetry()
        self.scheduler = FairScheduler(
            SchedulerConfig(
                tenant_queue_limit=self.config.tenant_queue_limit,
                tenant_weights=dict(self.config.tenant_weights),
            )
        )
        self._tmp = None
        store_dir = self.config.store_dir
        if store_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-gateway-")
            store_dir = self._tmp.name
        self.store_dir = store_dir
        self.store = PersistentSummaryStore(store_dir)
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            store_dir=store_dir,
            jobs=self.config.jobs,
            max_seconds=self.config.default_max_seconds,
        )
        self.executor = VerbExecutor(
            self.sessions,
            self.telemetry,
            jobs=self.config.jobs,
            hard_grace=self.config.hard_grace,
            max_sessions=self.config.max_sessions,
        )
        self._threads = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-gateway",
        )
        self.started = time.monotonic()
        self.address: Optional[Tuple[str, Any]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._cond: Optional[asyncio.Condition] = None
        self._workers: List[asyncio.Task] = []
        self._maintenance: Optional[asyncio.Task] = None
        self._draining = False
        self._stopped = asyncio.Event()
        self.stopped = threading.Event()  # thread-visible mirror for tests

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind, listen, and launch dispatch workers (non-blocking)."""
        self._cond = asyncio.Condition()
        if self.config.socket_path is not None:
            path = self.config.socket_path
            try:
                os.unlink(path)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path
            )
            self.address = ("unix", path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
            sock = self._server.sockets[0]
            self.address = ("tcp", sock.getsockname()[:2])
        self._workers = [
            asyncio.ensure_future(self._dispatch_worker(i))
            for i in range(max(1, self.config.workers))
        ]
        self._maintenance = asyncio.ensure_future(self._maintenance_loop())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful stop: refuse new jobs, drain admitted ones, close."""
        async with self._cond:
            self._draining = True
            self._cond.notify_all()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._workers:
            await asyncio.wait(self._workers, timeout=60.0)
            for task in self._workers:
                task.cancel()
            self._workers = []
        if self._maintenance is not None:
            self._maintenance.cancel()
            self._maintenance = None
        if self.address is not None and self.address[0] == "unix":
            try:
                os.unlink(self.address[1])
            except OSError:
                pass
        self._threads.shutdown(wait=True)
        self.sessions.close()
        self.store.maintain(self.config.max_store_bytes)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        self._stopped.set()
        self.stopped.set()

    # -- connections -------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        wlock = asyncio.Lock()
        try:
            line = await reader.readline()
            if not line:
                return
            if line[:4] in (b"GET ", b"HEAD"):
                await self._handle_http(line, reader, writer)
                return
            while line:
                if line.strip():
                    stop = await self._handle_line(line, writer, wlock)
                    if stop:
                        break
                line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            return  # loop teardown with the peer still connected
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_http(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The HTTP-ish surface: ``GET /metrics`` answers a Prometheus
        exposition document; anything else is a 404.  One request per
        connection (HTTP/1.0 close semantics)."""
        try:
            while True:  # drain request headers
                header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if not header or header in (b"\r\n", b"\n"):
                    break
        except asyncio.TimeoutError:
            pass
        parts = first_line.decode("latin-1").split()
        path = parts[1] if len(parts) > 1 else "/"
        if path.split("?")[0] == "/metrics":
            self.telemetry.count("requests.metrics_http")
            writer.write(M.http_metrics_response(self.render_metrics()))
        else:
            body = b"not found; try /metrics\n"
            writer.write(
                b"HTTP/1.0 404 Not Found\r\n"
                b"Content-Type: text/plain\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
        await writer.drain()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
        message: Dict[str, Any],
    ) -> None:
        try:
            async with wlock:
                writer.write(P.encode(message))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; the result is dropped

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, wlock: asyncio.Lock
    ) -> bool:
        """One NDJSON request; returns True when the connection should
        stop reading (shutdown)."""
        try:
            request = P.decode_line(line)
            verb = P.validate_request(request)
        except P.ProtocolError as exc:
            self.telemetry.count("requests.bad")
            await self._send(
                writer, wlock, P.error_response(None, exc.kind, str(exc))
            )
            return False
        self.telemetry.count(f"requests.{verb}")
        if verb in P.CONTROL_VERBS:
            await self._send(writer, wlock, await self._control(request, verb))
            return verb == "shutdown"
        await self._admit(request, verb, writer, wlock)
        return False

    # -- admission ---------------------------------------------------------------

    @staticmethod
    def tenant_of(request: Dict[str, Any]) -> str:
        tenant = request.get("tenant")
        return str(tenant) if tenant else DEFAULT_TENANT

    def _deadline_of(self, request: Dict[str, Any]) -> Optional[float]:
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None:
            return time.monotonic() + float(deadline_ms) / 1000.0
        if self.config.default_deadline_s is not None:
            return time.monotonic() + self.config.default_deadline_s
        return None

    def _retry_after_ms(self, tenant: str) -> int:
        """Backoff hint: time to drain this tenant's backlog at the
        recent median execution latency (clamped to [100ms, 60s])."""
        exec_p50 = self.telemetry.percentile("request.exec_s", 50.0) or 1.0
        estimate = (self.scheduler.depth(tenant) + 1) * exec_p50 * 1000.0
        return int(min(60_000.0, max(100.0, estimate)))

    async def _admit(
        self,
        request: Dict[str, Any],
        verb: str,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
    ) -> None:
        tenant = self.tenant_of(request)
        if self._draining:
            self.telemetry.count("shed.draining")
            await self._send(
                writer,
                wlock,
                P.shed_response(
                    request,
                    "gateway is draining for shutdown",
                    retry_after_ms=5000,
                    verb=verb,
                    kind=P.E_SHUTTING_DOWN,
                    rule_id=D.RULE_GATEWAY_DRAINING,
                ),
            )
            return
        job = _GatewayJob(
            request=request, verb=verb, tenant=tenant,
            writer=writer, wlock=wlock,
        )
        try:
            async with self._cond:
                self.scheduler.submit(
                    tenant,
                    job,
                    deadline=self._deadline_of(request),
                    retry_after_ms=self._retry_after_ms(tenant),
                )
                self._cond.notify()
        except Shed as shed:
            reason = (
                "deadline"
                if shed.rule_id == D.RULE_GATEWAY_DEADLINE
                else "queue"
            )
            self.telemetry.count(f"shed.{reason}")
            self.telemetry.count(f"shed.tenant.{tenant}")
            await self._send(
                writer,
                wlock,
                P.shed_response(
                    request,
                    str(shed),
                    retry_after_ms=shed.retry_after_ms,
                    verb=verb,
                    kind=(
                        P.E_DEADLINE
                        if shed.rule_id == D.RULE_GATEWAY_DEADLINE
                        else P.E_SHED
                    ),
                    rule_id=shed.rule_id,
                ),
            )
            return
        self.telemetry.gauge("queue.depth", self.scheduler.depth())

    # -- dispatch ----------------------------------------------------------------

    def _effective_budget(
        self, request: Dict[str, Any], remaining: Optional[float]
    ) -> Optional[float]:
        """min(request max_seconds, remaining deadline, config default)."""
        budget = request.get("max_seconds", self.config.default_max_seconds)
        if remaining is not None:
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    async def _dispatch_worker(self, worker_id: int) -> None:
        loop = asyncio.get_event_loop()
        while True:
            async with self._cond:
                while not self._draining and self.scheduler.depth() == 0:
                    await self._cond.wait()
                item = self.scheduler.next()
                if item is None:
                    if self._draining:
                        return
                    continue
            job: _GatewayJob = item.payload
            now = time.monotonic()
            queue_wait = now - item.enqueued
            remaining = item.remaining(now)
            if remaining is not None and remaining <= 0:
                self.telemetry.count("shed.deadline")
                await self._send(
                    job.writer,
                    job.wlock,
                    P.shed_response(
                        job.request,
                        f"deadline expired {-remaining:.3f}s before dispatch",
                        retry_after_ms=0,
                        verb=job.verb,
                        kind=P.E_DEADLINE,
                        rule_id=D.RULE_GATEWAY_DEADLINE,
                    ),
                )
                continue
            start = time.monotonic()
            try:
                message = await loop.run_in_executor(
                    self._threads,
                    self.executor.execute,
                    job.request,
                    job.verb,
                    job.tenant,
                    self._effective_budget(job.request, remaining),
                )
            except Exception as exc:  # never let a job kill the worker
                self.telemetry.count("requests.internal_error")
                message = P.error_response(
                    job.request,
                    P.E_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                    job.verb,
                )
            exec_s = time.monotonic() - start
            telemetry = message.setdefault("telemetry", {})
            telemetry["queue_wait_s"] = round(queue_wait, 6)
            telemetry["exec_s"] = round(exec_s, 6)
            telemetry["tenant"] = job.tenant
            self.telemetry.observe("request.queue_wait_s", queue_wait)
            self.telemetry.observe("request.exec_s", exec_s)
            self.telemetry.count(f"served.tenant.{job.tenant}")
            self.telemetry.gauge("queue.depth", self.scheduler.depth())
            await self._send(job.writer, job.wlock, message)

    # -- control verbs -----------------------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus exposition document for this gateway."""
        self.telemetry.gauge("queue.depth", self.scheduler.depth())
        self.telemetry.gauge("sessions.resident", len(self.sessions))
        self.telemetry.gauge("store.bytes", self.store.total_bytes())
        return M.render_prometheus(
            self.telemetry, extra=M.tenant_rows(self.scheduler.tenants())
        )

    async def _control(
        self, request: Dict[str, Any], verb: str
    ) -> Dict[str, Any]:
        if verb == "ping":
            return P.response(
                request, verb, {"protocol": P.PROTOCOL_VERSION, "tier": "gateway"}
            )
        if verb == "metrics":
            return P.response(request, verb, {"text": self.render_metrics()})
        if verb == "status":
            return P.response(
                request,
                verb,
                {
                    "protocol": P.PROTOCOL_VERSION,
                    "tier": "gateway",
                    "uptime_s": round(time.monotonic() - self.started, 3),
                    "queue_depth": self.scheduler.depth(),
                    "tenant_queue_limit": self.config.tenant_queue_limit,
                    "workers": self.config.workers,
                    "jobs": self.config.jobs,
                    "tenants": self.scheduler.tenants(),
                    "sessions": self.sessions.describe(),
                    "sessions_resident": len(self.sessions),
                    "sessions_evicted": self.sessions.evictions,
                    "store": dict(
                        self.store.stats(),
                        max_bytes=self.config.max_store_bytes,
                    ),
                    "telemetry": self.telemetry.report(),
                },
            )
        if verb == "flush":
            tenant, program_id = request.get("tenant"), request.get("program_id")
            dropped = self.executor.flush(
                str(tenant) if tenant else None,
                None if program_id is None else str(program_id),
            )
            return P.response(request, verb, {"dropped": dropped})
        if verb == "shutdown":
            asyncio.ensure_future(self.stop())
            return P.response(request, verb, {"stopping": True})
        raise P.ProtocolError(f"unhandled control verb {verb!r}")

    # -- maintenance -------------------------------------------------------------

    async def _maintenance_loop(self) -> None:
        """Background store compaction + GC, off the request path."""
        loop = asyncio.get_event_loop()
        while not self._draining:
            try:
                await asyncio.sleep(MAINTENANCE_INTERVAL_S)
                report = await loop.run_in_executor(
                    None, self.store.maintain, self.config.max_store_bytes
                )
                if report["compacted"]:
                    self.telemetry.count(
                        "store.compacted_entries", report["compacted"]
                    )
                if report["gc_files"]:
                    self.telemetry.count("store.gc_files", report["gc_files"])
                    self.telemetry.count("store.gc_bytes", report["gc_bytes"])
            except asyncio.CancelledError:
                return
            except Exception:
                self.telemetry.count("store.maintenance_errors")


class GatewayThread:
    """Run a gateway on a background thread's event loop.

    The canonical embedding for tests and benchmarks::

        gw = GatewayThread(GatewayConfig(jobs=0)).start()
        kind, (host, port) = gw.address
        ... ServiceClient.connect_tcp(host, port) ...
        gw.stop()
    """

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.gateway = AnalysisGateway(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    def start(self) -> "GatewayThread":
        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.gateway.start())
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("gateway failed to start within 30s")
        return self

    @property
    def address(self):
        return self.gateway.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None:
            return
        if not self.gateway.stopped.is_set():
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.stop(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except Exception:
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
