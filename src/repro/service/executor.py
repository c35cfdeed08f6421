"""Verb execution: one decoded job request in, one reply message out.

The gateway (:mod:`repro.gateway.server`) owns transport, admission,
fair dispatch and store maintenance.  Everything between a validated
job request and its reply lives here, with no asyncio or socket code,
so it runs on any executor thread:

- resolve the LISL ``source`` through the content-addressed
  :class:`~repro.service.frontend.FrontendCache` (a parse or type error
  is a ``bad_request``; every other reply's telemetry says whether the
  frontend was a ``hit`` or a ``miss``);
- ``analyze`` through the tenant's incremental
  :class:`~repro.service.session.Session` (dirty-cone reuse);
- ``check`` with warm per-procedure findings from the
  :class:`~repro.service.checkcache.CheckFindingCache`, or one demand
  obligation when the request carries a ``query``
  (:func:`repro.service.queries.execute_query`);
- ``assert`` and ``equivalence`` through the :mod:`repro.service.jobs`
  worker entry points.

Jobs that run outside a session go through
:meth:`VerbExecutor.run_isolated`: one task of a
:class:`~repro.parallel.pool.WorkerPool`, inline when ``jobs == 0``
(test mode), else in one fault-isolated process, so an exception, a
SIGKILLed worker or a budget kill becomes the same structured error on
that one request while the server, its sessions and the store stay
intact.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.parallel.pool import OK, PoolTask, TaskOutcome, WorkerPool
from repro.service import diagnostics as D
from repro.service import protocol as P
from repro.service.checkcache import CheckFindingCache
from repro.service.frontend import Frontend, FrontendCache
from repro.service.jobs import (
    AssertRequest,
    CheckRequest,
    EquivalenceRequest,
    run_assert_request,
    run_check_request,
    run_equivalence_request,
)
from repro.service.queries import execute_query

CHECK_TIERS = ("lint", "safety", "termination", "all")


class IsolatedTaskError(Exception):
    """A pool-isolated job that did not finish ``ok`` (crashed, failed,
    or over budget); ``telemetry`` is the isolation record."""

    def __init__(self, outcome: TaskOutcome, telemetry: Dict[str, Any]):
        self.status = outcome.status
        self.error = outcome.error
        self.telemetry = telemetry
        super().__init__(
            (outcome.error or {}).get("message", f"task {outcome.status}")
        )


class VerbExecutor:
    """Runs job verbs against per-tenant sessions and finding caches.

    ``sessions`` is the :class:`~repro.gateway.sessions.SessionManager`
    holding each ``(tenant, program_id)``'s incremental session;
    ``telemetry`` is the server's shared registry; ``max_sessions``
    bounds the frontend cache's resident sources and the finding cache's
    resident owners as it bounds sessions.  The frontend cache is shared
    by every tenant.  Thread-safe: the
    session manager and both caches lock internally.
    """

    def __init__(
        self,
        sessions,
        telemetry,
        jobs: int,
        hard_grace: float,
        max_sessions: int,
    ):
        self.sessions = sessions
        self.telemetry = telemetry
        self.jobs = jobs
        self.hard_grace = hard_grace
        self.frontend = FrontendCache(max_entries=max_sessions)
        self.check_cache = CheckFindingCache(max_owners=max_sessions)

    def execute(
        self,
        request: Dict[str, Any],
        verb: str,
        tenant: str,
        budget: Optional[float],
    ) -> Dict[str, Any]:
        """The reply to one job request; ``budget`` is the request's
        effective wall budget (cooperative and hard-kill)."""
        try:
            frontend, hit = self.frontend.resolve(request["source"])
        except Exception as exc:
            self.telemetry.count("requests.parse_error")
            return P.error_response(
                request, P.E_BAD_REQUEST, f"source does not parse: {exc}", verb
            )
        outcome = "hit" if hit else "miss"
        self.telemetry.count(f"frontend.{outcome}")
        reply = self._execute(request, verb, tenant, frontend, budget)
        reply.setdefault("telemetry", {})["frontend"] = outcome
        return reply

    def _execute(
        self,
        request: Dict[str, Any],
        verb: str,
        tenant: str,
        frontend: Frontend,
        budget: Optional[float],
    ) -> Dict[str, Any]:
        try:
            if verb == "analyze":
                return self._analyze(request, tenant, frontend, budget)
            if verb == "check" and request.get("query") is not None:
                return execute_query(self, request, tenant, frontend, budget)
            if verb == "check":
                return self._check(request, tenant, frontend, budget)
            if verb == "assert":
                fn, payload = run_assert_request, AssertRequest(
                    program=frontend.program,
                    procs=tuple(request.get("procs") or ()),
                    domain=request.get("domain", "au"),
                    k=int(request.get("k", 0)),
                    max_seconds=budget,
                )
            elif verb == "equivalence":
                fn, payload = run_equivalence_request, EquivalenceRequest(
                    program=frontend.program,
                    proc1=request["proc1"],
                    proc2=request["proc2"],
                    max_seconds=budget,
                )
            else:
                raise P.ProtocolError(f"unhandled job verb {verb!r}")
            result, telemetry = self.run_isolated(fn, payload, budget)
            return P.response(request, verb, result, telemetry)
        except IsolatedTaskError as exc:
            self.telemetry.count(f"requests.{verb}.{exc.status}")
            record = D.from_task_error(exc.status, exc.error)
            out = P.error_response(
                request, exc.status, str(exc), verb,
                diagnostics=D.run_envelope([record]),
            )
            out["telemetry"] = exc.telemetry
            return out

    def run_isolated(
        self, fn: Callable, payload, budget: Optional[float]
    ) -> Tuple[Any, Dict[str, Any]]:
        """``fn(payload)`` and its isolation telemetry.  With ``jobs >=
        1`` it runs in one worker process whose hard SIGTERM/SIGKILL
        backstop fires at ``budget + hard_grace``; with ``jobs == 0`` it
        runs inline through the same pool status mapping.  A run that
        does not finish ``ok`` raises :class:`IsolatedTaskError`."""
        pool = WorkerPool(jobs=min(self.jobs, 1), hard_grace=self.hard_grace)
        (outcome,) = pool.run(
            [PoolTask(task_id="job", fn=fn, args=(payload,), budget=budget)]
        )
        telemetry = {
            "isolation": "pool" if self.jobs else "inline",
            "wall_s": round(outcome.wall_time, 6),
            "retries": outcome.retries,
        }
        if outcome.status != OK:
            raise IsolatedTaskError(outcome, telemetry)
        return outcome.result, telemetry

    def flush(
        self, tenant: Optional[str] = None, program_id: Optional[str] = None
    ) -> int:
        """Drop retained session outputs and cached findings that match
        every given filter (``None`` matches any); returns the count."""
        return self.sessions.flush(tenant, program_id) + self.check_cache.flush(
            tenant, program_id
        )

    # -- analyze -----------------------------------------------------------------

    def _analyze(
        self,
        request: Dict[str, Any],
        tenant: str,
        frontend: Frontend,
        budget: Optional[float],
    ) -> Dict[str, Any]:
        program_id = str(request.get("program_id", "default"))
        session, lock, evicted = self.sessions.acquire(
            tenant, program_id, frontend
        )
        if evicted:
            self.telemetry.count("sessions.evicted")
        with lock:
            delta = self.sessions.update_if_changed(session, frontend)
            report = session.analyze(
                procs=request.get("procs"),
                domains=tuple(request.get("domains") or ("am",)),
                k=int(request.get("k", 0)),
                max_seconds=budget,
            )
        self.telemetry.gauge("sessions.resident", len(self.sessions))
        records: List[D.DiagnosticRecord] = []
        for task_id, error in sorted(report.errors.items()):
            records.append(
                D.from_task_error(
                    error["status"],
                    error.get("error"),
                    proc=task_id.rsplit(".", 1)[0],
                )
            )
        for task_id, output in sorted(report.outputs.items()):
            if task_id in report.errors:
                continue  # already encoded from the task-level error
            records.extend(
                D.from_engine_diagnostics(output.diagnostics, proc=output.proc)
            )
        # Each task reports its own store's counters: sum those and derive
        # the ratio from the sums, as PersistentSummaryStore.hit_rate() does.
        store_stats: Dict[str, Any] = {}
        for output in report.outputs.values():
            for key, value in (output.stats.get("store") or {}).items():
                if key != "hit_rate" and isinstance(value, (int, float)):
                    store_stats[key] = store_stats.get(key, 0) + value
        if store_stats:
            hits = store_stats.get("hits", 0)
            lookups = hits + store_stats.get("misses", 0)
            store_stats["hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
        dirty_cone = len(report.incremental["dirty_cone"])
        self.telemetry.gauge("analyze.dirty_cone", dirty_cone)
        self.telemetry.count("analyze.tasks", len(report.analyzed))
        self.telemetry.count("analyze.reused", len(report.reused))
        result = {
            "tenant": tenant,
            "program_id": program_id,
            "summary_hashes": report.summary_hashes(),
            "incremental": report.incremental,
            "diagnostics": D.run_envelope(records),
            "ok": report.ok,
        }
        if delta is not None:
            result["delta"] = {
                "changed": sorted(delta.changed),
                "dirty": sorted(delta.dirty),
                "clean": sorted(delta.clean),
                "added": sorted(delta.added),
                "removed": sorted(delta.removed),
            }
        telemetry = {
            "wall_s": round(report.wall_time, 6),
            "reused": len(report.reused),
            "analyzed": len(report.analyzed),
            "dirty_cone": dirty_cone,
            "sccs_analyzed": report.incremental["sccs_analyzed"],
            "sccs_total": report.incremental["sccs_total"],
            "store": store_stats,
        }
        if report.ok:
            return P.response(request, "analyze", result, telemetry)
        statuses = {err["status"] for err in report.errors.values()}
        kind = statuses.pop() if len(statuses) == 1 else P.E_INTERNAL
        out = P.error_response(
            request,
            kind,
            "; ".join(
                f"{tid}: {err['status']}"
                for tid, err in sorted(report.errors.items())
            ),
            "analyze",
            diagnostics=D.run_envelope(records),
        )
        out["result"] = result
        out["telemetry"] = telemetry
        return out

    # -- check -------------------------------------------------------------------

    def _check(
        self,
        request: Dict[str, Any],
        tenant: str,
        frontend: Frontend,
        budget: Optional[float],
    ) -> Dict[str, Any]:
        """The two-tier checker with warm per-procedure reuse.

        Tier-A findings are a pure function of one procedure's body, so
        they are cached under its (line-sensitive) body key; Tier-B and
        termination verdicts depend on the whole call cone, so they are
        cached under the cone fingerprint plus the same line signature.
        Only procedures whose key changed are re-dispatched; the rest
        answer from the cache.  The keys come from the incoming source's
        frontend, not the session: they must see line and declaration
        changes that ``icfg_fingerprint`` (and thus ``Session.update``)
        ignores.
        """
        program_id = str(request.get("program_id", "default"))
        owner = (tenant, program_id)
        tier = str(request.get("tier", "all"))
        if tier not in CHECK_TIERS:
            return P.error_response(
                request, P.E_BAD_REQUEST, f"unknown tier {tier!r}", "check"
            )
        domain = str(request.get("domain", "am"))
        k = int(request.get("k", 0))
        keys = frontend.keys
        requested = list(request.get("procs") or sorted(keys))
        unknown = [p for p in requested if p not in keys]
        if unknown:
            return P.error_response(
                request,
                P.E_BAD_REQUEST,
                f"unknown procedure(s): {', '.join(sorted(unknown))}",
                "check",
            )
        want_lint = tier in ("lint", "all")
        want_safety = tier in ("safety", "all")
        want_termination = tier == "termination"
        config = (tier, domain, k)
        dirty, snapshot = self.check_cache.partition(
            owner, config, requested, keys,
            want_lint, want_safety, want_termination,
        )
        reused = [p for p in requested if p in snapshot]
        fresh: Dict[str, Any] = {"lint": {}, "safety": {}, "termination": {},
                                 "proc_status": {}, "termination_status": {},
                                 "stats": {}}
        telemetry: Dict[str, Any] = {"isolation": "warm"}
        if dirty:
            payload = CheckRequest(
                program=frontend.program,
                procs=tuple(dirty),
                tier=tier,
                domain=domain,
                k=k,
                max_seconds=budget,
            )
            fresh, telemetry = self.run_isolated(
                run_check_request, payload, budget
            )
        records, proc_status = self.check_cache.merge_and_answer(
            owner, config, requested, snapshot, keys, fresh,
            want_lint, want_safety, want_termination,
        )
        for record in records:
            self.telemetry.count(f"checker.rule.{record['ruleId']}")
        self.telemetry.count("check.procs_checked", len(dirty))
        self.telemetry.count("check.procs_reused", len(reused))
        stats = dict(fresh.get("stats") or {})
        stats["checked"] = sorted(dirty)
        stats["reused"] = sorted(reused)
        result = {
            "tenant": tenant,
            "program_id": program_id,
            "tier": tier,
            "domain": domain,
            "ok": not any(
                r["verdict"]
                in (D.WARN, D.UNSAFE, D.POSSIBLY_NONTERMINATING, D.ERROR)
                for r in records
            ),
            "checked": sorted(dirty),
            "reused": sorted(reused),
            "proc_status": proc_status,
            "diagnostics": D.records_envelope(records, stats),
        }
        telemetry.update(checked=len(dirty), reused=len(reused))
        return P.response(request, "check", result, telemetry)
