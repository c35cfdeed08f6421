"""Demand-query execution: the ``check`` verb's ``query`` field.

A ``check`` request carrying a ``query`` field asks for one program
point's verdict instead of a whole-program sweep:

.. code-block:: text

    -> {"verb": "check", "source": "...", "query": "reverse:12"}
    -> {"verb": "check", "source": "...",
        "query": {"proc": "reverse", "line": 12, "rule": "safety.leak"}}
    <- {"ok": true, "verb": "check",
        "result": {"query": {"verdict": ..., "cone": [...], ...},
                   "mode": "warm" | "cold", ...}}

Execution is demand-driven end to end: the analysis runs through
:class:`repro.core.strategy.DemandStrategy` (only the queried
procedure's backward call cone is tabulated) and the finished answer is
cached in the shared :class:`~repro.service.checkcache.CheckFindingCache`
under the procedure's cone-fingerprint key — the same invalidation
boundary Tier-B findings trust — so a warm query never runs a fixpoint
at all.  A cold answer runs through the executor's
:meth:`~repro.service.executor.VerbExecutor.run_isolated` (inline or
pool-isolated); telemetry counts ``query.warm``/``query.cold`` and
observes the ``query.latency_ms`` window rendered as a Prometheus
summary.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.service import diagnostics as D
from repro.service import protocol as P
from repro.service.jobs import QueryRequest, run_query_request


def parse_query_field(value: Any):
    """Normalize the wire ``query`` field (string spec or object) to a
    :class:`repro.checker.safety.Query`; raises ValueError."""
    from repro.checker.safety import Query

    if isinstance(value, str):
        return Query.parse(value)
    if isinstance(value, dict):
        proc = value.get("proc")
        if not isinstance(proc, str) or not proc:
            raise ValueError("query object requires a non-empty string 'proc'")
        line = value.get("line")
        if line is not None and not isinstance(line, int):
            raise ValueError("query 'line' must be an integer or null")
        rule = value.get("rule")
        if rule is not None and not isinstance(rule, str):
            raise ValueError("query 'rule' must be a string or null")
        return Query(
            proc=proc,
            line=line if line else None,
            rule=rule or None,
        )
    raise ValueError(
        "query must be a 'PROC:LINE[:RULE]' string or an object with "
        "'proc'/'line'/'rule'"
    )


def execute_query(
    executor,
    request: Dict[str, Any],
    tenant: str,
    frontend,
    budget: Optional[float],
) -> Dict[str, Any]:
    """Answer a ``check`` request's ``query`` field from ``tenant``'s
    cache, or cold through ``executor.run_isolated`` (a
    :class:`~repro.service.executor.VerbExecutor`).  ``frontend`` is the
    source's :class:`~repro.service.frontend.Frontend`, whose cone keys
    are built once per source text."""
    from repro.checker.findings import SAFETY_RULE_IDS

    started = time.perf_counter()
    try:
        query = parse_query_field(request.get("query"))
    except ValueError as exc:
        return P.error_response(request, P.E_BAD_REQUEST, str(exc), "check")
    domain = str(request.get("domain", "am"))
    k = int(request.get("k", 0))
    program_id = str(request.get("program_id", "default"))
    owner = (tenant, program_id)
    check_cache, telemetry = executor.check_cache, executor.telemetry

    if query.proc not in frontend.icfg.cfgs:
        return P.error_response(
            request,
            P.E_BAD_REQUEST,
            f"unknown procedure {query.proc!r}",
            "check",
        )
    if query.rule is not None and query.rule not in SAFETY_RULE_IDS:
        return P.error_response(
            request,
            P.E_BAD_REQUEST,
            f"unknown safety rule {query.rule!r}",
            "check",
        )
    cone_key = frontend.keys[query.proc][1]
    query_key = (query.proc, query.line, query.rule, domain, k)

    answer = check_cache.query_get(owner, query_key, cone_key)
    mode = "warm" if answer is not None else "cold"
    if answer is None:
        payload = QueryRequest(
            program=frontend.program,
            proc=query.proc,
            line=query.line,
            rule=query.rule,
            domain=domain,
            k=k,
            max_seconds=budget,
        )
        answer, _ = executor.run_isolated(run_query_request, payload, budget)
        check_cache.query_put(owner, query_key, cone_key, answer)

    latency_ms = (time.perf_counter() - started) * 1000.0
    telemetry.count(f"query.{mode}")
    telemetry.observe("query.latency_ms", latency_ms)

    records = list(answer.get("findings") or [])
    for record in records:
        telemetry.count(f"checker.rule.{record['ruleId']}")
    ok = not any(
        r["verdict"] in (D.WARN, D.UNSAFE, D.POSSIBLY_NONTERMINATING, D.ERROR)
        for r in records
    )
    stats = {
        "mode": mode,
        "cone_size": answer.get("cone_size"),
        "proc_count": answer.get("proc_count"),
    }
    result = {
        "tenant": tenant,
        "program_id": program_id,
        "domain": domain,
        "ok": ok,
        "query": answer,
        "mode": mode,
        "diagnostics": D.records_envelope(records, stats),
    }
    wire_telemetry = {
        "mode": mode,
        "latency_ms": round(latency_ms, 3),
        "cone_size": answer.get("cone_size"),
        "proc_count": answer.get("proc_count"),
    }
    return P.response(request, "check", result, wire_telemetry)
