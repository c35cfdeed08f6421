"""Picklable job payloads the server dispatches onto the worker pool.

``analyze`` jobs reuse :func:`repro.parallel.batch.run_analysis_request`
through the incremental :class:`~repro.service.session.Session`; this
module adds the two verdict-producing jobs — assertion checking and
procedure equivalence — as self-contained request dataclasses plus
worker entry points that return plain JSON-ready dicts (diagnostic
records per :mod:`repro.service.diagnostics`, never live engine
objects).  Running them in pool workers gives the server the same fault
isolation analyze jobs get: a crash or hard budget kill loses one
request, not the server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class AssertRequest:
    """Check the spec assertions of (some procedures of) a program."""

    program: Any  # normalized repro.lang.ast.Program
    procs: Tuple[str, ...] = ()  # () = every procedure with an assert edge
    domain: str = "au"
    k: int = 0
    max_seconds: Optional[float] = None


@dataclass
class CheckRequest:
    """Run the two-tier checker over (some procedures of) a program.

    ``procs`` is the dirty subset on warm server runs — the server
    answers clean procedures from its per-program finding cache and only
    dispatches the rest here.
    """

    program: Any  # normalized repro.lang.ast.Program
    procs: Tuple[str, ...] = ()  # () = every procedure
    tier: str = "all"  # "lint" | "safety" | "termination" | "all"
    domain: str = "am"
    k: int = 0
    max_seconds: Optional[float] = None


@dataclass
class QueryRequest:
    """Answer one program-point obligation on demand (``check`` verb
    with a ``query`` field): analyzed through
    :class:`repro.core.strategy.DemandStrategy`, so only the queried
    procedure's backward call cone is ever tabulated."""

    program: Any  # normalized repro.lang.ast.Program
    proc: str = ""
    line: Optional[int] = None  # None = the whole procedure
    rule: Optional[str] = None  # None = every Tier-B safety rule
    domain: str = "am"
    k: int = 0
    max_seconds: Optional[float] = None


@dataclass
class EquivalenceRequest:
    """Prove two sorting-like procedures equivalent (paper §6.4)."""

    program: Any
    proc1: str = ""
    proc2: str = ""
    max_seconds: Optional[float] = None


def _procs_with_asserts(icfg) -> List[str]:
    from repro.lang.cfg import OpAssert

    out = []
    for name in sorted(icfg.cfgs):
        cfg = icfg.cfg(name)
        if any(isinstance(edge.op, OpAssert) for edge in cfg.edges):
            out.append(name)
    return out


def run_assert_request(request: AssertRequest) -> Dict[str, Any]:
    """Worker entry point: assertion verdicts as diagnostic records."""
    from repro.core.api import Analyzer
    from repro.core.assertions import AssertionChecker
    from repro.service import diagnostics as D

    analyzer = Analyzer(request.program)
    procs = list(request.procs) or _procs_with_asserts(analyzer.icfg)
    records: List[D.DiagnosticRecord] = []
    stats: Dict[str, Any] = {"procs": procs, "domain": request.domain}
    for proc in procs:
        checker = AssertionChecker()
        result = analyzer.analyze(
            proc,
            domain=request.domain,
            k=request.k,
            assume_handler=checker,
            max_seconds=request.max_seconds,
        )
        records.extend(checker.diagnostics())
        records.extend(
            D.from_engine_diagnostics(result.diagnostics, proc=proc)
        )
    return {
        "results": [record.to_json() for record in records],
        "stats": stats,
    }


def run_check_request(request: CheckRequest) -> Dict[str, Any]:
    """Worker entry point: per-procedure checker findings, tier-split.

    Findings come back grouped ``{"lint": {proc: [records]}, "safety":
    {proc: [records]}, "termination": {proc: [records]}}`` so the server
    can cache the tiers under their respective invalidation keys (Tier
    A: body hash; Tier B and termination: cone fingerprint).
    """
    import time

    from repro.core.api import Analyzer
    from repro.checker.findings import sort_findings
    from repro.checker.lints import lint_cfg
    from repro.checker.safety import SafetyOptions, check_safety

    analyzer = Analyzer(request.program)
    procs = list(request.procs) or sorted(analyzer.icfg.cfgs)
    proc_lines = {p.name: p.line for p in request.program.procedures}
    out: Dict[str, Any] = {
        "lint": {},
        "safety": {},
        "termination": {},
        "proc_status": {},
        "termination_status": {},
        "stats": {"procs": procs, "tier": request.tier,
                  "domain": request.domain},
    }
    if request.tier in ("lint", "all"):
        started = time.perf_counter()
        for proc in procs:
            findings = lint_cfg(
                analyzer.icfg.cfg(proc), proc_line=proc_lines.get(proc, 0)
            )
            out["lint"][proc] = [f.to_json() for f in sort_findings(findings)]
        out["stats"]["lint_seconds"] = round(time.perf_counter() - started, 6)
    if request.tier in ("safety", "all"):
        report = check_safety(
            analyzer,
            SafetyOptions(
                domain=request.domain,
                k=request.k,
                procs=tuple(procs),
                max_seconds=request.max_seconds,
            ),
        )
        by_proc: Dict[str, List] = {proc: [] for proc in procs}
        for finding in report.findings():
            by_proc.setdefault(finding.procedure, []).append(finding)
        out["safety"] = {
            proc: [f.to_json() for f in sort_findings(findings)]
            for proc, findings in by_proc.items()
        }
        out["proc_status"] = dict(report.proc_status)
        out["stats"]["safety_seconds"] = round(report.seconds, 6)
        out["stats"]["safety_verdicts"] = report.counts()
    if request.tier == "termination":
        from repro.termination.driver import TerminationOptions, check_termination

        report = check_termination(
            analyzer,
            TerminationOptions(
                k=request.k,
                procs=list(procs),
                max_seconds=request.max_seconds,
            ),
        )
        by_proc: Dict[str, List] = {proc: [] for proc in procs}
        for finding in report.findings(include_safe=True):
            by_proc.setdefault(finding.procedure, []).append(finding)
        out["termination"] = {
            proc: [f.to_json() for f in sort_findings(findings)]
            for proc, findings in by_proc.items()
        }
        out["termination_status"] = dict(report.proc_status)
        out["stats"]["termination_seconds"] = round(report.seconds, 6)
        out["stats"]["termination_verdicts"] = report.counts()
    return out


def run_query_request(request: QueryRequest) -> Dict[str, Any]:
    """Worker entry point: one demand-query answer as plain JSON
    (verdict, findings, cone accounting -- see
    :meth:`repro.checker.safety.QueryAnswer.to_json`)."""
    from repro.core.api import Analyzer
    from repro.checker.safety import Query, SafetyOptions, answer_query

    analyzer = Analyzer(request.program)
    answer = answer_query(
        analyzer,
        Query(proc=request.proc, line=request.line, rule=request.rule),
        SafetyOptions(
            domain=request.domain,
            k=request.k,
            max_seconds=request.max_seconds,
        ),
    )
    return answer.to_json()


def run_equivalence_request(request: EquivalenceRequest) -> Dict[str, Any]:
    """Worker entry point: one equivalence verdict as a diagnostic record."""
    from repro.core.api import Analyzer
    from repro.core.equivalence import check_equivalence
    from repro.engine import EngineOptions
    from repro.service import diagnostics as D

    analyzer = Analyzer(request.program)
    opts = EngineOptions(max_seconds=request.max_seconds)
    result = check_equivalence(
        analyzer, request.proc1, request.proc2, engine_opts=opts
    )
    record = D.from_equivalence(result)
    return {
        "results": [record.to_json()],
        "stats": result.stats or {},
    }
