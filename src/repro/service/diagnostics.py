"""Structured, SARIF-like diagnostics for analysis verdicts.

One record shape for every verdict the toolchain can produce — assertion
checks (:mod:`repro.core.assertions`), engine budget diagnostics,
equivalence results, and service-level failures (worker crashes, queue
rejections) — so clients consume a single JSON schema:

.. code-block:: json

    {"ruleId": "assertion", "level": "error", "verdict": "fail",
     "procedure": "f", "line": 4, "message": "assert r > n + 1",
     "witness": {"formula": "r > n + 1", "heap_count": 2}}

Rule ids are **stable**: they name the check class, never run-specific
data, so dashboards and CI assertions can key on them.  The envelope
(:func:`run_envelope`) groups records with tool/version metadata, loosely
following the SARIF ``runs[].results[]`` layout without claiming the full
standard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

# Stable rule ids (the check class, not the outcome).
RULE_ASSERTION = "assertion"
RULE_BUDGET = "budget"  # suffixed with the budget kind: "budget.wall_clock"
RULE_EQUIVALENCE = "equivalence"
RULE_WORKER_CRASH = "worker.crashed"
RULE_WORKER_FAILED = "worker.failed"
# Admission-control rejection of a full per-tenant queue: clients key
# retry logic on this rule id.  The record's witness carries a
# ``retry_after_ms`` hint.
RULE_QUEUE_SHED = "queue.shed"
RULE_QUEUE_REJECTED = RULE_QUEUE_SHED  # pre-gateway alias, kept importable
# Gateway-tier verdicts.
RULE_GATEWAY_DEADLINE = "gateway.deadline"  # request deadline expired
RULE_GATEWAY_SESSION_EVICTED = "gateway.session-evicted"  # LRU bound hit
RULE_GATEWAY_DRAINING = "gateway.draining"  # refused during shutdown
# Frontend failures (parse / typecheck), shared with the checker CLI so a
# type error is one more diagnostics record instead of a bare traceback.
RULE_PARSE_ERROR = "frontend.parse-error"
RULE_TYPE_ERROR = "frontend.type-error"

# Frozen inventory of the service/gateway-tier rule ids (the checker has
# its own in repro.checker.findings.ALL_RULE_IDS); the ``budget.`` family
# is suffixed by kind at runtime, so it appears here as its prefix.
SERVICE_RULE_IDS = (
    RULE_ASSERTION,
    RULE_BUDGET,
    RULE_EQUIVALENCE,
    RULE_WORKER_CRASH,
    RULE_WORKER_FAILED,
    RULE_QUEUE_SHED,
    RULE_GATEWAY_DEADLINE,
    RULE_GATEWAY_SESSION_EVICTED,
    RULE_GATEWAY_DRAINING,
    RULE_PARSE_ERROR,
    RULE_TYPE_ERROR,
)

# Verdicts.
PASS = "pass"
FAIL = "fail"
ERROR = "error"  # the check itself could not complete
INCONCLUSIVE = "inconclusive"  # partial results (budget hit)
# Checker verdicts (repro.checker): Tier-A lints warn; Tier-B safety
# obligations are three-valued.
WARN = "warn"
SAFE = "safe"
UNSAFE = "unsafe"
UNKNOWN = "unknown"
# Termination verdicts (repro.termination): a proof, positive evidence of
# a non-decreasing loop/recursion measure, or an honest "unknown".
TERMINATING = "terminating"
POSSIBLY_NONTERMINATING = "possibly-nonterminating"

_LEVEL_OF = {
    PASS: "note",
    FAIL: "error",
    ERROR: "error",
    INCONCLUSIVE: "warning",
    WARN: "warning",
    SAFE: "note",
    UNSAFE: "error",
    UNKNOWN: "warning",
    TERMINATING: "note",
    POSSIBLY_NONTERMINATING: "error",
}

SCHEMA = "repro-diagnostics/1"


@dataclass
class DiagnosticRecord:
    """One verdict, SARIF-result-shaped."""

    rule_id: str
    verdict: str  # PASS | FAIL | ERROR | INCONCLUSIVE
    message: str
    procedure: Optional[str] = None
    line: Optional[int] = None
    witness: Dict[str, Any] = field(default_factory=dict)

    @property
    def level(self) -> str:
        return _LEVEL_OF.get(self.verdict, "warning")

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ruleId": self.rule_id,
            "level": self.level,
            "verdict": self.verdict,
            "message": self.message,
        }
        if self.procedure is not None:
            out["procedure"] = self.procedure
        if self.line is not None:
            out["line"] = self.line
        if self.witness:
            out["witness"] = self.witness
        return out


def from_assertions(outcomes) -> List[DiagnosticRecord]:
    """Encode :class:`~repro.core.assertions.AssertionOutcome` records.

    The engine re-evaluates an assert edge on every record iteration, so
    the checker's outcome list repeats per source assertion; records are
    aggregated by ``(procedure, line, formula)`` with a *fail-any*
    verdict (an assertion that failed on any visited abstract state is
    not verified).  Order is stable: by procedure, then line, then
    formula text.
    """
    grouped: Dict[tuple, Dict[str, Any]] = {}
    for outcome in outcomes:
        key = (outcome.proc or "", outcome.line or 0, outcome.formula)
        slot = grouped.setdefault(
            key, {"verified": True, "checks": 0, "heaps": 0}
        )
        slot["verified"] = slot["verified"] and outcome.verified
        slot["checks"] += 1
        slot["heaps"] = max(slot["heaps"], outcome.heap_count)
    records = []
    for (proc, line, formula) in sorted(grouped):
        slot = grouped[(proc, line, formula)]
        verdict = PASS if slot["verified"] else FAIL
        records.append(
            DiagnosticRecord(
                rule_id=RULE_ASSERTION,
                verdict=verdict,
                message=f"assert {formula}",
                procedure=proc or None,
                line=line or None,
                witness={
                    "formula": formula,
                    "checks": slot["checks"],
                    "heap_count": slot["heaps"],
                },
            )
        )
    return records


def from_engine_diagnostics(diagnostics, proc: Optional[str] = None) -> List[DiagnosticRecord]:
    """Encode engine budget diagnostics (dicts or ``Diagnostic`` objects)."""
    records = []
    for diag in diagnostics:
        if isinstance(diag, dict):
            kind = diag.get("kind", "unknown")
            message = diag.get("message", "")
            dproc = diag.get("proc") or proc
            limit = diag.get("limit")
            steps = diag.get("steps")
        else:
            kind, message = diag.kind, diag.message
            dproc = diag.proc or proc
            limit, steps = diag.limit, diag.steps
        records.append(
            DiagnosticRecord(
                rule_id=f"{RULE_BUDGET}.{kind}",
                verdict=INCONCLUSIVE,
                message=message,
                procedure=dproc,
                witness={k: v for k, v in (("limit", limit), ("steps", steps)) if v is not None},
            )
        )
    return records


def from_equivalence(result) -> DiagnosticRecord:
    """Encode an :class:`~repro.core.equivalence.EquivalenceResult`."""
    verdict = PASS if result.equivalent else FAIL
    return DiagnosticRecord(
        rule_id=RULE_EQUIVALENCE,
        verdict=verdict,
        message=(
            f"{result.proc1} and {result.proc2} "
            + ("proved equivalent" if result.equivalent else "not proved equivalent")
            + f": {result.detail}"
        ),
        procedure=result.proc1,
        witness={"proc1": result.proc1, "proc2": result.proc2, "detail": result.detail},
    )


def from_task_error(status: str, error: Optional[Dict[str, Any]], proc: Optional[str] = None) -> DiagnosticRecord:
    """Encode a pool-level failure (crashed / failed / hard-killed task)."""
    error = error or {}
    if status == "crashed":
        rule = RULE_WORKER_CRASH
    elif status == "budget":
        rule = f"{RULE_BUDGET}.{error.get('kind', 'wall_clock')}"
        return DiagnosticRecord(
            rule_id=rule,
            verdict=INCONCLUSIVE,
            message=error.get("message", "budget exceeded"),
            procedure=proc,
            witness={k: error[k] for k in ("limit", "steps") if error.get(k) is not None},
        )
    else:
        rule = RULE_WORKER_FAILED
    return DiagnosticRecord(
        rule_id=rule,
        verdict=ERROR,
        message=error.get("message", f"task {status}"),
        procedure=proc,
        witness={k: v for k, v in error.items() if k not in ("message", "traceback")},
    )


def from_frontend_error(exc, path: Optional[str] = None) -> DiagnosticRecord:
    """Encode a parse/typecheck failure as a diagnostics record.

    Both :class:`repro.lang.parser.ParseError` and
    :class:`repro.lang.typecheck.TypeError_` carry a source ``line``;
    the record's rule id distinguishes the phase.
    """
    from repro.lang.parser import ParseError

    rule = RULE_PARSE_ERROR if isinstance(exc, ParseError) else RULE_TYPE_ERROR
    line = getattr(exc, "line", None) or None
    witness: Dict[str, Any] = {"phase": "parse" if rule == RULE_PARSE_ERROR else "typecheck"}
    if path:
        witness["path"] = path
    return DiagnosticRecord(
        rule_id=rule,
        verdict=ERROR,
        message=getattr(exc, "message", None) or str(exc),
        line=line,
        witness=witness,
    )


def run_envelope(
    records: Iterable[DiagnosticRecord],
    stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The SARIF-like envelope: one run, tool metadata, verdict counts."""
    return records_envelope([r.to_json() for r in records], stats)


def records_envelope(
    results: List[Dict[str, Any]],
    stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """:func:`run_envelope` over already-serialized result records
    (the server's finding cache stores JSON records, not live objects)."""
    counts: Dict[str, int] = {}
    for result in results:
        counts[result["verdict"]] = counts.get(result["verdict"], 0) + 1
    run: Dict[str, Any] = {
        "tool": {"name": "repro", "rules_schema": SCHEMA},
        "results": results,
        "counts": counts,
    }
    if stats:
        run["stats"] = stats
    return {"schema": SCHEMA, "runs": [run]}


def envelope_records(envelope: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten an envelope back to its result records (client helper).

    Accepts either a full envelope (``{"runs": [{"results": ...}]}``) or
    a bare single-run result (``{"results": ...}``), which is what the
    assert/equivalence jobs return.
    """
    out: List[Dict[str, Any]] = []
    for run in envelope.get("runs", [envelope]):
        out.extend(run.get("results", []))
    return out
