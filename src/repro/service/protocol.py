"""Wire protocol of the analysis server: newline-delimited JSON.

One request per line, one response per line, UTF-8, stdlib only.  A
request is a JSON object with a ``verb`` and an optional client ``id``
(echoed back verbatim so clients can pipeline).  Responses always carry
``ok`` plus either the verb's payload or a structured ``error``:

.. code-block:: text

    -> {"id": 1, "verb": "analyze", "source": "proc f() ...", "domains": ["am"]}
    <- {"id": 1, "ok": true, "verb": "analyze", "result": {...}, "telemetry": {...}}
    -> {"id": 2, "verb": "nope"}
    <- {"id": 2, "ok": false, "error": {"kind": "bad_request", "message": ...}}

Grammar (see DESIGN.md §10 for the full field tables)::

    request   := line( { "verb": VERB, "id"?: any, "tenant"?: str,
                         "deadline_ms"?: int, ...fields } )
    VERB      := "analyze" | "assert" | "equivalence" | "check"
               | "status" | "metrics" | "flush" | "shutdown" | "ping"
    response  := line( { "ok": bool, "id"?: any, "verb": VERB,
                         "result"?: object, "telemetry"?: object,
                         "error"?: { "kind": str, "message": str } } )

The ``check`` verb optionally carries a ``query`` field — a
``"PROC:LINE[:RULE]"`` string or a ``{"proc", "line", "rule"}`` object —
switching it to a single demand-driven obligation answered via
backward-cone analysis (see :mod:`repro.service.queries`).

Job verbs pass per-tenant admission (a full tenant queue answers
``shed`` with a ``retry_after_ms`` hint); control verbs answer inline.
Oversized lines (> ``MAX_LINE_BYTES``) and malformed JSON yield a
``bad_request`` error response rather than a dropped connection.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

PROTOCOL_VERSION = 1

# Job verbs go through admission and dispatch; control verbs answer inline.
JOB_VERBS = ("analyze", "assert", "equivalence", "check")
CONTROL_VERBS = ("status", "flush", "shutdown", "ping", "metrics")
VERBS = JOB_VERBS + CONTROL_VERBS

MAX_LINE_BYTES = 8 * 1024 * 1024  # one request line; programs are small

# Error kinds.
E_BAD_REQUEST = "bad_request"
E_SHED = "shed"  # per-tenant admission control (429-style, retryable)
E_DEADLINE = "deadline"  # request deadline expired before dispatch
E_SHUTTING_DOWN = "shutting_down"
E_INTERNAL = "internal"


class ProtocolError(Exception):
    """A malformed or oversized request line."""

    def __init__(self, message: str, kind: str = E_BAD_REQUEST):
        super().__init__(message)
        self.kind = kind


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the terminating newline."""
    return (json.dumps(message, separators=(",", ":"), default=repr) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> Dict[str, Any]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed request line: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def validate_request(message: Dict[str, Any]) -> str:
    """Returns the verb; raises :class:`ProtocolError` otherwise."""
    verb = message.get("verb")
    if not isinstance(verb, str) or verb not in VERBS:
        raise ProtocolError(
            f"unknown verb {verb!r}; expected one of {', '.join(VERBS)}"
        )
    if verb in ("analyze", "assert", "check") and not isinstance(
        message.get("source"), str
    ):
        raise ProtocolError(f"verb {verb!r} requires a string 'source'")
    if verb == "check" and message.get("query") is not None:
        query = message["query"]
        if isinstance(query, dict):
            if not isinstance(query.get("proc"), str) or not query["proc"]:
                raise ProtocolError(
                    "check 'query' object requires a non-empty string 'proc'"
                )
            if query.get("line") is not None and not isinstance(
                query["line"], int
            ):
                raise ProtocolError(
                    "check 'query' line must be an integer or null"
                )
            if query.get("rule") is not None and not isinstance(
                query["rule"], str
            ):
                raise ProtocolError(
                    "check 'query' rule must be a string or null"
                )
        elif not isinstance(query, str):
            raise ProtocolError(
                "check 'query' must be a 'PROC:LINE[:RULE]' string or an "
                "object with 'proc'/'line'/'rule'"
            )
    if verb == "equivalence":
        if not isinstance(message.get("source"), str):
            raise ProtocolError("verb 'equivalence' requires a string 'source'")
        for fld in ("proc1", "proc2"):
            if not isinstance(message.get(fld), str):
                raise ProtocolError(f"verb 'equivalence' requires a string {fld!r}")
    return verb


def response(
    request: Optional[Dict[str, Any]],
    verb: str,
    result: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": True, "verb": verb}
    if request is not None and "id" in request:
        out["id"] = request["id"]
    if result is not None:
        out["result"] = result
    if telemetry is not None:
        out["telemetry"] = telemetry
    return out


def error_response(
    request: Optional[Dict[str, Any]],
    kind: str,
    message: str,
    verb: Optional[str] = None,
    diagnostics: Optional[Dict[str, Any]] = None,
    retry_after_ms: Optional[int] = None,
) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "ok": False,
        "error": {"kind": kind, "message": message},
    }
    if retry_after_ms is not None:
        out["error"]["retry_after_ms"] = int(retry_after_ms)
    if verb is not None:
        out["verb"] = verb
    if request is not None and "id" in request:
        out["id"] = request["id"]
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    return out


def shed_response(
    request: Optional[Dict[str, Any]],
    message: str,
    retry_after_ms: int,
    verb: Optional[str] = None,
    kind: str = E_SHED,
    rule_id: Optional[str] = None,
) -> Dict[str, Any]:
    """A 429-style load-shedding rejection (per-tenant ``shed``,
    ``deadline``, or ``shutting_down``): a retryable error kind, a
    ``retry_after_ms`` hint, and a diagnostics record under the
    ``queue.shed`` rule id (or the ``gateway.*`` family), so one client
    retry loop handles every rejection.
    """
    from repro.service import diagnostics as D

    record = D.DiagnosticRecord(
        rule_id=rule_id or D.RULE_QUEUE_SHED,
        verdict=D.ERROR,
        message=message,
        witness={"retry_after_ms": int(retry_after_ms)},
    )
    return error_response(
        request,
        kind,
        message,
        verb,
        diagnostics=D.run_envelope([record]),
        retry_after_ms=retry_after_ms,
    )
