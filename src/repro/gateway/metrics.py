"""Prometheus exposition of the gateway's telemetry.

:func:`render_prometheus` turns a :class:`repro.engine.telemetry.
Telemetry` instance into `text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:

- counters -> ``repro_<name>_total`` (``counter``);
- gauges -> ``repro_<name>`` (``gauge``);
- sample windows -> ``repro_<name>{quantile="0.5"|"0.9"|"0.99"}`` plus
  ``_count``/``_sum`` (``summary``, windowed quantiles);
- optional labelled series (per-tenant served/shed/depth) passed as
  ``extra`` rows.

Telemetry names are dotted (``requests.analyze``); Prometheus names are
``[a-zA-Z_:][a-zA-Z0-9_:]*``, so dots become underscores.  Where a
dotted name encodes a label-like tail (``requests.analyze``,
``checker.rule.safety.leak``) the tail is emitted as a label instead,
keeping the metric family enumerable::

    repro_requests_total{verb="analyze"} 12
    repro_checker_rule_total{rule="safety.leak"} 3
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.engine.telemetry import Telemetry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

QUANTILES = (("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0))

# Counter families whose dotted tail becomes a label value.
_LABELLED_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    # (dotted prefix, metric family, label name)
    ("checker.rule.", "repro_checker_rule_total", "rule"),
    # frontend.hit / frontend.miss -> repro_frontend_total{result=...}.
    ("frontend.", "repro_frontend_total", "result"),
    # query.warm / query.cold -> repro_query_total{mode="warm"|"cold"};
    # the query.latency_ms window renders as a summary separately.
    ("query.", "repro_query_total", "mode"),
    ("requests.", "repro_requests_total", "verb"),
    ("shed.", "repro_shed_total", "reason"),
)


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(
    telemetry: Telemetry,
    extra: Optional[Iterable[str]] = None,
) -> str:
    """The full exposition document, deterministic line order."""
    lines: List[str] = []
    families_seen: Dict[str, str] = {}

    def family(name: str, kind: str, help_text: str) -> None:
        if name in families_seen:
            return
        families_seen[name] = kind
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    # Counters: labelled families first, the rest as flat counters.
    flat: Dict[str, int] = {}
    labelled: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for name, value in sorted(telemetry.counters.items()):
        for prefix, metric, label in _LABELLED_FAMILIES:
            if name.startswith(prefix):
                labelled.setdefault((metric, label), []).append(
                    (name[len(prefix):], value)
                )
                break
        else:
            flat[f"repro_{_sanitize(name)}_total"] = value
    for (metric, label), rows in sorted(labelled.items()):
        family(metric, "counter", f"telemetry counter family '{label}'")
        for tail, value in rows:
            lines.append(
                f'{metric}{{{label}="{_escape_label(tail)}"}} {value}'
            )
    for metric, value in sorted(flat.items()):
        family(metric, "counter", "telemetry counter")
        lines.append(f"{metric} {value}")

    # Gauges.
    for name, value in sorted(telemetry.gauges.items()):
        metric = f"repro_{_sanitize(name)}"
        family(metric, "gauge", "telemetry gauge")
        lines.append(f"{metric} {value}")

    # Phase timers: cumulative seconds, counter semantics.
    for name, value in sorted(telemetry.timers.items()):
        metric = f"repro_phase_seconds_total"
        family(metric, "counter", "cumulative wall seconds per phase")
        lines.append(f'{metric}{{phase="{_escape_label(name)}"}} {round(value, 6)}')

    # Sample windows as summaries with windowed quantiles.
    for name in sorted(telemetry.samples):
        metric = f"repro_{_sanitize(name)}"
        family(metric, "summary", "windowed latency summary")
        for tag, q in QUANTILES:
            value = telemetry.percentile(name, q)
            if value is not None:
                lines.append(f'{metric}{{quantile="{tag}"}} {round(value, 6)}')
        lines.append(f"{metric}_count {telemetry.sample_count(name)}")
        lines.append(f"{metric}_sum {round(telemetry.sample_sum(name), 6)}")

    if extra:
        lines.extend(extra)
    return "\n".join(lines) + "\n"


def tenant_rows(tenants: Dict[str, Dict[str, Any]]) -> List[str]:
    """Per-tenant scheduler accounting as labelled exposition rows."""
    lines: List[str] = []
    if not tenants:
        return lines
    lines.append("# HELP repro_tenant_requests_total requests served per tenant")
    lines.append("# TYPE repro_tenant_requests_total counter")
    for name, row in sorted(tenants.items()):
        lines.append(
            f'repro_tenant_requests_total{{tenant="{_escape_label(name)}"}} '
            f'{row.get("served", 0)}'
        )
    lines.append("# HELP repro_tenant_shed_total requests shed per tenant")
    lines.append("# TYPE repro_tenant_shed_total counter")
    for name, row in sorted(tenants.items()):
        lines.append(
            f'repro_tenant_shed_total{{tenant="{_escape_label(name)}"}} '
            f'{row.get("shed", 0)}'
        )
    lines.append("# HELP repro_tenant_queue_depth pending requests per tenant")
    lines.append("# TYPE repro_tenant_queue_depth gauge")
    for name, row in sorted(tenants.items()):
        lines.append(
            f'repro_tenant_queue_depth{{tenant="{_escape_label(name)}"}} '
            f'{row.get("depth", 0)}'
        )
    return lines


def http_metrics_response(body: str) -> bytes:
    """A minimal HTTP/1.0 response wrapping the exposition text, so
    ``curl http://host:port/metrics`` (or a Prometheus scraper pointed at
    the gateway's NDJSON port) just works."""
    payload = body.encode("utf-8")
    head = (
        "HTTP/1.0 200 OK\r\n"
        f"Content-Type: {CONTENT_TYPE}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload
