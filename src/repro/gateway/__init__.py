"""The serving tier: an async multi-tenant analysis gateway.

One asyncio process serves every client; a client that names no tenant
is the ``default`` tenant, so the default config is also the
single-user server.  Verb execution lives in
:mod:`repro.service.executor`; this package adds what serving many
clients needs:

- :mod:`repro.gateway.scheduler` — per-tenant weighted-fair admission:
  bounded per-tenant queues, start-time fair queuing across tenants,
  429-style shedding with ``retry_after_ms`` and per-request deadlines;
- :mod:`repro.gateway.sessions` — multi-tenant incremental sessions
  (each tenant keeps its own dirty-cone state) under an LRU bound;
- :mod:`repro.gateway.server` — the asyncio front end speaking the
  NDJSON protocol of :mod:`repro.service.protocol` plus an HTTP-ish
  ``GET /metrics`` endpoint in Prometheus exposition format
  (:mod:`repro.gateway.metrics`), and a background task that keeps the
  shared summary store (:mod:`repro.parallel.store`) compacted into
  pack files and under its byte budget.

``python -m repro.gateway`` / ``repro-gateway`` run the same CLI as
``python -m repro.service`` / ``repro-serve``.
"""

from repro.gateway.scheduler import FairScheduler, SchedulerConfig, Shed
from repro.gateway.server import AnalysisGateway, GatewayConfig
from repro.gateway.sessions import SessionManager

__all__ = [
    "AnalysisGateway",
    "GatewayConfig",
    "FairScheduler",
    "SchedulerConfig",
    "Shed",
    "SessionManager",
]
