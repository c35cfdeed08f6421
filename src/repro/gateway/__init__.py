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
- :mod:`repro.gateway.storetier` — a compacting, size-budgeted wrapper
  around the one-file-per-key PR 3 store (generational pack files +
  background GC) so the layout survives millions of keys;
- :mod:`repro.gateway.server` — the asyncio front end speaking the
  NDJSON protocol of :mod:`repro.service.protocol` plus an HTTP-ish
  ``GET /metrics`` endpoint in Prometheus exposition format
  (:mod:`repro.gateway.metrics`).

``python -m repro.gateway`` / ``repro-gateway`` run the same CLI as
``python -m repro.service`` / ``repro-serve``.
"""

from repro.gateway.scheduler import FairScheduler, SchedulerConfig, Shed
from repro.gateway.server import AnalysisGateway, GatewayConfig
from repro.gateway.sessions import SessionManager
from repro.gateway.storetier import CompactingStore, StoreBudget

__all__ = [
    "AnalysisGateway",
    "GatewayConfig",
    "FairScheduler",
    "SchedulerConfig",
    "Shed",
    "SessionManager",
    "CompactingStore",
    "StoreBudget",
]
