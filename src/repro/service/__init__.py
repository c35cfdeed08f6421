"""The incremental analysis service subsystem.

PR 3 made many analyses cheap to *run* (the parallel pool and the
cross-run persistent store); this package makes them cheap to *re-run*:
a resident server keeps a dependency-tracked picture of each submitted
program warm, so an edit re-analyzes exactly the call-graph cone above
the changed SCCs and answers everything else from retained results.

- :mod:`repro.service.depindex` — content-hash dependency index: body
  hashes per procedure, cone fingerprints per SCC, dirty-cone diffing,
  and the cone-keyed rewrite of persistent-store keys;
- :mod:`repro.service.session` — :class:`Session`, the incremental
  driver (also reachable as ``Analyzer.open_session()``): cold runs
  populate the store, warm runs dispatch only the dirty cone and are
  asserted hash-identical to cold runs;
- :mod:`repro.service.frontend` — the content-addressed frontend cache:
  exact source text -> parsed program, ICFG, dependency index and
  checker keys, shared by every tenant;
- :mod:`repro.service.executor` — verb execution (parse, ``analyze``,
  ``check`` with demand queries from :mod:`repro.service.queries`,
  ``assert``, ``equivalence``) with pool isolation, free of transport
  code; the server that calls it is :mod:`repro.gateway.server`;
- :mod:`repro.service.protocol` / :mod:`~repro.service.client` —
  newline-delimited JSON over a TCP or Unix socket;
- :mod:`repro.service.jobs` — picklable job payloads and their pool
  worker entry points;
- :mod:`repro.service.diagnostics` — the SARIF-like diagnostics schema
  shared by assertion checking, budget reports, equivalence verdicts and
  service-level failures;
- ``python -m repro.service`` (``repro-serve``, also ``python -m
  repro.gateway`` / ``repro-gateway``) — the ``serve`` / ``submit`` /
  ``watch`` / ``status`` / ``metrics`` / ``flush`` / ``shutdown`` CLI.
"""

from repro.service.client import ServiceClient, ServiceError, parse_address
from repro.service.depindex import ConeKeyedStore, DependencyIndex, DirtyCone, body_hash
from repro.service.diagnostics import DiagnosticRecord, run_envelope
from repro.service.session import Session, SessionReport

__all__ = [
    "ConeKeyedStore",
    "DependencyIndex",
    "DiagnosticRecord",
    "DirtyCone",
    "ServiceClient",
    "ServiceError",
    "Session",
    "SessionReport",
    "body_hash",
    "parse_address",
    "run_envelope",
]
