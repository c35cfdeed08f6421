"""Client for the analysis server: one socket, NDJSON request/response.

.. code-block:: python

    from repro.service.client import ServiceClient

    with ServiceClient.connect_tcp("127.0.0.1", 7341) as client:
        response = client.analyze(source, domains=["am"])
        print(response["result"]["incremental"])

Requests are synchronous: :meth:`ServiceClient.request` sends one line
and blocks for the matching reply (the server answers in order per
connection).  Transport problems raise :class:`ServiceError`; protocol
errors come back as ``ok=false`` responses, which the convenience
wrappers return as-is (callers inspect ``response["ok"]``).
"""

from __future__ import annotations

import itertools
import json
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.service import protocol as P

Address = Union[str, Tuple[str, int]]  # unix path | (host, port)


class ServiceError(Exception):
    """Transport-level failure talking to the server."""


def parse_address(spec: str) -> Address:
    """``host:port`` → TCP tuple; anything else is a Unix socket path."""
    if ":" in spec and not spec.startswith("/") and not spec.startswith("."):
        host, _, port = spec.rpartition(":")
        try:
            return (host or "127.0.0.1", int(port))
        except ValueError:
            pass
    return spec


class ServiceClient:
    """One connection to a running analysis server."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._fh = sock.makefile("rb")
        self._ids = itertools.count(1)

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def connect(address: Address, timeout: Optional[float] = 30.0) -> "ServiceClient":
        if isinstance(address, tuple):
            sock = socket.create_connection(address, timeout=timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address)
        return ServiceClient(sock)

    @staticmethod
    def connect_tcp(host: str, port: int, timeout: Optional[float] = 30.0) -> "ServiceClient":
        return ServiceClient.connect((host, port), timeout=timeout)

    @staticmethod
    def wait_for_server(
        address: Address, timeout: float = 10.0, interval: float = 0.1
    ) -> "ServiceClient":
        """Retry connecting until the server answers a ping (CI helper)."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                client = ServiceClient.connect(address, timeout=timeout)
                client.ping()
                return client
            except (OSError, ServiceError) as exc:
                last = exc
                time.sleep(interval)
        raise ServiceError(f"no server at {address!r} after {timeout}s: {last}")

    # -- request/response --------------------------------------------------------

    def request(self, verb: str, **fields: Any) -> Dict[str, Any]:
        message = {"verb": verb, "id": next(self._ids)}
        message.update(fields)
        try:
            self._sock.sendall(P.encode(message))
            line = self._fh.readline(P.MAX_LINE_BYTES + 1)
        except OSError as exc:
            raise ServiceError(f"transport failure: {exc}")
        if not line:
            raise ServiceError("server closed the connection")
        try:
            return json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"unparseable response: {exc}")

    # -- verbs -------------------------------------------------------------------

    @staticmethod
    def _tenant_fields(
        fields: Dict[str, Any],
        tenant: Optional[str],
        deadline_ms: Optional[int],
    ) -> Dict[str, Any]:
        """Per-tenant admission fields (omitted = default tenant, no deadline)."""
        if tenant is not None:
            fields["tenant"] = tenant
        if deadline_ms is not None:
            fields["deadline_ms"] = int(deadline_ms)
        return fields

    def ping(self) -> Dict[str, Any]:
        response = self.request("ping")
        if not response.get("ok"):
            raise ServiceError(f"ping failed: {response}")
        return response

    def analyze(
        self,
        source: str,
        procs: Optional[Sequence[str]] = None,
        domains: Sequence[str] = ("am",),
        k: int = 0,
        program_id: str = "default",
        max_seconds: Optional[float] = None,
        tenant: Optional[str] = None,
        deadline_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "source": source,
            "domains": list(domains),
            "k": k,
            "program_id": program_id,
        }
        if procs is not None:
            fields["procs"] = list(procs)
        if max_seconds is not None:
            fields["max_seconds"] = max_seconds
        self._tenant_fields(fields, tenant, deadline_ms)
        return self.request("analyze", **fields)

    def check_asserts(
        self,
        source: str,
        procs: Optional[Sequence[str]] = None,
        domain: str = "au",
        max_seconds: Optional[float] = None,
        tenant: Optional[str] = None,
        deadline_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"source": source, "domain": domain}
        if procs is not None:
            fields["procs"] = list(procs)
        if max_seconds is not None:
            fields["max_seconds"] = max_seconds
        self._tenant_fields(fields, tenant, deadline_ms)
        return self.request("assert", **fields)

    def check(
        self,
        source: str,
        procs: Optional[Sequence[str]] = None,
        tier: str = "all",
        domain: str = "am",
        k: int = 0,
        program_id: str = "default",
        max_seconds: Optional[float] = None,
        tenant: Optional[str] = None,
        deadline_ms: Optional[int] = None,
        query: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Run the two-tier checker; warm runs reuse per-proc findings.

        ``query`` switches to the demand path: a ``"PROC:LINE[:RULE]"``
        string (line 0 = whole procedure) or a ``{"proc", "line",
        "rule"}`` object answers that one obligation via backward-cone
        analysis, with the answer cached server-side under the
        procedure's cone-fingerprint key (warm queries skip analysis
        entirely)."""
        fields: Dict[str, Any] = {
            "source": source,
            "tier": tier,
            "domain": domain,
            "k": k,
            "program_id": program_id,
        }
        if procs is not None:
            fields["procs"] = list(procs)
        if max_seconds is not None:
            fields["max_seconds"] = max_seconds
        if query is not None:
            fields["query"] = query
        self._tenant_fields(fields, tenant, deadline_ms)
        return self.request("check", **fields)

    def equivalence(
        self,
        source: str,
        proc1: str,
        proc2: str,
        max_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "source": source, "proc1": proc1, "proc2": proc2
        }
        if max_seconds is not None:
            fields["max_seconds"] = max_seconds
        return self.request("equivalence", **fields)

    def status(self) -> Dict[str, Any]:
        return self.request("status")

    def metrics(self) -> str:
        """The server's Prometheus exposition text."""
        response = self.request("metrics")
        if not response.get("ok"):
            raise ServiceError(f"metrics failed: {response}")
        return response["result"]["text"]

    def flush(
        self,
        program_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {}
        if program_id is not None:
            fields["program_id"] = program_id
        if tenant is not None:
            fields["tenant"] = tenant
        return self.request("flush", **fields)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        try:
            self._fh.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
