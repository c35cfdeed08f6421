"""Serving CLI: ``python -m repro.service <command>`` (also ``repro-serve``;
``python -m repro.gateway`` and ``repro-gateway`` run this same CLI).

Commands::

    serve     start the server (the multi-tenant gateway)
    submit    submit one program (analyze / check / query / asserts)
    watch     re-submit a file whenever its mtime changes
    status    print server status (tenants, sessions, store, queue)
    metrics   print the Prometheus exposition text
    flush     drop retained session outputs and cached findings
    shutdown  drain and stop the server

Examples::

    # a server with a persistent store, 4 dispatch workers, a 64 MiB
    # store budget and a tenant weighted 4x
    python -m repro.service serve --tcp 127.0.0.1:7341 --store .stores/svc \\
        --workers 4 --max-store-bytes 67108864 --weight paid=4

    # submit; the second submit after an edit re-analyzes only the dirty cone
    python -m repro.service submit prog.lisl --addr 127.0.0.1:7341 --domains am,au
    python -m repro.service watch prog.lisl --addr 127.0.0.1:7341

    # tenants keep their own warm sessions; a deadline bounds queueing
    python -m repro.service submit prog.lisl --tenant alice --deadline-ms 2000

    # assertion verdicts as structured diagnostics
    python -m repro.service submit prog.lisl --check-asserts

    # one program-point obligation on demand (backward-cone analysis;
    # warm answers come from the server's cone-keyed query cache)
    python -m repro.service submit prog.lisl --check --query reverse:12:safety.null-deref

    # scrape (same text as `curl http://127.0.0.1:7341/metrics`)
    python -m repro.service metrics
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.gateway.server import AnalysisGateway, GatewayConfig
from repro.service.client import ServiceClient, ServiceError, parse_address
from repro.service.executor import CHECK_TIERS

DEFAULT_ADDR = "127.0.0.1:7341"


def _add_addr(ap: argparse.ArgumentParser) -> None:
    ap.add_argument(
        "--addr",
        type=str,
        default=DEFAULT_ADDR,
        help="server address: host:port or a Unix socket path",
    )


def _connect(args) -> ServiceClient:
    return ServiceClient.connect(parse_address(args.addr))


def _print_response(response, as_json: bool) -> int:
    if as_json:
        print(json.dumps(response, indent=2, default=repr))
        return 0 if response.get("ok") else 1
    if not response.get("ok"):
        error = response.get("error", {})
        print(f"error [{error.get('kind')}]: {error.get('message')}")
        if error.get("retry_after_ms") is not None:
            print(f"  retry after {error['retry_after_ms']} ms")
        _print_diagnostics(response.get("diagnostics"))
        return 1
    result = response.get("result", {})
    if response.get("verb") == "analyze":
        inc = result.get("incremental", {})
        print(
            f"analyze: {inc.get('roots', 0)} root task(s) — "
            f"{inc.get('analyzed', 0)} analyzed, {inc.get('reused', 0)} reused "
            f"(SCC shards {inc.get('sccs_analyzed', 0)}/{inc.get('sccs_total', 0)}, "
            f"generation {inc.get('generation', 0)})"
        )
        if inc.get("dirty_cone"):
            print(f"  dirty cone: {', '.join(inc['dirty_cone'])}")
        for task_id in sorted(result.get("summary_hashes", {})):
            hashes = result["summary_hashes"][task_id]
            print(f"  {task_id}: {len(hashes)} summarie(s)")
        _print_diagnostics(result.get("diagnostics"))
    elif response.get("verb") == "check":
        if "query" in result:
            answer = result["query"]
            print(
                f"query {answer['query']['proc']}: verdict "
                f"{answer.get('verdict') or 'no-obligation'} "
                f"({result.get('mode')}, cone {answer.get('cone_size')}/"
                f"{answer.get('proc_count')} procs)"
            )
        else:
            print(
                f"check: {len(result.get('checked', []))} proc(s) checked, "
                f"{len(result.get('reused', []))} reused from cache "
                f"({'clean' if result.get('ok') else 'findings'})"
            )
        _print_diagnostics(result.get("diagnostics"))
    elif response.get("verb") in ("status", "flush", "shutdown"):
        print(json.dumps(result, indent=2, default=repr))
    else:
        _print_diagnostics(result)
    telemetry = response.get("telemetry", {})
    if telemetry:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(telemetry.items()))
        print(f"telemetry: {parts}")
    return 0


def _print_diagnostics(envelope) -> None:
    from repro.service.diagnostics import envelope_records

    if not envelope:
        return
    for record in envelope_records(envelope):
        where = record.get("procedure", "?")
        if record.get("line") is not None:
            where += f":{record['line']}"
        print(
            f"  [{record['verdict']}] {record['ruleId']} {where}: "
            f"{record['message']}"
        )


def _parse_weights(specs: List[str]) -> Dict[str, float]:
    weights: Dict[str, float] = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep:
            raise SystemExit(f"--weight wants tenant=weight, got {spec!r}")
        weights[name] = float(value)
    return weights


def cmd_serve(args) -> int:
    address = parse_address(args.tcp) if args.tcp else None
    config = GatewayConfig(
        host=address[0] if isinstance(address, tuple) else GatewayConfig.host,
        port=address[1] if isinstance(address, tuple) else GatewayConfig.port,
        socket_path=args.unix,
        workers=args.workers,
        jobs=args.jobs,
        store_dir=args.store,
        max_store_bytes=args.max_store_bytes,
        max_sessions=args.max_sessions,
        tenant_queue_limit=args.tenant_queue_limit,
        tenant_weights=_parse_weights(args.weight),
        default_max_seconds=args.budget,
        default_deadline_s=args.deadline,
    )
    gateway = AnalysisGateway(config)

    async def run() -> None:
        await gateway.start()
        kind, where = gateway.address
        print(f"repro gateway listening on {kind}:{where}", flush=True)
        await gateway.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    print("repro gateway stopped", flush=True)
    return 0


def _submit_once(client: ServiceClient, args, source: str) -> int:
    common = dict(
        procs=args.procs.split(",") if args.procs else None,
        max_seconds=args.budget,
        tenant=args.tenant,
        deadline_ms=args.deadline_ms,
    )
    domains = args.domains.split(",")
    if args.check:
        response = client.check(
            source,
            tier=args.tier,
            domain=domains[0],
            k=args.k,
            program_id=args.program_id,
            query=args.query,
            **common,
        )
    elif args.check_asserts:
        response = client.check_asserts(source, domain=domains[0], **common)
    else:
        response = client.analyze(
            source,
            domains=tuple(domains),
            k=args.k,
            program_id=args.program_id,
            **common,
        )
    return _print_response(response, args.json)


def cmd_submit(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        source = fh.read()
    with _connect(args) as client:
        return _submit_once(client, args, source)


def cmd_watch(args) -> int:
    last_mtime = None
    print(f"watching {args.file} (interval {args.interval}s; ctrl-c stops)")
    try:
        with _connect(args) as client:
            while True:
                try:
                    mtime = os.stat(args.file).st_mtime
                except OSError:
                    time.sleep(args.interval)
                    continue
                if mtime != last_mtime:
                    last_mtime = mtime
                    with open(args.file, "r", encoding="utf-8") as fh:
                        source = fh.read()
                    stamp = time.strftime("%H:%M:%S")
                    print(f"-- {stamp} submit {args.file}")
                    _submit_once(client, args, source)
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_status(args) -> int:
    with _connect(args) as client:
        return _print_response(client.status(), args.json)


def cmd_metrics(args) -> int:
    with _connect(args) as client:
        sys.stdout.write(client.metrics())
    return 0


def cmd_flush(args) -> int:
    with _connect(args) as client:
        response = client.flush(args.program_id, tenant=args.tenant)
        return _print_response(response, args.json)


def cmd_shutdown(args) -> int:
    with _connect(args) as client:
        return _print_response(client.shutdown(), args.json)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-serve",
        description="multi-tenant analysis server and its client",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="start the server")
    serve.add_argument("--tcp", type=str, default=DEFAULT_ADDR,
                       help="TCP listen address host:port")
    serve.add_argument("--unix", type=str, default=GatewayConfig.socket_path,
                       help="Unix socket path (wins over --tcp)")
    serve.add_argument("--workers", type=int, default=GatewayConfig.workers,
                       help="concurrent dispatch workers")
    serve.add_argument("--jobs", type=int, default=GatewayConfig.jobs,
                       help="pool worker processes per job (0 = inline)")
    serve.add_argument("--store", type=str, default=GatewayConfig.store_dir,
                       help="shared persistent summary store directory")
    serve.add_argument("--max-store-bytes", type=int,
                       default=GatewayConfig.max_store_bytes,
                       help="store byte budget (GC evicts above this)")
    serve.add_argument("--max-sessions", type=int,
                       default=GatewayConfig.max_sessions,
                       help="LRU bound on resident tenant sessions")
    serve.add_argument("--tenant-queue-limit", type=int,
                       default=GatewayConfig.tenant_queue_limit,
                       help="pending requests per tenant before shedding")
    serve.add_argument("--weight", action="append", default=[],
                       metavar="TENANT=W",
                       help="tenant weight (repeatable; default 1.0)")
    serve.add_argument("--budget", type=float,
                       default=GatewayConfig.default_max_seconds,
                       help="default per-request wall budget (seconds)")
    serve.add_argument("--deadline", type=float,
                       default=GatewayConfig.default_deadline_s,
                       help="default per-request deadline (seconds)")
    serve.set_defaults(fn=cmd_serve)

    for name, fn in (("submit", cmd_submit), ("watch", cmd_watch)):
        cp = sub.add_parser(name, help=f"{name} a program")
        cp.add_argument("file", help="LISL program file")
        _add_addr(cp)
        cp.add_argument("--tenant", type=str, default=None,
                        help="tenant id (default: the server's default)")
        cp.add_argument("--deadline-ms", type=int, default=None,
                        help="request deadline in milliseconds")
        cp.add_argument("--procs", type=str, default=None,
                        help="comma-separated root procedures (default: all)")
        cp.add_argument("--domains", type=str, default="am",
                        help="comma-separated domains (am, au)")
        cp.add_argument("--k", type=int, default=0, help="fold bound k")
        cp.add_argument("--program-id", type=str, default=None,
                        help="session id (default: the file path)")
        cp.add_argument("--budget", type=float, default=None,
                        help="per-request wall budget (seconds)")
        cp.add_argument("--check-asserts", action="store_true",
                        help="run assertion checking instead of summaries")
        cp.add_argument("--check", action="store_true",
                        help="run the two-tier lint/safety checker")
        cp.add_argument("--tier", choices=CHECK_TIERS, default="all",
                        help="checker tier(s) for --check")
        cp.add_argument("--query", type=str, default=None,
                        metavar="PROC:LINE[:RULE]",
                        help="with --check: answer one program-point "
                             "obligation on demand (line 0 = whole "
                             "procedure)")
        cp.add_argument("--json", action="store_true",
                        help="print the raw JSON response")
        if name == "watch":
            cp.add_argument("--interval", type=float, default=1.0,
                            help="mtime poll interval (seconds)")
        cp.set_defaults(fn=fn)

    for name, fn in (("status", cmd_status), ("metrics", cmd_metrics),
                     ("flush", cmd_flush), ("shutdown", cmd_shutdown)):
        cp = sub.add_parser(name, help=f"{name} the server")
        _add_addr(cp)
        if name != "metrics":
            cp.add_argument("--json", action="store_true",
                            help="print the raw JSON response")
        if name == "flush":
            cp.add_argument("--tenant", type=str, default=None)
            cp.add_argument("--program-id", type=str, default=None)
        cp.set_defaults(fn=fn)

    args = ap.parse_args(argv)
    if getattr(args, "program_id", None) is None and hasattr(args, "file"):
        args.program_id = args.file
    try:
        return args.fn(args)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
