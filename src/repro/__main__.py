"""Single-analysis CLI: ``python -m repro FILE`` (also ``repro-analyze``).

Analyzes procedures of one LISL program and prints their summaries, or
— with ``--check-asserts`` — the assertion verdicts as structured
diagnostics (:mod:`repro.service.diagnostics`).  ``python -m repro lint
...`` dispatches to the checker CLI (:mod:`repro.checker.__main__`).

Examples::

    python -m repro prog.lisl --proc quicksort --domain au
    python -m repro prog.lisl --check-asserts --json
    python -m repro prog.lisl --proc f --strengthened
    python -m repro lint prog.lisl --tier all --sarif out.sarif
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.api import Analyzer
from repro.lang.parser import ParseError
from repro.lang.typecheck import TypeError_


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.checker.__main__ import main as lint_main

        return lint_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="analyze one LISL program (summaries or assertions); "
        "'python -m repro lint ...' runs the checker",
    )
    ap.add_argument("file", help="LISL program file")
    ap.add_argument("--proc", type=str, default=None,
                    help="procedure to analyze (default: every procedure)")
    ap.add_argument("--domain", type=str, default="au", choices=("au", "am"),
                    help="LDW domain")
    ap.add_argument("--k", type=int, default=0, help="fold bound k")
    ap.add_argument("--strengthened", action="store_true",
                    help="AHS(AM) then AHS(AU) with strengthen_M (§6.2)")
    ap.add_argument("--check-asserts", action="store_true",
                    help="run assertion checking; print diagnostics")
    ap.add_argument("--budget", type=float, default=None,
                    help="wall-clock budget per analysis (seconds)")
    ap.add_argument("--json", action="store_true",
                    help="print machine-readable JSON instead of text")
    args = ap.parse_args(argv)

    with open(args.file, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        analyzer = Analyzer.from_source(source)
    except (ParseError, TypeError_) as exc:
        # Frontend failures are diagnostics records (frontend.*), not
        # tracebacks -- same envelope as checker findings.
        from repro.service.diagnostics import from_frontend_error, run_envelope

        record = from_frontend_error(exc, path=args.file)
        if args.json:
            print(json.dumps(run_envelope([record]), indent=2))
        else:
            where = args.file + (f":{record.line}" if record.line else "")
            print(f"[{record.verdict}] {record.rule_id} {where}: "
                  f"{record.message}", file=sys.stderr)
        return 2
    procs = [args.proc] if args.proc else sorted(analyzer.icfg.cfgs)

    if args.check_asserts:
        from repro.service.diagnostics import run_envelope
        from repro.service.jobs import AssertRequest, run_assert_request

        result = run_assert_request(
            AssertRequest(
                program=analyzer.program,
                procs=tuple(procs) if args.proc else (),
                domain=args.domain,
                k=args.k,
                max_seconds=args.budget,
            )
        )
        failed = [r for r in result["results"] if r["verdict"] != "pass"]
        if args.json:
            print(json.dumps(result, indent=2, default=repr))
        else:
            for record in result["results"]:
                where = record.get("procedure", "?")
                if record.get("line") is not None:
                    where += f":{record['line']}"
                print(f"[{record['verdict']}] {record['ruleId']} {where}: "
                      f"{record['message']}")
            if not result["results"]:
                print("no assertions found")
        return 1 if failed else 0

    exit_code = 0
    out = []
    for proc in procs:
        if args.strengthened:
            result = analyzer.analyze_strengthened(proc, k=args.k)
        else:
            result = analyzer.analyze(
                proc, domain=args.domain, k=args.k, max_seconds=args.budget
            )
        if not result.ok:
            exit_code = 1
        if args.json:
            out.append({
                "proc": proc,
                "domain": result.domain_name,
                "ok": result.ok,
                "summary_hashes": result.summary_hashes(),
                "diagnostics": [str(d) for d in result.diagnostics],
                "stats": {k: v for k, v in result.stats.items()
                          if isinstance(v, (int, float, str))},
            })
        else:
            print(result.describe())
            print()
    if args.json:
        print(json.dumps(out, indent=2, default=repr))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
