#!/usr/bin/env python3
"""Regenerate the paper's Table 1 (§7): the one Table 1 driver.

Prints one row per benchmark function: class, name, the pattern set chosen
by the §7 heuristic, our AM and AU analysis times, the paper's times, and
whether our synthesized summary entails the paper's reported one.  Under
the table, a block for the doubly-linked-list suite (``dll_suite.py``)
reports whether the Tier-B checker proves ``safety.dll-consistent``.

Each Table 1 row also gets a "chk t(s)" column: the wall time of the
Tier-B memory-safety checker (``repro.checker.safety``) discharging the
null-deref / leak / acyclicity obligations of that function, with a
per-suite verdict tally in the footer (all Table 1 functions must be
free of ``unsafe`` verdicts).  A "term" column reports the termination
prover's verdict (``repro.termination``), with a tally in the footer --
the acceptance bar is zero possibly-nonterminating verdicts with >= 80%
proved terminating.

AU analyses of the sorting class are expensive in pure Python on one CPU;
``--budget`` sets a per-row wall budget (seconds, default 240) and a row
that exceeds it is reported as "timeout" (see EXPERIMENTS.md).

``--smoke`` runs the 34-row set of the committed ``BENCH_table1.json``
(every Table 1 and DLL function in AM, the ``AU_FAST``/``DLL_AU_FAST``
rows in AU), analysis columns only; there a timeout fails the run.
``--identity`` runs every row in both kernel modes (``repro.kernels``
``reference`` then ``fast``) and fails on any summary-hash or note
mismatch.  ``--json PATH`` writes per-mode wall times and per-row times
and summary hashes in the schema of ``BENCH_table1.json``.

Rows run on the fault-isolated worker pool of ``repro.parallel``: with
``--jobs N`` up to N rows analyze concurrently (each row is its own root
analysis in a fresh process, so parallel results are identical to
sequential ones), and each row's outcome prints as it finishes.

The exit status is 1 on a summary weaker than the paper's, an unproved
``dll-consistent`` row, an ``unsafe`` checker verdict, a
``possibly-nonterminating`` termination verdict, a crash, an identity
mismatch, or a timeout under ``--smoke``.

Usage:  python benchmarks/run_table1.py [--smoke] [--only NAME[,NAME...]]
                                        [--jobs N] [--budget S]
                                        [--identity] [--json PATH]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from repro import kernels  # noqa: E402
from repro.lang.benchlib import TABLE1  # noqa: E402

from dll_suite import DLL_AU_FAST, DLL_TABLE  # noqa: E402
from table1_common import (  # noqa: E402
    AU_FAST,
    checker_task,
    row_task,
    run_pool,
    termination_task,
)

ROW_FALLBACK = {
    "time": None,
    "note": "",
    "ok": None,
    "patterns": (),
    "engine": "",
    "hashes": [],
}
CHECKER_FALLBACK = {"checker_time": None, "verdicts": {}}
TERMINATION_FALLBACK = {"termination_time": None, "verdict": "unknown"}
CRASHED = ("crashed", "failed")  # pool statuses of a task that did not return


def fmt_time(t):
    return f"{t:7.2f}" if t is not None else "      -"


def fmt_ok(ok):
    return {True: "match", False: "WEAKER", None: "  -  "}[ok]


def fmt_verdict(verdict):
    return {
        "terminating": "term",
        "possibly-nonterminating": "NONTERM",
        "unknown": "unknown",
    }.get(verdict, verdict or "-")


def select_rows(smoke, only):
    """The ``(name, domain)`` rows to analyze, in table order."""
    if smoke:
        rows = (
            [(e.name, "am") for e in TABLE1]
            + [(n, "au") for n in AU_FAST]
            + [(e.name, "am") for e in DLL_TABLE]
            + [(n, "au") for n in DLL_AU_FAST]
        )
    else:
        rows = [(e.name, d) for d in ("am", "au") for e in TABLE1] + [
            (e.name, d) for d in ("am", "au") for e in DLL_TABLE
        ]
    if only:
        keep = {n.strip() for n in only.split(",")}
        rows = [(n, d) for n, d in rows if n in keep]
    return rows


def row_failures(mode, results, smoke):
    """Why a row run fails the driver, one line per failing row."""
    out = []
    for (name, domain), row in results.items():
        where = f"{name}/{domain} [{mode}]"
        if row["status"] in CRASHED:
            out.append(f"{where}: crash ({row['note']})")
        elif row["note"] and smoke:
            out.append(f"{where}: {row['note']}")
        elif row["ok"] is False and name.startswith("dll_"):
            out.append(f"{where}: safety.dll-consistent NOT proved")
        elif row["ok"] is False:
            out.append(f"{where}: summary WEAKER than the paper's")
    return out


def identity_mismatches(reference, fast):
    """Rows whose summary hashes or notes differ between kernel modes.

    A wall-clock timeout is the one outcome that depends on machine
    speed (the reference kernels are slower), so a row that timed out in
    either mode is not compared; the step budgets are deterministic.
    """
    out = []
    for key, ref in reference.items():
        row = fast[key]
        if "timeout" in (ref["note"], row["note"]):
            continue
        if ref["hashes"] != row["hashes"] or ref["note"] != row["note"]:
            out.append("/".join(key))
    return out


def print_table(entries, results, checker, termination, smoke):
    extra_head = "" if smoke else f"{'chk t(s)':>8} {'term':>8} "
    print(
        f"{'class':<6} {'fun':<12} {'patterns':<22} "
        f"{'AM t(s)':>8} {'paper':>6}  {'AU t(s)':>8} {'paper':>7} "
        f"{extra_head}{'summary':>7}  engine"
    )
    print("-" * 120)
    for e in entries:
        am = results.get((e.name, "am"), ROW_FALLBACK)
        au = results.get((e.name, "au"), ROW_FALLBACK)
        extra = ""
        if not smoke:
            chk = checker[(e.name,)]
            term = termination[(e.name,)]
            extra = (
                f"{fmt_time(chk['checker_time'])} "
                f"{fmt_verdict(term['verdict']):>8} "
            )
        pats = ",".join(sorted(au["patterns"] or am["patterns"])) or "-"
        ok = au["ok"] if au["ok"] is not None else am["ok"]
        note = au["note"] or am["note"]
        engine = au["engine"] or am["engine"]
        print(
            f"{e.cls:<6} {e.paper_name:<12} {pats:<22} "
            f"{fmt_time(am['time'])} {e.paper_am_time:6.3f}  "
            f"{fmt_time(au['time'])} {e.paper_au_time:7.3f} "
            f"{extra}{fmt_ok(ok):>7}  {engine}"
            + (f"  [{note}]" if note else "")
        )
    print("-" * 120)


def print_dll_block(entries, results):
    print()
    print(
        f"{'class':<6} {'fun':<18} {'AM t(s)':>8} {'AU t(s)':>8} "
        f"{'dll-consistent':>15}"
    )
    print("-" * 60)
    for e in entries:
        am = results.get((e.name, "am"), ROW_FALLBACK)
        au = results.get((e.name, "au"), ROW_FALLBACK)
        ok = au["ok"] if au["ok"] is not None else am["ok"]
        note = au["note"] or am["note"]
        print(
            f"{e.cls:<6} {e.name:<18} {fmt_time(am['time'])} "
            f"{fmt_time(au['time'])} "
            f"{'safe' if ok else 'NOT-PROVED' if ok is False else '-':>15}"
            + (f"  [{note}]" if note else "")
        )
    print("-" * 60)


def tally(counts):
    return " ".join(f"{k}={counts[k]}" for k in sorted(counts))


def print_checker_footer(checker):
    seconds = sum(
        row["checker_time"]
        for row in checker.values()
        if row["checker_time"] is not None
    )
    verdicts = {}
    for row in checker.values():
        for verdict, n in row["verdicts"].items():
            verdicts[verdict] = verdicts.get(verdict, 0) + n
    print(
        f"checker: {seconds:.1f}s over {len(checker)} rows "
        f"({tally(verdicts) or 'no obligations'})"
    )


def print_termination_footer(termination):
    seconds = sum(
        row["termination_time"]
        for row in termination.values()
        if row["termination_time"] is not None
    )
    verdicts = {}
    for row in termination.values():
        verdicts[row["verdict"]] = verdicts.get(row["verdict"], 0) + 1
    print(
        f"termination: {seconds:.1f}s over {len(termination)} rows "
        f"({tally(verdicts)})"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="python benchmarks/run_table1.py",
        description="Regenerate the paper's Table 1 (§7).",
    )
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="the 34-row set of BENCH_table1.json, analysis columns only",
    )
    ap.add_argument(
        "--only", default="", help="comma-separated function names"
    )
    ap.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    ap.add_argument(
        "--budget",
        type=float,
        default=240.0,
        help="per-row wall budget in seconds (default 240)",
    )
    ap.add_argument(
        "--identity",
        action="store_true",
        help="run every row in both kernel modes; fail on any mismatch",
    )
    ap.add_argument(
        "--json", default="", help="write per-mode timings and hashes here"
    )
    args = ap.parse_args(argv)

    rows = select_rows(args.smoke, args.only)
    if not rows:
        ap.error(f"--only {args.only!r} names no row")
    names = {name for name, _ in rows}
    entries = [e for e in TABLE1 if e.name in names]
    dll_entries = [e for e in DLL_TABLE if e.name in names]

    modes = ["reference", "fast"] if args.identity else [kernels.mode()]
    runs = {}
    for mode in modes:
        start = time.perf_counter()
        results = run_pool(
            row_task,
            [row + (mode,) for row in rows],
            args.jobs,
            args.budget,
            ROW_FALLBACK,
        )
        runs[mode] = {
            "wall_seconds": time.perf_counter() - start,
            "results": {(n, d): results[(n, d, mode)] for n, d in rows},
        }
    checker, termination = {}, {}
    if not args.smoke and entries:
        keys = [(e.name,) for e in entries]
        checker = run_pool(
            checker_task, keys, args.jobs, args.budget, CHECKER_FALLBACK
        )
        termination = run_pool(
            termination_task, keys, args.jobs, args.budget, TERMINATION_FALLBACK
        )

    results = runs[modes[-1]]["results"]
    failures = []
    for mode, run in runs.items():
        failures += row_failures(mode, run["results"], args.smoke)
    for (name,), row in checker.items():
        if row["status"] in CRASHED:
            failures.append(f"{name} checker: crash ({row['note']})")
        elif row["verdicts"].get("unsafe"):
            failures.append(f"{name} checker: unsafe verdicts")
    for (name,), row in termination.items():
        if row["status"] in CRASHED:
            failures.append(f"{name} termination: crash ({row['note']})")
        elif row["verdict"] == "possibly-nonterminating":
            failures.append(f"{name} termination: possibly-nonterminating")

    print()
    if entries:
        print_table(entries, results, checker, termination, args.smoke)
    if dll_entries:
        print_dll_block(dll_entries, results)
    for mode, run in runs.items():
        seconds = sum(
            row["time"] for row in run["results"].values() if row["time"]
        )
        print(
            f"[{mode}] {len(rows)} analyses in {run['wall_seconds']:.1f}s "
            f"wall with --jobs {args.jobs} "
            f"(sum of per-row analysis times: {seconds:.1f}s)"
        )
    if checker:
        print_checker_footer(checker)
    if termination:
        print_termination_footer(termination)

    identity_ok = speedup = None
    if args.identity:
        mismatched = identity_mismatches(
            runs["reference"]["results"], runs["fast"]["results"]
        )
        failures += [f"{row}: fast and reference kernels differ"
                     for row in mismatched]
        identity_ok = not mismatched
        speedup = runs["reference"]["wall_seconds"] / max(
            runs["fast"]["wall_seconds"], 1e-9
        )
        print(f"identity_ok: {identity_ok}  speedup: {speedup:.2f}x")

    if args.json:
        doc = {
            "rows": [f"{n}/{d}" for n, d in rows],
            "jobs": args.jobs,
            "modes": {
                mode: {
                    "mode": mode,
                    "wall_seconds": run["wall_seconds"],
                    "rows": [
                        {
                            "name": n,
                            "domain": d,
                            "time": row["time"],
                            "note": row["note"],
                            "hashes": row["hashes"],
                        }
                        for (n, d), row in run["results"].items()
                    ],
                }
                for mode, run in runs.items()
            },
            "identity_ok": identity_ok,
            "speedup": speedup,
        }
        with open(args.json, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")

    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
