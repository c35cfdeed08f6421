"""The doubly-linked-list benchmark suite (DESIGN.md §14).

Five DLL idioms written in LISL with ``prev`` stores/loads, exercised the
same way the Table 1 harness exercises the paper's singly-linked suite:
each procedure is analyzed as a root in AHS(AM) / AHS(AU), timed, and the
Tier-B ``safety.dll-consistent`` obligation is discharged -- the
acceptance bar is a *safe* verdict (zero false alarms) on every row.

The suite lives next to the Table 1 harness because it reports through
the same channels: ``run_table1.py`` prints a DLL block under the paper's
table, ``bench_table1.py`` benchmarks the rows under pytest, and
``bench_kernels.py`` folds the rows into the committed
``BENCH_table1.json`` (the fast-vs-reference identity gate then also
covers the prev-aware transfer rules).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import Analyzer
from repro.lang import parse_source
from repro.lang.ast import Program

DLL_SOURCE = r"""
// ===== class dll: doubly-linked list idioms ==============================

proc dll_insert_front(x: list, v: int) returns (r: list) {
  local t: list;
  t = new;
  t->data = v;
  t->next = x;
  t->prev = NULL;
  if (x != NULL) {
    x->prev = t;
  }
  r = t;
}

proc dll_insert_sorted(x: list, v: int) returns (r: list) {
  local p, q, t: list;
  t = new;
  t->data = v;
  t->next = NULL;
  t->prev = NULL;
  if (x == NULL) {
    r = t;
  } else {
    if (v <= x->data) {
      t->next = x;
      x->prev = t;
      r = t;
    } else {
      r = x;
      p = x;
      q = p->next;
      while (q != NULL && q->data < v) {
        p = q;
        q = q->next;
      }
      t->next = q;
      t->prev = p;
      p->next = t;
      if (q != NULL) {
        q->prev = t;
      }
    }
  }
}

proc dll_delete_front(x: list) returns (r: list) {
  if (x == NULL) {
    r = NULL;
  } else {
    r = x->next;
    if (r != NULL) {
      r->prev = NULL;
    }
  }
}

proc dll_reverse(x: list) returns (r: list) {
  local c, n: list;
  r = NULL;
  c = x;
  while (c != NULL) {
    n = c->next;
    c->next = r;
    c->prev = NULL;
    if (r != NULL) {
      r->prev = c;
    }
    r = c;
    c = n;
  }
}

proc dll_traverse_back(x: list) returns (r: list, s: int) {
  local c, p: list;
  r = x;
  s = 0;
  c = x;
  p = NULL;
  while (c != NULL) {
    s = s + c->data;
    p = c;
    c = c->next;
  }
  c = p;
  while (c != NULL) {
    s = s + c->data;
    c = c->prev;
  }
}
"""


@dataclass(frozen=True)
class DLLBenchEntry:
    """One row of the DLL suite."""

    name: str
    cls: str  # always "dll"; keeps the Table 1 printing shape
    description: str


DLL_TABLE: List[DLLBenchEntry] = [
    DLLBenchEntry("dll_insert_front", "dll", "push with back-pointer repair"),
    DLLBenchEntry("dll_insert_sorted", "dll", "sorted interior splice"),
    DLLBenchEntry("dll_delete_front", "dll", "drop head, reset prev"),
    DLLBenchEntry("dll_reverse", "dll", "reverse via push-front"),
    DLLBenchEntry("dll_traverse_back", "dll", "walk to tail, sum over prev"),
]

# AU rows cheap enough for the default bench/pytest lane; the loopy rows
# run AM-only there (same policy as AU_FAST for the Table 1 suite).
DLL_AU_FAST = ["dll_insert_front", "dll_delete_front"]

_CACHE: Dict[str, Program] = {}


def dll_program() -> Program:
    """The parsed, typechecked, normalized DLL suite program."""
    if "program" not in _CACHE:
        _CACHE["program"] = parse_source(DLL_SOURCE)
    return _CACHE["program"]


def dll_entry(name: str) -> DLLBenchEntry:
    for e in DLL_TABLE:
        if e.name == name:
            return e
    raise KeyError(f"no DLL suite entry for {name!r}")


def fresh_dll_analyzer() -> Analyzer:
    return Analyzer(dll_program())


def dll_task(
    name: str, domain: str, max_seconds: Optional[float] = None
) -> dict:
    """Pool worker: analyze one DLL row + discharge ``safety.dll-consistent``.

    Mirrors :func:`table1_common.analyze_task`'s result shape, with the
    ``ok`` column meaning "the checker proved safety.dll-consistent" (the
    suite's summary-content claim) instead of a paper-entailment check.
    """
    from repro.checker.findings import SAFE
    from repro.checker.safety import SafetyOptions, check_safety

    analyzer = fresh_dll_analyzer()
    start = time.perf_counter()
    note = ""
    ok: Optional[bool] = None
    try:
        result = analyzer.analyze(
            name, domain=domain, max_steps=400_000, max_seconds=max_seconds
        )
        if result.diagnostics:
            note = result.diagnostics[0].kind
    except Exception as exc:
        note = type(exc).__name__
    elapsed = time.perf_counter() - start
    if not note:
        report = check_safety(
            analyzer,
            SafetyOptions(domain=domain, procs=(name,), max_seconds=max_seconds),
        )
        verdict = report.dll_consistent_verdict(name)
        ok = verdict == SAFE if verdict is not None else None
    return {
        "name": name,
        "domain": domain,
        "time": elapsed,
        "ok": ok,
        "note": note,
        "patterns": (),
        "engine": "",
    }


def dll_suite_run(
    pairs: List[Tuple[str, str]], jobs: int, budget: Optional[float] = None
):
    """Run DLL ``(name, domain)`` rows on the worker pool."""
    from repro.parallel.pool import PoolTask, WorkerPool

    tasks = [
        PoolTask(
            task_id=f"{name}.{domain}",
            fn=dll_task,
            args=(name, domain),
            kwargs={"max_seconds": budget},
            budget=budget,
        )
        for name, domain in pairs
    ]
    results = {}
    pool = WorkerPool(jobs=jobs, hard_grace=30.0)
    for outcome in pool.run(tasks):
        name, _, domain = outcome.task_id.rpartition(".")
        if outcome.status == "ok":
            results[(name, domain)] = outcome.result
        else:
            results[(name, domain)] = {
                "name": name,
                "domain": domain,
                "time": None,
                "ok": None,
                "note": {"budget": "timeout", "crashed": "crash"}.get(
                    outcome.status, outcome.status
                ),
                "patterns": (),
                "engine": "",
            }
    return results
