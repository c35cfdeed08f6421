"""The doubly-linked-list benchmark suite (DESIGN.md §14).

Five DLL idioms written in LISL with ``prev`` stores/loads, exercised the
same way the Table 1 harness exercises the paper's singly-linked suite:
each procedure is analyzed as a root in AHS(AM) / AHS(AU), timed, and the
Tier-B ``safety.dll-consistent`` obligation is discharged -- the
acceptance bar is a *safe* verdict (zero false alarms) on every row.

The suite lives next to the Table 1 harness because it reports through
the same driver: ``table1_common.row_task`` runs a ``dll_*`` row against
this program, ``run_table1.py`` prints a DLL block under the paper's
table, and its ``--smoke`` set folds the rows into the committed
``BENCH_table1.json`` (the fast-vs-reference identity gate then also
covers the prev-aware transfer rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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

# AU rows cheap enough for the ``--smoke`` set; the loopy rows run
# AM-only there (same policy as AU_FAST for the Table 1 suite).
DLL_AU_FAST = ["dll_insert_front", "dll_delete_front"]

_CACHE: Dict[str, Program] = {}


def dll_program() -> Program:
    """The parsed, typechecked, normalized DLL suite program."""
    if "program" not in _CACHE:
        _CACHE["program"] = parse_source(DLL_SOURCE)
    return _CACHE["program"]
