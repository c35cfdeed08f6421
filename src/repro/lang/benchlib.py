"""The CELIA benchmark programs (paper §7, Table 1), written in LISL.

Every function from the paper's Table 1 sample is here, grouped in the
same six classes (sll, map, map2, fold, fold2, sort), plus the recursive
variants the paper mentions for the tail-recursive classes and the helper
procedures quicksort/mergesort need (``qsplit``, ``concat3``, ``msplit``).

``TABLE1`` records, per function, the paper's reported numbers: the
nesting column ``(loops, recursive calls)``, the guard-pattern sets used,
and the AM/AU analysis times on the authors' machine -- the benchmark
harness prints ours next to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang import parse_source
from repro.lang.ast import Program

BENCHMARK_SOURCE = r"""
// ===== class sll: elementary operations ==================================

proc create(n: int) returns (x: list) {
  local t: list;
  local i: int;
  x = NULL;
  i = 0;
  while (i < n) {
    t = new;
    t->data = 0;
    t->next = x;
    x = t;
    i = i + 1;
  }
}

proc addfst(x: list, v: int) returns (r: list) {
  local t: list;
  t = new;
  t->data = v;
  t->next = x;
  r = t;
}

proc addlst(x: list, v: int) returns (r: list) {
  local c, n, t: list;
  t = new;
  t->data = v;
  t->next = NULL;
  if (x == NULL) {
    r = t;
  } else {
    r = x;
    c = x;
    n = c->next;
    while (n != NULL) {
      c = n;
      n = c->next;
    }
    c->next = NULL;
    c->next = t;
  }
}

proc delfst(x: list) returns (r: list) {
  if (x == NULL) {
    r = NULL;
  } else {
    r = x->next;
  }
}

proc dellst(x: list) returns (r: list) {
  local c, n, m: list;
  if (x == NULL) {
    r = NULL;
  } else {
    n = x->next;
    if (n == NULL) {
      r = NULL;
    } else {
      r = x;
      c = x;
      m = n->next;
      while (m != NULL) {
        c = n;
        n = m;
        m = n->next;
      }
      c->next = NULL;
    }
  }
}

proc init(x: list, v: int) returns (r: list) {
  local c: list;
  r = x;
  c = x;
  while (c != NULL) {
    c->data = v;
    c = c->next;
  }
}

// ===== class map: one-list traversals modifying data ======================

proc initSeq(x: list) returns (r: list) {
  local c: list;
  local i: int;
  r = x;
  c = x;
  i = 0;
  while (c != NULL) {
    c->data = i;
    i = i + 1;
    c = c->next;
  }
}

proc mapadd(x: list, v: int) returns (r: list) {
  local c: list;
  local e: int;
  r = x;
  c = x;
  while (c != NULL) {
    e = c->data;
    c->data = e + v;
    c = c->next;
  }
}

// ===== class map2: two-list traversals =====================================

proc map2add(x: list, z: list, v: int) returns (r: list) {
  local cx, cz: list;
  local e: int;
  r = z;
  cx = x;
  cz = z;
  while (cx != NULL && cz != NULL) {
    e = cx->data;
    cz->data = e + v;
    cx = cx->next;
    cz = cz->next;
  }
}

proc copy(x: list, z: list) returns (r: list) {
  local cx, cz: list;
  local e: int;
  r = z;
  cx = x;
  cz = z;
  while (cx != NULL && cz != NULL) {
    e = cx->data;
    cz->data = e;
    cx = cx->next;
    cz = cz->next;
  }
}

// ===== class fold: one input list, computed outputs ==========================

proc max(x: list) returns (m: int) {
  local c: list;
  local e: int;
  m = 0;
  if (x != NULL) {
    m = x->data;
    c = x->next;
    while (c != NULL) {
      e = c->data;
      if (e > m) {
        m = e;
      }
      c = c->next;
    }
  }
}

proc clone(x: list) returns (y: list) {
  local c, t, last: list;
  local e: int;
  y = NULL;
  last = NULL;
  c = x;
  while (c != NULL) {
    e = c->data;
    t = new;
    t->data = e;
    t->next = NULL;
    if (last == NULL) {
      y = t;
      last = t;
    } else {
      last->next = NULL;
      last->next = t;
      last = t;
    }
    c = c->next;
  }
}

proc split(x: list, v: int) returns (l: list, u: list) {
  local c, cell: list;
  local e: int;
  l = NULL;
  u = NULL;
  c = x;
  while (c != NULL) {
    e = c->data;
    cell = new;
    cell->data = e;
    if (e <= v) {
      cell->next = l;
      l = cell;
    } else {
      cell->next = u;
      u = cell;
    }
    c = c->next;
  }
}

proc delPred(x: list, v: int) returns (r: list) {
  // keep only the elements <= v (copying fold)
  local c, cell, last: list;
  local e: int;
  r = NULL;
  last = NULL;
  c = x;
  while (c != NULL) {
    e = c->data;
    if (e <= v) {
      cell = new;
      cell->data = e;
      cell->next = NULL;
      if (last == NULL) {
        r = cell;
        last = cell;
      } else {
        last->next = NULL;
        last->next = cell;
        last = cell;
      }
    }
    c = c->next;
  }
}

// ===== class fold2: two input lists ===========================================

proc equal(x: list, z: list) returns (b: int) {
  local cx, cz: list;
  local dx, dz: int;
  b = 1;
  cx = x;
  cz = z;
  while (cx != NULL && cz != NULL) {
    dx = cx->data;
    dz = cz->data;
    if (dx != dz) {
      b = 0;
    }
    cx = cx->next;
    cz = cz->next;
  }
  if (cx != NULL) {
    b = 0;
  }
  if (cz != NULL) {
    b = 0;
  }
}

proc concat(x: list, z: list) returns (r: list) {
  local c, n: list;
  if (x == NULL) {
    r = z;
  } else {
    r = x;
    c = x;
    n = c->next;
    while (n != NULL) {
      c = n;
      n = c->next;
    }
    c->next = NULL;
    c->next = z;
  }
}

proc merge(x: list, z: list) returns (r: list) {
  local cx, cz, t, cell: list;
  local dx, dz: int;
  r = NULL;
  t = NULL;
  cx = x;
  cz = z;
  while (cx != NULL && cz != NULL) {
    dx = cx->data;
    dz = cz->data;
    cell = new;
    cell->next = NULL;
    if (dx <= dz) {
      cell->data = dx;
      cx = cx->next;
    } else {
      cell->data = dz;
      cz = cz->next;
    }
    if (t == NULL) {
      r = cell;
      t = cell;
    } else {
      t->next = NULL;
      t->next = cell;
      t = cell;
    }
  }
  while (cx != NULL) {
    dx = cx->data;
    cell = new;
    cell->data = dx;
    cell->next = NULL;
    if (t == NULL) {
      r = cell;
      t = cell;
    } else {
      t->next = NULL;
      t->next = cell;
      t = cell;
    }
    cx = cx->next;
  }
  while (cz != NULL) {
    dz = cz->data;
    cell = new;
    cell->data = dz;
    cell->next = NULL;
    if (t == NULL) {
      r = cell;
      t = cell;
    } else {
      t->next = NULL;
      t->next = cell;
      t = cell;
    }
    cz = cz->next;
  }
}

// ===== class sort ==============================================================

proc bubblesort(x: list) returns (r: list) {
  local p, q: list;
  local swapped, a, b: int;
  r = x;
  swapped = 1;
  while (swapped > 0) {
    swapped = 0;
    if (r != NULL) {
      p = r;
      q = p->next;
      while (q != NULL) {
        a = p->data;
        b = q->data;
        if (a > b) {
          p->data = b;
          q->data = a;
          swapped = 1;
        }
        p = q;
        q = q->next;
      }
    }
  }
}

proc insertsort(x: list) returns (r: list) {
  local c, n, p, q, cell: list;
  local d, pd: int;
  r = NULL;
  c = x;
  while (c != NULL) {
    n = c->next;
    d = c->data;
    cell = new;
    cell->data = d;
    cell->next = NULL;
    if (r == NULL) {
      r = cell;
    } else {
      pd = r->data;
      if (d <= pd) {
        cell->next = r;
        r = cell;
      } else {
        p = r;
        q = p->next;
        while (q != NULL && q->data < d) {
          p = q;
          q = q->next;
        }
        cell->next = q;
        p->next = NULL;
        p->next = cell;
      }
    }
    c = n;
  }
}

proc qsplit(x: list, d: int) returns (l: list, u: list) {
  local c, cell: list;
  local e: int;
  l = NULL;
  u = NULL;
  c = x;
  while (c != NULL) {
    e = c->data;
    cell = new;
    cell->data = e;
    if (e <= d) {
      cell->next = l;
      l = cell;
    } else {
      cell->next = u;
      u = cell;
    }
    c = c->next;
  }
}

proc concat3(l: list, p: list, r: list) returns (res: list) {
  local c, n: list;
  p->next = NULL;
  p->next = r;
  if (l == NULL) {
    res = p;
  } else {
    res = l;
    c = l;
    n = c->next;
    while (n != NULL) {
      c = n;
      n = c->next;
    }
    c->next = NULL;
    c->next = p;
  }
}

proc quicksort(a: list) returns (res: list) {
  local left, right, pivot, start: list;
  local d: int;
  if (a == NULL) {
    res = clone(a);
  } else {
    start = a->next;
    if (start == NULL) {
      res = clone(a);
    } else {
      d = a->data;
      pivot = new;
      pivot->data = d;
      pivot->next = NULL;
      (left, right) = qsplit(start, d);
      left = quicksort(left);
      right = quicksort(right);
      res = concat3(left, pivot, right);
    }
  }
}

proc msplit(x: list) returns (a: list, b: list) {
  local c, cell: list;
  local e, turn: int;
  a = NULL;
  b = NULL;
  turn = 0;
  c = x;
  while (c != NULL) {
    e = c->data;
    cell = new;
    cell->data = e;
    if (turn == 0) {
      cell->next = a;
      a = cell;
      turn = 1;
    } else {
      cell->next = b;
      b = cell;
      turn = 0;
    }
    c = c->next;
  }
}

proc mergesort(x: list) returns (r: list) {
  local a, b, n: list;
  if (x == NULL) {
    r = clone(x);
  } else {
    n = x->next;
    if (n == NULL) {
      r = clone(x);
    } else {
      n = NULL;
      (a, b) = msplit(x);
      a = mergesort(a);
      b = mergesort(b);
      r = merge(a, b);
    }
  }
}

// ===== recursive variants (the paper analyzes both versions) ================

proc init_rec(x: list, v: int) returns (r: list) {
  local n, m: list;
  if (x == NULL) {
    r = NULL;
  } else {
    x->data = v;
    n = x->next;
    m = init_rec(n, v);
    x->next = NULL;
    x->next = m;
    r = x;
  }
}

proc mapadd_rec(x: list, v: int) returns (r: list) {
  local n, m: list;
  local e: int;
  if (x == NULL) {
    r = NULL;
  } else {
    e = x->data;
    x->data = e + v;
    n = x->next;
    m = mapadd_rec(n, v);
    x->next = NULL;
    x->next = m;
    r = x;
  }
}

proc max_rec(x: list) returns (m: int) {
  local n: list;
  local e, sub: int;
  m = 0;
  if (x != NULL) {
    e = x->data;
    n = x->next;
    if (n == NULL) {
      m = e;
    } else {
      sub = max_rec(n);
      if (e > sub) {
        m = e;
      } else {
        m = sub;
      }
    }
  }
}

proc clone_rec(x: list) returns (y: list) {
  local n, m, t: list;
  local e: int;
  if (x == NULL) {
    y = NULL;
  } else {
    e = x->data;
    n = x->next;
    m = clone_rec(n);
    t = new;
    t->data = e;
    t->next = m;
    y = t;
  }
}
"""


@dataclass(frozen=True)
class BenchEntry:
    """One row of the paper's Table 1."""

    name: str  # our procedure name
    paper_name: str  # name as printed in the paper
    cls: str  # sll / map / map2 / fold / fold2 / sort
    nesting: Tuple[Optional[int], Optional[int]]  # (loops, recursive calls)
    patterns: Tuple[str, ...]  # paper's pattern column
    paper_am_time: Optional[float]  # seconds, Intel i3-370M
    paper_au_time: Optional[float]


TABLE1: List[BenchEntry] = [
    BenchEntry("create", "create", "sll", (1, None), ("P=", "P1"), 0.013, 0.021),
    BenchEntry("addfst", "addfst", "sll", (0, None), ("P=",), 0.003, 0.002),
    BenchEntry("addlst", "addlst", "sll", (0, 1), ("P=",), 0.031, 0.033),
    BenchEntry("delfst", "delfst", "sll", (0, None), ("P=",), 0.001, 0.001),
    BenchEntry("dellst", "dellst", "sll", (0, 1), ("P=",), 0.034, 0.042),
    BenchEntry("init", "init(v)", "sll", (0, 1), ("P=", "P1"), 0.024, 0.034),
    BenchEntry("initSeq", "initSeq", "map", (0, 1), ("P=", "P1"), 0.024, 0.034),
    BenchEntry("mapadd", "add(v)", "map", (0, 1), ("P=",), 0.021, 0.032),
    BenchEntry("map2add", "add(v)", "map2", (0, 1), ("P=",), 0.089, 0.517),
    BenchEntry("copy", "copy", "map2", (0, 1), ("P=",), 0.063, 0.078),
    BenchEntry("delPred", "delPred", "fold", (0, 1), ("P=", "P1"), 0.062, 0.145),
    BenchEntry("max", "max", "fold", (0, 1), ("P=", "P1"), 0.031, 0.048),
    BenchEntry("clone", "clone", "fold", (0, 1), ("P=",), 0.071, 0.315),
    BenchEntry("split", "split", "fold", (0, 1), ("P=", "P1"), 0.245, 0.871),
    BenchEntry("equal", "equal", "fold2", (0, 1), ("P=",), 0.127, 0.261),
    BenchEntry("concat", "concat", "fold2", (0, 1), ("P=", "P1", "P2"), 0.217, 0.806),
    BenchEntry("merge", "merge", "fold2", (0, 1), ("P=", "P1", "P2"), 1.014, 2.306),
    BenchEntry("bubblesort", "bubble", "sort", (1, None), ("P=", "P1", "P2"), 0.387, 2.190),
    BenchEntry("insertsort", "insert", "sort", (1, None), ("P=", "P1", "P2"), 0.557, 3.292),
    BenchEntry("quicksort", "quick", "sort", (None, 2), ("P=", "P1", "P2"), 1.541, 121.1),
    BenchEntry("mergesort", "merge", "sort", (None, 2), ("P=", "P1", "P2"), 1.547, 95.94),
]


_CACHE: Dict[str, Program] = {}


def benchmark_program() -> Program:
    """The parsed, typechecked, normalized benchmark program."""
    if "program" not in _CACHE:
        _CACHE["program"] = parse_source(BENCHMARK_SOURCE)
    return _CACHE["program"]


def entry(name: str) -> BenchEntry:
    for e in TABLE1:
        if e.name == name:
            return e
    raise KeyError(f"no Table 1 entry for {name!r}")
