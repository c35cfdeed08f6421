"""In-memory span tracer that wraps the public functions of each layer.

The program is not modified: :meth:`Tracer.install` rebinds the named
functions and methods to timing wrappers from outside, and
:meth:`Tracer.uninstall` restores them.  A module-level function is
rebound in *every* ``repro`` module that imported it by name, so a
caller that bound it at import (``from repro.numeric.linalg import rref
as _rref``) is traced too.

Each span records its layer name, start, end and the index of the span
that was open when it started.  A layer's self time is its span's
duration minus the durations of its direct child spans; self times over
all layers therefore add up to the duration of the outermost spans,
which is what :meth:`Tracer.reconcile` checks.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (layer, module, attribute path).  An attribute path with a dot names a
# method on a class; ``*`` stands for every public method the class
# itself defines.
SPANS: List[Tuple[str, str, str]] = [
    ("lang.frontend", "repro.lang.parser", "parse_program"),
    ("lang.frontend", "repro.lang.typecheck", "typecheck_program"),
    ("lang.frontend", "repro.lang.normalize", "normalize_program"),
    ("lang.icfg", "repro.lang.cfg", "build_icfg"),
    ("core.analyze", "repro.core.api", "Analyzer.analyze"),
    ("shape.heapset_join", "repro.shape.heap_set", "HeapSet.join"),
    ("shape.heapset_widen", "repro.shape.heap_set", "HeapSet.widen"),
    ("shape.canonical", "repro.shape.graph", "HeapGraph.canonical"),
    ("shape.canonical", "repro.shape.graph", "HeapGraph.key"),
    ("datawords.am", "repro.datawords.multiset", "MultisetDomain.*"),
    ("datawords.au", "repro.datawords.universal", "UniversalDomain.*"),
    ("numeric.rref", "repro.numeric.linalg", "rref"),
    ("numeric.lp", "repro.numeric.simplex", "solve_lp"),
    ("numeric.lp", "repro.numeric.simplex", "entails"),
    ("numeric.lp", "repro.numeric.simplex", "is_feasible"),
    ("numeric.lp", "repro.numeric.simplex", "minimize_constraints"),
    ("numeric.poly_join", "repro.numeric.polyhedra", "Polyhedron.join"),
    ("numeric.poly_minimize", "repro.numeric.polyhedra", "Polyhedron.minimized"),
    ("service.client", "repro.service.client", "ServiceClient.request"),
]

# Calls counted separately from their layer's span (a layer span covers
# every public method; these are the single methods an optimisation of
# the join path would move).
JOIN_METHODS = {"MultisetDomain.join", "UniversalDomain.join"}


class Tracer:
    """Spans kept in flat arrays; per-layer self time accumulated on close."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.join_calls = 0
        self._open: List[int] = []  # indices of open spans
        self._child: List[float] = []  # child time of each open span
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._layer_ids[layer]

    def _wrap(self, fn: Callable, layer: str, is_join: bool) -> Callable:
        lid = self._layer_id(layer)
        perf = time.perf_counter
        opened, child = self._open, self._child
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        tracer = self

        def span(*args, **kwargs):
            index = len(names)
            names.append(lid)
            parents.append(opened[-1] if opened else -1)
            starts.append(0.0)
            ends.append(0.0)
            opened.append(index)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                opened.pop()
                below = child.pop()
                starts[index] = t0
                ends[index] = t1
                tracer.self_s[lid] += (t1 - t0) - below
                tracer.calls[lid] += 1
                if is_join:
                    tracer.join_calls += 1
                if child:
                    child[-1] += t1 - t0

        span.__wrapped__ = fn
        return span

    # -- installing --------------------------------------------------------

    def install(self, only_prefixes: Tuple[str, ...] = ()) -> "Tracer":
        """Wrap every entry of :data:`SPANS` (or those whose layer starts
        with one of ``only_prefixes``)."""
        for layer, modname, attr in SPANS:
            if only_prefixes and not layer.startswith(only_prefixes):
                continue
            module = importlib.import_module(modname)
            if "." not in attr:
                self._wrap_function(module, attr, layer)
                continue
            clsname, meth = attr.split(".")
            cls = getattr(module, clsname)
            names = (
                [m for m, v in vars(cls).items()
                 if not m.startswith("_") and callable(v)]
                if meth == "*" else [meth]
            )
            for m in names:
                original = vars(cls)[m]
                self._restore.append((cls, m, original))
                setattr(cls, m, self._wrap(
                    original, layer, f"{clsname}.{m}" in JOIN_METHODS))
        return self

    def _wrap_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, layer, False)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int], int]:
        """Current per-layer self seconds, call counts and join calls."""
        self_s = {layer: self.self_s[i] for i, layer in enumerate(self.layers)}
        calls = {layer: self.calls[i] for i, layer in enumerate(self.layers)}
        return self_s, calls, self.join_calls

    def reconcile(self) -> Tuple[float, float]:
        """``(sum of all self times, sum of outermost span durations)``;
        the two agree when every span's time is attributed exactly once."""
        total_self = sum(self.self_s)
        outer = sum(
            self.end[i] - self.start[i]
            for i in range(len(self.name))
            if self.parent[i] == -1
        )
        return total_self, outer

    def write(self, path) -> None:
        """Write every span as a JSON line: layer, start, end, parent."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": self.layers}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]}]\n"
                )
