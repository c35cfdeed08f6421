"""Content-hash dependency index with SCC-granular invalidation.

The summary-based analysis of the paper is naturally incremental: a root
procedure's analysis run is a pure function of the procedures *reachable*
from it in the call graph (its **cone**) — nothing else.  This module
makes that dependency structure explicit and hashable:

- every procedure gets a **body hash**: a stable digest of its normalized
  CFG (statement alphabet of §2, widening points included), so textual
  noise that normalizes away does not invalidate anything;
- every procedure gets a **cone fingerprint**: a digest of the body
  hashes of its reachable set (itself included).  Editing procedure ``p``
  changes exactly the cone fingerprints of the procedures that can reach
  ``p`` — the *dirty cone* — and provably nothing below or beside it;
- cones are computed per call-graph SCC (mutually recursive procedures
  share a cone), so invalidation is SCC-granular, matching the shard
  unit of :mod:`repro.parallel.shard`.

:class:`ConeKeyedStore` applies the fingerprints to the PR 3 persistent
store: the engine keys a root run by the *whole-program* fingerprint
(``icfg_fingerprint``), which any edit invalidates wholesale.  Rewriting
that component to the root's cone fingerprint keeps every clean cone's
entry valid across edits, while dirty cones miss — which is exactly the
minimal re-analysis set.  Soundness of the rewrite: the cached payload
(the run's full record table) depends only on the root's cone, which the
cone fingerprint captures in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine.canon import stable_digest
from repro.engine.scheduler import tarjan_scc


def body_hash(cfg) -> str:
    """Stable digest of one procedure's normalized body (its CFG)."""
    return stable_digest(cfg.proc_name, str(cfg), tuple(sorted(cfg.widen_points)))


@dataclass(frozen=True)
class DirtyCone:
    """The diff of two dependency indexes over the same procedure space.

    ``changed`` are procedures whose own body hash differs; ``dirty`` is
    the upward closure (everything whose cone fingerprint changed —
    i.e. everything that can reach a changed procedure); ``clean`` is the
    rest, whose summaries remain byte-valid.
    """

    changed: FrozenSet[str]
    dirty: FrozenSet[str]
    clean: FrozenSet[str]
    added: FrozenSet[str]
    removed: FrozenSet[str]

    @property
    def size(self) -> int:
        return len(self.dirty)

    def describe(self) -> str:
        return (
            f"dirty cone: {len(self.dirty)}/{len(self.dirty) + len(self.clean)}"
            f" proc(s) (edited: {', '.join(sorted(self.changed)) or 'none'})"
        )


class DependencyIndex:
    """Per-procedure body hashes, SCC structure, and cone fingerprints."""

    def __init__(
        self,
        bodies: Dict[str, str],
        call_graph: Dict[str, Set[str]],
    ):
        self.bodies = dict(bodies)
        self.call_graph = {p: set(cs) for p, cs in call_graph.items()}
        self._cones: Dict[str, str] = {}
        self._scc_of: Dict[str, int] = {}
        self._sccs: List[Tuple[str, ...]] = []
        self._compute()

    @staticmethod
    def build(icfg) -> "DependencyIndex":
        bodies = {name: body_hash(icfg.cfg(name)) for name in icfg.cfgs}
        return DependencyIndex(bodies, icfg.call_graph())

    # -- cone fingerprints -------------------------------------------------------

    def _compute(self) -> None:
        """Reachable sets per SCC (members plus dependency-SCC closure),
        then one cone fingerprint per procedure."""
        components = tarjan_scc(self.call_graph)  # callees-first
        reach: List[Set[str]] = []
        scc_of: Dict[str, int] = {}
        for rank, component in enumerate(components):
            for proc in component:
                scc_of[proc] = rank
        for rank, component in enumerate(components):
            cone: Set[str] = set(component)
            for proc in component:
                for callee in self.call_graph.get(proc, ()):
                    dep = scc_of.get(callee)
                    if dep is not None and dep != rank:
                        cone |= reach[dep]
            reach.append(cone)
        self._sccs = [tuple(sorted(c)) for c in components]
        self._scc_of = scc_of
        for proc, rank in scc_of.items():
            self._cones[proc] = stable_digest(
                tuple(sorted((q, self.bodies[q]) for q in reach[rank]))
            )

    def cone_fingerprint(self, proc: str) -> str:
        return self._cones[proc]

    def cone_fingerprints(self) -> Dict[str, str]:
        return dict(self._cones)

    def scc_of(self, proc: str) -> Tuple[str, ...]:
        return self._sccs[self._scc_of[proc]]

    def scc_count(self) -> int:
        return len(self._sccs)

    # -- diffing -----------------------------------------------------------------

    def diff(self, new: "DependencyIndex") -> DirtyCone:
        """The dirty cone of replacing this index's program with ``new``'s.

        Added procedures are dirty by definition (no prior summary);
        removed procedures appear only in ``removed``.  A procedure whose
        body is unchanged but whose cone fingerprint differs (a callee
        changed underneath it) is dirty but not ``changed``.
        """
        old_procs = set(self.bodies)
        new_procs = set(new.bodies)
        shared = old_procs & new_procs
        changed = frozenset(
            p for p in shared if self.bodies[p] != new.bodies[p]
        )
        dirty = frozenset(
            p
            for p in shared
            if self._cones[p] != new._cones[p]
        ) | frozenset(new_procs - old_procs)
        return DirtyCone(
            changed=changed,
            dirty=dirty,
            clean=frozenset(shared - dirty),
            added=frozenset(new_procs - old_procs),
            removed=frozenset(old_procs - new_procs),
        )

    def describe(self) -> str:
        lines = [f"dependency index: {len(self.bodies)} proc(s), {len(self._sccs)} SCC(s)"]
        for scc in self._sccs:
            cone = self._cones[scc[0]][:12]
            lines.append(f"  {{{','.join(scc)}}} cone={cone}")
        return "\n".join(lines)


class ConeKeyedStore:
    """Wrap a summary store, rewriting engine cache keys to cone keys.

    The engine's run-level cache key is ``(program_fp, root, domain, k,
    hook_tag, assume_tag)``.  This wrapper replaces ``program_fp`` with
    the root's cone fingerprint before delegating, so entries survive
    edits outside the root's cone.  Everything else (atomicity, schema
    fingerprints, accounting) is the wrapped store's.
    """

    def __init__(self, store, cone_fingerprints: Dict[str, str]):
        self.store = store
        self.cones = cone_fingerprints

    def _rewrite(self, key):
        if isinstance(key, tuple) and len(key) >= 2 and key[1] in self.cones:
            return (self.cones[key[1]],) + tuple(key[1:])
        return key

    def get(self, key) -> Optional[Any]:
        return self.store.get(self._rewrite(key))

    def put(self, key, payload) -> None:
        self.store.put(self._rewrite(key), payload)

    def __contains__(self, key) -> bool:
        return self._rewrite(key) in self.store

    def __len__(self) -> int:
        return len(self.store)

    def stats(self) -> Dict[str, Any]:
        return self.store.stats()

    def counters(self) -> Dict[str, Any]:
        return self.store.counters()
