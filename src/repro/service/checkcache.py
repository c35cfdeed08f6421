"""Warm per-procedure checker-finding cache of the serving tier.

The ``check`` verb caches findings per procedure under keys that track
exactly what each tier's findings depend on (PR 5/6 semantics):

- Tier-A lints are a pure function of one procedure's body, so they are
  cached under its body hash — *folded* with a line/declaration
  signature, because the normalized-CFG hashes deliberately ignore
  source lines and never-referenced locals while lint findings carry
  lines and the unused-local lint is about declarations;
- Tier-B safety and termination verdicts depend on the whole call cone
  (the engine analyzes callees transitively), so they are cached under
  the cone fingerprint — the same key the incremental analyzer trusts —
  plus the same line signature.

This class holds the key computation, the dirty/reused partition, and
the merge-and-answer bookkeeping, per ``(tenant, program_id)`` owner.
Owners are kept in LRU order under ``max_owners`` (the gateway passes
its ``max_sessions``): a new owner past the bound drops the
least-recently-used owner's findings and query answers.  It is
thread-safe because the server's executor threads share it.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.kernels import LRUMemo


Owner = Tuple[str, str]  # (tenant, program_id)


class CheckFindingCache:
    """``(tenant, program_id)`` -> per-procedure cached findings, keyed
    per tier."""

    def __init__(self, max_owners: int):
        self._lock = threading.Lock()
        # owner -> {"config": (tier, domain, k),
        #           "procs": {proc: {"lint": (key, [records]),
        #                            "safety": (key, [records], status),
        #                            "termination": (key, [records], status)}},
        #           "queries": {(proc, line, rule, domain, k):
        #                       (cone key, answer JSON)}}
        self._caches = LRUMemo(max(1, max_owners))

    def _touch(self, owner: Owner) -> Dict[str, Any]:
        """The owner's cache, marked most recently used; evicts past
        ``max_owners``.  Call while holding the lock."""
        cache = self._caches.get(owner)
        if cache is None:
            cache = {}
            self._caches.put(owner, cache)
        return cache

    def __len__(self) -> int:
        with self._lock:
            return len(self._caches)

    @staticmethod
    def keys_for(program, icfg, index) -> Dict[str, Tuple[str, str]]:
        """proc -> (Tier-A key, Tier-B key) for cached checker findings."""
        from repro.engine.canon import stable_digest

        proc_lines = {p.name: p.line for p in program.procedures}
        keys: Dict[str, Tuple[str, str]] = {}
        for proc in index.bodies:
            cfg = icfg.cfg(proc)
            signature = (
                proc_lines.get(proc, 0),
                tuple(
                    (p.name, p.type, p.line)
                    for p in list(cfg.inputs) + list(cfg.outputs)
                    + list(cfg.locals)
                ),
                tuple(e.line for e in cfg.edges),
            )
            keys[proc] = (
                stable_digest(index.bodies[proc], signature),
                stable_digest(index.cone_fingerprint(proc), signature),
            )
        return keys

    def partition(
        self,
        owner: Owner,
        config: Tuple[str, str, int],
        requested: List[str],
        keys: Dict[str, Tuple[str, str]],
        want_lint: bool,
        want_safety: bool,
        want_termination: bool,
    ) -> Tuple[List[str], Dict[str, Dict[str, Any]]]:
        """The dirty subset of ``requested`` (procedures whose cached
        findings are missing or keyed differently), and a snapshot of
        the reused procedures' entries to pass to
        :meth:`merge_and_answer`.  The snapshot is taken under the lock,
        so a concurrent request on the same owner (another source, an
        eviction, a flush) cannot change what this request answers.  A
        config change (tier/domain/k) invalidates the whole program's
        cache."""
        with self._lock:
            cache = self._touch(owner)
            if cache.get("config") != config:
                cache.clear()
                cache.update(config=config, procs={})
            cached: Dict[str, Dict[str, Any]] = cache["procs"]
            dirty: List[str] = []
            reused: Dict[str, Dict[str, Any]] = {}
            for proc in requested:
                entry = cached.get(proc, {})
                lint_ok = (not want_lint) or (
                    "lint" in entry and entry["lint"][0] == keys[proc][0]
                )
                safety_ok = (not want_safety) or (
                    "safety" in entry and entry["safety"][0] == keys[proc][1]
                )
                # Termination verdicts depend on the whole call cone
                # (callee summaries feed the recursion/loop checks), so
                # they share Tier B's cone-fingerprint key.
                termination_ok = (not want_termination) or (
                    "termination" in entry
                    and entry["termination"][0] == keys[proc][1]
                )
                if lint_ok and safety_ok and termination_ok:
                    reused[proc] = dict(entry)
                else:
                    dirty.append(proc)
        return dirty, reused

    def merge_and_answer(
        self,
        owner: Owner,
        config: Tuple[str, str, int],
        requested: List[str],
        reused: Dict[str, Dict[str, Any]],
        keys: Dict[str, Tuple[str, str]],
        fresh: Dict[str, Any],
        want_lint: bool,
        want_safety: bool,
        want_termination: bool,
    ) -> Tuple[List[Dict[str, Any]], Dict[str, str]]:
        """Answer every requested procedure from ``reused`` (the
        snapshot :meth:`partition` returned) and the ``fresh`` results
        of the rest, and store the fresh entries in the owner's cache
        unless its config changed meanwhile; returns (sorted records,
        proc_status)."""
        answered: Dict[str, Dict[str, Any]] = {}
        for proc in requested:
            if proc in reused:
                answered[proc] = reused[proc]
                continue
            entry = answered[proc] = {}
            if want_lint:
                entry["lint"] = (keys[proc][0], fresh["lint"].get(proc, []))
            if want_safety:
                entry["safety"] = (
                    keys[proc][1],
                    fresh["safety"].get(proc, []),
                    fresh["proc_status"].get(proc, "ok"),
                )
            if want_termination:
                entry["termination"] = (
                    keys[proc][1],
                    fresh["termination"].get(proc, []),
                    fresh["termination_status"].get(proc, "ok"),
                )
        with self._lock:
            cache = self._touch(owner)
            if "config" not in cache:  # evicted or flushed meanwhile
                cache.update(config=config, procs={})
            if cache["config"] == config:
                for proc, entry in answered.items():
                    if proc not in reused:
                        cache["procs"].setdefault(proc, {}).update(entry)
        records: List[Dict[str, Any]] = []
        proc_status: Dict[str, str] = {}
        for proc in requested:
            entry = answered[proc]
            if want_lint:
                records.extend(entry["lint"][1])
            if want_safety:
                records.extend(entry["safety"][1])
                if entry["safety"][2] != "ok":
                    proc_status[proc] = entry["safety"][2]
            if want_termination:
                records.extend(entry["termination"][1])
                if entry["termination"][2] != "ok":
                    proc_status[proc] = entry["termination"][2]
        records.sort(
            key=lambda r: (
                r.get("procedure") or "",
                r.get("line") or 0,
                r.get("ruleId") or "",
                r.get("verdict") or "",
                r.get("message") or "",
            )
        )
        return records, proc_status

    # -- demand-query answers --------------------------------------------------
    #
    # A query answer for (proc, line, rule, domain, k) is a pure function
    # of the proc's backward call cone, so it is cached under the same
    # cone-fingerprint key Tier-B findings use.  The query cache is keyed
    # independently of the check verb's (tier, domain, k) config -- a
    # query carries its own domain/k in its key -- but ``partition``'s
    # config-change clear wipes it along with everything else (it is only
    # a cache).

    def query_get(
        self,
        owner: Owner,
        query_key: Tuple,
        cone_key: str,
    ) -> Optional[Dict[str, Any]]:
        """The cached answer, or None when missing or cone-stale."""
        with self._lock:
            cache = self._caches.get(owner)
            if cache is None:
                return None
            entry = (cache.get("queries") or {}).get(query_key)
            if entry is None or entry[0] != cone_key:
                return None
            return copy.deepcopy(entry[1])

    def query_put(
        self,
        owner: Owner,
        query_key: Tuple,
        cone_key: str,
        answer: Dict[str, Any],
    ) -> None:
        with self._lock:
            cache = self._touch(owner)
            cache.setdefault("queries", {})[query_key] = (
                cone_key,
                copy.deepcopy(answer),
            )

    def flush(
        self, tenant: Optional[str] = None, program_id: Optional[str] = None
    ) -> int:
        """Drop the cached findings and query answers of every owner
        that matches both filters (``None`` matches any); returns the
        count of dropped entries."""
        dropped = 0
        with self._lock:
            owners = [
                owner
                for owner in self._caches.keys()
                if tenant in (None, owner[0]) and program_id in (None, owner[1])
            ]
            for owner in owners:
                cache = self._caches.pop(owner)
                dropped += len(cache.get("procs") or {})
                dropped += len(cache.get("queries") or {})
        return dropped
