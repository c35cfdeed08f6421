"""Hash-keyed in-memory summary cache.

The engine tabulates one record per ``(procedure, entry configuration)``
*within* a run, but the seed threw all of that work away between runs —
and the workloads re-run constantly: ``analyze_strengthened`` re-analyzes
the AM domain that ``check_equivalence`` just computed, equivalence checks
analyze both programs in both domains, and benchmarks repeat analyses for
timing.  This cache keys a whole run's record table by

    (program fingerprint, root procedure, domain descriptor,
     pattern set, fold bound k, hook tags)

so a repeated analysis is a dictionary lookup.  Caching whole record
tables (every ``(proc, entry, summary)`` of the run, not only the root's)
keeps the AM-strengthening hook exact: it looks up callee records of the
AM engine by entry key, and those must all be present on a hit.

Cross-run persistence is :class:`repro.parallel.store.PersistentSummaryStore`
(one file per key, safe for worker pools); it shares this module's
payload encoding, a base64 pickle inside JSON (summaries contain domain
values — exact rationals, polyhedra — with no faithful pure-JSON form).
"""

from __future__ import annotations

import base64
import pickle
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

CacheKey = Tuple  # (program_fp, proc, domain_desc, k, hook_tag, assume_tag)


def encode_payload(payload: Any) -> str:
    """Base64-pickle a run payload for a JSON store (see module docstring
    for why payloads have no faithful pure-JSON form)."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


def decode_payload(encoded: str) -> Any:
    return pickle.loads(base64.b64decode(encoded))


class SummaryCache:
    """An LRU cache of analysis-run payloads with accounting.

    A payload is whatever the engine wants to reuse — the engine stores a
    list of ``(proc, entry_heap, summary)`` triples covering every record
    of the run.  The cache treats payloads as opaque.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # -- lookup ----------------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, payload: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = payload
        self.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    # -- accounting -------------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "stores": self.stores,
            "evictions": self.evictions,
        }
