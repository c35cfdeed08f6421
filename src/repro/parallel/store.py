"""Cross-run persistent summary store, shareable between worker processes.

:class:`~repro.engine.cache.SummaryCache` lives in one process's memory;
this store is the on-disk summary format, shared by a worker pool where
many processes publish results concurrently.  It keeps **one file per
cache key** under a directory, so:

- writes are atomic and race-free: an entry is written to a unique
  temporary file in the same directory and ``os.replace``-d into place
  (readers see either the old entry or the new one, never a torn write);
- workers need no locks — the engine's cache keys are content hashes of
  ``(program, procedure, domain, patterns, k, hooks)``, so two workers
  racing on the same key are writing byte-identical payloads;
- entries self-invalidate: every entry records a *schema fingerprint*
  hashing the store layout version, the Python/pickle versions, and the
  source of the classes inside pickled payloads.  When any of those
  change, old entries silently miss (and are unlinked) instead of being
  unpickled into a wrong or crashing shape.

Payload encoding is shared with :mod:`repro.engine.cache` (base64 pickle
inside JSON), and the store exposes the same ``get``/``put``/``stats``
surface, so it can be passed directly as ``EngineOptions(cache=...)``.

**Pack files.**  One file per key does not survive millions of keys
(directory scans, inode pressure, per-file syscall overhead), so the
gateway's store tier (:mod:`repro.gateway.storetier`) periodically
*compacts* cold loose entries into immutable pack files under
``<directory>/packs/`` — one JSON object holding many entries.  Reads
here are pack-aware: a key that misses as a loose file is answered from
the newest pack that holds it.  Writes always go to loose files (packs
are immutable; GC deletes whole packs oldest-generation-first), so a
worker writing concurrently with a compaction can never be torn: the
worst case is a loose file and a pack both holding the byte-identical
content-addressed entry.

``python -m repro.parallel.store DIR --stats --gc --max-bytes N`` (also
installed as ``repro-store``) runs offline maintenance against any
existing store directory.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import sys
import tempfile
from typing import Any, Dict, Optional

from repro.engine.cache import CacheKey, decode_payload, encode_payload
from repro.engine.canon import stable_digest

# Bump when the on-disk entry layout (not the payload classes) changes.
SCHEMA_VERSION = 1

_fingerprint_cache: Optional[str] = None


def schema_fingerprint() -> str:
    """Fingerprint of everything a pickled payload's validity depends on.

    Payloads are pickles of ``(proc, AbstractHeap, HeapSet)`` triples
    whose values are domain objects (polyhedra, words, rationals); a
    change to any of those class definitions can make old pickles load
    into stale or undefined states.  Hashing their module sources makes
    entries written by different code versions miss instead.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro.datawords.multiset
        import repro.datawords.universal
        import repro.numeric.polyhedra
        import repro.shape.abstract_heap
        import repro.shape.graph
        import repro.shape.heap_set

        parts = [
            SCHEMA_VERSION,
            sys.version_info[:2],
            pickle.HIGHEST_PROTOCOL,
        ]
        for module in (
            repro.shape.graph,
            repro.shape.abstract_heap,
            repro.shape.heap_set,
            repro.numeric.polyhedra,
            repro.datawords.multiset,
            repro.datawords.universal,
        ):
            source = inspect.getsource(module).encode("utf-8")
            parts.append(hashlib.blake2b(source, digest_size=8).hexdigest())
        _fingerprint_cache = stable_digest(*parts)
    return _fingerprint_cache


class PersistentSummaryStore:
    """A directory of one-file-per-key analysis payloads.

    API-compatible with :class:`SummaryCache` where the engine needs it
    (``get``/``put``/``stats``/``__len__``/``__contains__``), so a store
    can be handed to ``EngineOptions(cache=...)`` and shared by every
    worker of a pool and by later runs of the same program.
    """

    PACK_DIR = "packs"

    def __init__(self, directory: str, fingerprint: Optional[str] = None):
        self.directory = directory
        self.fingerprint = fingerprint or schema_fingerprint()
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.pack_hits = 0
        self.stores = 0
        self.stale_discards = 0
        self.disk_errors = 0
        # digest -> pack path, lazily (re)built from the packs dir; the
        # loaded-pack cache keeps recently-read packs parsed in memory.
        self._pack_index: Optional[Dict[str, str]] = None
        self._pack_files: frozenset = frozenset()
        self._loaded_packs: Dict[str, Dict[str, Any]] = {}

    # -- paths -----------------------------------------------------------------

    def _path(self, key: CacheKey) -> str:
        return os.path.join(self.directory, stable_digest(key) + ".json")

    @property
    def pack_directory(self) -> str:
        return os.path.join(self.directory, self.PACK_DIR)

    # -- pack index ------------------------------------------------------------

    def _list_packs(self) -> frozenset:
        try:
            return frozenset(
                name
                for name in os.listdir(self.pack_directory)
                if name.startswith("pack-") and name.endswith(".json")
            )
        except OSError:
            return frozenset()

    def _refresh_pack_index(self) -> Dict[str, str]:
        """(Re)build digest -> pack path.  Packs are scanned newest
        generation first, so a digest present in several packs resolves
        to its freshest copy."""
        files = self._list_packs()
        if self._pack_index is not None and files == self._pack_files:
            return self._pack_index
        index: Dict[str, str] = {}
        for name in sorted(files, reverse=True):
            path = os.path.join(self.pack_directory, name)
            entries = self._load_pack(path)
            for digest in entries:
                index.setdefault(digest, path)
        self._pack_files = files
        self._pack_index = index
        self._loaded_packs = {
            path: doc
            for path, doc in self._loaded_packs.items()
            if os.path.basename(path) in files
        }
        return index

    def _load_pack(self, path: str) -> Dict[str, Any]:
        doc = self._loaded_packs.get(path)
        if doc is not None:
            return doc
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            entries = loaded.get("entries") or {}
        except Exception:
            self.disk_errors += 1
            entries = {}
        self._loaded_packs[path] = entries
        return entries

    def _get_from_packs(self, digest: str) -> Optional[Any]:
        index = self._refresh_pack_index()
        path = index.get(digest)
        if path is None:
            return None
        doc = self._load_pack(path).get(digest)
        if doc is None:
            return None
        if doc.get("fingerprint") != self.fingerprint:
            self.stale_discards += 1
            return None
        try:
            payload = decode_payload(doc["payload"])
        except Exception:
            self.disk_errors += 1
            return None
        self.pack_hits += 1
        return payload

    # -- lookup ----------------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            payload = self._get_from_packs(stable_digest(key))
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
            return payload
        except Exception:
            self.disk_errors += 1
            self.misses += 1
            return None
        if doc.get("fingerprint") != self.fingerprint:
            self.stale_discards += 1
            self.misses += 1
            try:  # self-invalidate: a stale entry will never hit again
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            payload = decode_payload(doc["payload"])
        except Exception:
            self.disk_errors += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: CacheKey, payload: Any) -> None:
        try:
            doc = {
                "fingerprint": self.fingerprint,
                "key": repr(key),
                "payload": encode_payload(payload),
            }
        except Exception:
            self.disk_errors += 1
            return
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)  # atomic on POSIX: no torn reads
        except Exception:
            self.disk_errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1

    # -- queries ---------------------------------------------------------------

    def __contains__(self, key: CacheKey) -> bool:
        if os.path.exists(self._path(key)):
            return True
        return stable_digest(key) in self._refresh_pack_index()

    def loose_count(self) -> int:
        try:
            return sum(
                1
                for name in os.listdir(self.directory)
                if name.endswith(".json") and not name.startswith(".tmp-")
            )
        except OSError:
            return 0

    def packed_count(self) -> int:
        return len(self._refresh_pack_index())

    def __len__(self) -> int:
        return self.loose_count() + self.packed_count()

    def total_bytes(self) -> int:
        """On-disk footprint: loose entries plus pack files."""
        total = 0
        try:
            for name in os.listdir(self.directory):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    try:
                        total += os.path.getsize(
                            os.path.join(self.directory, name)
                        )
                    except OSError:
                        pass
        except OSError:
            return total
        for name in self._list_packs():
            try:
                total += os.path.getsize(os.path.join(self.pack_directory, name))
            except OSError:
                pass
        return total

    def clear(self) -> None:
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        for name in self._list_packs():
            try:
                os.unlink(os.path.join(self.pack_directory, name))
            except OSError:
                pass
        self._pack_index = None
        self._pack_files = frozenset()
        self._loaded_packs.clear()

    # -- accounting ------------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self),
            "loose": self.loose_count(),
            "packed": self.packed_count(),
            "packs": len(self._list_packs()),
            "bytes": self.total_bytes(),
            "hits": self.hits,
            "pack_hits": self.pack_hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "stores": self.stores,
            "stale_discards": self.stale_discards,
            "disk_errors": self.disk_errors,
        }


def main(argv=None) -> int:
    """``repro-store`` / ``python -m repro.parallel.store``: offline
    maintenance (stats, compaction, GC) for an existing store directory.

    Safe against a concurrently writing worker: compaction only bundles
    loose files it has fully read (content-addressed keys make a racing
    re-write byte-identical), packs are written atomically, and GC only
    unlinks whole files.
    """
    import argparse

    from repro.gateway.storetier import CompactingStore, StoreBudget

    ap = argparse.ArgumentParser(
        prog="repro-store",
        description="maintain a persistent summary store directory",
    )
    ap.add_argument("directory", help="store directory (as passed to --store)")
    ap.add_argument("--stats", action="store_true",
                    help="print entry/byte/pack accounting")
    ap.add_argument("--compact", action="store_true",
                    help="bundle loose entries into a pack file")
    ap.add_argument("--gc", action="store_true",
                    help="evict oldest generations until under --max-bytes")
    ap.add_argument("--max-bytes", type=int, default=None,
                    help="byte budget for --gc (default: keep everything)")
    ap.add_argument("--min-loose", type=int, default=1,
                    help="compact only when at least this many loose files")
    ap.add_argument("--json", action="store_true",
                    help="print accounting as JSON")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 2
    budget = StoreBudget(
        max_bytes=args.max_bytes, compact_min_loose=max(1, args.min_loose)
    )
    store = CompactingStore(args.directory, budget=budget)
    report: Dict[str, Any] = {"directory": args.directory}
    if args.compact:
        report["compacted"] = store.compact()
    if args.gc:
        report["gc"] = store.gc()
    if args.stats or not (args.compact or args.gc):
        report["stats"] = store.stats()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k, v in value.items():
                    print(f"  {k:<16} {v}")
            else:
                print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
