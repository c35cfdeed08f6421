"""Cross-run persistent summary store, shareable between worker processes.

:class:`~repro.engine.cache.SummaryCache` lives in one process's memory;
this module is the on-disk summary format, shared by a worker pool where
many processes publish results concurrently, and the only code that
reads or writes it.  Entries are **loose files**, one per cache key,
under a directory, so:

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

Payloads are a base64 pickle inside JSON (:func:`encode_payload`):
summaries contain domain values — exact rationals, polyhedra — with no
faithful pure-JSON form.  The store exposes the ``get``/``put``/
``stats`` surface of the in-memory cache, so it can be passed directly
as ``EngineOptions(cache=...)``.

**Pack files.**  One file per key does not survive millions of keys
(directory scans, inode pressure, per-file syscall overhead), so
:meth:`PersistentSummaryStore.compact` bundles the loose entries into an
immutable pack file under ``<directory>/packs/`` — one JSON object
holding many entries — and :meth:`~PersistentSummaryStore.gc` deletes
whole packs, oldest generation first, then the oldest loose files, until
the store fits a byte budget.  The gateway runs both through
:meth:`~PersistentSummaryStore.maintain` from a background task.  Reads
are pack-aware: a key that misses as a loose file is answered from the
newest pack that holds it.  Writes always go to loose files, and a pack
is published before the loose files it holds are unlinked, so a worker
writing concurrently with a compaction can never be torn or lost: the
worst case is a loose file and a pack both holding the byte-identical
content-addressed entry.

``python -m repro.parallel.store DIR --stats --compact --gc --max-bytes
N`` (also installed as ``repro-store``) runs the same maintenance
offline against any existing store directory.
"""

from __future__ import annotations

import base64
import hashlib
import inspect
import json
import os
import pickle
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.engine.cache import CacheKey
from repro.engine.canon import stable_digest
from repro.kernels import LRUMemo

# Bump when the on-disk entry layout (not the payload classes) changes.
SCHEMA_VERSION = 1
COMPACT_MIN_LOOSE = 256  # loose entries that make maintain() compact
PARSED_PACKS = 4  # packs a store keeps parsed in memory

_fingerprint_cache: Optional[str] = None


def encode_payload(payload: Any) -> str:
    """Base64-pickle a run payload for a JSON entry."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


def decode_payload(encoded: str) -> Any:
    return pickle.loads(base64.b64decode(encoded))


def schema_fingerprint() -> str:
    """Fingerprint of everything a pickled payload's validity depends on.

    Payloads are pickles of ``(proc, AbstractHeap, HeapSet)`` triples
    whose values are domain objects (polyhedra, words, rationals); a
    change to any of those class definitions can make old pickles load
    into stale or undefined states.  Hashing their module sources (every
    ``repro`` module an AM or AU payload loads a class from) makes
    entries written by different code versions miss instead.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro.datawords.multiset
        import repro.datawords.patterns
        import repro.datawords.universal
        import repro.numeric.linexpr
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
            repro.numeric.linexpr,
            repro.numeric.polyhedra,
            repro.datawords.multiset,
            repro.datawords.patterns,
            repro.datawords.universal,
        ):
            source = inspect.getsource(module).encode("utf-8")
            parts.append(hashlib.blake2b(source, digest_size=8).hexdigest())
        _fingerprint_cache = stable_digest(*parts)
    return _fingerprint_cache


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class PersistentSummaryStore:
    """A directory of loose one-file-per-key entries plus pack files.

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
        self.compactions = 0
        self.compacted_entries = 0
        self.gc_runs = 0
        self.gc_evicted_files = 0
        self.gc_evicted_bytes = 0
        # digest -> pack path over the pack files seen last, built lazily;
        # parsed packs are cached separately under a small bound.
        self._pack_files: List[str] = []
        self._pack_index: Dict[str, str] = {}
        self._parsed_packs = LRUMemo(PARSED_PACKS)

    # -- paths -----------------------------------------------------------------

    def _path(self, key: CacheKey) -> str:
        return os.path.join(self.directory, stable_digest(key) + ".json")

    @property
    def pack_directory(self) -> str:
        return os.path.join(self.directory, self.PACK_DIR)

    def _loose_paths(self) -> List[str]:
        """Published loose entries; a writer's in-flight ``.tmp-`` file
        is not one."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in names
            if name.endswith(".json") and not name.startswith(".tmp-")
        ]

    def _pack_paths(self) -> List[str]:
        """Pack files, oldest generation first."""
        try:
            names = os.listdir(self.pack_directory)
        except OSError:
            return []
        return [
            os.path.join(self.pack_directory, name)
            for name in sorted(names)
            if name.startswith("pack-") and name.endswith(".json")
        ]

    # -- pack index ------------------------------------------------------------

    def _index(self) -> Dict[str, str]:
        """digest -> path of the newest pack holding it.  New packs that
        sort after every known one (a compaction) are folded in; any
        other change to the pack set rebuilds the index."""
        files = self._pack_paths()
        if files == self._pack_files:
            return self._pack_index
        known = len(self._pack_files)
        if files[:known] != self._pack_files:
            self._pack_index, known = {}, 0
        for path in files[known:]:
            for digest in self._load_pack(path):
                self._pack_index[digest] = path
        self._pack_files = files
        return self._pack_index

    def _load_pack(self, path: str) -> Dict[str, Any]:
        entries = self._parsed_packs.get(path)
        if entries is None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entries = json.load(fh).get("entries") or {}
            except Exception:
                self.disk_errors += 1
                entries = {}
            self._parsed_packs.put(path, entries)
        return entries

    def _get_from_packs(self, digest: str) -> Optional[Any]:
        path = self._index().get(digest)
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
            _unlink(path)  # self-invalidate: a stale entry never hits again
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
            _unlink(tmp)
            return
        self.stores += 1

    # -- queries ---------------------------------------------------------------

    def __contains__(self, key: CacheKey) -> bool:
        if os.path.exists(self._path(key)):
            return True
        return stable_digest(key) in self._index()

    def loose_count(self) -> int:
        return len(self._loose_paths())

    def packed_count(self) -> int:
        return len(self._index())

    def __len__(self) -> int:
        return self.loose_count() + self.packed_count()

    def total_bytes(self) -> int:
        """On-disk footprint: loose entries plus pack files."""
        return sum(map(_size, self._loose_paths() + self._pack_paths()))

    def clear(self) -> None:
        for path in self._loose_paths() + self._pack_paths():
            _unlink(path)
        self._pack_files = []
        self._pack_index = {}
        self._parsed_packs.clear()

    # -- maintenance -----------------------------------------------------------

    def maintain(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """One maintenance step: compact once ``COMPACT_MIN_LOOSE`` loose
        entries have piled up, then GC down to ``max_bytes`` (None: no
        budget).  Cheap when there is nothing to do."""
        out = {"compacted": 0, "gc_files": 0, "gc_bytes": 0}
        if self.loose_count() >= COMPACT_MIN_LOOSE:
            out["compacted"] = self.compact()
        if max_bytes is not None and self.total_bytes() > max_bytes:
            gc = self.gc(max_bytes)
            out["gc_files"] = gc["evicted_files"]
            out["gc_bytes"] = gc["evicted_bytes"]
        return out

    def compact(self) -> int:
        """Bundle the current loose entries into one new pack; returns
        the number of entries packed.

        Publication order is the safety argument: the pack is fully
        written and ``os.replace``-d into ``packs/`` *before* any loose
        file is unlinked, so a concurrent reader always finds every key
        in at least one place, and a concurrent writer's fresh loose
        file (same content-addressed bytes) simply wins the next read.
        """
        entries: Dict[str, Any] = {}
        packed_files = []
        for path in sorted(self._loose_paths()):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except Exception:
                continue  # torn/corrupt loose file: leave it alone
            if doc.get("fingerprint") != self.fingerprint:
                _unlink(path)  # stale generation: drop instead of packing
                continue
            entries[os.path.basename(path)[: -len(".json")]] = doc
            packed_files.append(path)
        if not entries:
            return 0
        os.makedirs(self.pack_directory, exist_ok=True)
        seq = self._next_generation()
        content_tag = stable_digest(sorted(entries))[:8]
        pack_name = f"pack-{seq:08d}-{content_tag}.json"
        fd, tmp = tempfile.mkstemp(
            dir=self.pack_directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "schema": "repro-pack/1",
                        "generation": seq,
                        "created": time.time(),
                        "fingerprint": self.fingerprint,
                        "entries": entries,
                    },
                    fh,
                )
            os.replace(tmp, os.path.join(self.pack_directory, pack_name))
        except Exception:
            _unlink(tmp)
            return 0
        for path in packed_files:
            _unlink(path)
        self.compactions += 1
        self.compacted_entries += len(entries)
        return len(entries)

    def _next_generation(self) -> int:
        latest = 0
        for path in self._pack_paths():
            try:
                latest = max(latest, int(os.path.basename(path).split("-")[1]))
            except (IndexError, ValueError):
                pass
        return latest + 1

    def gc(self, max_bytes: Optional[int]) -> Dict[str, int]:
        """Evict until the store fits ``max_bytes`` (None: evict
        nothing).  Oldest pack generations go first, then the oldest
        loose files by mtime.  Evicting is always safe: the store caches
        deterministic results, so a later miss recomputes the
        byte-identical payload."""
        if max_bytes is None:
            return {"evicted_files": 0, "evicted_bytes": 0,
                    "bytes": self.total_bytes()}

        def mtime(path):
            try:
                return os.path.getmtime(path)
            except OSError:
                return 0.0

        packs = self._pack_paths()
        loose = sorted(self._loose_paths(), key=mtime)
        total = sum(map(_size, packs + loose))
        evicted_files = evicted_bytes = 0
        for path in packs + loose:
            if total <= max_bytes:
                break
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted_files += 1
            evicted_bytes += size
        self.gc_runs += 1
        self.gc_evicted_files += evicted_files
        self.gc_evicted_bytes += evicted_bytes
        return {
            "evicted_files": evicted_files,
            "evicted_bytes": evicted_bytes,
            "bytes": total,
        }

    # -- accounting ------------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """The counters plus the directory's size, which lists the store
        and stats every loose file and pack."""
        loose = self._loose_paths()
        packed = self.packed_count()
        packs = self._pack_files  # the listing the index was checked against
        return {
            "entries": len(loose) + packed,
            "loose": len(loose),
            "packed": packed,
            "packs": len(packs),
            "bytes": sum(map(_size, loose + packs)),
            **self.counters(),
        }

    def counters(self) -> Dict[str, Any]:
        """This instance's in-memory counters; touches no file."""
        return {
            "hits": self.hits,
            "pack_hits": self.pack_hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "stores": self.stores,
            "stale_discards": self.stale_discards,
            "disk_errors": self.disk_errors,
            "compactions": self.compactions,
            "compacted_entries": self.compacted_entries,
            "gc_runs": self.gc_runs,
            "gc_evicted_files": self.gc_evicted_files,
            "gc_evicted_bytes": self.gc_evicted_bytes,
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
    ap.add_argument("--json", action="store_true",
                    help="print accounting as JSON")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 2
    store = PersistentSummaryStore(args.directory)
    report: Dict[str, Any] = {"directory": args.directory}
    if args.compact:
        report["compacted"] = store.compact()
    if args.gc:
        report["gc"] = store.gc(args.max_bytes)
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
