"""Content-addressed frontend cache of the serving tier.

Every job request carries the whole LISL source, and an IDE sends the
same text many times between two edits.  The parse artifacts are a pure
function of that text, so the :class:`FrontendCache` computes them once
per source and every verb, tenant and program id reads them from there:

- the normalized :class:`~repro.lang.ast.Program`, built on insertion;
- its ICFG, :class:`~repro.service.depindex.DependencyIndex` and
  :meth:`~repro.service.checkcache.CheckFindingCache.keys_for` keys,
  built on first use.

The key is the exact source string (dict lookup compares it in full, a
hash alone never decides a hit), because finding lines and the checker
keys are line-sensitive: an edit that only shifts lines must miss.
Source that does not parse raises and is not cached.  Shared entries are
read-only; the one write any reader makes is
:func:`repro.engine.canon.icfg_fingerprint`'s idempotent memo.  Two
requests racing on the same new source may both parse it; either result
is correct, and the later one stays resident.

What the cache does *not* share is everything tenant-specific: sessions,
cached findings and query answers stay per ``(tenant, program_id)``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.kernels import LRUMemo
from repro.lang import parse_source
from repro.lang.cfg import build_icfg
from repro.service.checkcache import CheckFindingCache
from repro.service.depindex import DependencyIndex


class Frontend:
    """The parse artifacts of one program: the :class:`FrontendCache`
    holds one per source text, and a :class:`~repro.service.session.Session`
    is built from one."""

    def __init__(self, program):
        self.program = program
        self._icfg = None
        self._index = None
        self._keys: Optional[Dict[str, Tuple[str, str]]] = None

    @property
    def icfg(self):
        if self._icfg is None:
            self._icfg = build_icfg(self.program)
        return self._icfg

    @property
    def index(self):
        if self._index is None:
            self._index = DependencyIndex.build(self.icfg)
        return self._index

    @property
    def keys(self) -> Dict[str, Tuple[str, str]]:
        """proc -> (Tier-A key, Tier-B key) for cached checker findings."""
        if self._keys is None:
            self._keys = CheckFindingCache.keys_for(
                self.program, self.icfg, self.index
            )
        return self._keys


class FrontendCache:
    """LRU-bounded ``source text -> Frontend`` map; thread-safe.

    ``max_entries`` is the gateway's ``max_sessions``: every resident
    session's current source can stay resident too.  One Table-1-sized
    entry (565 lines, 28 procedures) holds about 0.32 MB with every
    artifact built (tracemalloc), so the default 64 is about 20 MB.
    """

    def __init__(self, max_entries: int):
        self._lock = threading.Lock()
        self._frontends = LRUMemo(max(1, max_entries))

    def resolve(self, source: str) -> Tuple[Frontend, bool]:
        """The frontend of ``source`` and whether it was resident; a
        parse or type error propagates and caches nothing."""
        with self._lock:
            frontend = self._frontends.get(source)
        if frontend is not None:
            return frontend, True
        frontend = Frontend(parse_source(source))
        with self._lock:
            self._frontends.put(source, frontend)
        return frontend, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._frontends)
