"""Kernel mode switch: optimized vs reference numeric/heap kernels.

The cold-path speed program (fast integer simplex in slack space,
memoized entailment, incremental canonicalization, heap-set join
pre-filters) keeps every optimized kernel behind this switch, paired
with the original reference implementation.  The contract is *representation
identity*: with the same inputs, the fast and reference paths must
produce summaries whose canonical stable hashes are bit-identical —
the fuzz lane (``python -m repro.fuzz --check-kernels``) and the
corpus-wide suite in ``tests/test_kernels.py`` enforce it.

Default is ``fast``; set ``REPRO_KERNELS=reference`` (or call
:func:`set_mode`) to run the unoptimized baseline.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager

FAST_MODE = "fast"
REFERENCE_MODE = "reference"

_VALID = (FAST_MODE, REFERENCE_MODE)

# Module-level flag read directly by the hot paths (attribute access is
# the cheapest call-site test Python offers).
FAST: bool = os.environ.get("REPRO_KERNELS", FAST_MODE) != REFERENCE_MODE


class LRUMemo:
    """A bounded map that evicts its least recently used entry, with
    hit/miss/store/eviction counters; ``clear`` also zeroes them.

    ``get`` answers None on a miss, so values must not be None.  One
    lock guards entries and counters, so threads may share a memo and
    a lookup that races an eviction is a miss.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.stores = self.evictions = 0

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def peek(self, key):
        """``get`` that counts nothing and leaves the order alone."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def pop(self, key):
        with self._lock:
            return self._entries.pop(key, None)

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.stores = self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "stores": self.stores,
            "evictions": self.evictions,
        }


_MEMOS: list = []


def memo(max_entries: int) -> LRUMemo:
    """A kernel memo: an :class:`LRUMemo` that :func:`set_mode` clears."""
    made = LRUMemo(max_entries)
    _MEMOS.append(made)
    return made


def mode() -> str:
    return FAST_MODE if FAST else REFERENCE_MODE


def set_mode(new_mode: str) -> None:
    """Switch kernel mode and clear every kernel memo.

    Memo entries are representation-identical across modes (that is
    the identity gate), but clearing them keeps differential timing
    honest: a reference run never rides on results the fast path
    computed.
    """
    if new_mode not in _VALID:
        raise ValueError(f"unknown kernel mode {new_mode!r}")
    global FAST
    FAST = new_mode != REFERENCE_MODE
    for made in _MEMOS:
        made.clear()


@contextmanager
def mode_ctx(new_mode: str):
    """Temporarily run under ``new_mode`` (used by the identity gates)."""
    old = mode()
    set_mode(new_mode)
    try:
        yield
    finally:
        set_mode(old)
