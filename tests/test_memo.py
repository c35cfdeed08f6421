"""The bounded LRU memo behind every kernel memo and in-process cache.

``kernels.LRUMemo`` is the one LRU implementation: the LP, entailment,
join, ``minimized()`` and guard memos are registered instances (``kernels.memo``), and the run-level ``SummaryCache`` and
the serving tier's frontend and finding caches hold one each.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import threading
from pathlib import Path

import pytest

from repro import Analyzer, SummaryCache, kernels
from repro.datawords import patterns
from repro.engine.canon import graph_hash, heapset_hash
from repro.lang.benchlib import benchmark_program
from repro.numeric import simplex
from repro.numeric.linexpr import Constraint, LinExpr

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


@pytest.fixture(autouse=True)
def _fresh_memos():
    kernels.set_mode("fast")
    yield
    kernels.set_mode("fast")


def _au_hashes(name):
    result = Analyzer(benchmark_program()).analyze(name, domain="au")
    return sorted(
        [graph_hash(entry.graph), heapset_hash(summary, result.domain)]
        for entry, summary in result.summaries
    )


def test_summary_cache_is_the_memo_type():
    assert SummaryCache is kernels.LRUMemo
    assert set(SummaryCache().stats()) == {
        "entries", "hits", "misses", "hit_rate", "stores", "evictions"}


def test_threads_share_a_memo_safely():
    memo = kernels.LRUMemo(16)
    lookups = [0] * 8
    errors = []

    def hammer(k):
        try:
            for n in range(3000):
                key = (k * 7 + n * 13) % 48
                if n % 3:
                    lookups[k] += 1
                    value = memo.get(key)
                    assert value is None or value == ("v", key)
                else:
                    memo.put(key, ("v", key))
                assert len(memo) <= 16
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert memo.hits + memo.misses == sum(lookups)
    assert memo.hits and memo.evictions


def test_solve_memo_evicts_one_entry_at_a_time(monkeypatch):
    bound = 4
    monkeypatch.setattr(simplex._SOLVE_CACHE, "max_entries", bound)
    x = LinExpr.var("x")
    systems = [[Constraint.ge(x, i)] for i in range(bound + 1)]
    for system in systems:
        simplex.solve_lp(system, x)
    assert len(simplex._SOLVE_CACHE) == bound
    hits = simplex.cache_stats()["solve_hits"]
    simplex.solve_lp(systems[-1], x)
    assert simplex.cache_stats()["solve_hits"] == hits + 1
    simplex.solve_lp(systems[0], x)  # the least recently used: evicted
    assert simplex.cache_stats()["solve_hits"] == hits + 1


def test_eviction_never_changes_summaries(monkeypatch):
    golden = json.loads(REFERENCES.read_text())["table1_hashes"]
    for memo in kernels._MEMOS:
        monkeypatch.setattr(memo, "max_entries", 2)
    for name in ("create", "delfst"):
        assert _au_hashes(name) == golden[f"{name}/au"]
    assert all(len(memo) <= 2 for memo in kernels._MEMOS)
    assert sum(memo.evictions for memo in kernels._MEMOS) > 0


def test_set_mode_clears_every_registered_memo():
    assert patterns._GUARD_CACHE in kernels._MEMOS
    _au_hashes("create")
    assert all(len(memo) for memo in kernels._MEMOS)
    kernels.set_mode(kernels.mode())
    assert not any(len(memo) for memo in kernels._MEMOS)


@pytest.mark.parametrize("package", ["repro.numeric", "repro.datawords"])
def test_no_module_level_memo_dicts(package):
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if name.endswith(("_CACHE", "_STATS")):
                assert not isinstance(value, dict), f"{info.name}.{name}"
