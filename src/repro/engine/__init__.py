"""The analysis engine subsystem: scheduling, caching, observability.

The tabulating fixpoint of :mod:`repro.core.interproc` is the *semantics*
of the inter-procedural analysis (paper §4); this package is its
*machinery* — the parts that decide in which order records are analyzed,
which results can be reused, and what the engine reports about its own
work:

- :mod:`repro.engine.canon` — canonical labeling and stable content
  hashing of backbone graphs, abstract heaps and heap sets (cached on the
  objects), plus program fingerprints for cache keys;
- :mod:`repro.engine.cache` — a summary cache keyed by
  ``(program, procedure, domain, patterns, k, hooks)`` with hit/miss/
  eviction accounting, held in memory (the on-disk store is
  :mod:`repro.parallel.store`);
- :mod:`repro.engine.scheduler` — a priority worklist that condenses the
  call graph into SCCs (Tarjan) and analyzes the condensation bottom-up,
  ordering records within an SCC by dependency depth;
- :mod:`repro.engine.telemetry` — counters, phase timers and an opt-in
  JSONL event trace with a ``report()`` summary.

:class:`EngineOptions` is the single knob bundle threaded from
``Analyzer.analyze(..., engine_opts=...)`` down to the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.cache import SummaryCache
from repro.engine.canon import (
    domain_descriptor,
    graph_hash,
    heap_hash,
    heapset_hash,
    icfg_fingerprint,
    stable_digest,
)
from repro.engine.scheduler import FifoScheduler, Scheduler, condensation, tarjan_scc
from repro.engine.telemetry import Telemetry, merge_traces


@dataclass
class EngineOptions:
    """Tuning and observability knobs for the tabulating engine.

    ``scheduler`` selects the worklist policy: ``"scc"`` (default) is the
    SCC-condensation priority worklist, ``"fifo"`` the seed engine's flat
    FIFO (kept for differential testing).  ``cache`` is a shared
    :class:`SummaryCache`; ``use_cache=False`` bypasses it for one run.
    ``trace_path``/``collect_events`` opt into the JSONL event trace.

    ``point_states`` makes per-program-point abstract states a
    first-class run output: every ``Record.states`` is guaranteed
    populated after ``analyze`` even when the run is answered from the
    summary cache (state tables ride along in the cached payload, and a
    cached run recorded without them is transparently recomputed and
    upgraded in place).  Pass a callable instead of ``True`` to also
    have it invoked with each finished :class:`Record` — a streaming
    recorder hook for checkers that consume states as they appear.
    Before this capability existed, per-point consumers (the Tier-B
    safety checker, the termination prover) had to run with
    ``use_cache=False``, which is exactly the anti-pattern it replaces.
    """

    scheduler: str = "scc"
    cache: Optional[SummaryCache] = None
    use_cache: bool = True
    # False | True | callable(record) -> None (see class docstring).
    point_states: object = False
    trace_path: Optional[str] = None
    collect_events: bool = False
    max_record_iterations: int = 60
    max_entry_widenings: int = 25
    max_steps: int = 200_000
    max_seconds: Optional[float] = None  # wall-clock cap on the fixpoint

    def make_telemetry(self) -> Telemetry:
        return Telemetry(
            trace_path=self.trace_path, collect_events=self.collect_events
        )


__all__ = [
    "EngineOptions",
    "SummaryCache",
    "Scheduler",
    "FifoScheduler",
    "Telemetry",
    "merge_traces",
    "condensation",
    "tarjan_scc",
    "stable_digest",
    "graph_hash",
    "heap_hash",
    "heapset_hash",
    "icfg_fingerprint",
    "domain_descriptor",
]
