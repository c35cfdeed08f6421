"""The tabulating inter-procedural fixpoint engine (paper §4).

For each procedure and each *entry configuration* (an abstract heap over
the formals plus their ``$0`` snapshot) the engine keeps a record with the
per-node heap sets of the intra-procedural fixpoint and the summary (the
restricted exit heap set).  Call edges look summaries up (creating and
enqueueing records on demand) and register dependencies; when a summary
grows, its dependents are re-analyzed.

Widening is applied at intra-procedural loop heads and, for recursive
procedures, at the entry (the tabulated entry configuration is widened
when a new call brings a larger one) and at the exit (summaries are
widened instead of joined), exactly the three widening points of §4.

The *mechanics* of the fixpoint live in :mod:`repro.engine`: records are
keyed by stable canonical hashes (:mod:`repro.engine.canon`), scheduled
SCC-bottom-up (:mod:`repro.engine.scheduler`), reused across runs through
the summary cache (:mod:`repro.engine.cache`), and instrumented with
counters/timers/events (:mod:`repro.engine.telemetry`).  All of it is
controlled by one :class:`repro.engine.EngineOptions` bundle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import InterProcStrategy

from repro.datawords.base import LDWDomain
from repro.engine import EngineOptions, FifoScheduler, Scheduler, SummaryCache
from repro.engine.canon import (
    domain_descriptor,
    graph_hash,
    icfg_fingerprint,
)
from repro.lang import ast as A
from repro.lang.cfg import (
    CFG,
    ICFG,
    OpAssert,
    OpAssume,
    OpCall,
    icfg_uses_prev,
)
from repro.shape.abstract_heap import AbstractHeap
from repro.shape.graph import NULL, HeapGraph
from repro.shape.heap_set import HeapSet
from repro.core.localheap import (
    CallInfo,
    CutpointError,
    build_call_entry,
    compose_return,
    restrict_summary_exit,
)
from repro.core.transfer import Transfer


class AnalysisBudgetExceeded(Exception):
    """An analysis budget was exhausted.

    Carries structured fields so callers can surface a diagnostic instead
    of parsing the message: ``kind`` is one of ``"record_iterations"``,
    ``"entry_widenings"``, ``"global_steps"`` or ``"wall_clock"``;
    ``proc``/``record_key`` identify the offending record when applicable.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "budget",
        proc: Optional[str] = None,
        record_key: Optional[Tuple] = None,
        steps: Optional[int] = None,
        limit: Optional[int] = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.proc = proc
        self.record_key = record_key
        self.steps = steps
        self.limit = limit

    def to_dict(self) -> Dict[str, object]:
        return {
            "message": str(self),
            "kind": self.kind,
            "proc": self.proc,
            "record_key": self.record_key,
            "steps": self.steps,
            "limit": self.limit,
        }


# A record key is (procedure name, stable hash of the canonical entry
# backbone) -- see repro.engine.canon.graph_hash.
RecordKey = Tuple[str, str]


@dataclass
class Record:
    """One tabulated (procedure, entry configuration) pair."""

    proc: str
    entry: AbstractHeap
    states: Dict[int, HeapSet] = field(default_factory=dict)
    summary: HeapSet = field(default_factory=HeapSet.bottom)
    dependents: Set[RecordKey] = field(default_factory=set)
    iterations: int = 0
    # Monotone count of entry-configuration growths; unlike ``iterations``
    # it is never reset, bounding entry-widening livelocks.
    entry_widenings: int = 0
    # Dependency depth at creation (roots are 0, callee records one more
    # than their caller); orders records inside a call-graph SCC.
    depth: int = 0


# A hook called when composing a return:
#   hook(callee_name, call_info, exit_heap, combined_value,
#        node_rename, data_rename) -> value
StrengthenHook = Callable[..., object]


class Engine:
    """Runs the analysis of a whole program in one LDW domain."""

    def __init__(
        self,
        icfg: ICFG,
        domain: LDWDomain,
        k: int = 0,
        strengthen_hook: Optional[StrengthenHook] = None,
        assume_handler=None,
        max_record_iterations: Optional[int] = None,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
        opts: Optional[EngineOptions] = None,
    ):
        self.opts = opts if opts is not None else EngineOptions()
        self.icfg = icfg
        self.domain = domain
        self.transfer = Transfer(domain, k, dll=icfg_uses_prev(icfg))
        self.records: Dict[RecordKey, Record] = {}
        self.strengthen_hook = strengthen_hook
        self.assume_handler = assume_handler
        self.max_record_iterations = (
            max_record_iterations
            if max_record_iterations is not None
            else self.opts.max_record_iterations
        )
        self.max_entry_widenings = self.opts.max_entry_widenings
        self.max_steps = max_steps if max_steps is not None else self.opts.max_steps
        self.max_seconds = (
            max_seconds if max_seconds is not None else self.opts.max_seconds
        )
        self._deadline: Optional[float] = None
        self.steps = 0
        self.recursive = icfg.recursive_procs()
        self.telemetry = self.opts.make_telemetry()
        if self.opts.scheduler == "fifo":
            self.worklist = FifoScheduler()
        elif self.opts.scheduler == "scc":
            self.worklist = Scheduler(icfg.call_graph())
        else:
            raise ValueError(
                f"unknown scheduler policy {self.opts.scheduler!r} "
                "(expected 'scc' or 'fifo')"
            )
        self.cache: Optional[SummaryCache] = (
            self.opts.cache if self.opts.use_cache else None
        )
        self.wants_point_states = bool(self.opts.point_states)
        self.from_cache = False  # did the last analyze() restore a cached run?
        self.strategy: Optional["InterProcStrategy"] = None
        # Baseline of the process-wide exact-LP memo, so stats() can
        # report this run's hits/misses rather than cumulative totals.
        from repro.numeric import simplex as _simplex

        self._lp_stats_baseline = _simplex.cache_stats()

    # -- entry configurations -----------------------------------------------------------

    def generic_entries(self, proc: str) -> List[AbstractHeap]:
        """Most-general entry configurations for a root analysis: every
        pointer formal is independently NULL or a separate acyclic list."""
        cfg = self.icfg.cfg(proc)
        ptr_formals = [p.name for p in cfg.inputs if p.type == A.LIST]
        shapes: List[Dict[str, bool]] = [{}]
        for f in ptr_formals:
            shapes = [dict(s, **{f: null}) for s in shapes for null in (False, True)]
        entries = []
        for shape in shapes:
            entries.append(self._entry_for_shape(cfg, shape))
        return entries

    def _entry_for_shape(self, cfg: CFG, null_of: Dict[str, bool]) -> AbstractHeap:
        """Build the ICFG-level initial heap for one NULL/non-NULL shape,
        going through build_call_entry on a synthetic caller heap."""
        caller_graph_nodes: List[str] = []
        succ: Dict[str, str] = {}
        labels: Dict[str, str] = {}
        value = self.domain.top()
        i = 0
        args: List[str] = []
        for param in cfg.inputs:
            if param.type == A.INT:
                args.append(param.name + "$arg")
                continue
            var = param.name + "$arg"
            args.append(var)
            if null_of[param.name]:
                labels[var] = NULL
            else:
                node = f"a{i}"
                i += 1
                caller_graph_nodes.append(node)
                succ[node] = NULL
                labels[var] = node
        if self.transfer.dll:
            # Generic DLL arguments: each list is a well-formed doubly-
            # linked fragment whose head's prev is NULL.
            graph = HeapGraph(
                caller_graph_nodes,
                succ,
                labels,
                {n: NULL for n in caller_graph_nodes},
                frozenset(caller_graph_nodes),
                frozenset(),
            )
        else:
            graph = HeapGraph(caller_graph_nodes, succ, labels)
        heap = AbstractHeap(graph, value)
        op = OpCall(
            targets=tuple(p.name + "$res" for p in cfg.outputs),
            proc=cfg.proc_name,
            args=tuple(args),
        )
        info = build_call_entry(self.domain, heap, cfg, op)
        return info.entry_heap

    # -- records ---------------------------------------------------------------------------

    def _record_key(self, proc: str, entry: AbstractHeap) -> RecordKey:
        return (proc, graph_hash(entry.graph))

    def record_for(self, proc: str, entry: AbstractHeap) -> Optional[Record]:
        """Look up the tabulated record for an entry configuration (by
        canonical backbone), without creating or enqueueing one."""
        return self.records.get(self._record_key(proc, entry))

    def get_record(self, proc: str, entry: AbstractHeap, depth: int = 0) -> Record:
        """Find or create the record; widen its entry if the new one is larger."""
        entry = entry.canonicalize(self.domain)
        key = self._record_key(proc, entry)
        record = self.records.get(key)
        if record is None:
            record = Record(proc=proc, entry=entry, depth=depth)
            self.records[key] = record
            self.telemetry.count("records.created")
            self.telemetry.event("record.created", proc=proc, key=key[1], depth=depth)
            self._enqueue(key, record)
            return record
        if depth < record.depth:
            record.depth = depth
        if not entry.leq(record.entry, self.domain):
            record.entry_widenings += 1
            if record.entry_widenings > self.max_entry_widenings:
                raise AnalysisBudgetExceeded(
                    f"record {proc} widened its entry "
                    f"{record.entry_widenings} times "
                    f"(limit {self.max_entry_widenings}); "
                    "the entry widening is not stabilizing",
                    kind="entry_widenings",
                    proc=proc,
                    record_key=key,
                    steps=record.entry_widenings,
                    limit=self.max_entry_widenings,
                )
            joined = record.entry.join(entry, self.domain)
            if proc in self.recursive:
                record.entry = record.entry.widen(joined, self.domain)
            else:
                record.entry = joined
            record.states = {}
            # The iteration budget is per entry configuration; growth of the
            # entry starts a fresh intra-procedural fixpoint.  Livelock with
            # a non-stabilizing widening is caught by ``entry_widenings``,
            # which is monotone and bounded separately.
            record.iterations = 0
            self.telemetry.count("records.entry_widened")
            self.telemetry.event(
                "entry.widened",
                proc=proc,
                key=key[1],
                count=record.entry_widenings,
            )
            self._enqueue(key, record)
        return record

    def _enqueue(self, key: RecordKey, record: Record) -> None:
        self.worklist.push(key, record.proc, record.depth)

    # -- main loop ----------------------------------------------------------------------------

    def run(self) -> None:
        if self.max_seconds is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.max_seconds
        with self.telemetry.phase("fixpoint"):
            while self.worklist:
                key = self.worklist.pop()
                self._analyze_record(key)

    def analyze(
        self, proc: str, strategy: Optional["InterProcStrategy"] = None
    ) -> List[Record]:
        """Analyze a procedure through an inter-procedural strategy.

        The default :class:`repro.core.strategy.ExhaustiveStrategy` is
        the paper's bottom-up summary tabulation from the procedure's
        most-general entries; :class:`repro.core.strategy.DemandStrategy`
        scopes the run to the backward-relevant call cone of a single
        program-point query.  Returns the root records (one per entry
        shape).
        """
        from repro.core.strategy import ExhaustiveStrategy

        if strategy is None:
            strategy = ExhaustiveStrategy()
        self.strategy = strategy
        return strategy.run(self, proc)

    def tabulate_root(self, proc: str) -> List[Record]:
        """Tabulate a procedure from its most-general entries; returns
        the records (one per entry shape).  Strategies share this as the
        underlying fixpoint driver, which keeps their verdicts
        bit-identical by construction.

        When a summary cache is configured and holds this exact run
        (program, procedure, domain, patterns, fold bound, hooks), the
        whole record table is restored from it and no fixpoint runs.
        Under ``EngineOptions.point_states`` the cached payload must also
        carry per-node state tables; a cached run recorded without them
        is recomputed and the cache entry upgraded in place.
        """
        self.from_cache = False
        cache_key = self._cache_key(proc)
        if cache_key is not None and self.cache is not None:
            payload = self.cache.get(cache_key)
            if payload is not None:
                records_part, states_part = payload_parts(payload)
                if states_part is not None or not self.wants_point_states:
                    self.telemetry.count("cache.hits")
                    self.telemetry.event("cache.hit", proc=proc)
                    return self._notify_recorder(
                        self._restore_run(records_part, states_part, proc)
                    )
                # The cached run predates this point_states request:
                # recompute and upgrade the entry so the next hit
                # carries the state tables.
                self.telemetry.count("cache.state_upgrades")
                self.telemetry.event("cache.state_upgrade", proc=proc)
            else:
                self.telemetry.count("cache.misses")
                self.telemetry.event("cache.miss", proc=proc)
        records = [self.get_record(proc, e) for e in self.generic_entries(proc)]
        self.run()
        if cache_key is not None and self.cache is not None:
            self.cache.put(cache_key, self._run_payload())
        return self._notify_recorder(records)

    def _notify_recorder(self, records: List[Record]) -> List[Record]:
        """Invoke a callable ``point_states`` recorder on every finished
        record (fresh or cache-restored), in deterministic table order."""
        recorder = self.opts.point_states if callable(self.opts.point_states) else None
        if recorder is not None:
            for record in self.records.values():
                recorder(record)
        return records

    # -- run-level caching --------------------------------------------------------------------

    def _cache_key(self, proc: str) -> Optional[Tuple]:
        """The cache key for a root analysis, or None when the run is not
        cacheable (a hook without a declared ``cache_tag`` may close over
        arbitrary state, e.g. a stateful assertion checker)."""
        hook_tag = _hook_tag(self.strengthen_hook)
        assume_tag = _hook_tag(self.assume_handler)
        if hook_tag is None or assume_tag is None:
            return None
        return (
            icfg_fingerprint(self.icfg),
            proc,
            domain_descriptor(self.domain),
            self.transfer.k,
            hook_tag,
            assume_tag,
        )

    def _run_payload(self):
        """The cacheable run result.  The compact legacy shape is a list
        of ``(proc, entry, summary)`` triples; runs recorded under
        ``point_states`` use the dict shape that additionally carries
        each record's per-node state table (same order)."""
        records = [
            (record.proc, record.entry, record.summary)
            for record in self.records.values()
        ]
        if not self.wants_point_states:
            return records
        return {
            "records": records,
            "states": [dict(record.states) for record in self.records.values()],
        }

    def _restore_run(self, records_payload, states_payload, proc: str) -> List[Record]:
        self.from_cache = True
        for i, (callee, entry, summary) in enumerate(records_payload):
            key = self._record_key(callee, entry)
            record = Record(proc=callee, entry=entry, summary=summary)
            if states_payload is not None:
                record.states = dict(states_payload[i])
            self.records[key] = record
        self.telemetry.count("records.restored", len(records_payload))
        return [record for record in self.records.values() if record.proc == proc]

    # -- intra-procedural fixpoint ----------------------------------------------------------------

    def _analyze_record(self, key: RecordKey) -> None:
        record = self.records[key]
        record.iterations += 1
        if record.iterations > 1:
            self.telemetry.count("records.reanalyzed")
            self.telemetry.event(
                "record.rerun", proc=record.proc, key=key[1], run=record.iterations
            )
        if record.iterations > self.max_record_iterations:
            raise AnalysisBudgetExceeded(
                f"record {key[0]} exceeded {self.max_record_iterations} runs",
                kind="record_iterations",
                proc=record.proc,
                record_key=key,
                steps=record.iterations,
                limit=self.max_record_iterations,
            )
        cfg = self.icfg.cfg(record.proc)
        domain = self.domain
        states: Dict[int, HeapSet] = dict(record.states)
        entry_state = HeapSet.single(domain, record.entry)
        states[cfg.entry] = entry_state

        # Re-seed every known node: a re-analysis is usually triggered by a
        # callee summary growing, which changes a call edge's output even
        # though the state at its source is unchanged.
        pending: List[int] = [cfg.entry] + [
            n for n in sorted(states) if n != cfg.entry
        ]
        visits: Dict[int, int] = {}
        while pending:
            self.steps += 1
            if self.steps > self.max_steps:
                raise AnalysisBudgetExceeded(
                    f"global step budget exhausted while analyzing {record.proc}",
                    kind="global_steps",
                    proc=record.proc,
                    record_key=key,
                    steps=self.steps,
                    limit=self.max_steps,
                )
            # A step bound does not bound time: a single AU step can sink
            # minutes into exact-LP fallbacks, so fuzzing and other batch
            # drivers additionally cap wall-clock.
            if self._deadline is not None and time.monotonic() > self._deadline:
                raise AnalysisBudgetExceeded(
                    f"wall-clock budget exhausted while analyzing "
                    f"{record.proc}",
                    kind="wall_clock",
                    proc=record.proc,
                    record_key=key,
                    steps=self.steps,
                    limit=self.max_seconds,
                )
            node = pending.pop(0)
            state = states.get(node)
            if state is None or state.is_bottom():
                continue
            for edge in cfg.out_edges(node):
                out = self._post_edge(record, key, edge, state)
                if out is None or out.is_bottom():
                    continue
                old = states.get(edge.dst, HeapSet.bottom())
                if out.leq(old, domain):
                    continue
                visits[edge.dst] = visits.get(edge.dst, 0) + 1
                # Delayed widening: the first join at a loop head computes
                # the hull (where relational bounds like i <= n first
                # appear); widening starts one visit later so those bounds
                # can stabilize instead of being dropped.
                if edge.dst in cfg.widen_points and visits[edge.dst] > 3:
                    new = old.widen(out.join(old, domain), domain)
                    self.telemetry.count("widenings.loop")
                    self.telemetry.event(
                        "widening.applied",
                        proc=record.proc,
                        node=edge.dst,
                        visit=visits[edge.dst],
                    )
                else:
                    new = old.join(out, domain)
                states[edge.dst] = new
                if edge.dst not in pending:
                    pending.append(edge.dst)

        record.states = states
        exit_state = states.get(cfg.exit, HeapSet.bottom())
        summary = exit_state.map(
            domain,
            lambda h: [
                restrict_summary_exit(domain, h, cfg).fold(
                    domain, self.transfer.k
                )
            ],
        )
        if not summary.leq(record.summary, domain):
            if record.proc in self.recursive:
                record.summary = record.summary.widen(
                    summary.join(record.summary, domain), domain
                )
                self.telemetry.count("widenings.summary")
            else:
                record.summary = record.summary.join(summary, domain)
            self.telemetry.count("summaries.grew")
            self.telemetry.event(
                "summary.grew",
                proc=record.proc,
                key=key[1],
                dependents=len(record.dependents),
            )
            for dep in list(record.dependents):
                dep_record = self.records.get(dep)
                if dep_record is not None:
                    self._enqueue(dep, dep_record)

    # -- edges -------------------------------------------------------------------------------------

    def _post_edge(
        self, record: Record, key: RecordKey, edge, state: HeapSet
    ) -> Optional[HeapSet]:
        op = edge.op
        domain = self.domain
        if isinstance(op, OpCall):
            return self._post_call(record, key, op, state)
        if isinstance(op, (OpAssume, OpAssert)):
            if self.assume_handler is None:
                return state  # treated as skip when no assertion layer
            # Handlers that want source context (procedure, line) for
            # structured diagnostics opt in via a ``set_context`` method;
            # plain callables keep the bare (op, state, domain) protocol.
            set_context = getattr(self.assume_handler, "set_context", None)
            if set_context is not None:
                set_context(proc=record.proc, line=edge.line)
            return self.assume_handler(op, state, domain)
        return state.map(domain, lambda h: self.transfer.post(op, h))

    def _post_call(
        self, record: Record, key: RecordKey, op: OpCall, state: HeapSet
    ) -> HeapSet:
        domain = self.domain
        callee_cfg = self.icfg.cfg(op.proc)
        results: List[AbstractHeap] = []
        for heap in state:
            info = build_call_entry(domain, heap, callee_cfg, op)
            callee_record = self.get_record(
                op.proc, info.entry_heap, depth=record.depth + 1
            )
            callee_record.dependents.add(key)
            for exit_heap in callee_record.summary:
                strengthen = None
                if self.strengthen_hook is not None:
                    strengthen = lambda value, nr, dr, _eh=exit_heap, _info=info: (
                        self.strengthen_hook(op.proc, _info, _eh, value, nr, dr)
                    )
                composed = compose_return(
                    domain, heap, exit_heap, callee_cfg, op, info, strengthen
                )
                if composed is None:
                    continue
                composed = composed.gc(domain)
                composed = composed.fold(domain, self.transfer.k)
                if not composed.is_bottom(domain):
                    results.append(composed.canonicalize(domain))
        return HeapSet.of(domain, results)

    # -- results ---------------------------------------------------------------------------------------

    def summaries_of(self, proc: str) -> List[Tuple[AbstractHeap, HeapSet]]:
        out = []
        for record in self.records.values():
            if record.proc == proc:
                out.append((record.entry, record.summary))
        # Deterministic order independent of hash values: sort on the
        # canonical backbone key (matches the seed engine's ordering).
        out.sort(key=lambda pair: pair[0].graph.key())
        return out

    def stats(self) -> Dict[str, object]:
        """Counters, timers, scheduler and cache accounting for this run."""
        out: Dict[str, object] = {
            "records": len(self.records),
            "steps": self.steps,
            "from_cache": self.from_cache,
        }
        if self.strategy is not None:
            out["strategy"] = self.strategy.name
        out.update(self.telemetry.report())
        out["scheduler"] = self.worklist.stats()
        if self.cache is not None:
            # A persistent store's stats() also lists its directory, too
            # slow to pay after every run; its counters() touch no file.
            out["cache"] = getattr(self.cache, "counters", self.cache.stats)()
        from repro.numeric import simplex as _simplex

        lp_now = _simplex.cache_stats()
        out["lp_cache"] = {
            "solve_hits": lp_now["solve_hits"]
            - self._lp_stats_baseline["solve_hits"],
            "solve_misses": lp_now["solve_misses"]
            - self._lp_stats_baseline["solve_misses"],
            "solve_entries": lp_now["solve_entries"],
        }
        return out


def payload_parts(payload) -> Tuple[List[Tuple], Optional[List[Dict]]]:
    """Split a cached run payload into ``(records, states-or-None)``,
    accepting both the legacy list shape and the point-states dict shape
    (old disk stores keep working either way)."""
    if isinstance(payload, dict):
        return payload["records"], payload.get("states")
    return payload, None


def _hook_tag(hook) -> Optional[str]:
    """Cache tag of an engine hook: "" for no hook, the hook's declared
    ``cache_tag`` otherwise, or None (uncacheable) for anonymous hooks."""
    if hook is None:
        return ""
    return getattr(hook, "cache_tag", None)
