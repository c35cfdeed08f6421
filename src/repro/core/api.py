"""User-facing facade: parse, analyze, inspect summaries.

Typical use::

    from repro import Analyzer
    analyzer = Analyzer.from_source(source_text)
    result = analyzer.analyze("quicksort", domain="am")
    print(result.describe())

The pattern-choice heuristic of §7 (`choose_patterns`) picks the guard
patterns per procedure from its syntax: ``P=`` always (parameter/entry
equality), ``P1`` when there is at least one loop or recursive call
traversing a list, ``P2`` for nested loops or two and more recursive
calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.datawords.multiset import MultisetDomain
from repro.datawords.patterns import PatternSet, pattern_set
from repro.datawords.universal import UniversalDomain
from repro.engine import EngineOptions, SummaryCache
from repro.engine.canon import graph_hash, heapset_hash
from repro.lang import parse_source
from repro.lang.cfg import ICFG, build_icfg
from repro.shape.abstract_heap import AbstractHeap
from repro.shape.heap_set import HeapSet
from repro.core.interproc import AnalysisBudgetExceeded, Engine
from repro.core.strategy import (
    DemandStrategy,
    ExhaustiveStrategy,
    InterProcStrategy,
    backward_cone,
)


def choose_patterns(icfg: ICFG, proc: str) -> PatternSet:
    """The paper's §7 heuristic for the AU guard patterns of a procedure.

    ``P=`` always; ``P1`` with a loop or recursive call; ``P2`` with
    nesting or two and more recursive calls.  Spec formulas extend the
    choice (the paper lets the user propose patterns): ``sorted`` needs
    the order pattern ``P2``.
    """
    from repro.lang.cfg import OpAssert, OpAssume

    cfg = icfg.cfg(proc)
    loops = cfg.loop_count()
    rec = icfg.recursion_count(proc)
    names = ["P="]
    if loops >= 1 or rec >= 1:
        names.append("P1")
    if loops >= 2 or rec >= 2:
        names.append("P2")
    for edge in cfg.edges:
        if isinstance(edge.op, (OpAssert, OpAssume)):
            for atom in edge.op.formula.atoms:
                if atom.kind == "sorted":
                    names.extend(["P1", "P2"])
    return pattern_set(*names)


@dataclass
class Diagnostic:
    """A structured analysis problem surfaced instead of a traceback."""

    kind: str  # e.g. "record_iterations" | "entry_widenings" | "global_steps"
    message: str
    proc: Optional[str] = None
    record_key: Optional[Tuple] = None
    steps: Optional[int] = None
    limit: Optional[int] = None

    @staticmethod
    def from_budget(exc: AnalysisBudgetExceeded) -> "Diagnostic":
        return Diagnostic(
            kind=exc.kind,
            message=str(exc),
            proc=exc.proc,
            record_key=exc.record_key,
            steps=exc.steps,
            limit=exc.limit,
        )

    def __str__(self) -> str:
        where = f" in {self.proc}" if self.proc else ""
        return f"[{self.kind}{where}] {self.message}"


@dataclass
class AnalysisResult:
    """Summaries of one procedure in one domain.

    ``stats`` carries the engine's telemetry for the run (record,
    widening, step, scheduler and cache counters); ``diagnostics`` is
    non-empty when the analysis hit a budget and the summaries are
    partial (see :meth:`ok`).
    """

    proc: str
    domain_name: str  # "au" or "am"
    domain: object
    summaries: List[Tuple[AbstractHeap, HeapSet]]
    engine: Engine
    stats: Dict[str, object] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def describe(self) -> str:
        lines = [f"== {self.proc} ({self.domain_name}) =="]
        for diag in self.diagnostics:
            lines.append(f"diagnostic: {diag}")
        for entry, summary in self.summaries:
            lines.append(f"entry: {entry.graph!r}")
            lines.append(summary.describe(self.domain))
        return "\n".join(lines)

    def summary_hashes(self) -> List[Tuple[str, str]]:
        """``(graph_hash(entry), heapset_hash(summary))`` per summary, in
        ``summaries`` order: the canonical, process-independent
        fingerprint that identity gates and baselines compare."""
        return [
            (graph_hash(entry.graph), heapset_hash(summary, self.domain))
            for entry, summary in self.summaries
        ]

    def exit_heaps(self) -> List[AbstractHeap]:
        out = []
        for _, summary in self.summaries:
            out.extend(summary)
        return out


class Analyzer:
    """Parses a program once; runs per-procedure analyses on demand.

    Every analyzer owns a :class:`SummaryCache` shared by all of its
    ``analyze`` calls, so repeated analyses of the same procedure in the
    same domain (benchmarks, equivalence checks, the AM pass that
    ``analyze_strengthened`` repeats) are dictionary lookups.  Pass
    ``engine_opts=EngineOptions(use_cache=False)`` to bypass it, or an
    ``EngineOptions(cache=...)`` to share a cache (possibly disk-backed)
    across analyzers.

    ``icfg`` is the program's prebuilt ICFG when the caller already
    holds one (the serving tier's frontend cache); it is only read.
    """

    def __init__(
        self,
        program,
        cache: Optional[SummaryCache] = None,
        icfg: Optional[ICFG] = None,
    ):
        self.program = program
        self.icfg = icfg if icfg is not None else build_icfg(program)
        self.cache = cache if cache is not None else SummaryCache()

    @staticmethod
    def from_source(source: str, cache: Optional[SummaryCache] = None) -> "Analyzer":
        return Analyzer(parse_source(source), cache=cache)

    def make_domain(self, domain: str, proc: Optional[str] = None, patterns=None):
        if domain == "am":
            return MultisetDomain()
        if domain == "au":
            if patterns is None:
                patterns = (
                    choose_patterns(self.icfg, proc)
                    if proc is not None
                    else pattern_set("P=", "P1")
                )
            return UniversalDomain(patterns)
        raise ValueError(f"unknown domain {domain!r}")

    def analyze(
        self,
        proc: str,
        domain: str = "au",
        patterns=None,
        k: int = 0,
        strengthen_hook=None,
        assume_handler=None,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
        engine_opts: Optional[EngineOptions] = None,
        strategy: Optional[InterProcStrategy] = None,
    ) -> AnalysisResult:
        ldw = self.make_domain(domain, proc, patterns)
        if strengthen_hook is not None and hasattr(strengthen_hook, "au_domain"):
            strengthen_hook.au_domain = ldw
        opts = engine_opts if engine_opts is not None else EngineOptions()
        if opts.cache is None and opts.use_cache:
            opts = dataclasses.replace(opts, cache=self.cache)
        engine = Engine(
            self.icfg,
            ldw,
            k=k,
            strengthen_hook=strengthen_hook,
            assume_handler=assume_handler,
            max_steps=max_steps,
            max_seconds=max_seconds,
            opts=opts,
        )
        diagnostics: List[Diagnostic] = []
        try:
            engine.analyze(proc, strategy=strategy)
        except AnalysisBudgetExceeded as exc:
            diagnostics.append(Diagnostic.from_budget(exc))
        finally:
            engine.telemetry.close()
        stats = engine.stats()
        if strategy is not None:
            stats.update(strategy.stats())
        return AnalysisResult(
            proc=proc,
            domain_name=domain,
            domain=ldw,
            summaries=engine.summaries_of(proc),
            engine=engine,
            stats=stats,
            diagnostics=diagnostics,
        )

    def analyze_batch(
        self,
        procs: Optional[List[str]] = None,
        domains=("au",),
        jobs: int = 1,
        k: int = 0,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
        store_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
        trace_path: Optional[str] = None,
        on_outcome=None,
    ):
        """Analyze many procedures on a worker pool (one task per root and
        domain, sharded along call-graph SCCs — see :mod:`repro.parallel`).

        Returns a :class:`repro.parallel.batch.BatchReport` whose
        outcomes are in deterministic (shard, root, domain) order;
        ``jobs=0`` runs the same requests inline as a sequential
        baseline.  Summaries of a parallel run are identical to the
        corresponding ``analyze`` calls.
        """
        from repro.parallel.batch import plan_requests, run_batch

        requests = plan_requests(
            self,
            procs=procs,
            domains=domains,
            k=k,
            max_steps=max_steps,
            max_seconds=max_seconds,
            store_dir=store_dir,
            trace_dir=trace_dir,
        )
        return run_batch(
            requests, jobs=jobs, trace_path=trace_path, on_outcome=on_outcome
        )

    def open_session(
        self,
        store_dir: Optional[str] = None,
        jobs: int = 0,
        max_seconds: Optional[float] = None,
    ):
        """Open an incremental analysis session on this program.

        A session (:class:`repro.service.session.Session`) tracks the
        program's call-graph dependency structure; after
        ``session.update_source(edited)`` the next ``session.analyze()``
        re-analyzes only the dirty cone, answering clean roots from
        retained results and the cone-keyed persistent store
        (``store_dir``; a session-private temporary store when None).
        Warm results are hash-identical to a cold run by construction.
        """
        from repro.service.frontend import Frontend
        from repro.service.session import Session

        return Session(
            Frontend(self.program),
            store_dir=store_dir,
            jobs=jobs,
            max_seconds=max_seconds,
        )

    def analyze_strengthened(
        self,
        proc: str,
        patterns=None,
        k: int = 0,
        assume_handler=None,
        max_steps: Optional[int] = None,
        engine_opts: Optional[EngineOptions] = None,
    ) -> AnalysisResult:
        """The paper's combined analysis (§6.2): AHS(AM) first, then
        AHS(AU) with strengthen_M applied at every procedure return."""
        am_result = self.analyze(
            proc, domain="am", max_steps=max_steps, engine_opts=engine_opts
        )
        hook = make_am_strengthen_hook(am_result.engine)
        result = self.analyze(
            proc,
            domain="au",
            patterns=patterns,
            k=k,
            strengthen_hook=hook,
            assume_handler=assume_handler,
            max_steps=max_steps,
            engine_opts=engine_opts,
        )
        result.am_result = am_result
        result.diagnostics = am_result.diagnostics + result.diagnostics
        return result


def make_am_strengthen_hook(am_engine: Engine):
    """Build the return-edge hook applying strengthen_M (paper eq. J).

    At a return being composed in the AU analysis, the matching AM summary
    (same callee, same entry backbone, same exit backbone) is renamed with
    the very same node/data maps and σ¹_M imports its multiset facts into
    the combined AU value.
    """
    from repro.core.combine import sigma_m_strengthen
    from repro.core.localheap import _rename_data_map

    am_domain = am_engine.domain

    from repro.datawords import terms as dw_terms

    def hook(callee, info, exit_heap, combined_value, node_rename, data_rename):
        if hook.au_domain is None:  # pragma: no cover - defensive
            return combined_value
        record = am_engine.record_for(callee, info.entry_heap)
        if record is None:
            return combined_value
        for am_exit in record.summary:
            if am_exit.graph.key() != exit_heap.graph.key():
                continue
            am_value = am_domain.rename_words(am_exit.value, node_rename)
            data_support = {
                t
                for t in am_value.support()
                if dw_terms.word_of(t) is None
            }
            data_map = {d: data_rename.get(d, f"$ret_{d}") for d in data_support}
            am_value = _rename_data_map(am_domain, am_value, data_map)
            return sigma_m_strengthen(hook.au_domain, combined_value, am_value)
        return combined_value

    hook.au_domain = None
    # The hook is a pure function of the AM engine's tabulated records,
    # which are themselves determined by (program, root proc, domain) --
    # all part of the summary-cache key -- so runs using it are cacheable.
    hook.cache_tag = "strengthen-am"
    return hook
