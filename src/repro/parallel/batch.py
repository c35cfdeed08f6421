"""Batch analysis: fan analysis requests out over the worker pool.

A :class:`AnalysisRequest` is a self-contained, picklable description of
one root analysis (program, procedure, domain, fold bound, budgets,
store/trace locations).  The worker entry point
:func:`run_analysis_request` rebuilds an :class:`~repro.core.api.
Analyzer` in the worker process, runs the analysis (with the shared
:class:`~repro.parallel.store.PersistentSummaryStore` as its summary
cache when configured), and returns a slim :class:`AnalysisOutput` —
summaries, their canonical hashes, diagnostics, and engine stats; never
live engine objects.

Determinism: every request is analyzed by the same sequential engine a
direct ``Analyzer.analyze`` call uses, in a fresh engine instance, so a
request's output is a pure function of the request — independent of
worker interleaving.  ``run_batch`` then orders outcomes by submission
order, so a parallel batch equals the sequential batch result-for-result
(asserted over the whole corpus in ``tests/test_parallel.py``).
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineOptions
from repro.engine.telemetry import merge_traces
from repro.parallel.pool import BUDGET, OK, PoolTask, TaskOutcome, WorkerPool

# Budget-diagnostic kinds that downgrade an "ok" worker report: the
# analysis completed with *partial* summaries.
_BUDGET_KINDS = {
    "record_iterations",
    "entry_widenings",
    "global_steps",
    "wall_clock",
}


@dataclass
class AnalysisRequest:
    """One root analysis, picklable for dispatch to a worker."""

    task_id: str
    program: Any  # a normalized repro.lang.ast.Program
    proc: str
    domain: str = "au"
    k: int = 0
    strengthened: bool = False  # AHS(AM) then AHS(AU) with strengthen_M
    max_steps: Optional[int] = None
    max_seconds: Optional[float] = None
    store_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    deps: Tuple[str, ...] = ()
    # How store entries are keyed: "program" uses the whole-program
    # fingerprint (any edit invalidates everything); "cone" rewrites it to
    # the root's call-graph cone fingerprint, so entries survive edits
    # outside the cone (the incremental service's mode — see
    # repro.service.depindex.ConeKeyedStore).
    key_mode: str = "program"


@dataclass
class AnalysisOutput:
    """Worker-side result of one request (picklable, no engine objects)."""

    proc: str
    domain: str
    summaries: List[Tuple]  # [(entry AbstractHeap, summary HeapSet)]
    summary_hashes: List[Tuple[str, str]]  # canonical (entry, summary) digests
    diagnostics: List[Dict[str, Any]]
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def run_analysis_request(request: AnalysisRequest) -> AnalysisOutput:
    """Worker entry point: one full (sequential) root analysis."""
    from repro.core.api import Analyzer  # deferred: workers may be spawned
    from repro.parallel.store import PersistentSummaryStore

    store = None
    analyzer = Analyzer(request.program)
    if request.store_dir is not None:
        store = cache = PersistentSummaryStore(request.store_dir)
        if request.key_mode == "cone":
            from repro.service.depindex import ConeKeyedStore, DependencyIndex

            index = DependencyIndex.build(analyzer.icfg)
            cache = ConeKeyedStore(cache, index.cone_fingerprints())
        analyzer.cache = cache
    trace_path = None
    if request.trace_dir is not None:
        os.makedirs(request.trace_dir, exist_ok=True)
        trace_path = os.path.join(
            request.trace_dir, f"{request.task_id}.trace.jsonl"
        )
    opts = EngineOptions(trace_path=trace_path)
    if request.strengthened:
        result = analyzer.analyze_strengthened(
            request.proc,
            k=request.k,
            max_steps=request.max_steps,
            engine_opts=opts,
        )
    else:
        result = analyzer.analyze(
            request.proc,
            domain=request.domain,
            k=request.k,
            max_steps=request.max_steps,
            max_seconds=request.max_seconds,
            engine_opts=opts,
        )
    stats = {
        key: result.stats.get(key)
        for key in (
            "records",
            "steps",
            "from_cache",
            "records.reanalyzed",
            "time.fixpoint",
            "cpu.fixpoint",
        )
        if key in result.stats
    }
    if store is not None:
        # The counters only: ``stats()`` would list the whole store.
        stats["store"] = store.counters()
    return AnalysisOutput(
        proc=request.proc,
        domain=request.domain,
        summaries=list(result.summaries),
        summary_hashes=result.summary_hashes(),
        diagnostics=[
            {
                "kind": diag.kind,
                "message": diag.message,
                "proc": diag.proc,
                "steps": diag.steps,
                "limit": diag.limit,
            }
            for diag in result.diagnostics
        ],
        stats=stats,
    )


@dataclass
class BatchReport:
    """Outcomes of one batch run, in request order."""

    outcomes: List[TaskOutcome]
    wall_time: float
    jobs: int
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(outcome.status == OK for outcome in self.outcomes)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        out["retried"] = sum(1 for o in self.outcomes if o.retried)
        return out

    def format_table(self) -> str:
        lines = [
            f"{'task':<24} {'status':<8} {'wall(s)':>8} {'cpu(s)':>8} "
            f"{'retry':>5}  detail"
        ]
        for outcome in self.outcomes:
            cpu = f"{outcome.cpu_time:8.2f}" if outcome.cpu_time is not None else "       -"
            detail = ""
            output = outcome.result
            if isinstance(output, AnalysisOutput):
                detail = f"{len(output.summaries)} summaries"
                if output.diagnostics:
                    detail += f", {output.diagnostics[0]['kind']}"
            elif outcome.error is not None:
                detail = outcome.error.get("message", "")[:60]
            lines.append(
                f"{outcome.task_id:<24} {outcome.status:<8} "
                f"{outcome.wall_time:8.2f} {cpu} {outcome.retries:>5}  {detail}"
            )
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        lines.append(
            f"batch: {len(self.outcomes)} task(s) in {self.wall_time:.2f}s "
            f"wall with jobs={self.jobs} ({counts})"
        )
        return "\n".join(lines)


def _classify(outcome: TaskOutcome) -> None:
    """Downgrade, in place, an "ok" outcome whose analysis only produced
    partial summaries because an engine budget fired (the worker reports
    those as diagnostics on the output rather than a raised exception)."""
    output = outcome.result
    if (
        outcome.status == OK
        and isinstance(output, AnalysisOutput)
        and any(d["kind"] in _BUDGET_KINDS for d in output.diagnostics)
    ):
        outcome.status = BUDGET
        outcome.error = dict(output.diagnostics[0])


def run_batch(
    requests: Sequence[AnalysisRequest],
    jobs: int = 1,
    retry_crashed: int = 1,
    hard_grace: float = 10.0,
    trace_path: Optional[str] = None,
    on_outcome=None,
) -> BatchReport:
    """Run analysis requests on a pool of ``jobs`` workers.

    ``jobs=0`` runs every request inline in this process (no worker
    processes) — the sequential baseline the determinism tests and the
    benchmark's sequential-vs-parallel comparison use.  ``trace_path``
    merges the per-worker JSONL telemetry traces (requests must carry a
    ``trace_dir``) into one ordered run trace after the batch finishes.
    """
    start = time.perf_counter()
    pool = WorkerPool(jobs=jobs, retry_crashed=retry_crashed, hard_grace=hard_grace)
    tasks = [
        PoolTask(
            task_id=request.task_id,
            fn=run_analysis_request,
            args=(request,),
            budget=request.max_seconds,
            deps=request.deps,
        )
        for request in requests
    ]

    def finished(outcome: TaskOutcome) -> None:
        _classify(outcome)  # before ``on_outcome`` sees it
        if on_outcome is not None:
            on_outcome(outcome)

    outcomes = pool.run(tasks, on_outcome=finished)

    merged = None
    if trace_path is not None:
        trace_dirs = {
            request.trace_dir
            for request in requests
            if request.trace_dir is not None
        }
        parts: List[str] = []
        for directory in sorted(trace_dirs):
            parts.extend(
                sorted(glob.glob(os.path.join(directory, "*.trace.jsonl")))
            )
        if parts:
            merge_traces(parts, trace_path)
            merged = trace_path
    return BatchReport(
        outcomes=outcomes,
        wall_time=time.perf_counter() - start,
        jobs=jobs,
        trace_path=merged,
    )


def plan_requests(
    analyzer,
    procs: Optional[Sequence[str]] = None,
    domains: Sequence[str] = ("au",),
    k: int = 0,
    strengthened: bool = False,
    max_steps: Optional[int] = None,
    max_seconds: Optional[float] = None,
    store_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    key_mode: str = "program",
) -> List[AnalysisRequest]:
    """Shard a program's analysis into requests, callee SCCs first.

    Requests of the same call-graph SCC shard one task per (root,
    domain); a request depends on the same-domain requests of the shards
    its SCC calls into, so independent shards run concurrently and
    callees publish their store entries before callers start.
    """
    from repro.parallel.shard import plan_shards

    plan = plan_shards(analyzer.icfg, procs)
    requests: List[AnalysisRequest] = []
    planned = {shard.shard_id for shard in plan}
    for shard in plan:
        for domain in domains:
            for root in shard.roots:
                requests.append(
                    AnalysisRequest(
                        task_id=f"{root}.{domain}",
                        program=analyzer.program,
                        proc=root,
                        domain=domain,
                        k=k,
                        strengthened=strengthened and domain == "au",
                        max_steps=max_steps,
                        max_seconds=max_seconds,
                        store_dir=store_dir,
                        trace_dir=trace_dir,
                        key_mode=key_mode,
                        deps=tuple(
                            f"{dep_root}.{domain}"
                            for dep in shard.deps
                            if dep in planned
                            for dep_root in next(
                                s.roots for s in plan if s.shard_id == dep
                            )
                        ),
                    )
                )
    return requests
