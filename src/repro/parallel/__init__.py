"""The parallel batch-analysis subsystem.

The engine subsystem (:mod:`repro.engine`) made one analysis fast and
reusable; this package makes *many* analyses fast: the summary-based
modularity of the paper's analysis (one record per ``(procedure,
entry)``, callee summaries composed at call edges) means independent
call-graph components — and independent programs — share no fixpoint
state and can run on separate worker processes.

- :mod:`repro.parallel.shard` — shards a program's analysis along the
  SCC condensation of its call graph; shards with no inter-dependencies
  run concurrently, dependent shards run callees-first;
- :mod:`repro.parallel.pool` — a fault-isolated ``multiprocessing``
  worker pool: one process per task attempt, per-task wall budgets with
  hard kills, one bounded retry on worker death, and structured
  :class:`~repro.parallel.pool.TaskOutcome` records (ok /
  budget-exceeded / crashed / retried) joined in deterministic order;
- :mod:`repro.parallel.batch` — picklable analysis requests, the worker
  entry point, and :func:`~repro.parallel.batch.run_batch`, which the
  ``Analyzer.analyze_batch`` facade and the ``python -m repro.parallel``
  CLI drive;
- :mod:`repro.parallel.store` — a cross-run persistent summary store
  (one atomic file per key, versioned by a schema fingerprint, compacted
  into pack files and GC'd under a byte budget) shared by every worker
  and by later runs.

Parallel and sequential runs produce identical summaries: each request
is analyzed by the same deterministic sequential engine in a fresh
process, so outputs are pure functions of their requests, and outcomes
are joined in submission order (see DESIGN.md §9).
"""

from repro.parallel.batch import (
    AnalysisOutput,
    AnalysisRequest,
    BatchReport,
    plan_requests,
    run_analysis_request,
    run_batch,
)
from repro.parallel.pool import PoolTask, TaskOutcome, WorkerPool
from repro.parallel.shard import Shard, ShardPlan, plan_shards

__all__ = [
    "AnalysisOutput",
    "AnalysisRequest",
    "BatchReport",
    "PersistentSummaryStore",
    "PoolTask",
    "Shard",
    "ShardPlan",
    "TaskOutcome",
    "WorkerPool",
    "plan_requests",
    "plan_shards",
    "run_analysis_request",
    "run_batch",
    "schema_fingerprint",
]


def __getattr__(name):
    """The store's names load on first use, so that ``python -m
    repro.parallel.store`` runs a module the package has not imported."""
    if name in ("PersistentSummaryStore", "schema_fingerprint"):
        from repro.parallel import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
