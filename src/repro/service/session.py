"""Incremental analysis sessions: re-analyze only the dirty cone.

A :class:`Session` wraps one evolving program.  The first
:meth:`Session.analyze` is a cold run (every requested root analyzed,
publishing cone-keyed entries to the persistent store); after
:meth:`Session.update` with an edited program's frontend, the next
``analyze`` re-dispatches only the roots whose cone fingerprint changed
(the *dirty cone* of :mod:`repro.service.depindex`), answering every
clean root from the session's retained outputs.

Correctness invariant (asserted corpus-wide in ``tests/test_service.py``):
a warm re-analysis produces summary hashes **identical** to a cold run of
the edited program.  The argument is the PR 3 determinism argument plus
cone purity: each root's output is a pure function of its cone, retained
outputs are only reused when the cone fingerprint is unchanged, and dirty
roots are re-analyzed by the same sequential engine a cold run uses.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.parallel.batch import AnalysisOutput, plan_requests, run_batch
from repro.parallel.pool import OK
from repro.service.depindex import DirtyCone
from repro.service.frontend import Frontend


@dataclass
class SessionReport:
    """One (possibly incremental) analysis pass over the session program.

    ``outputs`` maps ``"proc.domain"`` task ids to
    :class:`~repro.parallel.batch.AnalysisOutput`; ``reused`` names the
    task ids answered from the session without dispatching work.
    ``incremental`` carries the dirty-cone accounting for telemetry.
    """

    outputs: Dict[str, AnalysisOutput]
    reused: List[str]
    analyzed: List[str]
    errors: Dict[str, Dict[str, Any]]  # task_id -> structured error
    incremental: Dict[str, Any]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary_hashes(self) -> Dict[str, List[Tuple[str, str]]]:
        return {
            task_id: output.summary_hashes
            for task_id, output in self.outputs.items()
        }


class Session:
    """Dependency-tracked incremental analysis of one evolving program.

    ``store_dir=None`` creates a private temporary store that lives as
    long as the session; pass a directory to share warm state across
    sessions and server restarts.  ``jobs=0`` analyzes inline (no worker
    processes) — the deterministic baseline; ``jobs>=1`` dispatches dirty
    shards onto the fault-isolated :mod:`repro.parallel.pool`.
    ``frontend`` is the program's
    :class:`~repro.service.frontend.Frontend`; the session reads its ICFG
    and dependency index and never writes them.
    """

    def __init__(
        self,
        frontend: Frontend,
        store_dir: Optional[str] = None,
        jobs: int = 0,
        max_seconds: Optional[float] = None,
    ):
        from repro.core.api import Analyzer

        self._tmp = None
        if store_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-session-")
            store_dir = self._tmp.name
        self.store_dir = store_dir
        self.jobs = jobs
        self.max_seconds = max_seconds
        self.analyzer = Analyzer(frontend.program, icfg=frontend.icfg)
        self.index = frontend.index
        self.generation = 0
        self.last_delta: Optional[DirtyCone] = None
        # (task_id) -> (cone fingerprint at analysis time, output)
        self._outputs: Dict[str, Tuple[str, AnalysisOutput]] = {}

    @property
    def program(self):
        return self.analyzer.program

    # -- program evolution -------------------------------------------------------

    def update(self, frontend: Frontend) -> DirtyCone:
        """Replace the session program with ``frontend``'s; returns the
        dirty cone vs the old one.  Retained outputs are *not* discarded
        here — reuse is decided per-root at ``analyze`` time by comparing
        cone fingerprints, so a reverted edit re-hits both the retained
        outputs and the store."""
        from repro.core.api import Analyzer

        delta = self.index.diff(frontend.index)
        self.analyzer = Analyzer(frontend.program, icfg=frontend.icfg)
        self.index = frontend.index
        self.generation += 1
        self.last_delta = delta
        return delta

    def update_source(self, source: str) -> DirtyCone:
        from repro.lang import parse_source

        return self.update(Frontend(parse_source(source)))

    # -- analysis ----------------------------------------------------------------

    def analyze(
        self,
        procs: Optional[Sequence[str]] = None,
        domains: Sequence[str] = ("am",),
        k: int = 0,
        jobs: Optional[int] = None,
        max_seconds: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> SessionReport:
        """Analyze the requested roots, reusing everything clean.

        A root+domain task is *reused* when the session holds an output
        for it whose recorded cone fingerprint equals the root's current
        one.  Everything else is planned callees-first and dispatched
        (cone-keyed store, so even freshly-dispatched clean-cone roots of
        a new session hit the store instead of recomputing)."""
        start = time.perf_counter()
        jobs = self.jobs if jobs is None else jobs
        max_seconds = self.max_seconds if max_seconds is None else max_seconds
        requests = plan_requests(
            self.analyzer,
            procs=procs,
            domains=tuple(domains),
            k=k,
            max_steps=max_steps,
            max_seconds=max_seconds,
            store_dir=self.store_dir,
            key_mode="cone",
        )
        outputs: Dict[str, AnalysisOutput] = {}
        errors: Dict[str, Dict[str, Any]] = {}
        reused: List[str] = []
        dispatch = []
        for request in requests:
            cone = self.index.cone_fingerprint(request.proc)
            held = self._outputs.get(request.task_id)
            if held is not None and held[0] == cone:
                outputs[request.task_id] = held[1]
                reused.append(request.task_id)
            else:
                dispatch.append(request)
        # Drop dependency edges onto reused tasks: they are not in this
        # batch, and the pool rejects unknown dependency ids.
        dispatched_ids = {request.task_id for request in dispatch}
        for request in dispatch:
            request.deps = tuple(
                dep for dep in request.deps if dep in dispatched_ids
            )
        report = None
        if dispatch:
            report = run_batch(dispatch, jobs=jobs)
            for outcome in report.outcomes:
                output = outcome.result
                if outcome.status == OK and isinstance(output, AnalysisOutput):
                    outputs[outcome.task_id] = output
                    cone = self.index.cone_fingerprint(output.proc)
                    self._outputs[outcome.task_id] = (cone, output)
                else:
                    errors[outcome.task_id] = {
                        "status": outcome.status,
                        "error": outcome.error,
                        "retries": outcome.retries,
                    }
                    # A budget-capped output still carries its partial
                    # summaries/diagnostics; surface but never retain it.
                    if isinstance(output, AnalysisOutput):
                        outputs[outcome.task_id] = output
        analyzed = [request.task_id for request in dispatch]
        sccs_total = {
            self.index.scc_of(request.proc) for request in requests
        }
        sccs_analyzed = {
            self.index.scc_of(request.proc) for request in dispatch
        }
        incremental = {
            "generation": self.generation,
            "roots": len(requests),
            "reused": len(reused),
            "analyzed": len(analyzed),
            "sccs_total": len(sccs_total),
            "sccs_analyzed": len(sccs_analyzed),
            "dirty_cone": sorted(
                {request.proc for request in dispatch}
            ),
            "store_dir": self.store_dir,
        }
        if self.last_delta is not None:
            incremental["edited"] = sorted(self.last_delta.changed)
        return SessionReport(
            outputs=outputs,
            reused=reused,
            analyzed=analyzed,
            errors=errors,
            incremental=incremental,
            wall_time=time.perf_counter() - start,
        )

    # -- maintenance -------------------------------------------------------------

    def flush(self) -> int:
        """Drop retained outputs (the persistent store is left intact);
        returns the number of dropped entries."""
        dropped = len(self._outputs)
        self._outputs.clear()
        return dropped

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
