"""A multiprocessing worker pool with fault isolation and task budgets.

Why not ``concurrent.futures.ProcessPoolExecutor``: a worker dying there
(OOM kill, segfault in a native extension, a fuzz-found interpreter
crash) raises ``BrokenProcessPool`` and poisons the whole executor, and
there is no per-task hard timeout.  Analysis tasks are chunky (whole
fixpoint runs, seconds each), so this pool runs **one process per task
attempt** with at most ``jobs`` alive at once:

- a worker crashing loses only its own task, which is retried once
  (``retry_crashed``) before being reported as ``crashed``;
- each task can carry a wall-clock ``budget``.  The task function is
  expected to enforce it cooperatively (the engine's
  ``EngineOptions.max_seconds`` raises ``AnalysisBudgetExceeded``, which
  the worker reports as a structured ``budget`` outcome with partial
  diagnostics); the pool additionally enforces ``budget + hard_grace``
  with SIGTERM/SIGKILL for steps that cannot observe the deadline (a
  single AU step can sink minutes into exact-LP fallbacks);
- tasks may declare dependencies (``deps``) on other task ids; a task is
  only started once its dependencies finished (in any state — tasks are
  self-contained, dependencies are scheduling hints that let callee
  shards publish summary-store entries before their callers start).

Results are joined deterministically: :meth:`WorkerPool.run` returns one
:class:`TaskOutcome` per task **in submission order**, regardless of
completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.interproc import AnalysisBudgetExceeded

# Status values of a TaskOutcome.
OK = "ok"
BUDGET = "budget"  # cooperative budget hit, or hard wall-clock kill
CRASHED = "crashed"  # worker died without reporting (after retries)
FAILED = "failed"  # task raised an ordinary exception


@dataclass
class PoolTask:
    """One unit of work: a picklable callable plus scheduling metadata."""

    task_id: str
    fn: Callable
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    budget: Optional[float] = None  # wall seconds; None = unbounded
    deps: Tuple[str, ...] = ()


@dataclass
class TaskOutcome:
    """Structured per-task result record."""

    task_id: str
    status: str  # OK | BUDGET | CRASHED | FAILED
    result: Any = None
    error: Optional[Dict[str, Any]] = None
    wall_time: float = 0.0
    cpu_time: Optional[float] = None  # worker process_time; None on crash
    retries: int = 0
    worker_pid: Optional[int] = None

    @property
    def retried(self) -> bool:
        return self.retries > 0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def describe(self) -> str:
        base = (
            f"{self.task_id}: {self.status} "
            f"wall={self.wall_time:.2f}s"
        )
        if self.cpu_time is not None:
            base += f" cpu={self.cpu_time:.2f}s"
        if self.retries:
            base += f" retries={self.retries}"
        if self.error is not None:
            detail = self.error.get("message") or self.error.get("kind", "")
            base += f" [{detail}]"
        return base


def _execute(task: PoolTask, catch=Exception) -> Tuple[str, Any, float, float]:
    """Run one task here: (status, result or error, wall, cpu).  An
    ``AnalysisBudgetExceeded`` is BUDGET; any other ``catch`` is FAILED."""
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        message = (OK, task.fn(*task.args, **task.kwargs))
    except AnalysisBudgetExceeded as exc:
        message = (BUDGET, exc.to_dict())
    except catch as exc:
        message = (
            FAILED,
            {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        )
    return message + (time.perf_counter() - start, time.process_time() - cpu_start)


def _outcome(task: PoolTask, message, attempt: int = 0, pid=None) -> TaskOutcome:
    status, body, wall, cpu = message
    return TaskOutcome(
        task_id=task.task_id,
        status=status,
        result=body if status == OK else None,
        error=None if status == OK else body,
        wall_time=wall,
        cpu_time=cpu,
        retries=attempt,
        worker_pid=pid,
    )


def _worker_main(conn, task: PoolTask) -> None:
    """Child entry: run the task and send its report to the parent."""
    # A child reports every exception rather than dying silently.
    message = _execute(task, catch=BaseException)
    try:
        conn.send(message)
        conn.close()
    except Exception:  # parent gone or result unpicklable
        os._exit(81)


@dataclass
class _Running:
    task: PoolTask
    process: multiprocessing.Process
    conn: Any
    started: float
    deadline: Optional[float]
    attempt: int  # 0 = first try


class WorkerPool:
    """Run :class:`PoolTask`s on up to ``jobs`` worker processes.

    ``jobs=0`` runs every task inline in this process, in submission
    order, with the same outcome records but no isolation: no retries,
    no hard kills.  ``context`` selects the multiprocessing start method;
    the default prefers ``fork`` (no re-import cost per task, task
    functions need not be importable) and falls back to ``spawn``
    elsewhere.
    """

    def __init__(
        self,
        jobs: int,
        retry_crashed: int = 1,
        hard_grace: float = 10.0,
        context: Optional[str] = None,
    ):
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.jobs = jobs
        self.retry_crashed = retry_crashed
        self.hard_grace = hard_grace
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(context)
        self.crash_retries = 0  # total crash-retries across run() calls

    # -- lifecycle of one attempt ------------------------------------------------

    def _start(self, task: PoolTask, attempt: int) -> _Running:
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(send, task),
            daemon=True,
        )
        process.start()
        send.close()  # child's end; parent keeps the read side
        started = time.monotonic()
        deadline = (
            started + task.budget + self.hard_grace
            if task.budget is not None
            else None
        )
        return _Running(task, process, recv, started, deadline, attempt)

    def _reap(self, running: _Running) -> Optional[TaskOutcome]:
        """Outcome of a started attempt, or None when it should retry."""
        task = running.task
        payload = None
        if running.conn.poll():
            try:
                payload = running.conn.recv()
            except (EOFError, OSError):
                payload = None
        running.process.join()
        running.conn.close()
        wall = time.monotonic() - running.started
        if payload is not None:
            return _outcome(task, payload, running.attempt, running.process.pid)
        # Worker died without reporting: crashed.
        if running.attempt < self.retry_crashed:
            self.crash_retries += 1
            return None
        return TaskOutcome(
            task_id=task.task_id,
            status=CRASHED,
            error={
                "kind": "worker_death",
                "message": f"worker exited with code "
                f"{running.process.exitcode} before reporting",
                "exitcode": running.process.exitcode,
            },
            wall_time=wall,
            retries=running.attempt,
            worker_pid=running.process.pid,
        )

    def _kill(self, running: _Running) -> TaskOutcome:
        """Hard wall-clock kill: terminate, then SIGKILL stragglers."""
        running.process.terminate()
        running.process.join(2.0)
        if running.process.is_alive():
            running.process.kill()
            running.process.join()
        running.conn.close()
        task = running.task
        return TaskOutcome(
            task_id=task.task_id,
            status=BUDGET,
            error={
                "kind": "wall_clock_hard",
                "message": f"killed after exceeding the {task.budget:.0f}s "
                f"budget by more than {self.hard_grace:.0f}s",
                "limit": task.budget,
            },
            wall_time=time.monotonic() - running.started,
            retries=running.attempt,
            worker_pid=running.process.pid,
        )

    # -- the scheduler loop ---------------------------------------------------------

    def run(
        self,
        tasks: Sequence[PoolTask],
        on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Run all tasks; returns outcomes in submission order."""
        by_id = {task.task_id: task for task in tasks}
        if len(by_id) != len(tasks):
            raise ValueError("duplicate task ids")
        for task in tasks:
            for dep in task.deps:
                if dep not in by_id:
                    raise ValueError(
                        f"task {task.task_id!r} depends on unknown {dep!r}"
                    )

        if self.jobs == 0:
            inline = []
            for task in tasks:
                inline.append(_outcome(task, _execute(task)))
                if on_outcome is not None:
                    on_outcome(inline[-1])
            return inline

        outcomes: Dict[str, TaskOutcome] = {}
        done: set = set()
        # Ready / blocked queues, both in submission order.
        blocked: List[PoolTask] = [t for t in tasks if t.deps]
        ready: List[Tuple[PoolTask, int]] = [
            (t, 0) for t in tasks if not t.deps
        ]
        running: Dict[str, _Running] = {}

        def finish(outcome: TaskOutcome) -> None:
            outcomes[outcome.task_id] = outcome
            done.add(outcome.task_id)
            if on_outcome is not None:
                on_outcome(outcome)
            still: List[PoolTask] = []
            for task in blocked:
                if all(dep in done for dep in task.deps):
                    ready.append((task, 0))
                else:
                    still.append(task)
            blocked[:] = still

        while ready or running or blocked:
            while ready and len(running) < self.jobs:
                task, attempt = ready.pop(0)
                running[task.task_id] = self._start(task, attempt)
            if not running:
                if not ready and blocked:  # nothing can ever unblock them
                    raise ValueError(
                        "dependency cycle among tasks: "
                        + ", ".join(t.task_id for t in blocked)
                    )
                continue

            now = time.monotonic()
            expired = [
                r for r in running.values()
                if r.deadline is not None and now > r.deadline
            ]
            for r in expired:
                del running[r.task.task_id]
                finish(self._kill(r))
            if expired:
                continue

            timeout = 0.25
            deadlines = [
                r.deadline for r in running.values() if r.deadline is not None
            ]
            if deadlines:
                timeout = max(0.0, min(min(deadlines) - now, timeout))
            # Wait on the result pipes, not the process sentinels: a pipe
            # becomes readable both when a result arrives (possibly before
            # the child exits — waiting on the sentinel instead would
            # deadlock against a child blocked sending a large result)
            # and at EOF when the child dies without reporting.
            conns = {r.conn: r for r in running.values()}
            for conn in _conn_wait(list(conns), timeout=timeout):
                r = conns[conn]
                del running[r.task.task_id]
                outcome = self._reap(r)
                if outcome is None:  # crashed; retry once
                    ready.insert(0, (r.task, r.attempt + 1))
                else:
                    finish(outcome)

        return [outcomes[task.task_id] for task in tasks]
