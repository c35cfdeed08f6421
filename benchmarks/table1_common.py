"""Shared harness for reproducing the paper's Table 1.

Runs each benchmark function's analysis in AHS(AM) and AHS(AU) (with the
§7 pattern heuristic), times it, and checks the synthesized summary
against the paper's reported summary for that row (entailment of the
published formula, not wall-clock equality -- see EXPERIMENTS.md).

Every row runs as :func:`row_task` on the fault-isolated worker pool of
``repro.parallel`` through :func:`run_pool`; ``run_table1.py`` is the
driver.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Dict, Optional

from repro import Analyzer, choose_patterns, kernels
from repro.core.assertions import _check_equal, _check_sorted
from repro.datawords import terms as T
from repro.datawords.multiset import MultisetDomain
from repro.datawords.patterns import GuardInstance
from repro.lang.benchlib import benchmark_program
from repro.numeric.linexpr import Constraint, LinExpr
from repro.shape.graph import NULL

from dll_suite import dll_program

_AM = MultisetDomain()


def _first_list(params):
    for p in params:
        if p.type == "list":
            return p.name
    return None


def v(name):
    return LinExpr.var(name)


# -- per-row summary checks (column 6 of Table 1) ---------------------------------


def _nodes(analyzer, proc, heap):
    cfg = analyzer.icfg.cfg(proc)
    in_var = _first_list(cfg.inputs)
    out_var = _first_list(cfg.outputs)
    n_in = heap.graph.labels.get(T.entry_copy(in_var), NULL) if in_var else NULL
    n_out = heap.graph.labels.get(out_var, NULL) if out_var else NULL
    return n_in, n_out


def check_ms_preserved(analyzer, proc, result) -> Optional[bool]:
    """ms(input0) = ms(output) on every applicable summary heap."""
    seen = False
    for entry, summary in result.summaries:
        for heap in summary:
            n_in, n_out = _nodes(analyzer, proc, heap)
            if n_in == NULL or n_out == NULL:
                continue
            seen = True
            row = {
                T.mhd(n_in): Fraction(1),
                T.mtl(n_in): Fraction(1),
                T.mhd(n_out): Fraction(-1),
                T.mtl(n_out): Fraction(-1),
            }
            if not _AM.entails_row(heap.value, row):
                return False
    return seen or None


def check_eq_input(analyzer, proc, result) -> Optional[bool]:
    """eq≈(input, input0): the procedure does not modify its input list."""
    seen = False
    cfg = analyzer.icfg.cfg(proc)
    in_var = _first_list(cfg.inputs)
    for entry, summary in result.summaries:
        for heap in summary:
            n_now = heap.graph.labels.get(in_var, NULL)
            n_in = heap.graph.labels.get(T.entry_copy(in_var), NULL)
            if n_now == NULL or n_in == NULL:
                continue
            seen = True
            if not _check_equal(result.domain, heap.value, n_now, n_in):
                return False
    return seen or None


def check_all_equal_const(const: int):
    """forall y. out[y] = const, hd(out) = const (create-style)."""

    def check(analyzer, proc, result) -> Optional[bool]:
        seen = False
        for entry, summary in result.summaries:
            for heap in summary:
                _, n_out = _nodes(analyzer, proc, heap)
                if n_out == NULL:
                    continue
                seen = True
                if not heap.value.E.entails(
                    Constraint.eq(v(T.hd(n_out)), const)
                ):
                    return False
                gi = GuardInstance("ALL1", (n_out,))
                body = heap.value.clauses.get(gi)
                ctx = heap.value.E.meet(gi.guard_poly())
                if not ctx.is_bottom():
                    if body is None or not ctx.meet(body).entails(
                        Constraint.eq(v(T.elem(n_out, "y1")), const)
                    ):
                        return False
        return seen or None

    return check


def check_all_equal_var(var: str):
    """forall y. out[y] = var (init-style)."""

    def check(analyzer, proc, result) -> Optional[bool]:
        seen = False
        for entry, summary in result.summaries:
            for heap in summary:
                _, n_out = _nodes(analyzer, proc, heap)
                if n_out == NULL:
                    continue
                seen = True
                src = v(T.entry_copy(var))
                if not heap.value.E.entails(
                    Constraint.eq(v(T.hd(n_out)), src)
                ):
                    return False
                gi = GuardInstance("ALL1", (n_out,))
                body = heap.value.clauses.get(gi)
                ctx = heap.value.E.meet(gi.guard_poly())
                if not ctx.is_bottom():
                    if body is None or not ctx.meet(body).entails(
                        Constraint.eq(v(T.elem(n_out, "y1")), src)
                    ):
                        return False
        return seen or None

    return check


def check_len_preserved(analyzer, proc, result) -> Optional[bool]:
    seen = False
    for entry, summary in result.summaries:
        for heap in summary:
            n_in, n_out = _nodes(analyzer, proc, heap)
            if n_in == NULL or n_out == NULL:
                continue
            seen = True
            if not heap.value.E.entails(
                Constraint.eq(v(T.length(n_in)), v(T.length(n_out)))
            ):
                return False
    return seen or None


def check_sorted_output(analyzer, proc, result) -> Optional[bool]:
    seen = False
    for entry, summary in result.summaries:
        for heap in summary:
            _, n_out = _nodes(analyzer, proc, heap)
            if n_out == NULL:
                continue
            seen = True
            if not _check_sorted(result.domain, heap.value, n_out):
                return False
    return seen or None


def check_max_bound(analyzer, proc, result) -> Optional[bool]:
    """m >= every element of the input (max-style).

    The bound may live on the current input node (with eq≈ to the
    snapshot) or on the snapshot node itself; either witnesses the paper's
    summary.
    """
    from repro.numeric.polyhedra import Polyhedron

    seen = False
    cfg = analyzer.icfg.cfg(proc)
    in_var = _first_list(cfg.inputs)
    out_var = next(p.name for p in cfg.outputs if p.type == "int")
    for entry, summary in result.summaries:
        for heap in summary:
            candidates = [
                heap.graph.labels.get(T.entry_copy(in_var), NULL),
                heap.graph.labels.get(in_var, NULL),
            ]
            candidates = [n for n in candidates if n != NULL]
            if not candidates:
                continue
            seen = True

            def node_ok(node):
                if not heap.value.E.entails(
                    Constraint.ge(v(out_var), v(T.hd(node)))
                ):
                    return False
                gi = GuardInstance("ALL1", (node,))
                ctx = heap.value.E.meet(gi.guard_poly()).meet(
                    heap.value.clauses.get(gi, Polyhedron.top())
                )
                return ctx.is_bottom() or ctx.entails(
                    Constraint.ge(v(out_var), v(T.elem(node, "y1")))
                )

            if not any(node_ok(n) for n in candidates):
                return False
    return seen or None


AM_CHECKS: Dict[str, Callable] = {
    "clone": check_ms_preserved,
    "bubblesort": check_ms_preserved,
    "insertsort": check_ms_preserved,
    "quicksort": check_ms_preserved,
    "mergesort": check_ms_preserved,
    "max": check_ms_preserved,
}

AU_CHECKS: Dict[str, Callable] = {
    "create": check_all_equal_const(0),
    "init": check_all_equal_var("v"),
    "max": check_max_bound,
    "mapadd": check_len_preserved,
    "clone": check_eq_input,
    "qsplit": check_eq_input,
    "copy": check_len_preserved,
    "bubblesort": check_sorted_output,
    "insertsort": check_sorted_output,
    "quicksort": check_sorted_output,
    "mergesort": check_sorted_output,
}

# Functions whose AU analysis completes quickly enough for the ``--smoke``
# set on one CPU; the others run in the full table (run_table1.py).
AU_FAST = [
    "create",
    "addfst",
    "delfst",
    "init",
    "mapadd",
    "initSeq",
]


def fresh_analyzer(name: str) -> Analyzer:
    """An analyzer over the suite program that defines ``name``."""
    if name.startswith("dll_"):
        return Analyzer(dll_program())
    return Analyzer(benchmark_program())


def engine_summary(stats: dict) -> str:
    """One-line engine accounting for table printing."""
    if not stats:
        return ""
    sched = stats.get("scheduler", {})
    cache = stats.get("cache", {})
    return (
        f"rec={stats.get('records', 0)} "
        f"steps={stats.get('steps', 0)} "
        f"rerun={stats.get('records.reanalyzed', 0)} "
        f"pops={sched.get('pops', 0)} "
        f"hits={cache.get('hits', 0)}"
    )


def dll_consistent(analyzer, name: str, domain: str, budget) -> Optional[bool]:
    """Did the Tier-B checker prove ``safety.dll-consistent`` for ``name``?"""
    from repro.checker.findings import SAFE
    from repro.checker.safety import SafetyOptions, check_safety

    report = check_safety(
        analyzer,
        SafetyOptions(domain=domain, procs=(name,), max_seconds=budget),
    )
    verdict = report.dll_consistent_verdict(name)
    return None if verdict is None else verdict == SAFE


def row_task(name: str, domain: str, mode: str, budget: Optional[float]) -> dict:
    """Pool worker: one Table 1 or DLL (``dll_*``) row in a fresh analyzer.

    Runs under kernel ``mode`` and returns the analysis time, a ``note``
    (the budget diagnostic that cut the run short, ``timeout`` for the
    wall clock; empty when it completed), the sorted summary hashes, and
    ``ok``: the paper check (``AM_CHECKS``/``AU_CHECKS``) for a Table 1
    row, the ``safety.dll-consistent`` verdict for a DLL row, ``None``
    when the row has no check or did not complete.  An exception
    propagates to the pool, which reports the row as failed.
    """
    kernels.set_mode(mode)
    analyzer = fresh_analyzer(name)
    start = time.perf_counter()
    result = analyzer.analyze(
        name, domain=domain, max_steps=400_000, max_seconds=budget
    )
    elapsed = time.perf_counter() - start
    note = ""
    ok: Optional[bool] = None
    if result.diagnostics:  # budget exhausted -> partial summaries
        kind = result.diagnostics[0].kind
        note = "timeout" if kind == "wall_clock" else kind
    elif name.startswith("dll_"):
        ok = dll_consistent(analyzer, name, domain, budget)
    else:
        check = (AM_CHECKS if domain == "am" else AU_CHECKS).get(name)
        if check is not None:
            ok = check(analyzer, name, result)
    return {
        "name": name,
        "domain": domain,
        "time": elapsed,
        "note": note,
        "ok": ok,
        "patterns": tuple(sorted(choose_patterns(analyzer.icfg, name))),
        "engine": engine_summary(result.stats),
        # JSON lists, so they compare equal to a reloaded BENCH_table1.json.
        "hashes": [list(pair) for pair in sorted(result.summary_hashes())],
    }


def checker_task(name: str, budget: Optional[float]) -> dict:
    """Pool worker: Tier-B safety checking of one Table 1 function.

    Reports the checker's wall time next to the analysis times so the
    proof overhead (per-point state interrogation on top of the fixpoint)
    is visible per benchmark, plus the verdict counts — the suite-level
    acceptance bar is *zero unsafe verdicts* on Table 1.
    """
    from repro.checker.safety import SafetyOptions, check_safety

    analyzer = fresh_analyzer(name)
    start = time.perf_counter()
    report = check_safety(
        analyzer,
        SafetyOptions(domain="am", procs=(name,), max_seconds=budget),
    )
    return {
        "checker_time": time.perf_counter() - start,
        "verdicts": report.counts(),
    }


def termination_task(name: str, budget: Optional[float]) -> dict:
    """Pool worker: termination verdict for one Table 1 function.

    The suite-level acceptance bar is *zero possibly-nonterminating
    verdicts* (every Table 1 function terminates) with at least 80%
    proved outright; honest unknowns (e.g. bubblesort's swapped-flag
    outer loop) are allowed.
    """
    from repro.termination.driver import TerminationOptions, check_termination

    analyzer = fresh_analyzer(name)
    start = time.perf_counter()
    report = check_termination(
        analyzer,
        TerminationOptions(procs=[name], max_seconds=budget),
    )
    return {
        "termination_time": time.perf_counter() - start,
        "verdict": report.proc_verdict(name),
    }


# Notes for tasks the pool could not finish; a task that raised is noted
# by its exception type.
_POOL_NOTES = {"budget": "timeout", "crashed": "crash"}


def run_pool(fn, keys, jobs: int, budget: Optional[float], fallback: dict):
    """Run ``fn(*key, budget)`` for every key tuple on the worker pool.

    Returns ``{key: result}``.  Each result carries the pool's ``status``
    (``ok``, ``budget``, ``crashed`` or ``failed``); a task that did not
    return is a copy of ``fallback`` with a ``note`` saying why.  The
    budget is enforced both cooperatively (``fn`` passes it to the
    engine) and by the pool's hard kill, for single steps that cannot
    observe the deadline; a crashed worker is retried once.  Each
    outcome prints one line as it finishes.
    """
    from repro.parallel.pool import PoolTask, WorkerPool

    ids = {".".join((fn.__name__,) + key): key for key in keys}
    tasks = [
        PoolTask(task_id=task_id, fn=fn, args=key + (budget,), budget=budget)
        for task_id, key in ids.items()
    ]

    def show(outcome):
        print(f"  {outcome.describe()}", flush=True)

    results = {}
    pool = WorkerPool(jobs=jobs, hard_grace=30.0)
    for outcome in pool.run(tasks, on_outcome=show):
        if outcome.ok:
            result = dict(outcome.result)
        else:
            note = _POOL_NOTES.get(outcome.status) or outcome.error["type"]
            result = dict(fallback, note=note)
        result["status"] = outcome.status
        results[ids[outcome.task_id]] = result
    return results
