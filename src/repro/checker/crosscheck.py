"""Differential validation of Tier-B verdicts against concrete runs.

The checker's contract is that a *safe* verdict is a proof: no concrete
execution (from any cutpoint-free context) may null-deref at a site
proved safe, leak cells at the exit of a leak-safe procedure, or build a
cycle in an acyclicity-safe procedure.  This module holds the checker to
that contract the same way :mod:`repro.fuzz.oracle` holds the abstract
transformers to gamma-soundness: run the concrete interpreter on random
inputs, observe faults/leaks/cycles with their (proc, line) attribution,
and report any observation that lands on a "safe" verdict.

Wired into the fuzz CLI as ``python -m repro.fuzz --check-safety``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.concrete.heap import Cell, dll_violations
from repro.concrete.interp import ConcreteError
from repro.core.api import Analyzer
from repro.fuzz.oracle import DifferentialOracle, Finding
from repro.lang.ast import uses_prev
from repro.lang.pretty import pretty_program
from repro.checker.findings import SAFE
from repro.checker.safety import SafetyOptions, SafetyReport, check_safety


# One concrete observation: ("deref", proc, line) | ("leak", proc, None)
# | ("cycle", proc, None) | ("dllbroken", proc, None).
Event = Tuple[str, str, Optional[int]]


def _walk(cell: Optional[Cell]) -> Tuple[Set[int], bool]:
    """Follow ``next`` from a cell; returns (cell ids, sees_cycle)."""
    ids: Set[int] = set()
    cur = cell
    while isinstance(cur, Cell):
        if id(cur) in ids:
            return ids, True
        ids.add(id(cur))
        cur = cur.next
    return ids, False


class _FrameObserver:
    """Collects leak/cycle/DLL events at every concrete frame exit."""

    def __init__(self, events: List[Event], dll: bool = False):
        self.events = events
        self.dll = dll

    def __call__(self, proc_name: str, env, cfg) -> None:
        io_names = {p.name for p in list(cfg.inputs) + list(cfg.outputs)}
        reach_io: Set[int] = set()
        cyclic = False
        for name in sorted(io_names):
            ids, saw_cycle = _walk(env.get(name))
            reach_io |= ids
            cyclic = cyclic or saw_cycle
        if self.dll:
            # Outputs are the lists the exit summary describes; a broken
            # back pointer there is what safety.dll-consistent must catch.
            for p in cfg.outputs:
                value = env.get(p.name)
                if isinstance(value, Cell) and dll_violations(value):
                    self.events.append(("dllbroken", proc_name, None))
                    break
        leaked = False
        for name in sorted(env):
            if name in io_names or not isinstance(env.get(name), Cell):
                continue
            ids, saw_cycle = _walk(env[name])
            cyclic = cyclic or saw_cycle
            if ids - reach_io:
                leaked = True
        if leaked:
            self.events.append(("leak", proc_name, None))
        if cyclic:
            self.events.append(("cycle", proc_name, None))


class CrossChecker(DifferentialOracle):
    """Concrete-vs-checker differential harness (the ``--check-safety`` oracle).

    Judges the Tier-B verdicts of ``config.domains[0]``.
    """

    crash_domain = "checker"
    # run -> concrete execution ended early (budget/stuck, not a deref)
    skip_keys = ("run",)

    def judge(self, program, analyzer, root, views_list, seed):
        source = pretty_program(program)
        report = check_safety(
            analyzer,
            SafetyOptions(
                domain=self.config.domains[0],
                max_steps=self.config.engine_max_steps,
                max_seconds=self.config.engine_max_seconds,
            ),
        )
        events = self._observe_events(analyzer, root, views_list)
        return self._contradictions(report, events, root, source, seed)

    # -- concrete side ----------------------------------------------------------

    def _observe_events(
        self,
        analyzer: Analyzer,
        root: str,
        views_list: Sequence[List],
    ) -> List[Event]:
        events: List[Event] = []
        dll = uses_prev(analyzer.program)
        for _views, _outputs, error in self.concrete_runs(
            analyzer.icfg,
            root,
            views_list,
            dll,
            frame_observer=_FrameObserver(events, dll=dll),
        ):
            if error is None:
                continue
            if (
                isinstance(error, ConcreteError)
                and str(error).startswith("NULL dereference")
                and error.proc
            ):
                events.append(("deref", error.proc, error.line))
            else:
                self.skips["run"] += 1
        return events

    # -- verdict comparison -----------------------------------------------------

    def _contradictions(
        self,
        report: SafetyReport,
        events: List[Event],
        root: str,
        source: str,
        seed: Optional[int],
    ) -> List[Finding]:
        messages: List[str] = []
        add = messages.append
        for kind, proc, line in events:
            if report.proc_status.get(proc, "ok") != "ok":
                continue  # verdicts already degraded to unknown
            if kind == "deref":
                if line is None:
                    continue
                verdict = report.null_deref_verdict(proc, line)
                if verdict == SAFE:
                    add(
                        f"concrete NULL dereference at {proc}:{line} "
                        "contradicts a safe null-deref verdict"
                    )
                elif verdict is None:
                    add(
                        f"concrete NULL dereference at {proc}:{line} has no "
                        "checker obligation site (missed dereference)"
                    )
            elif kind == "leak" and report.leak_verdict(proc) == SAFE:
                add(
                    f"concrete cells leaked at exit of {proc} contradict "
                    "a safe leak verdict"
                )
            elif kind == "cycle" and report.acyclic_verdict(proc) == SAFE:
                add(
                    f"concrete cyclic backbone in {proc} contradicts "
                    "a safe acyclicity verdict"
                )
            elif kind == "dllbroken" and report.dll_consistent_verdict(proc) == SAFE:
                add(
                    f"concrete back-pointer violation at exit of {proc} "
                    "contradicts a safe dll-consistent verdict"
                )
        return [
            Finding(
                kind="checker",
                domain=self.config.domains[0],
                root=root,
                message=message,
                source=source,
                seed=seed,
            )
            for message in dict.fromkeys(messages)  # distinct, first-seen order
        ]
