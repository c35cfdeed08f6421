"""Differential validation of ``terminating`` verdicts against concrete runs.

The prover's contract is that *terminating* is a proof with a derived
bound: if a loop's certificate measure is ``m`` at loop entry, decrease
at every head arrival plus the arrival bound (``>= -1``) caps the number
of back-edge arrivals at ``m + 2``; a recursive certificate caps every
recursion chain by the entry measure.  This module replays exactly those
obligations concretely: an :class:`~repro.concrete.interp.Interpreter`
``edge_observer`` watches every taken edge, evaluates the certificate
measures on the live environment, and records a violation whenever a
concrete run

* fails to strictly decrease the measure at a back-edge arrival,
* drops a data measure below the arrival bound,
* exceeds the derived arrival bound, or
* reaches a recursive call whose actuals do not measure strictly below
  the frame's entry.

Any violation contradicts a proof, because certificates are only
attached to *terminating* sites.  Wired into the fuzz CLI as
``python -m repro.fuzz --check-termination`` (mirroring
``--check-safety``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.concrete.heap import Cell
from repro.core.api import Analyzer
from repro.fuzz.oracle import DifferentialOracle, Finding
from repro.lang import ast as A
from repro.lang.ast import uses_prev
from repro.lang.cfg import OpCall
from repro.lang.pretty import pretty_program
from repro.termination.candidates import RankCandidate
from repro.termination.driver import TerminationOptions, check_termination
from repro.termination.recursion import SlotCandidate
from repro.termination.report import Certificate, TerminationReport

#: Reserved per-frame environment key for observer state.  ``$`` never
#: occurs in LISL identifiers, so the interpreter's semantics (and the
#: safety cross-check's frame observer) never look at it.
_STATE_KEY = "$term$state"


def _chain_len(value, link: str) -> Optional[int]:
    """Concrete number of cells from ``value`` along ``link`` (``next``:
    the backbone length; ``prev``: the distance from the head); None on a
    cycle (measure undefined)."""
    n = 0
    seen: Set[int] = set()
    cur = value
    while isinstance(cur, Cell):
        if id(cur) in seen:
            return None
        seen.add(id(cur))
        n += 1
        cur = getattr(cur, link)
    return n


def _eval_expr(expr: A.Expr, env) -> Optional[int]:
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Var):
        value = env.get(expr.name)
        return value if isinstance(value, int) else None
    if isinstance(expr, A.DataOf):
        base = env.get(expr.base.name)
        return base.data if isinstance(base, Cell) else None
    if isinstance(expr, A.BinOp):
        left = _eval_expr(expr.left, env)
        right = _eval_expr(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
    return None


def concrete_measure(candidate, names: Sequence[str], env) -> Optional[int]:
    """Evaluate a certificate candidate's measure over ``names``.

    For loop candidates ``names`` is the candidate's own ``ptr_vars``;
    for recursion candidates it is either the formals (entry measure) or
    the call's actuals.
    """
    if isinstance(candidate, RankCandidate) and candidate.kind == "data":
        return _eval_expr(candidate.expr, env)
    reverse = isinstance(candidate, RankCandidate) and candidate.kind == "revptr"
    kind = (
        candidate.type
        if isinstance(candidate, SlotCandidate)
        else A.LIST  # ptr/revptr RankCandidate
    )
    total = 0
    for name in names:
        value = env.get(name)
        if kind == A.INT:
            if not isinstance(value, int):
                return None
            total += value
        else:
            part = _chain_len(value, "prev" if reverse else "next")
            if part is None:
                return None
            total += part
    return total


class _TerminationObserver:
    """Replays loop/recursion certificates along a concrete execution."""

    def __init__(self, certs_by_proc: Dict[str, List[Certificate]], violations):
        self.certs_by_proc = certs_by_proc
        self.violations: List[Tuple[str, Optional[int], str]] = violations

    def _violate(self, proc: str, line: Optional[int], message: str) -> None:
        self.violations.append((proc, line, message))

    def __call__(self, cfg, edge, env) -> None:
        certs = self.certs_by_proc.get(cfg.proc_name)
        if not certs:
            return
        state = env.get(_STATE_KEY)
        if state is None:
            # First observed edge of this frame: env is still the entry
            # environment (observers run before the edge executes), so
            # snapshot the recursion entry measures now.
            state = {"entry": {}, "loops": {}}
            for i, cert in enumerate(certs):
                if cert.kind == "recursion":
                    state["entry"][i] = concrete_measure(
                        cert.candidate, cert.candidate.formals, env
                    )
            env[_STATE_KEY] = state
        for i, cert in enumerate(certs):
            if cert.kind == "loop":
                self._observe_loop(cfg, edge, env, state, i, cert)
            elif isinstance(edge.op, OpCall) and edge.op.proc == cfg.proc_name:
                self._observe_call(cfg, edge, env, state, i, cert)

    def _observe_loop(self, cfg, edge, env, state, i, cert: Certificate) -> None:
        if edge.dst != cert.head:
            return
        m = concrete_measure(cert.candidate, cert.candidate.ptr_vars, env)
        loop_state = state["loops"].get(i)
        if edge.src not in cert.region or loop_state is None:
            # Entering the loop from outside (or first sighting): reset.
            state["loops"][i] = {"first": m, "prev": m, "arrivals": 0}
            return
        if m is None or loop_state["prev"] is None:
            loop_state.update(first=None, prev=None)
            return  # measure undefined on this run; nothing to refute
        loop_state["arrivals"] += 1
        line = edge.line or None
        if m >= loop_state["prev"]:
            self._violate(
                cfg.proc_name,
                line,
                f"loop measure {cert.label} did not decrease at a head "
                f"arrival ({loop_state['prev']} -> {m})",
            )
        if not cert.candidate.bounded_structurally() and m < -1:
            self._violate(
                cfg.proc_name,
                line,
                f"loop measure {cert.label} fell below the arrival bound "
                f"(-1) to {m}",
            )
        if (
            loop_state["first"] is not None
            and loop_state["arrivals"] > loop_state["first"] + 2
        ):
            self._violate(
                cfg.proc_name,
                line,
                f"loop exceeded its derived bound: {loop_state['arrivals']} "
                f"arrivals from an entry measure of {loop_state['first']} "
                f"({cert.label})",
            )
        loop_state["prev"] = m

    def _observe_call(self, cfg, edge, env, state, i, cert: Certificate) -> None:
        entry = state["entry"].get(i)
        cand: SlotCandidate = cert.candidate
        formal_pos = {p.name: j for j, p in enumerate(cfg.inputs)}
        actual_names = [edge.op.args[formal_pos[f]] for f in cand.formals]
        actual = concrete_measure(cand, actual_names, env)
        if entry is None or actual is None:
            return
        line = edge.line or None
        if actual >= entry:
            self._violate(
                cfg.proc_name,
                line,
                f"recursive call measure {cert.label} did not decrease "
                f"({entry} -> {actual})",
            )
        if cand.type == A.INT and actual < 0:
            self._violate(
                cfg.proc_name,
                line,
                f"recursive call measure {cert.label} went negative ({actual})",
            )


class TerminationCrossChecker(DifferentialOracle):
    """Concrete-vs-prover differential harness (``--check-termination``).

    The prover runs in AU whatever ``config.domains`` says.
    """

    crash_domain = "termination"
    # run -> concrete execution ended early (fault, budget, infeasible)
    skip_keys = ("run",)

    def judge(self, program, analyzer, root, views_list, seed):
        source = pretty_program(program)
        report = check_termination(
            analyzer,
            TerminationOptions(
                max_steps=self.config.engine_max_steps,
                max_seconds=self.config.engine_max_seconds,
            ),
        )
        certs_by_proc = {
            proc: report.certificates(proc) for proc in analyzer.icfg.cfgs
        }
        violations = self._observe(analyzer, root, views_list, certs_by_proc)
        return self._findings(report, violations, root, source, seed)

    # -- concrete side -------------------------------------------------------

    def _observe(
        self,
        analyzer: Analyzer,
        root: str,
        views_list: Sequence[List],
        certs_by_proc: Dict[str, List[Certificate]],
    ) -> List[Tuple[str, Optional[int], str]]:
        violations: List[Tuple[str, Optional[int], str]] = []
        for _views, _outputs, error in self.concrete_runs(
            analyzer.icfg,
            root,
            views_list,
            uses_prev(analyzer.program),
            edge_observer=_TerminationObserver(certs_by_proc, violations),
        ):
            if error is not None:
                # Faults and budget exhaustion end the run, but every
                # violation observed up to that point stands.
                self.skips["run"] += 1
        return violations

    # -- verdict comparison ---------------------------------------------------

    def _findings(
        self,
        report: TerminationReport,
        violations: List[Tuple[str, Optional[int], str]],
        root: str,
        source: str,
        seed: Optional[int],
    ) -> List[Finding]:
        texts: List[str] = []
        for proc, line, message in violations:
            where = f"{proc}:{line}" if line else proc
            texts.append(
                f"concrete run contradicts a terminating verdict at {where}: "
                f"{message}"
            )
        return [
            Finding(
                kind="checker",
                domain="termination",
                root=root,
                message=text,
                source=source,
                seed=seed,
            )
            for text in dict.fromkeys(texts)  # distinct, first-seen order
        ]
