"""Tier A: fast dataflow lints over the normalized CFGs.

Each rule is a pluggable entry in :data:`LINT_RULES` -- a stable id, a
one-line description, and a pure function ``(LintContext) -> findings``.
Rules never run the abstract interpreter and never mutate the CFG; the
whole tier runs in microseconds per procedure, which is what lets the
analysis server re-lint on every keystroke-grade update.

Normalizer artifacts are handled once, here: compiler temporaries
(``$a``/``$c``) are exempt from reporting, and protected formals
(``x$in``) are reported under their source-level name ``x`` so findings
point at the program the user wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.lang import ast as A
from repro.lang.cfg import (
    CFG,
    OpAssignData,
    OpAssignPtr,
    OpSkip,
)
from repro.checker import dataflow as df
from repro.checker.findings import (
    CheckFinding,
    RULE_DEAD_STORE,
    RULE_LINT_NULL_DEREF,
    RULE_MISSING_RETURN,
    RULE_UNREACHABLE,
    RULE_UNUSED_LOCAL,
    RULE_UNUSED_PARAM,
    RULE_USE_BEFORE_INIT,
    WARN,
    sort_findings,
)


@dataclass
class LintContext:
    """Everything a rule may look at (read-only by convention)."""

    cfg: CFG
    proc_line: int = 0

    @property
    def proc(self) -> str:
        return self.cfg.proc_name

    def finding(
        self,
        rule_id: str,
        message: str,
        line: Optional[int],
        **witness,
    ) -> CheckFinding:
        return CheckFinding(
            rule_id=rule_id,
            verdict=WARN,
            message=message,
            procedure=self.proc,
            line=line or self.proc_line or None,
            witness={k: v for k, v in witness.items() if v is not None},
        )


LintRule = Callable[[LintContext], List[CheckFinding]]
LINT_RULES: Dict[str, LintRule] = {}


def lint_rule(rule_id: str):
    def register(fn: LintRule) -> LintRule:
        LINT_RULES[rule_id] = fn
        return fn

    return register


@lint_rule(RULE_USE_BEFORE_INIT)
def _use_before_init(ctx: LintContext) -> List[CheckFinding]:
    assigned = df.definite_assignment(ctx.cfg)
    seen: Set[tuple] = set()
    out: List[CheckFinding] = []
    for edge in ctx.cfg.edges:
        fact = assigned.get(edge.src)
        if fact is None:  # unreachable: lint.unreachable's business
            continue
        for var in sorted(df.op_reads(edge.op) - fact):
            if df.is_compiler_temp(var):
                continue
            key = (var, edge.line)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                ctx.finding(
                    RULE_USE_BEFORE_INIT,
                    f"'{var}' may be read before it is assigned",
                    edge.line,
                    variable=var,
                )
            )
    return out


@lint_rule(RULE_DEAD_STORE)
def _dead_store(ctx: LintContext) -> List[CheckFinding]:
    live = df.live_variables(ctx.cfg)
    out: List[CheckFinding] = []
    seen: Set[tuple] = set()
    for edge in ctx.cfg.edges:
        if not isinstance(edge.op, (OpAssignPtr, OpAssignData)):
            continue  # heap stores and calls have effects beyond the target
        target = edge.op.target
        if df.is_compiler_temp(target) and not target.endswith("$in"):
            continue
        if (
            target.endswith("$in")
            and isinstance(edge.op, OpAssignPtr)
            and edge.op.kind == "var"
            and edge.op.source == df.display_name(target)
        ):
            continue  # the normalizer's x$in = x prologue, not user code
        if edge.src not in live:  # unreachable code; not a dead *store*
            continue
        if target in live.get(edge.dst, frozenset()):
            continue
        shown = df.display_name(target)
        key = (target, edge.line)
        if key in seen:
            continue
        seen.add(key)
        if target.endswith("$in"):
            message = (
                f"value assigned to parameter '{shown}' is never read "
                "(parameters are passed by value)"
            )
        else:
            message = f"value assigned to '{shown}' is never read"
        out.append(
            ctx.finding(RULE_DEAD_STORE, message, edge.line, variable=shown)
        )
    return out


@lint_rule(RULE_UNREACHABLE)
def _unreachable(ctx: LintContext) -> List[CheckFinding]:
    reachable = df.reachable_nodes(ctx.cfg)
    lines: Set[int] = set()
    for edge in ctx.cfg.edges:
        if edge.src in reachable or not edge.line:
            continue
        if isinstance(edge.op, OpSkip):
            continue
        lines.add(edge.line)
    return [
        ctx.finding(RULE_UNREACHABLE, "statement is unreachable", line)
        for line in sorted(lines)
    ]


@lint_rule(RULE_LINT_NULL_DEREF)
def _null_deref(ctx: LintContext) -> List[CheckFinding]:
    facts = df.null_constants(ctx.cfg)
    out: List[CheckFinding] = []
    seen: Set[tuple] = set()
    for edge in ctx.cfg.edges:
        fact = facts.get(edge.src)
        if fact is None:
            continue
        for var in sorted(df.op_derefs(edge.op)):
            if fact.get(var) != df.NULL_:
                continue
            shown = df.display_name(var)
            key = (var, edge.line)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                ctx.finding(
                    RULE_LINT_NULL_DEREF,
                    f"'{shown}' is definitely NULL when dereferenced here",
                    edge.line,
                    variable=shown,
                )
            )
    return out


@lint_rule(RULE_MISSING_RETURN)
def _missing_return(ctx: LintContext) -> List[CheckFinding]:
    assigned = df.definite_assignment(ctx.cfg)
    exit_fact = assigned.get(ctx.cfg.exit)
    if exit_fact is None:  # the exit is unreachable (e.g. while(true))
        return []
    out: List[CheckFinding] = []
    for param in ctx.cfg.outputs:
        if param.name in exit_fact:
            continue
        out.append(
            ctx.finding(
                RULE_MISSING_RETURN,
                f"output '{param.name}' may be unset when '{ctx.proc}' returns",
                getattr(param, "line", 0) or ctx.proc_line,
                variable=param.name,
            )
        )
    return out


def _unused(ctx: LintContext, params, rule_id: str, what: str) -> List[CheckFinding]:
    read: Set[str] = set()
    for edge in ctx.cfg.edges:
        read |= df.op_reads(edge.op)
    out: List[CheckFinding] = []
    for param in params:
        if param.name in read or df.is_compiler_temp(param.name):
            continue
        out.append(
            ctx.finding(
                rule_id,
                f"{what} '{param.name}' is never read",
                getattr(param, "line", 0) or ctx.proc_line,
                variable=param.name,
            )
        )
    return out


@lint_rule(RULE_UNUSED_LOCAL)
def _unused_local(ctx: LintContext) -> List[CheckFinding]:
    return _unused(ctx, ctx.cfg.locals, RULE_UNUSED_LOCAL, "local")


@lint_rule(RULE_UNUSED_PARAM)
def _unused_param(ctx: LintContext) -> List[CheckFinding]:
    return _unused(ctx, ctx.cfg.inputs, RULE_UNUSED_PARAM, "parameter")


def lint_cfg(
    cfg: CFG,
    rules: Optional[Iterable[str]] = None,
    proc_line: int = 0,
) -> List[CheckFinding]:
    """Run (a selection of) the Tier-A rules over one procedure's CFG."""
    ctx = LintContext(cfg=cfg, proc_line=proc_line)
    selected = list(rules) if rules is not None else list(LINT_RULES)
    findings: List[CheckFinding] = []
    for rule_id in selected:
        try:
            rule = LINT_RULES[rule_id]
        except KeyError:
            raise ValueError(f"unknown lint rule {rule_id!r}") from None
        findings.extend(rule(ctx))
    return sort_findings(findings)


def lint_program(program: A.Program, icfg, rules=None) -> List[CheckFinding]:
    """Tier A over every procedure of a normalized program."""
    findings: List[CheckFinding] = []
    proc_lines = {p.name: p.line for p in program.procedures}
    for name in sorted(icfg.cfgs):
        findings.extend(
            lint_cfg(icfg.cfg(name), rules=rules, proc_line=proc_lines.get(name, 0))
        )
    return sort_findings(findings)
