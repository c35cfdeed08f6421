"""Delta-debugging shrinker for oracle findings.

Given a :class:`~repro.fuzz.oracle.Finding`, the shrinker greedily
minimizes the program/input pair while the *same failure signature*
(kind + domain) keeps reproducing:

- drop whole procedures (the root stays);
- ddmin over statement positions (chunked removal, halving chunk size);
- unwrap ``if``/``while`` statements into their bodies, drop else-branches;
- shrink the failing input views (empty lists, dropped elements, zeroed
  data, integers pulled towards 0).

Every candidate is re-judged by running the oracle end to end, so a
shrunk program is a genuine reproducer by construction.  The number of
oracle evaluations is bounded by ``max_checks`` -- shrinking trades
completeness for a predictable budget.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Sequence, Tuple

from repro.fuzz.oracle import DifferentialOracle, Finding, Oracle
from repro.lang import ast as A
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.typecheck import typecheck_program

# A statement position: (procedure index, path); the path alternates
# (attribute, index) pairs drilling through nested bodies.
_Path = Tuple[Tuple[str, int], ...]


def _body_of(holder, attr: str) -> List[A.Stmt]:
    return getattr(holder, attr)


def _stmt_paths(program: A.Program) -> List[Tuple[int, _Path]]:
    out: List[Tuple[int, _Path]] = []

    def walk(stmts: Sequence[A.Stmt], proc_i: int, prefix: _Path, attr: str):
        for i, stmt in enumerate(stmts):
            path = prefix + ((attr, i),)
            out.append((proc_i, path))
            if isinstance(stmt, A.If):
                walk(stmt.then_body, proc_i, path, "then_body")
                walk(stmt.else_body, proc_i, path, "else_body")
            elif isinstance(stmt, A.While):
                walk(stmt.body, proc_i, path, "body")

    for proc_i, proc in enumerate(program.procedures):
        walk(proc.body, proc_i, (), "body")
    return out


def _resolve(program: A.Program, proc_i: int, path: _Path):
    """Returns (owning list, index) for a statement path.

    Each path element is ``(attr, idx)``: the statement sits at ``idx`` in
    the list named ``attr`` of its parent (the procedure for the first
    element, the preceding statement for the rest).
    """
    stmts = _body_of(program.procedures[proc_i], "body")
    for (_, i), (next_attr, _) in zip(path, path[1:]):
        stmts = _body_of(stmts[i], next_attr)
    return stmts, path[-1][1]


def _remove_paths(
    program: A.Program, paths: Sequence[Tuple[int, _Path]]
) -> Optional[A.Program]:
    """A copy of ``program`` with the statements at ``paths`` removed."""
    candidate = copy.deepcopy(program)
    # remove deepest-first so sibling indices stay valid
    for proc_i, path in sorted(paths, key=lambda pp: (pp[0], pp[1]), reverse=True):
        try:
            stmts, idx = _resolve(candidate, proc_i, path)
            del stmts[idx]
        except (IndexError, AttributeError):
            return None
    return candidate


class Shrinker:
    def __init__(
        self,
        oracle: DifferentialOracle,
        root: str,
        signature: Tuple[str, str],
        max_checks: int = 200,
    ):
        self.oracle = oracle
        self.root = root
        self.signature = signature
        self.max_checks = max_checks
        self.checks = 0

    # -- predicate -------------------------------------------------------------

    def still_fails(self, program: A.Program, views_list: List[List]) -> bool:
        if self.checks >= self.max_checks:
            return False
        self.checks += 1
        try:
            findings = self.oracle.check_views(program, self.root, views_list)
        except Exception:
            return False  # candidate broke the pipeline: not a reproducer
        return any(f.signature() == self.signature for f in findings)

    # -- program reduction --------------------------------------------------------

    def shrink_program(
        self, program: A.Program, views_list: List[List]
    ) -> A.Program:
        changed = True
        while changed and self.checks < self.max_checks:
            changed = False
            program, c = self._drop_procedures(program, views_list)
            changed |= c
            program, c = self._ddmin_statements(program, views_list)
            changed |= c
            program, c = self._unwrap_blocks(program, views_list)
            changed |= c
        return program

    def _drop_procedures(self, program, views_list):
        changed = False
        i = 0
        while i < len(program.procedures):
            proc = program.procedures[i]
            if proc.name == self.root:
                i += 1
                continue
            candidate = copy.deepcopy(program)
            del candidate.procedures[i]
            if self.still_fails(candidate, views_list):
                program = candidate
                changed = True
            else:
                i += 1
        return program, changed

    def _ddmin_statements(self, program, views_list):
        changed = False
        chunk = max(1, len(_stmt_paths(program)) // 2)
        while chunk >= 1:
            paths = _stmt_paths(program)
            i = 0
            while i < len(paths):
                group = paths[i : i + chunk]
                # only remove sibling-independent groups: removing a parent
                # and its child simultaneously is fine (deepest-first), but
                # keep groups small and simple
                candidate = _remove_paths(program, group)
                if candidate is not None and self.still_fails(
                    candidate, views_list
                ):
                    program = candidate
                    changed = True
                    paths = _stmt_paths(program)
                    # restart this chunk position on the new program
                else:
                    i += chunk
                if self.checks >= self.max_checks:
                    return program, changed
            chunk //= 2
        return program, changed

    def _unwrap_blocks(self, program, views_list):
        changed = False
        progress = True
        while progress and self.checks < self.max_checks:
            progress = False
            for proc_i, path in _stmt_paths(program):
                candidate = copy.deepcopy(program)
                try:
                    stmts, idx = _resolve(candidate, proc_i, path)
                    stmt = stmts[idx]
                except (IndexError, AttributeError):
                    continue
                replacements: List[List[A.Stmt]] = []
                if isinstance(stmt, A.If):
                    if stmt.else_body:
                        replacements.append([
                            A.If(
                                cond=stmt.cond,
                                then_body=stmt.then_body,
                                else_body=[],
                            )
                        ])
                    replacements.append(list(stmt.then_body))
                    if stmt.else_body:
                        replacements.append(list(stmt.else_body))
                elif isinstance(stmt, A.While):
                    replacements.append(list(stmt.body))
                for repl in replacements:
                    cand2 = copy.deepcopy(candidate)
                    stmts2, idx2 = _resolve(cand2, proc_i, path)
                    stmts2[idx2:idx2 + 1] = copy.deepcopy(repl)
                    if self.still_fails(cand2, views_list):
                        program = cand2
                        progress = True
                        changed = True
                        break
                if progress:
                    break  # paths are stale; recompute
        return program, changed

    # -- input reduction -----------------------------------------------------------

    def shrink_views(
        self, program: A.Program, views_list: List[List]
    ) -> List[List]:
        for vi, views in enumerate(list(views_list)):
            for ai, view in enumerate(views):
                if isinstance(view, list):
                    # try the empty list, then dropping single elements
                    for candidate_view in ([],):
                        if view == candidate_view:
                            continue
                        cand = _with_view(views_list, vi, ai, candidate_view)
                        if self.still_fails(program, cand):
                            views_list = cand
                            view = candidate_view
                    i = 0
                    while i < len(view):
                        shorter = view[:i] + view[i + 1 :]
                        cand = _with_view(views_list, vi, ai, shorter)
                        if self.still_fails(program, cand):
                            views_list = cand
                            view = shorter
                        else:
                            i += 1
                    # zero the data values
                    for i, v in enumerate(view):
                        if v == 0:
                            continue
                        zeroed = view[:i] + [0] + view[i + 1 :]
                        cand = _with_view(views_list, vi, ai, zeroed)
                        if self.still_fails(program, cand):
                            views_list = cand
                            view = zeroed
                else:
                    for candidate_view in (0, view // 2 if view else 0):
                        if view == candidate_view:
                            continue
                        cand = _with_view(views_list, vi, ai, candidate_view)
                        if self.still_fails(program, cand):
                            views_list = cand
                            view = candidate_view
        return views_list


def _with_view(views_list: List[List], vi: int, ai: int, new_view) -> List[List]:
    out = [list(v) for v in views_list]
    out[vi] = list(out[vi])
    out[vi][ai] = new_view
    return out


def shrink_finding(
    finding: Finding,
    oracle: Optional[DifferentialOracle] = None,
    max_checks: int = 200,
) -> Finding:
    """Minimize a finding; returns a new, smaller, still-failing Finding.

    If shrinking loses the failure (flaky finding), the original is
    returned unchanged.
    """
    oracle = oracle or Oracle()
    program = typecheck_program(parse_program(finding.source))
    views_list: List[List] = (
        [list(finding.inputs)] if finding.inputs is not None else []
    )
    shrinker = Shrinker(oracle, finding.root, finding.signature(), max_checks)
    if not shrinker.still_fails(program, views_list):
        return finding  # not reproducible as-is; report the original
    program = shrinker.shrink_program(program, views_list)
    if views_list:
        views_list = shrinker.shrink_views(program, views_list)
    final = oracle.check_views(program, finding.root, views_list)
    for f in final:
        if f.signature() == finding.signature():
            return f
    return finding  # defensive: should not happen
