"""The AU domain: universally quantified formulas over data words (§3.2).

An element is ``E ∧ ⋀_g ∀y. g(y) → U_g`` where ``E`` constrains the
quantifier-free terms (``hd(w)``, ``len(w)``, data variables) and each
guard pattern instance ``g`` from the domain's pattern set owns a body
``U_g`` over ``E``-terms, the guarded element terms ``w[y]`` and the
position variables ``y``.  Both ``E`` and the bodies live in the
polyhedra-lite numeric domain.

Representation notes:

- the clause map is *sparse*: a missing guard instance means body = top;
- a body equal to ``bottom`` records that the guard is provably vacuous
  under ``E`` (e.g. the word is too short) -- such clauses join and widen
  like bottom, which is the vacuity-aware join precision the analysis of
  loops requires (DESIGN.md §5, decision 2);
- the split#/concat# transformers delegate to the generic
  :mod:`repro.datawords.reinterp` engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.datawords import terms as T
from repro.datawords.base import LDWDomain
from repro.datawords.patterns import GuardInstance, PatternSet, pattern_set
from repro.datawords.reinterp import HEAD, Recomposition, Segment, TAIL, WHOLE, reinterpret
from repro.numeric.linexpr import Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron


class UniversalValue:
    """An immutable AU element."""

    __slots__ = ("E", "clauses", "is_bot")

    def __init__(
        self,
        E: Polyhedron = None,
        clauses: Mapping[GuardInstance, Polyhedron] = None,
        bottom: bool = False,
    ):
        self.is_bot = bottom or (E is not None and E.is_bottom())
        if self.is_bot:
            self.E = Polyhedron.bottom()
            self.clauses: Dict[GuardInstance, Polyhedron] = {}
        else:
            self.E = E if E is not None else Polyhedron.top()
            self.clauses = {
                gi: body
                for gi, body in (clauses or {}).items()
                if not body.is_top()
            }

    def words(self) -> frozenset:
        out: Set[str] = set()
        for t in self.E.support():
            w = T.word_of(t)
            if w is not None:
                out.add(w)
        for gi in self.clauses:
            out |= set(gi.words)
        return frozenset(out)

    def data_vars(self) -> frozenset:
        out: Set[str] = set()
        for t in self.E.support():
            if T.word_of(t) is None and not T.is_posvar(t):
                out.add(t)
        return frozenset(out)

    def __repr__(self) -> str:
        if self.is_bot:
            return "AU(bottom)"
        parts = [repr(self.E)]
        for gi, body in sorted(self.clauses.items(), key=lambda kv: repr(kv[0])):
            parts.append(f"forall {gi!r}. {body!r}")
        return "AU(" + " ;  ".join(parts) + ")"


class UniversalDomain(LDWDomain):
    """Operations over :class:`UniversalValue`, parameterized by patterns."""

    def __init__(self, patterns: PatternSet = None):
        self.patterns = patterns if patterns is not None else pattern_set("P=", "P1")

    # -- clause access helpers ------------------------------------------------

    def body_of(self, value: UniversalValue, gi: GuardInstance) -> Polyhedron:
        """The effective body: stored, or top."""
        return value.clauses.get(gi, Polyhedron.top())

    def _vacuous(self, value: UniversalValue, gi: GuardInstance) -> bool:
        return value.E.meet(gi.guard_poly()).is_bottom()

    def _effective_body(self, value: UniversalValue, gi: GuardInstance) -> Polyhedron:
        body = value.clauses.get(gi)
        if body is not None:
            return body
        if self._vacuous(value, gi):
            return Polyhedron.bottom()
        return Polyhedron.top()

    # -- lattice ----------------------------------------------------------------

    def top(self) -> UniversalValue:
        return UniversalValue()

    def bottom(self) -> UniversalValue:
        return UniversalValue(bottom=True)

    def is_bottom(self, value: UniversalValue) -> bool:
        return value.is_bot

    def leq(self, value1: UniversalValue, value2: UniversalValue) -> bool:
        if value1.is_bot:
            return True
        if value2.is_bot:
            return False
        if not value1.E.leq(value2.E):
            return False
        for gi, body2 in value2.clauses.items():
            if body2.is_top():
                continue
            body1 = value1.clauses.get(gi, Polyhedron.top())
            context = value1.E.meet(gi.guard_poly()).meet(body1)
            if context.is_bottom():
                continue  # vacuous on the left
            if not context.entails_all(body2.constraints):
                return False
        return True

    def _prune_body(
        self, E: Polyhedron, gi: GuardInstance, body: Polyhedron
    ) -> Polyhedron:
        """Drop body constraints recoverable from E and the guard.

        Syntactic matches only (cheap): any use site re-meets the body
        with E and the guard, so such constraints carry no information.
        """
        if body.is_bottom() or body.is_top():
            return body
        context = set()
        for c in tuple(E.constraints) + tuple(gi.guard_poly().constraints):
            context.add(c)
            context.update(c.halves())
        kept = [c for c in body.constraints if c not in context]
        if len(kept) == len(body.constraints):
            return body
        return Polyhedron(kept)

    def _merge(self, value1, value2, combine, contextualize: bool) -> UniversalValue:
        E = combine(value1.E, value2.E)
        clauses: Dict[GuardInstance, Polyhedron] = {}
        for gi in dict.fromkeys([*value1.clauses, *value2.clauses]):
            b1 = self._effective_body(value1, gi)
            b2 = self._effective_body(value2, gi)
            if contextualize:
                # A body holds together with its own E and guard; meeting
                # them in before the join is the precision the paper gets
                # from joining only isomorphic abstract heaps.
                if not b1.is_bottom():
                    b1 = value1.E.meet(gi.guard_poly()).meet(b1)
                if not b2.is_bottom():
                    b2 = value2.E.meet(gi.guard_poly()).meet(b2)
            merged = self._prune_body(E, gi, combine(b1, b2))
            if not merged.is_top():
                clauses[gi] = merged
        return UniversalValue(E, clauses)

    def join(self, value1: UniversalValue, value2: UniversalValue) -> UniversalValue:
        if value1.is_bot:
            return value2
        if value2.is_bot:
            return value1
        return self._merge(value1, value2, lambda a, b: a.join(b), True)

    def meet(self, value1: UniversalValue, value2: UniversalValue) -> UniversalValue:
        if value1.is_bot or value2.is_bot:
            return self.bottom()
        E = value1.E.meet(value2.E)
        clauses = dict(value1.clauses)
        for gi, body in value2.clauses.items():
            mine = clauses.get(gi)
            clauses[gi] = body if mine is None else mine.meet(body)
        return UniversalValue(E, clauses)

    def widen(self, value1: UniversalValue, value2: UniversalValue) -> UniversalValue:
        if value1.is_bot:
            return value2
        if value2.is_bot:
            return value1
        # No contextualization under widening: meeting E back into the
        # bodies on every round would keep changing their syntactic form
        # and threaten termination of the ascending chain.
        return self._merge(value1, value2, lambda a, b: a.widen(b), False)

    # -- vocabulary ----------------------------------------------------------------

    def rename_words(self, value: UniversalValue, mapping: Mapping[str, str]) -> UniversalValue:
        if value.is_bot:
            return value
        term_map: Dict[str, str] = {}
        for t in value.E.support():
            term_map[t] = T.rename_term(t, mapping)
        E = value.E.rename(term_map)
        clauses = {}
        for gi, body in value.clauses.items():
            body_map = {t: T.rename_term(t, mapping) for t in body.support()}
            clauses[gi.rename(dict(mapping))] = body.rename(body_map)
        return UniversalValue(E, clauses)

    def project_words(self, value: UniversalValue, words: Iterable[str]) -> UniversalValue:
        if value.is_bot:
            return value
        dropped = set(words)
        if not dropped:
            return value
        E = value.E.project(
            [t for t in value.E.support() if T.word_of(t) in dropped]
        )
        clauses = {}
        for gi, body in value.clauses.items():
            if set(gi.words) & dropped:
                continue
            remaining = body.project(
                [t for t in body.support() if T.word_of(t) in dropped]
            )
            if not remaining.is_top():
                clauses[gi] = remaining
        return UniversalValue(E, clauses)

    def forget_data(self, value: UniversalValue, dvars: Iterable[str]) -> UniversalValue:
        if value.is_bot:
            return value
        dropped = set(dvars)
        E = value.E.project([t for t in value.E.support() if t in dropped])
        clauses = {}
        for gi, body in value.clauses.items():
            remaining = body.project([t for t in body.support() if t in dropped])
            if not remaining.is_top():
                clauses[gi] = remaining
        return UniversalValue(E, clauses)

    def add_singleton_word(self, value: UniversalValue, word: str) -> UniversalValue:
        if value.is_bot:
            return value
        E = value.E.meet_constraints(
            [Constraint.eq(LinExpr.var(T.length(word)), 1)]
        )
        return UniversalValue(E, value.clauses)

    # -- structural transformers -------------------------------------------------

    def concat(
        self,
        value: UniversalValue,
        target: str,
        parts: Sequence[str],
        all_words: Iterable[str] = None,
    ) -> UniversalValue:
        if value.is_bot or (len(parts) == 1 and parts[0] == target):
            return value
        alias = {p: f"{p}@old" for p in parts}
        aliased = self.rename_words(value, alias)
        words = set(all_words) if all_words is not None else set(value.words())
        unchanged = words - set(parts)
        reco = Recomposition(
            {target: [Segment(WHOLE, alias[p]) for p in parts]}, unchanged
        )
        E, clauses = reinterpret(
            aliased.E, aliased.clauses, reco, self.patterns, value.data_vars()
        )
        clauses = {gi: self._prune_body(E, gi, b) for gi, b in clauses.items()}
        return UniversalValue(E, clauses)

    def split(
        self,
        value: UniversalValue,
        word: str,
        tail: str,
        all_words: Iterable[str] = None,
    ) -> UniversalValue:
        if value.is_bot:
            return value
        alias = {word: f"{word}@old"}
        aliased = self.rename_words(value, alias)
        aliased = UniversalValue(
            aliased.E.meet_constraints(
                [Constraint.ge(LinExpr.var(T.length(alias[word])), 2)]
            ),
            aliased.clauses,
        )
        if aliased.is_bot:
            return self.bottom()
        words = set(all_words) if all_words is not None else set(value.words())
        unchanged = words - {word}
        reco = Recomposition(
            {
                word: [Segment(HEAD, alias[word])],
                tail: [Segment(TAIL, alias[word])],
            },
            unchanged,
        )
        E, clauses = reinterpret(
            aliased.E, aliased.clauses, reco, self.patterns, value.data_vars()
        )
        clauses = {gi: self._prune_body(E, gi, b) for gi, b in clauses.items()}
        return UniversalValue(E, clauses)

    def advance(
        self,
        value: UniversalValue,
        pred: str,
        word: str,
        tail: str,
        all_words: Iterable[str] = None,
    ) -> UniversalValue:
        """Fused ``pred := pred · head(word)``, ``tail := tail(word)``.

        One recomposition instead of split-then-concat: the head-anchor
        clauses (BEF2) of ``word`` are consumed directly by the placement
        cases of ``pred``'s new clauses, which is what keeps pointwise
        equality with an untouched copy alive across a cursor advance.
        """
        if value.is_bot:
            return value
        alias = {word: f"{word}@old", pred: f"{pred}@old"}
        aliased = self.rename_words(value, alias)
        aliased = UniversalValue(
            aliased.E.meet_constraints(
                [Constraint.ge(LinExpr.var(T.length(alias[word])), 2)]
            ),
            aliased.clauses,
        )
        if aliased.is_bot:
            return self.bottom()
        words = set(all_words) if all_words is not None else set(value.words())
        unchanged = words - {word, pred}
        reco = Recomposition(
            {
                pred: [Segment(WHOLE, alias[pred]), Segment(HEAD, alias[word])],
                tail: [Segment(TAIL, alias[word])],
            },
            unchanged,
        )
        E, clauses = reinterpret(
            aliased.E, aliased.clauses, reco, self.patterns, value.data_vars()
        )
        clauses = {gi: self._prune_body(E, gi, b) for gi, b in clauses.items()}
        return UniversalValue(E, clauses)

    def restrict_len1(self, value: UniversalValue, word: str) -> UniversalValue:
        if value.is_bot:
            return value
        E = value.E.meet_constraints(
            [Constraint.eq(LinExpr.var(T.length(word)), 1)]
        )
        return UniversalValue(E, value.clauses)

    # -- data transformers -----------------------------------------------------------

    def _assign_term(
        self, value: UniversalValue, term: str, expr: Optional[LinExpr]
    ) -> UniversalValue:
        """Shared implementation of hd/data assignment.

        Clause bodies are updated *in context*: a body holds conjointly
        with E, so facts E knows about the assigned term (e.g. ``e >= m``
        just assumed by a branch) must flow into the body before the old
        value of the term is projected away -- otherwise relations like
        ``m >= x[y]`` die at every ``m = e`` in a max-scan.
        """
        if value.is_bot:
            return value
        old_E = value.E
        if expr is None:
            E = old_E.project([term])
        else:
            E = old_E.assign(term, expr)
        clauses = {}
        for gi, body in value.clauses.items():
            touched = term in body.support() or (
                expr is not None and bool(expr.support() & body.support())
            )
            relevant = term in body.support() or any(
                term in c.support() for c in old_E.constraints
            )
            if not (touched or relevant):
                clauses[gi] = body
                continue
            if body.is_bottom():
                clauses[gi] = body
                continue
            contextual = old_E.meet(body)
            if expr is None:
                updated = contextual.project([term])
            else:
                updated = contextual.assign(term, expr)
            clauses[gi] = self._prune_body(E, gi, updated)
        return UniversalValue(E, clauses)

    def assign_hd(self, value: UniversalValue, word: str, expr: Optional[LinExpr]) -> UniversalValue:
        return self._assign_term(value, T.hd(word), expr)

    def assign_data(self, value: UniversalValue, dvar: str, expr: Optional[LinExpr]) -> UniversalValue:
        return self._assign_term(value, dvar, expr)

    def meet_constraint(self, value: UniversalValue, constraint: Constraint) -> UniversalValue:
        if value.is_bot:
            return value
        return UniversalValue(
            value.E.meet_constraints([constraint]), value.clauses
        )

    def entails_constraint(self, value: UniversalValue, constraint: Constraint) -> bool:
        if value.is_bot:
            return True
        return value.E.entails(constraint)

    def meet_clause(
        self, value: UniversalValue, gi: GuardInstance, body: Polyhedron
    ) -> UniversalValue:
        """Conjoin ``∀y. g → body`` (used by assume/assert and call setup)."""
        if value.is_bot:
            return value
        clauses = dict(value.clauses)
        mine = clauses.get(gi)
        clauses[gi] = body if mine is None else mine.meet(body)
        return UniversalValue(value.E, clauses)

    def add_word_copy_eq(self, value: UniversalValue, word: str, copy: str) -> UniversalValue:
        """paper eq. (H): eq≈(word, copy)."""
        if value.is_bot:
            return value
        out = self.meet_constraints(
            value,
            [
                Constraint.eq(LinExpr.var(T.hd(word)), LinExpr.var(T.hd(copy))),
                Constraint.eq(
                    LinExpr.var(T.length(word)), LinExpr.var(T.length(copy))
                ),
            ],
        )
        for name in ("EQ2", "SUF2"):
            if name not in self.patterns:
                continue
            for w1, w2 in ((word, copy), (copy, word)):
                gi = GuardInstance(name, (w1, w2))
                groups = gi.pattern.posvars()
                y1, y2 = groups[0][0], groups[1][0]
                body = Polyhedron.of(
                    Constraint.eq(
                        LinExpr.var(T.elem(w1, y1)), LinExpr.var(T.elem(w2, y2))
                    )
                )
                out = self.meet_clause(out, gi, body)
        if "BEF2" in self.patterns:
            # With len(word) = len(copy) the BEF2 guard (y = len' - len = 0)
            # is vacuous; record bottom so later splits can refine it.
            for w1, w2 in ((word, copy), (copy, word)):
                gi = GuardInstance("BEF2", (w1, w2))
                out = self.meet_clause(out, gi, Polyhedron.bottom())
        return out

    # -- evaluation -----------------------------------------------------------------

    def satisfied_by(
        self,
        value: UniversalValue,
        words_env: Mapping[str, Sequence[int]],
        data_env: Mapping[str, int],
    ) -> bool:
        if value.is_bot:
            return False
        env = dict(data_env)
        for w, letters in words_env.items():
            if not letters:
                return False  # words are non-empty sequences
            env[T.hd(w)] = letters[0]
            env[T.length(w)] = len(letters)
        for c in value.E.constraints:
            if all(t in env for t in c.support()) and not c.holds(env):
                return False
        for gi, body in value.clauses.items():
            if any(w not in words_env for w in gi.words):
                continue
            var_word = gi.var_word()
            posvars = gi.posvars()
            ranges = []
            for v in posvars:
                w = var_word[v]
                ranges.append(range(1, len(words_env[w])))
            guard = gi.guard_poly()
            for combo in _product(ranges):
                point = dict(env)
                for v, val in zip(posvars, combo):
                    point[v] = val
                    point[T.elem(var_word[v], v)] = words_env[var_word[v]][val]
                if not all(c.holds(point) for c in guard.constraints):
                    continue
                for c in body.constraints:
                    if all(t in point for t in c.support()) and not c.holds(point):
                        return False
                if body.is_bottom():
                    return False  # a vacuity claim contradicted by a witness
        return True

    def describe(self, value: UniversalValue) -> str:
        if value.is_bot:
            return "false"
        parts = []
        if not value.E.is_top():
            parts.append(" & ".join(repr(c) for c in value.E.constraints))
        for gi, body in sorted(value.clauses.items(), key=lambda kv: repr(kv[0])):
            if body.is_bottom():
                continue
            inner = " & ".join(repr(c) for c in body.constraints)
            parts.append(f"forall {gi!r}. ({inner})")
        return " & ".join(parts) if parts else "true"


def _product(ranges: List[range]):
    if not ranges:
        yield ()
        return
    import itertools

    yield from itertools.product(*ranges)
