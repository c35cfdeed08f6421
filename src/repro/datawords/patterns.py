"""Guard patterns for the AU domain (paper §3.2).

A *guard pattern* constrains a vector of universally quantified position
variables: which word's tail each belongs to, a total order / difference
constraints between positions of the same word, and a linear constraint
over the positions (we also allow ``len`` terms of the guarded words, which
gives the suffix-alignment pattern needed for a closed treatment of list
traversals).

The paper's pattern names map onto this registry as::

    P=  (y1 in tl(x), y2 in tl(x'), y1 = y2)        -> EQ2  (+ SUF2 closure)
    P1  (y in tl(x))                                -> ALL1
    P2  (y1, y2 in tl(x), y1 <= y2)                 -> ORD2 (+ CROSS2 closure)
    y in tl(x), y = 1                               -> FST1
    y in tl(x), y = len(x) - 1                      -> LST1
    y1, y2 in tl(x), y2 = y1 + 1                    -> SUCC2

A :class:`GuardInstance` is a pattern applied to concrete word variables;
it knows its position variables, their word memberships, and the guard
constraint as a polyhedron (membership bounds included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro import kernels
from repro.datawords import terms as T
from repro.numeric.linexpr import Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron


@dataclass(frozen=True)
class Pattern:
    """A guard pattern schema.

    ``arity`` is the number of distinct word slots; ``vars_per_slot`` gives
    how many position variables quantify over each slot's tail;
    ``extra_guard`` builds the pattern-specific constraints (order,
    equality, alignment) given the word tuple and the position variable
    names grouped by slot.
    """

    name: str
    arity: int
    vars_per_slot: Tuple[int, ...]
    extra_guard: Callable[[Tuple[str, ...], Tuple[Tuple[str, ...], ...]], List[Constraint]]
    description: str = ""

    def posvars(self) -> Tuple[Tuple[str, ...], ...]:
        """Canonical position variable names grouped by word slot."""
        groups: List[Tuple[str, ...]] = []
        index = 1
        for count in self.vars_per_slot:
            groups.append(tuple(T.posvar(index + i) for i in range(count)))
            index += count
        return tuple(groups)

    def instantiate(self, words: Sequence[str]) -> "GuardInstance":
        if len(words) != self.arity:
            raise ValueError(f"pattern {self.name} expects {self.arity} words")
        return GuardInstance(self.name, tuple(words))


# GuardInstance -> guard polyhedron; a Table 1 pass builds about 55.
_GUARD_CACHE = kernels.memo(10_000)


@dataclass(frozen=True)
class GuardInstance:
    """A pattern applied to concrete word variables."""

    pattern_name: str
    words: Tuple[str, ...]

    @property
    def pattern(self) -> Pattern:
        return PATTERNS[self.pattern_name]

    def posvars(self) -> Tuple[str, ...]:
        """All position variables, flat, in canonical order."""
        return tuple(v for group in self.pattern.posvars() for v in group)

    def var_word(self) -> Dict[str, str]:
        """position variable -> the word whose tail it ranges over."""
        mapping: Dict[str, str] = {}
        for word, group in zip(self.words, self.pattern.posvars()):
            for v in group:
                mapping[v] = word
        return mapping

    def membership_bounds(self) -> List[Constraint]:
        """``1 <= y <= len(w) - 1`` for every position variable."""
        cons: List[Constraint] = []
        for v, w in self.var_word().items():
            y = LinExpr.var(v)
            cons.append(Constraint.ge(y, 1))
            cons.append(Constraint.le(y, LinExpr.var(T.length(w)) - 1))
        return cons

    def guard_poly(self) -> Polyhedron:
        """The full guard: membership bounds plus pattern constraints."""
        cached = _GUARD_CACHE.get(self)
        if cached is None:
            cons = self.membership_bounds()
            cons.extend(
                self.pattern.extra_guard(self.words, self.pattern.posvars())
            )
            cached = Polyhedron(cons)
            _GUARD_CACHE.put(self, cached)
        return cached

    def elem_terms(self) -> List[str]:
        """The element terms ``w[y]`` this guard makes available."""
        return [T.elem(w, v) for v, w in self.var_word().items()]

    def rename(self, mapping: Dict[str, str]) -> "GuardInstance":
        return GuardInstance(
            self.pattern_name, tuple(mapping.get(w, w) for w in self.words)
        )

    def __repr__(self) -> str:
        return f"{self.pattern_name}({', '.join(self.words)})"


def _no_extra(words, groups) -> List[Constraint]:
    return []


def _ord2(words, groups) -> List[Constraint]:
    (y1, y2) = groups[0]
    return [Constraint.le(LinExpr.var(y1), LinExpr.var(y2))]


def _succ2(words, groups) -> List[Constraint]:
    (y1, y2) = groups[0]
    return [Constraint.eq(LinExpr.var(y2), LinExpr.var(y1) + 1)]


def _eq2(words, groups) -> List[Constraint]:
    y1 = groups[0][0]
    y2 = groups[1][0]
    return [Constraint.eq(LinExpr.var(y1), LinExpr.var(y2))]


def _suf2(words, groups) -> List[Constraint]:
    # y2 - y1 = len(w2) - len(w1): w1 aligned with the suffix of w2.
    y1 = groups[0][0]
    y2 = groups[1][0]
    w1, w2 = words
    return [
        Constraint.eq(
            LinExpr.var(y2) - LinExpr.var(y1),
            LinExpr.var(T.length(w2)) - LinExpr.var(T.length(w1)),
        )
    ]


def _bef2(words, groups) -> List[Constraint]:
    # y2 = len(w2) - len(w1): the position of w2 aligned with hd(w1) when
    # w1 is a suffix of w2 (the body typically relates w2[y2] with hd(w1)).
    y2 = groups[1][0]
    w1, w2 = words
    return [
        Constraint.eq(
            LinExpr.var(y2),
            LinExpr.var(T.length(w2)) - LinExpr.var(T.length(w1)),
        )
    ]


def _fst1(words, groups) -> List[Constraint]:
    return [Constraint.eq(LinExpr.var(groups[0][0]), 1)]


def _lst1(words, groups) -> List[Constraint]:
    (w,) = words
    return [
        Constraint.eq(
            LinExpr.var(groups[0][0]), LinExpr.var(T.length(w)) - 1
        )
    ]


PATTERNS: Dict[str, Pattern] = {
    "ALL1": Pattern(
        "ALL1", 1, (1,), _no_extra, "forall y in tl(x)  [paper's P1]"
    ),
    "ORD2": Pattern(
        "ORD2", 1, (2,), _ord2, "forall y1 <= y2 in tl(x)  [paper's P2]"
    ),
    "SUCC2": Pattern(
        "SUCC2", 1, (2,), _succ2, "forall y1, y2 = y1+1 in tl(x)"
    ),
    "EQ2": Pattern(
        "EQ2", 2, (1, 1), _eq2, "forall y1 in tl(x), y2 in tl(x'), y1 = y2  [paper's P=]"
    ),
    "SUF2": Pattern(
        "SUF2", 2, (1, 1), _suf2,
        "forall y1 in tl(x), y2 in tl(x'), y2 - y1 = len(x') - len(x)",
    ),
    "CROSS2": Pattern(
        "CROSS2", 2, (1, 1), _no_extra, "forall y1 in tl(x), y2 in tl(x')"
    ),
    "BEF2": Pattern(
        "BEF2", 2, (0, 1), _bef2,
        "forall y in tl(x'), y = len(x') - len(x)  (anchor of hd(x) in x')",
    ),
    "FST1": Pattern("FST1", 1, (1,), _fst1, "forall y in tl(x), y = 1"),
    "LST1": Pattern(
        "LST1", 1, (1,), _lst1, "forall y in tl(x), y = len(x) - 1"
    ),
}


class PatternSet(frozenset):
    """A frozen set of pattern names, closed for the concat#/split# engine.

    The paper requires the pattern set to be *closed* (under projection) for
    ``concat#`` to be precise; the :func:`closure` applied at construction
    adds the helper patterns each base pattern needs (e.g. ``EQ2`` pulls in
    ``SUF2``, which tracks suffix alignment while a list is traversed).
    """

    def __new__(cls, names: Iterable[str]):
        return super().__new__(cls, closure(names))

    def instances(self, words: Sequence[str]) -> List[GuardInstance]:
        """Every guard instance of this set over a vocabulary of words."""
        word_list = sorted(words)
        out: List[GuardInstance] = []
        for name in sorted(self):
            pattern = PATTERNS[name]
            if pattern.arity == 1:
                out.extend(pattern.instantiate((w,)) for w in word_list)
            else:
                for w1 in word_list:
                    for w2 in word_list:
                        if w1 != w2:
                            out.append(pattern.instantiate((w1, w2)))
        return out

    def __repr__(self) -> str:
        return "PatternSet({" + ", ".join(sorted(self)) + "})"


_CLOSURE_RULES: Dict[str, FrozenSet[str]] = {
    "EQ2": frozenset({"SUF2", "BEF2"}),
    "ORD2": frozenset({"ALL1", "CROSS2"}),
    "SUCC2": frozenset({"FST1", "LST1"}),
    "SUF2": frozenset({"BEF2"}),
    "BEF2": frozenset(),
    "CROSS2": frozenset(),
    "ALL1": frozenset(),
    "FST1": frozenset(),
    "LST1": frozenset(),
}


def closure(names: Iterable[str]) -> FrozenSet[str]:
    """Close a set of pattern names under the helper-pattern rules."""
    todo = list(names)
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        if name not in PATTERNS:
            raise KeyError(f"unknown pattern {name!r}")
        seen.add(name)
        todo.extend(_CLOSURE_RULES.get(name, frozenset()))
    return frozenset(seen)


# The paper's named pattern sets (§7): P= is always included.
P_EQ = PatternSet({"EQ2"})
P_1 = PatternSet({"EQ2", "ALL1"})
P_2 = PatternSet({"EQ2", "ALL1", "ORD2"})


def pattern_set(*names: str) -> PatternSet:
    """Build a closed pattern set from the paper's names.

    Accepts both registry names (``"ALL1"``) and the paper's aliases
    (``"P="``, ``"P1"``, ``"P2"``).
    """
    aliases = {"P=": "EQ2", "P1": "ALL1", "P2": "ORD2"}
    return PatternSet(aliases.get(n, n) for n in names)
