"""The AM domain: multiset constraints as linear equations (paper §3.3).

An element is a conjunction of equalities ``u1 ⊎ … ⊎ us = v1 ⊎ … ⊎ vt``
over basic multiset terms ``mhd(n)``, ``mtl(n)`` and data variables (each
data variable denotes the singleton containing its value).  As in the
paper, such a conjunction is represented by linear constraints -- here a
row space of homogeneous linear equations over the terms, kept in reduced
row echelon form with exact rational arithmetic.

Entailment is row-space inclusion, the join is row-space intersection (the
equalities implied by both sides), and the lattice is finite for a finite
vocabulary so the widening is the join (paper: "there is no need for a
widening operator").

The rows are canonical: ``rref`` over the sorted support, which is
unique for a row space, so equal elements have equal rows.  Under the
fast kernels (``repro.kernels``) the operations rely on that: join and
widen return an operand when the rows are equal or one side entails the
other, and entailment reduces by the basis leads.  Every transformer
keeps the rows that mention no changed column as they are (a subset of a
canonical basis is canonical) and inserts only the rows it adds or
rewrites (``_rebuild``); a projection first eliminates the projected
columns among the rows that touch them.  The reference kernels
re-eliminate the whole system every time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.datawords import terms as T
from repro.datawords.base import LDWDomain
from repro.numeric.linexpr import Constraint, EQ, LinExpr
from repro.numeric.linalg import (
    Row,
    insert_row as _insert_row,
    nullspace as _nullspace,
    reduce_against as _reduce_against,
    rref as _rref,
    spans as _spans,
)


class MultisetValue:
    """An immutable AM element (row space of multiset equalities)."""

    __slots__ = ("rows", "is_bot")

    def __init__(self, rows: Iterable[Row] = (), bottom: bool = False):
        self.is_bot = bottom
        if bottom:
            self.rows: Tuple[Row, ...] = ()
        else:
            materialized = [dict(r) for r in rows if any(v != 0 for v in r.values())]
            columns = _columns(materialized)
            self.rows = tuple(_rref(materialized, columns))

    @classmethod
    def _canonical(cls, rows: Iterable[Row]) -> "MultisetValue":
        """Wrap rows that already are ``rref`` over their sorted support."""
        value = cls.__new__(cls)
        value.is_bot = False
        value.rows = tuple(rows)
        return value

    def support(self) -> frozenset:
        out: Set[str] = set()
        for r in self.rows:
            out |= set(r)
        return frozenset(out)

    def key(self) -> Tuple:
        if self.is_bot:
            return ("bottom",)
        return tuple(
            tuple(sorted(r.items())) for r in sorted(self.rows, key=lambda r: sorted(r))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, MultisetValue) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.is_bot:
            return "AM(bottom)"
        if not self.rows:
            return "AM(top)"
        return "AM(" + " & ".join(_format_row(r) for r in self.rows) + ")"


def _rebuild(untouched: Sequence[Row], rows: Iterable[Row]) -> MultisetValue:
    """``rref(untouched + rows)`` as a value, for ``untouched`` a subset of
    a canonical basis: such a subset is itself canonical, so only
    ``rows`` are eliminated, one insertion each."""
    basis = untouched
    for row in rows:
        basis = _insert_row(basis, row)
    return MultisetValue._canonical(basis)


def _columns(rows: Iterable[Row]) -> List[str]:
    cols: Set[str] = set()
    for r in rows:
        cols |= set(r)
    return sorted(cols)


def _format_row(row: Row) -> str:
    pos = [(c, k) for c, k in sorted(row.items()) if k > 0]
    neg = [(c, -k) for c, k in sorted(row.items()) if k < 0]
    def side(parts):
        if not parts:
            return "0"
        return " + ".join(c if k == 1 else f"{k}*{c}" for c, k in parts)
    return f"{side(pos)} = {side(neg)}"


class MultisetDomain(LDWDomain):
    """Operations over :class:`MultisetValue` (the paper's AM)."""

    # -- lattice -----------------------------------------------------------

    def top(self) -> MultisetValue:
        return MultisetValue(())

    def bottom(self) -> MultisetValue:
        return MultisetValue((), bottom=True)

    def is_bottom(self, value: MultisetValue) -> bool:
        return value.is_bot

    def leq(self, value1: MultisetValue, value2: MultisetValue) -> bool:
        if value1.is_bot:
            return True
        if value2.is_bot:
            return False
        if kernels.FAST:
            return len(value2.rows) <= len(value1.rows) and _spans(value1.rows, value2.rows)
        basis = list(value1.rows)
        columns = _columns(list(basis) + list(value2.rows))
        return all(not _reduce_against(r, basis, columns) for r in value2.rows)

    def join(self, value1: MultisetValue, value2: MultisetValue) -> MultisetValue:
        if value1.is_bot:
            return value2
        if value2.is_bot:
            return value1
        if kernels.FAST:
            # Equal canonical rows are equal elements, and the join of
            # comparable elements is the weaker one.  Only a row space
            # of lower dimension can be the weaker.
            n1, n2 = len(value1.rows), len(value2.rows)
            if n1 == n2:
                if value1.rows == value2.rows:
                    return value1
            elif n1 > n2:
                if _spans(value1.rows, value2.rows):
                    return value2
            elif _spans(value2.rows, value1.rows):
                return value1
        rows_a = list(value1.rows)
        rows_b = list(value2.rows)
        if not rows_a or not rows_b:
            return MultisetValue(())
        columns = _columns(rows_a + rows_b)
        # span(A) ∩ span(B): solve sum x_i A_i - sum y_j B_j = 0 (per column),
        # i.e. find the null space of the (columns x (|A|+|B|)) matrix, then
        # map each null vector back through A.
        n_a, n_b = len(rows_a), len(rows_b)
        eq_rows: List[Row] = []
        for col in columns:
            row: Row = {}
            for i, a in enumerate(rows_a):
                k = a.get(col)
                if k:
                    row[f"x{i}"] = k
            for j, b in enumerate(rows_b):
                k = b.get(col)
                if k:
                    row[f"z{j}"] = -k
            if row:
                eq_rows.append(row)
        unknowns = [f"x{i}" for i in range(n_a)] + [f"z{j}" for j in range(n_b)]
        null_basis = _nullspace(eq_rows, unknowns)
        out_rows: List[Row] = []
        for vec in null_basis:
            combo: Row = {}
            for i, a in enumerate(rows_a):
                k = vec.get(f"x{i}")
                if k:
                    for c, v in a.items():
                        combo[c] = combo.get(c, 0) + k * v
            combo = {c: v for c, v in combo.items() if v != 0}
            if combo:
                out_rows.append(combo)
        return MultisetValue(out_rows)

    def meet(self, value1: MultisetValue, value2: MultisetValue) -> MultisetValue:
        if value1.is_bot or value2.is_bot:
            return self.bottom()
        return self._with_rows(value1, value2.rows)

    def widen(self, value1: MultisetValue, value2: MultisetValue) -> MultisetValue:
        # Finite lattice for a finite vocabulary (paper §3.3): join suffices.
        return self.join(value1, value2)

    # -- vocabulary ----------------------------------------------------------

    def rename_words(self, value: MultisetValue, mapping: Mapping[str, str]) -> MultisetValue:
        if value.is_bot:
            return value
        return self._rename_columns(
            value, {c: T.rename_term(c, mapping) for c in value.support()}
        )

    def rename_data(self, value: MultisetValue, mapping: Mapping[str, str]) -> MultisetValue:
        """Rename data variables (columns of ``mapping``; word terms stay)."""
        if value.is_bot:
            return value
        return self._rename_columns(value, mapping)

    def _rename_columns(self, value: MultisetValue, mapping: Mapping[str, str]) -> MultisetValue:
        """Rename the columns of a non-bottom ``value`` (columns that
        ``mapping`` does not name keep theirs)."""
        if not kernels.FAST:
            return MultisetValue(
                [{mapping.get(c, c): k for c, k in r.items()} for r in value.rows]
            )
        support = sorted(value.support())
        images = [mapping.get(c, c) for c in support]
        moved = {c: new for c, new in zip(support, images) if new != c}
        if not moved:
            return value
        rows: List[Row] = []
        untouched: List[Row] = []
        renamed: List[Row] = []
        for r in value.rows:
            if moved.keys().isdisjoint(r):
                untouched.append(r)
            else:
                r = {moved.get(c, c): k for c, k in r.items()}
                renamed.append(r)
            rows.append(r)
        if all(a < b for a, b in zip(images, images[1:])):
            # An order-keeping renaming is injective and keeps each row's
            # lead and the order of the leads: the rows stay canonical.
            return MultisetValue._canonical(rows)
        return _rebuild(untouched, renamed)

    def project_words(self, value: MultisetValue, words: Iterable[str]) -> MultisetValue:
        cols = set()
        for w in words:
            cols.add(T.mhd(w))
            cols.add(T.mtl(w))
        return self._project_columns(value, cols)

    def forget_data(self, value: MultisetValue, dvars: Iterable[str]) -> MultisetValue:
        return self._project_columns(value, set(dvars))

    def _project_columns(self, value: MultisetValue, cols: Set[str]) -> MultisetValue:
        if value.is_bot:
            return value
        present = value.support() & cols
        if not present:
            return value
        # RREF with the projected columns ordered first leaves the rows
        # free of them in RREF over the remaining (sorted) columns.
        if not kernels.FAST:
            all_cols = _columns(list(value.rows))
            ordering = sorted(present) + [c for c in all_cols if c not in present]
            reduced = _rref([dict(r) for r in value.rows], ordering)
            return MultisetValue([r for r in reduced if not (set(r) & present)])
        # Only the rows touching ``present`` are eliminated: with U the
        # rows free of it and T the rest, span(U + T) ∩ {present = 0} is
        # span(U) + (span(T) ∩ {present = 0}), and a single row of T
        # spans nothing free of ``present``.
        untouched: List[Row] = []
        touched: List[Row] = []
        for r in value.rows:
            (untouched if present.isdisjoint(r) else touched).append(r)
        kept: List[Row] = []
        if len(touched) > 1:
            ordering = sorted(present) + [c for c in _columns(touched) if c not in present]
            kept = [r for r in _rref(touched, ordering) if present.isdisjoint(r)]
        return _rebuild(untouched, kept)

    def _with_rows(self, value: MultisetValue, rows: Sequence[Row]) -> MultisetValue:
        """The conjunction of ``value`` with ``rows`` (a bottom ``value``
        counts as having no rows)."""
        if not kernels.FAST:
            return MultisetValue(list(value.rows) + list(rows))
        out = _rebuild(value.rows, rows)
        if not value.is_bot and len(out.rows) == len(value.rows):
            return value  # every row was already entailed
        return out

    def add_singleton_word(self, value: MultisetValue, word: str) -> MultisetValue:
        if value.is_bot:
            return value
        return self._with_rows(value, [{T.mtl(word): Fraction(1)}])  # mtl(word) = emptyset

    # -- structural transformers -----------------------------------------------

    def concat(self, value: MultisetValue, target: str, parts: Sequence[str]) -> MultisetValue:
        if value.is_bot or len(parts) == 1 and parts[0] == target:
            return value
        fresh = "$concat"
        row: Row = {fresh: Fraction(-1), T.mtl(parts[0]): Fraction(1)}
        for p in parts[1:]:
            row[T.mhd(p)] = row.get(T.mhd(p), 0) + 1
            row[T.mtl(p)] = row.get(T.mtl(p), 0) + 1
        out = self._with_rows(value, [row])
        drop = {T.mtl(parts[0])}
        for p in parts[1:]:
            drop |= {T.mhd(p), T.mtl(p)}
        out = self._project_columns(out, drop)
        renaming = {fresh: T.mtl(target)}
        if target != parts[0]:
            renaming[T.mhd(parts[0])] = T.mhd(target)
        return self._rename_columns(out, renaming)

    def split(self, value: MultisetValue, word: str, tail: str) -> MultisetValue:
        if value.is_bot:
            return value
        # old mtl(word) = mhd(tail) ⊎ mtl(tail); mhd(word) is unchanged;
        # the remaining head word is a singleton (mtl = emptyset).
        old = T.mtl(word)

        def substitute(r: Row) -> Row:
            k = r.get(old, Fraction(0))
            new = {c: v for c, v in r.items() if c != old}
            if k != 0:
                new[T.mhd(tail)] = new.get(T.mhd(tail), 0) + k
                new[T.mtl(tail)] = new.get(T.mtl(tail), 0) + k
            return new

        singleton = {old: Fraction(1)}
        if not kernels.FAST:
            return MultisetValue([substitute(r) for r in value.rows] + [singleton])
        untouched = [r for r in value.rows if old not in r]
        changed = [substitute(r) for r in value.rows if old in r]
        return _rebuild(untouched, changed + [singleton])

    def restrict_len1(self, value: MultisetValue, word: str) -> MultisetValue:
        if value.is_bot:
            return value
        return self._with_rows(value, [{T.mtl(word): Fraction(1)}])

    # -- data transformers --------------------------------------------------------

    def _term_of_expr(self, expr: Optional[LinExpr]) -> Optional[str]:
        """The AM term equal to a numeric expression, when one exists."""
        if expr is None or expr.const != 0 or len(expr.coeffs) != 1:
            return None
        (term, coeff), = expr.coeffs.items()
        if coeff != 1:
            return None
        if T.is_hd(term):
            return T.mhd(T.word_of(term))
        if T.is_len(term) or T.is_elem(term):
            return None
        return term  # a data variable

    def assign_hd(self, value: MultisetValue, word: str, expr: Optional[LinExpr]) -> MultisetValue:
        if value.is_bot:
            return value
        out = self._project_columns(value, {T.mhd(word)})
        rhs = self._term_of_expr(expr)
        if rhs is not None and rhs != T.mhd(word):
            out = self._with_rows(out, [{T.mhd(word): Fraction(1), rhs: Fraction(-1)}])
        return out

    def assign_data(self, value: MultisetValue, dvar: str, expr: Optional[LinExpr]) -> MultisetValue:
        if value.is_bot:
            return value
        out = self._project_columns(value, {dvar})
        rhs = self._term_of_expr(expr)
        if rhs is not None and rhs != dvar:
            out = self._with_rows(out, [{dvar: Fraction(1), rhs: Fraction(-1)}])
        return out

    def meet_constraint(self, value: MultisetValue, constraint: Constraint) -> MultisetValue:
        """Keep only singleton equalities (``hd(n)=hd(m)``, ``hd(n)=d``, ``d=d'``)."""
        if value.is_bot or constraint.rel != EQ:
            return value
        expr = constraint.expr
        if expr.const != 0 or len(expr.coeffs) != 2:
            return value
        items = sorted(expr.coeffs.items())
        (t1, k1), (t2, k2) = items
        if k1 + k2 != 0 or abs(k1) != 1:
            return value
        m1 = self._term_of_expr(LinExpr({t1: 1}))
        m2 = self._term_of_expr(LinExpr({t2: 1}))
        if m1 is None or m2 is None:
            return value
        return self._with_rows(value, [{m1: Fraction(1), m2: Fraction(-1)}])

    def entails_constraint(self, value: MultisetValue, constraint: Constraint) -> bool:
        if value.is_bot:
            return True
        if constraint.rel != EQ:
            return False
        expr = constraint.expr
        if expr.const != 0:
            return False
        row: Row = {}
        for term, k in expr.coeffs.items():
            m = self._term_of_expr(LinExpr({term: 1}))
            if m is None:
                return False
            row[m] = row.get(m, 0) + k
        row = {c: k for c, k in row.items() if k != 0}
        if not row:
            return True
        if kernels.FAST:
            return _spans(value.rows, [row])
        basis = list(value.rows)
        columns = _columns(basis + [row])
        return not _reduce_against(row, basis, columns)

    def entails_row(self, value: MultisetValue, row: Row) -> bool:
        if value.is_bot:
            return True
        if kernels.FAST:
            return _spans(value.rows, [{c: k for c, k in row.items() if k}])
        basis = list(value.rows)
        columns = _columns(basis + [dict(row)])
        return not _reduce_against(dict(row), basis, columns)

    def add_word_copy_eq(self, value: MultisetValue, word: str, copy: str) -> MultisetValue:
        """paper eq. (I): eqm(n, n0): mhd(n)=mhd(n0) ∧ mtl(n)=mtl(n0)."""
        if value.is_bot:
            return value
        return self._with_rows(
            value,
            [
                {T.mhd(word): Fraction(1), T.mhd(copy): Fraction(-1)},
                {T.mtl(word): Fraction(1), T.mtl(copy): Fraction(-1)},
            ],
        )

    def add_ms_eq(self, value: MultisetValue, word: str, copy: str) -> MultisetValue:
        """The weaker ``ms(word) = ms(copy)`` (whole-multiset equality)."""
        if value.is_bot:
            return value
        return self._with_rows(
            value,
            [
                {
                    T.mhd(word): Fraction(1),
                    T.mtl(word): Fraction(1),
                    T.mhd(copy): Fraction(-1),
                    T.mtl(copy): Fraction(-1),
                }
            ],
        )

    # -- sigma_M support (paper Fig. 8) ------------------------------------------

    def membership_decompositions(self, term: str, value: MultisetValue) -> List[List[Tuple[str, int]]]:
        """Sound decompositions ``term ⊑ ⊎ rhs`` derivable from the rows.

        For each (combination of) row(s) where ``term`` can be isolated with
        coefficient -1, the positive-coefficient terms form a multiset union
        that must contain ``term``.  Returns a list of RHS descriptions
        ``[(term, multiplicity), ...]``; single rows and pairwise sums and
        differences of basis rows are explored.
        """
        if value.is_bot:
            return []
        candidates: List[Row] = [dict(r) for r in value.rows]
        base = list(value.rows)
        for i in range(len(base)):
            for j in range(len(base)):
                if i == j:
                    continue
                combo: Row = dict(base[i])
                for c, k in base[j].items():
                    combo[c] = combo.get(c, 0) + k
                combo = {c: k for c, k in combo.items() if k != 0}
                if combo:
                    candidates.append(combo)
                diff: Row = dict(base[i])
                for c, k in base[j].items():
                    diff[c] = diff.get(c, 0) - k
                diff = {c: k for c, k in diff.items() if k != 0}
                if diff:
                    candidates.append(diff)
        out: List[List[Tuple[str, int]]] = []
        seen: Set[Tuple] = set()
        for row in candidates:
            k = row.get(term, Fraction(0))
            if k == 0:
                continue
            inv = Fraction(-1) / k  # exact: never int/int
            scaled = {c: v * inv for c, v in row.items()}
            # term = sum of scaled RHS; positive entries bound term from above.
            rhs = [
                (c, int(v))
                for c, v in sorted(scaled.items())
                if c != term and v > 0 and v.denominator == 1
            ]
            if not rhs:
                continue
            key = tuple(rhs)
            if key not in seen:
                seen.add(key)
                out.append(rhs)
        return out

    # -- evaluation -----------------------------------------------------------------

    def satisfied_by(
        self,
        value: MultisetValue,
        words_env: Mapping[str, Sequence[int]],
        data_env: Mapping[str, int],
    ) -> bool:
        if value.is_bot:
            return False
        for row in value.rows:
            # Scale to integer coefficients first (RREF normalizes leading
            # coefficients to 1, leaving fractions elsewhere); the multiset
            # semantics of a row is that of its integer-scaled form.
            lcm = 1
            for coeff in row.values():
                d = coeff.denominator
                from math import gcd

                lcm = lcm * d // gcd(lcm, d)
            pos: Counter = Counter()
            neg: Counter = Counter()
            ok = True
            for term, coeff in row.items():
                bag = _eval_term(term, words_env, data_env)
                if bag is None:
                    ok = False
                    break
                k = coeff * lcm
                count = int(abs(k))
                target = pos if k > 0 else neg
                for v, c in bag.items():
                    target[v] += c * count
            if not ok:
                continue  # term outside the valuation: vacuously fine
            if pos != neg:
                return False
        return True

    def describe(self, value: MultisetValue) -> str:
        if value.is_bot:
            return "false"
        if not value.rows:
            return "true"
        parts = []
        for row in value.rows:
            parts.append(_format_row_pretty(row))
        return " & ".join(parts)


def _eval_term(
    term: str,
    words_env: Mapping[str, Sequence[int]],
    data_env: Mapping[str, int],
) -> Optional[Counter]:
    if T.is_mhd(term):
        w = T.word_of(term)
        if w not in words_env or not words_env[w]:
            return None
        return Counter([words_env[w][0]])
    if T.is_mtl(term):
        w = T.word_of(term)
        if w not in words_env:
            return None
        return Counter(words_env[w][1:])
    if term in data_env:
        return Counter([data_env[term]])
    return None


def _format_row_pretty(row: Row) -> str:
    """Render, grouping mhd(n)+mtl(n) with equal coefficients as ms(n)."""
    grouped: Dict[str, Fraction] = dict(row)
    words = {T.word_of(c) for c in row if T.is_mhd(c) or T.is_mtl(c)}
    display: Dict[str, Fraction] = {}
    for w in sorted(x for x in words if x):
        h, t = T.mhd(w), T.mtl(w)
        if grouped.get(h) is not None and grouped.get(h) == grouped.get(t):
            display[f"ms({w})"] = grouped.pop(h)
            grouped.pop(t)
    display.update(grouped)
    pos = [(c, k) for c, k in sorted(display.items()) if k > 0]
    neg = [(c, -k) for c, k in sorted(display.items()) if k < 0]
    def side(parts):
        if not parts:
            return "emptyset"
        return " + ".join(c if k == 1 else f"{k}*{c}" for c, k in parts)
    return f"{side(pos)} = {side(neg)}"
