"""A conjunction-of-linear-constraints abstract domain ("polyhedra-lite").

Elements are finite conjunctions of linear constraints over named terms,
with exact rational arithmetic.  Compared to full polyhedra (APRON, used by
the paper), the join is the *mutual-entailment filter* over the inequality
halves of both sides -- a sound over-approximation of the convex hull that
is precise for the interval/difference/sum constraints arising in list
analyses -- and the widening is the standard constraint-dropping widening.

Entailment and feasibility are decided exactly (over the rationals) with
the simplex solver; projection is Fourier-Motzkin with equality
substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import (
    AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro import kernels
from repro.numeric.linexpr import EQ, GE, Coeff, Constraint, LinExpr
from repro.numeric import simplex

_FM_BLOWUP_CAP = 600

# Join memo (fast-kernel mode): hull joins recur heavily across fixpoint
# iterations -- the same pair of constraint systems is joined at every
# visit of a loop head.  Keyed on the ORDERED constraint tuples of both
# operands: a constraint is its canonical form, so equal tuples mean
# representation-identical operands and the cached result is
# representation-identical to a fresh join.
_JOIN_CACHE = kernels.memo(50_000)

# minimized() memo, keyed on the ordered constraint tuple the same way: a
# hit returns the very Polyhedron a fresh sweep over the same list would
# build.
_MIN_CACHE = kernels.memo(50_000)


def cache_stats() -> dict:
    return {
        "join_hits": _JOIN_CACHE.hits,
        "join_misses": _JOIN_CACHE.misses,
        "join_entries": len(_JOIN_CACHE),
        "min_hits": _MIN_CACHE.hits,
        "min_misses": _MIN_CACHE.misses,
        "min_entries": len(_MIN_CACHE),
        **simplex._SWEEP_COUNTS,
    }


def clear_caches() -> None:
    _JOIN_CACHE.clear()
    _MIN_CACHE.clear()
    simplex._SWEEP_COUNTS.update(dict.fromkeys(simplex._SWEEP_COUNTS, 0))


def _direction_of(constraint: Constraint) -> Tuple[Tuple, Coeff]:
    """Canonical (coefficient-direction key, effective constant) of a GE
    constraint.

    The key is the primitive integer coefficient vector (the coefficients
    divided by their gcd ``g``) and the effective constant is
    ``const / g``.  Two GE constraints share a key exactly when their
    coefficient vectors are positive multiples of each other, and the one
    with the smaller effective constant is the tighter.
    """
    if constraint._dir is not None:
        return constraint._dir
    expr = constraint.expr
    items = sorted(expr.coeffs.items())
    g = gcd(*expr.coeffs.values())
    const = expr.const
    if g == 1:
        constraint._dir = (tuple(items), const)
    else:
        constraint._dir = (
            tuple((v, k // g) for v, k in items),
            Fraction(const, g),
        )
    return constraint._dir


class Polyhedron:
    """An immutable conjunction of linear constraints (or bottom)."""

    __slots__ = (
        "constraints",
        "_bottom",
        "_feasible",
        "_entail_cache",
        "_eq_basis",
        "_ges",
    )

    def __init__(self, constraints: Iterable[Constraint] = (), bottom: bool = False):
        if bottom:
            self.constraints: Tuple[Constraint, ...] = ()
            self._bottom: Optional[bool] = True
        else:
            # Dedup equalities and keep only the tightest of any family of
            # parallel inequalities (same coefficient direction);
            # Fourier-Motzkin output is dominated by such redundancy.
            by_direction: Dict[Tuple, Tuple[Coeff, Constraint]] = {}
            eqs: Dict[Constraint, None] = {}
            contradiction = False
            for c in constraints:
                if c.is_trivial():
                    continue
                if c.is_contradiction():
                    contradiction = True
                    break
                if c.rel == EQ:
                    eqs.setdefault(c)
                    continue
                direction, eff_const = _direction_of(c)
                best = by_direction.get(direction)
                if best is None or eff_const < best[0]:
                    by_direction[direction] = (eff_const, c)
            if contradiction:
                self.constraints = ()
                self._bottom = True
            else:
                kept = list(eqs) + [
                    c for _, c in by_direction.values()
                ]
                self.constraints = tuple(kept)
                self._bottom = None if kept else False
        self._feasible: Optional[bool] = None
        self._entail_cache: Dict[Constraint, bool] = {}
        self._eq_basis = None
        self._ges = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def top() -> "Polyhedron":
        return _TOP

    @staticmethod
    def bottom() -> "Polyhedron":
        return _BOTTOM

    @staticmethod
    def of(*constraints: Constraint) -> "Polyhedron":
        return Polyhedron(constraints)

    # -- queries ----------------------------------------------------------

    def is_bottom(self) -> bool:
        if self._bottom is not None:
            return self._bottom
        if self._feasible is None:
            self._feasible = simplex.is_feasible(self.constraints)
        self._bottom = not self._feasible
        return self._bottom

    def is_top(self) -> bool:
        return not self.constraints and self._bottom is not True

    def support(self) -> frozenset:
        if self._bottom is True:
            return frozenset()
        out: Set[str] = set()
        for c in self.constraints:
            out |= c.support()
        return frozenset(out)

    def _gauss_prescreen(self, candidate: Constraint) -> Optional[bool]:
        """Decide entailment by reduction against the equality basis.

        Complete for equality consequences of equalities; for inequalities
        it answers True when the reduced form matches a stored inequality
        (or is trivially valid).  Returns None when undecided -- the LP
        handles those.  Only valid on feasible polyhedra.
        """
        from repro.numeric.linalg import reduce_against

        if self._eq_basis is None:
            from repro.numeric.linalg import rref

            rows = []
            for c in self.constraints:
                if c.rel == EQ:
                    row = dict(c.expr.coeffs)
                    if c.expr.const != 0:
                        row[_CONST] = c.expr.const
                    rows.append(row)
            columns = sorted(set().union(set(), *rows))
            self._eq_basis = (rref(rows, columns), columns)
            self._ges = {c for c in self.constraints if c.rel == GE}
        basis, columns = self._eq_basis
        row = dict(candidate.expr.coeffs)
        if candidate.expr.const != 0:
            row[_CONST] = candidate.expr.const
        if basis:
            # extend columns with any new variables (they reduce trivially)
            cols = columns + [v for v in row if v not in columns]
            row = reduce_against(row, basis, cols)
        const = row.pop(_CONST, Fraction(0))
        if not row:
            if candidate.rel == EQ:
                return const == 0
            return True if const >= 0 else None
        if candidate.rel == GE:
            if Constraint(LinExpr(row, const), GE) in self._ges:
                return True
        return None

    def entails(self, candidate: Constraint) -> bool:
        if self._bottom is True:
            return True
        cached = self._entail_cache.get(candidate)
        if cached is None:
            if self.is_bottom():
                cached = True
            else:
                cached = self._gauss_prescreen(candidate)
                if cached is None:
                    cached = simplex.entails(
                        self.constraints, candidate, assume_feasible=True
                    )
            self._entail_cache[candidate] = cached
        return cached

    def entails_all(self, candidates: Iterable[Constraint]) -> bool:
        return all(self.entails(c) for c in candidates)

    def leq(self, other: "Polyhedron") -> bool:
        """Inclusion: gamma(self) included in gamma(other)."""
        if self.is_bottom():
            return True
        if other._bottom is True:
            return False
        return self.entails_all(other.constraints)

    def equivalent(self, other: "Polyhedron") -> bool:
        return self.leq(other) and other.leq(self)

    def satisfies(self, env: Mapping[str, Fraction]) -> bool:
        """Does the concrete point satisfy every constraint?"""
        if self._bottom is True:
            return False
        return all(c.holds(env) for c in self.constraints)

    # -- lattice operations ------------------------------------------------

    def meet(self, other: "Polyhedron") -> "Polyhedron":
        if self._bottom is True or other._bottom is True:
            return _BOTTOM
        return Polyhedron(self.constraints + other.constraints)

    def meet_constraints(self, constraints: Iterable[Constraint]) -> "Polyhedron":
        if self._bottom is True:
            return _BOTTOM
        return Polyhedron(self.constraints + tuple(constraints))

    def join(self, other: "Polyhedron") -> "Polyhedron":
        """Join: the exact convex hull when tractable, else the weak join.

        The hull uses the Benoy-King-Mesnard encoding (scale one operand by
        λ, the other by 1-λ, then project); when Fourier-Motzkin explodes,
        fall back to the mutual-entailment filter enriched with the common
        affine hull.
        """
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        if self is other:
            return self
        if kernels.FAST:
            memo_key = (self.constraints, other.constraints)
            cached = _JOIN_CACHE.get(memo_key)
            if cached is not None:
                return cached
        result = self._hull_join(other)
        if result is None:
            result = self._weak_join(other)
        if kernels.FAST:
            _JOIN_CACHE.put(memo_key, result)
        return result

    def _hull_join(self, other: "Polyhedron") -> Optional["Polyhedron"]:
        variables = sorted(self.support() | other.support())
        if len(variables) > 24 or (
            len(self.constraints) + len(other.constraints) > 60
        ):
            return None
        lam = "$lam"
        aux = {v: f"$a_{v}" for v in variables}
        cons: List[Constraint] = []
        for c in self.constraints:
            # a.x + b >= 0 scaled onto (y, lam): a.y + b*lam >= 0
            coeffs = {aux[v]: k for v, k in c.expr.coeffs.items()}
            if c.expr.const != 0:
                coeffs[lam] = c.expr.const
            cons.append(Constraint(LinExpr(coeffs), c.rel))
        for c in other.constraints:
            # scaled onto (x - y, 1 - lam)
            coeffs: Dict[str, Coeff] = {}
            for v, k in c.expr.coeffs.items():
                coeffs[v] = coeffs.get(v, 0) + k
                coeffs[aux[v]] = coeffs.get(aux[v], 0) - k
            if c.expr.const != 0:
                coeffs[lam] = coeffs.get(lam, 0) - c.expr.const
            cons.append(Constraint(LinExpr(coeffs, c.expr.const), c.rel))
        cons.append(Constraint.ge(LinExpr.var(lam), 0))
        cons.append(Constraint.le(LinExpr.var(lam), 1))
        combined = Polyhedron(cons)
        eliminate = [lam] + [aux[v] for v in variables]
        projected = combined._project_capped(eliminate, cap=48)
        if projected is None:
            return None
        result, known = projected
        return result.minimized(known)

    def _project_capped(
        self, variables: List[str], cap: int
    ) -> Optional[Tuple["Polyhedron", Set[Constraint]]]:
        """Projection that gives up (returns None) on FM blowup.

        Returns the projection and the rows of it known to be
        irredundant: those the last cap sweep kept and that no later
        elimination touched.  A kept row is not entailed by the other
        kept rows, so some point violates it alone.  An elimination
        builds each new row from rows that mention its variable, so the
        point with that variable dropped satisfies them and still
        violates only the untouched row.  That needs a feasible system,
        as a hull join's is (both operands are non-empty).
        """
        cons = list(self.constraints)
        known: Set[Constraint] = set()
        for var in variables:
            cons = _eliminate(cons, var)
            if cons is None:
                return _BOTTOM, set()
            known = {c for c in known if var not in c.expr.coeffs}
            if len(cons) > cap:
                cons = Polyhedron(cons).minimized(known).constraints
                if len(cons) > cap:
                    return None
                known = set(cons)
                cons = list(cons)
        return Polyhedron(cons), known

    def _weak_join(self, other: "Polyhedron") -> "Polyhedron":
        candidates: List[Constraint] = list(
            _common_equalities(self.equalities(), other.equalities())
        )
        seen: Set[Constraint] = set(candidates)
        for c in self.constraints + other.constraints:
            for half in c.halves():
                if half not in seen:
                    seen.add(half)
                    candidates.append(half)
        kept = [c for c in candidates if self.entails(c) and other.entails(c)]
        return Polyhedron(_recover_equalities(kept)).minimized()

    def widen(self, other: "Polyhedron") -> "Polyhedron":
        """Standard widening: drop constraints of self not entailed by other.

        Additionally keeps equalities of ``other`` entailed by ``self``
        (APRON-style mutual-redundancy refinement) which preserves
        relational facts like ``len(x) == len(x0)`` across iterations.
        """
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        kept: List[Constraint] = []
        for c in _common_equalities(self.equalities(), other.equalities()):
            if self.entails(c) and other.entails(c):
                kept.append(c)
        for c in self.constraints:
            for half in c.halves():
                if other.entails(half):
                    kept.append(half)
        for c in other.constraints:
            if c.rel == EQ and self.entails(c):
                kept.append(c)
        return Polyhedron(_recover_equalities(kept))

    # -- transforms -------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "Polyhedron":
        if self._bottom is True:
            return _BOTTOM
        return Polyhedron(c.rename(mapping) for c in self.constraints)

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Polyhedron":
        if self._bottom is True:
            return _BOTTOM
        return Polyhedron(c.substitute(mapping) for c in self.constraints)

    def project(self, variables: Iterable[str]) -> "Polyhedron":
        """Existentially quantify the given terms (Fourier-Motzkin)."""
        if self._bottom is True:
            return _BOTTOM
        target = set(variables) & set(self.support())
        if not target:
            return self
        if self.is_bottom():
            return _BOTTOM
        cons = list(self.constraints)
        for var in sorted(target):
            cons = _eliminate(cons, var)
            if cons is None:
                return _BOTTOM
        return Polyhedron(cons).minimized()

    def restrict_to(self, variables: Iterable[str]) -> "Polyhedron":
        """Project away everything *outside* ``variables``."""
        keep = set(variables)
        return self.project([v for v in self.support() if v not in keep])

    def assign(self, var: str, expr: LinExpr) -> "Polyhedron":
        """Strongest post of the assignment ``var := expr``."""
        if self._bottom is True:
            return _BOTTOM
        fresh = var + "'$assign"
        with_def = self.meet_constraints([Constraint.eq(LinExpr.var(fresh), expr)])
        return with_def.project([var]).rename({fresh: var})

    def minimized(self, known: AbstractSet[Constraint] = frozenset()) -> "Polyhedron":
        """Drop semantically redundant constraints.

        ``known``: constraints that the others do not entail (see
        ``_project_capped``); the fast-kernel sweeps keep them without
        an LP.  The result does not depend on it.
        """
        if self._bottom is True:
            return _BOTTOM
        cons = list(self.constraints)
        if len(cons) <= 1:
            return self
        if kernels.FAST:
            mkey = tuple(cons)
            cached = _MIN_CACHE.get(mkey)
            if cached is not None:
                return cached
            kept = None
            if len(cons) > simplex._INT_DIRECT_MAX:
                # Large sweeps share one warm-started LP model instead of
                # building a model per entailment check.
                kept = simplex.minimize_constraints(cons, known)
            if kept is None:
                kept = simplex.minimize_exact(cons, known)
            result = Polyhedron(kept)
            _MIN_CACHE.put(mkey, result)
            return result
        kept = []
        for i, c in enumerate(cons):
            rest = kept + cons[i + 1 :]
            if not simplex.entails(rest, c, assume_feasible=True):
                kept.append(c)
        return Polyhedron(kept)

    def equalities(self) -> List[Constraint]:
        return [c for c in self.constraints if c.rel == EQ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.equivalent(other)

    def __hash__(self) -> int:  # structural hash; semantic eq is not hashable
        return hash((self._bottom is True, frozenset(self.constraints)))

    def __repr__(self) -> str:
        if self._bottom is True:
            return "Poly(bottom)"
        if not self.constraints:
            return "Poly(top)"
        return "Poly(" + " & ".join(repr(c) for c in self.constraints) + ")"


def _eliminate(cons: List[Constraint], var: str) -> Optional[List[Constraint]]:
    """Eliminate ``var`` from a constraint list; None signals bottom.

    Every constraint the elimination builds is a positive multiple of the
    textbook one (substitution through ``var = -rest/a``, or the FM pair
    ``p*(-kq) + q*kp``), computed on the integer values of the canonical
    inputs, so the constructor gives it the textbook constraint's
    canonical form.  Constraints without ``var`` pass through unchanged.
    """
    # Prefer substitution through an equality involving var.
    for i, c in enumerate(cons):
        if c.rel == EQ and var in c.expr.coeffs:
            a = c.expr.coeffs[var]
            scale, sign = (a, -1) if a > 0 else (-a, 1)
            out = []
            for j, d in enumerate(cons):
                if j == i:
                    continue
                k = d.expr.coeffs.get(var)
                if k is None:
                    out.append(d)
                    continue
                # |a|*d - sign(a)*k*c: var cancels, the scale is positive
                sub = Constraint(_combine(d.expr, scale, c.expr, sign * k), d.rel)
                if sub.is_contradiction():
                    return None
                if not sub.is_trivial():
                    out.append(sub)
            return out
        # An inequality mentioning var but nothing else on one side is fine
        # for the generic FM path below.
    pos: List[Constraint] = []
    neg: List[Constraint] = []
    rest_cons: List[Constraint] = []
    for c in cons:
        k = c.expr.coeffs.get(var)
        if k is None:
            rest_cons.append(c)
        elif k > 0:
            pos.append(c)
        else:
            neg.append(c)
    if len(pos) * len(neg) > _FM_BLOWUP_CAP:
        # Sound fallback: drop all constraints mentioning var.
        return rest_cons
    for p in pos:
        kp = p.expr.coeffs[var]
        for q in neg:
            new = Constraint(_combine(p.expr, -q.expr.coeffs[var], q.expr, kp), GE)
            if new.is_contradiction():
                return None
            if not new.is_trivial():
                rest_cons.append(new)
    return rest_cons


def _combine(pe: LinExpr, a: int, qe: LinExpr, b: int) -> LinExpr:
    """``a*pe + b*qe`` for ``a > 0`` over the plain-int values of two
    canonical constraints (the ``Constraint`` constructor reduces it)."""
    coeffs = {v: k * a for v, k in pe.coeffs.items()}
    for v, k in qe.coeffs.items():
        cur = coeffs.get(v)
        if cur is None:
            coeffs[v] = k * b
        else:
            cur += k * b
            if cur:
                coeffs[v] = cur
            else:
                del coeffs[v]
    return LinExpr._of_ints(coeffs, pe.const * a + qe.const * b)


def _recover_equalities(inequalities: Sequence[Constraint]) -> List[Constraint]:
    """Pair up opposite inequality halves back into equalities."""
    seen: Set[Constraint] = set()
    result: List[Constraint] = []
    consumed: Set[int] = set()
    for i, c in enumerate(inequalities):
        if c.rel != GE:
            result.append(c)
            consumed.add(i)
            continue
        seen.add(c)
        if Constraint(-c.expr, GE) in seen:
            result.append(Constraint(c.expr, EQ))
            consumed.add(i)
    for i, c in enumerate(inequalities):
        if i in consumed or c.rel != GE:
            continue
        if Constraint(c.expr, EQ) in result:
            continue
        if Constraint(-c.expr, GE) in seen:
            continue  # folded into an equality above
        result.append(c)
    return result


_CONST = "$const"


def _common_equalities(
    eqs_a: Sequence[Constraint], eqs_b: Sequence[Constraint]
) -> List[Constraint]:
    """The intersection of two affine equality spans.

    Each equality ``e == 0`` is a vector over (variables + constant); the
    equalities valid on the union of the two polyhedra include every
    linear combination lying in both row spaces -- exactly the affine-hull
    part a candidate-filter join cannot discover syntactically.
    """
    if not eqs_a or not eqs_b:
        return []
    rows_a = [_eq_row(c) for c in eqs_a]
    rows_b = [_eq_row(c) for c in eqs_b]
    columns = sorted(set().union(*rows_a, *rows_b))
    # Solve sum x_i a_i - sum z_j b_j = 0 per column; each null vector gives
    # a common equality sum x_i a_i.
    eq_rows = []
    for col in columns:
        row = {}
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
    unknowns = [f"x{i}" for i in range(len(rows_a))] + [
        f"z{j}" for j in range(len(rows_b))
    ]
    from repro.numeric.linalg import nullspace as _nullspace

    out: List[Constraint] = []
    for vec in _nullspace(eq_rows, unknowns):
        combo: Dict[str, Fraction] = {}
        for i, a in enumerate(rows_a):
            k = vec.get(f"x{i}", Fraction(0))
            if k:
                for col, val in a.items():
                    combo[col] = combo.get(col, Fraction(0)) + k * val
        const = combo.pop(_CONST, Fraction(0))
        expr = LinExpr(combo, const)
        if expr.coeffs:
            out.append(Constraint(expr, EQ))
    return out


def _eq_row(c: Constraint) -> Dict[str, Fraction]:
    row = dict(c.expr.coeffs)
    if c.expr.const != 0:
        row[_CONST] = c.expr.const
    return row


_TOP = Polyhedron(())
_BOTTOM = Polyhedron((), bottom=True)
