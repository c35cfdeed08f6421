"""Linear programming for the polyhedra-lite domain.

Feasibility, entailment and redundancy checks over
:class:`~repro.numeric.linexpr` constraints with *free*
(sign-unrestricted) variables, answered by three solvers:

- the reference: a two-phase primal simplex over a dense tableau of
  :class:`fractions.Fraction` entries, with Bland's anti-cycling rule;
- its fast-kernel twin over integer rows, which pivots the free
  variables out once and runs the two phases over the slacks alone
  (the optimum is unique, so both give the same answers);
- a float pre-pass through scipy's compiled HiGHS solver for boolean
  queries on systems above ``_INT_DIRECT_MAX`` constraints (on every
  system in reference-kernel mode).  It decides only clear-cut queries:
  a value near zero, an inconclusive status or a coefficient beyond
  float range falls back to the exact simplex.

Only HiGHS's extension module is loaded, not the ``scipy.optimize``
package around it, which takes most of a second to import and which
the pre-pass does not use.  ``REPRO_EXACT_LP=1`` skips HiGHS: exact
arithmetic everywhere.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import kernels
from repro.numeric.linalg import direction_key, eq_basis, reduce_mod
from repro.numeric.linexpr import EQ, GE, Constraint, LinExpr

try:  # the HiGHS bindings take numpy arrays
    import numpy as _np
except ImportError:  # pragma: no cover - exact arithmetic only
    _np = None

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's HiGHS extension module, or None (exact arithmetic only).

    Loaded from its file inside scipy's package without running
    ``scipy.optimize``, and registered under its own name so that a
    later ``import scipy.optimize`` reuses it.
    """
    if _np is None or os.environ.get("REPRO_EXACT_LP") == "1":
        return None
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    try:
        scipy_spec = importlib.util.find_spec("scipy")  # does not import it
        roots = scipy_spec.submodule_search_locations if scipy_spec else None
        for root in roots or ():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
                if not os.path.isfile(path):
                    continue
                spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_HIGHS_MODULE] = module
                spec.loader.exec_module(module)
                return module
    except (ImportError, OSError, ValueError):
        sys.modules.pop(_HIGHS_MODULE, None)
    try:  # a layout this loader does not know: import it the usual way
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    return _core


_highs_core = _load_highs_core()

_CLEAR = 1e-6  # |margin| above this: trust the float verdict
_TIGHT = 1e-9  # within this of zero: treat as exactly tight


class LPResult:
    """Outcome of an LP solve: a status and, if optimal, the value."""

    __slots__ = ("status", "value")

    def __init__(self, status: str, value: Optional[Fraction] = None):
        self.status = status
        self.value = value

    def __repr__(self) -> str:
        if self.status == OPTIMAL:
            return f"LPResult(optimal, {self.value})"
        return f"LPResult({self.status})"


def _pivot(tableau: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    """Pivot the tableau on (row, col)."""
    pivot_row = tableau[row]
    inv = Fraction(1) / pivot_row[col]
    tableau[row] = [entry * inv for entry in pivot_row]
    pivot_row = tableau[row]
    for r, current in enumerate(tableau):
        if r == row:
            continue
        factor = current[col]
        if factor != 0:
            tableau[r] = [a - factor * b for a, b in zip(current, pivot_row)]
    basis[row] = col


def _simplex_phase(
    tableau: List[List[Fraction]],
    basis: List[int],
    cost: List[Fraction],
    allowed: Sequence[bool],
) -> str:
    """Minimize ``cost . x`` over the tableau in place.

    ``tableau`` rows are ``[a_1 .. a_n | b]`` with the basis columns forming
    an identity; ``allowed[j]`` masks columns eligible to enter (used to
    exclude artificial variables in phase 2).  Returns OPTIMAL or UNBOUNDED;
    the reduced-cost row is recomputed from scratch each iteration, which is
    O(m*n) but fine at our scale.
    """
    num_cols = len(tableau[0]) - 1
    while True:
        # Reduced costs: z_j - c_j where z_j = sum over basic rows.
        reduced = list(cost)
        offset = Fraction(0)
        for row, var in enumerate(basis):
            cb = cost[var]
            if cb != 0:
                row_data = tableau[row]
                offset += cb * row_data[-1]
                for j in range(num_cols):
                    reduced[j] -= cb * row_data[j]
        entering = -1
        for j in range(num_cols):  # Bland: smallest eligible index.
            if allowed[j] and reduced[j] < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best_ratio: Optional[Fraction] = None
        for r, row_data in enumerate(tableau):
            a = row_data[entering]
            if a > 0:
                ratio = row_data[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)


# Memo for exact solves: one AU transfer step can issue thousands of
# entailment checks whose ambiguous cases all fall back to the exact
# simplex, and the same system recurs across join/widen/leq chains.
# Keyed on the order-independent frozenset of the constraints plus the
# objective and the sense; LPResult values are immutable, so sharing them
# is safe.
#
# A constraint is its canonical form (coprime integers; an equality's
# sign fixed), and ``==`` compares relation and form, so two keys are
# equal iff the systems are the same conjunction of half-spaces and
# hyperplanes (see tests/test_kernels.py).  Duplicates collapsing in the
# frozenset is harmless (conjunction is idempotent), and trivial
# constraints are dropped before keying, so ``0 >= 0`` cannot alias two
# systems.  The objective is a LinExpr, which keeps its scale and its
# constant, so ``2*x`` and ``x`` get separate slots.
_SOLVE_CACHE = kernels.memo(200_000)

# Fast exact solves and their blowup aborts (see ``_solve_lp_int``).
_int_solves = _int_fallbacks = 0

# Integer tableau entries past this bit-length abort the fast solver in
# favour of the exact-Fraction reference ("overflow risk" for the fast
# path: Python ints cannot overflow, but unreduced blowup costs more
# than the reference would).
_INT_BLOWUP_BITS = 2048

# Up to this many constraints, fast-kernel mode answers boolean queries
# with the (memoized) integer simplex directly: HiGHS model-build
# overhead dominates sub-millisecond problems, and after phase 0 a system
# this small leaves the exact simplex only a few slack rows to pivot.
# Larger systems keep the float pre-pass.
_INT_DIRECT_MAX = 20


def cache_stats() -> dict:
    """Hit/miss counters of the exact-LP memo (cumulative per process);
    the engine reports per-run deltas in its ``stats()['lp_cache']``.
    Nothing reuses a simplex basis any more: the two ``basis_*`` keys
    read 0 and stay for readers of the full counter set."""
    return {
        "solve_hits": _SOLVE_CACHE.hits,
        "solve_misses": _SOLVE_CACHE.misses,
        "solve_entries": len(_SOLVE_CACHE),
        "entails_entries": len(_ENTAILS_CACHE),
        "basis_phase2_reuse": 0,
        "basis_incremental_reuse": 0,
        "int_solves": _int_solves,
        "int_fallbacks": _int_fallbacks,
    }


def clear_caches() -> None:
    global _int_solves, _int_fallbacks
    _SOLVE_CACHE.clear()
    _ENTAILS_CACHE.clear()
    _int_solves = _int_fallbacks = 0


def solve_lp(
    constraints: Iterable[Constraint],
    objective: LinExpr,
    maximize: bool = False,
) -> LPResult:
    """Minimize (or maximize) ``objective`` subject to ``constraints``.

    Variables are free.  The reference splits every free variable ``x``
    into ``x+ - x-`` with both parts non-negative; the fast kernel
    pivots the free variables out first and solves over the slacks (see
    ``_solve_lp_int``).  Inequalities get slack variables, and a two-phase
    simplex with artificial variables decides feasibility and optimizes.
    Results are memoized on the canonical constraint system (see
    ``_SOLVE_CACHE``).
    """
    global _int_fallbacks
    cons = [c for c in constraints if not c.is_trivial()]
    for c in cons:
        if c.is_contradiction():
            return LPResult(INFEASIBLE)

    memo_key = (frozenset(cons), objective, maximize)
    cached = _SOLVE_CACHE.get(memo_key)
    if cached is not None:
        return cached
    result = None
    if kernels.FAST:
        result = _solve_lp_int(cons, objective, maximize)
        if result is None:
            _int_fallbacks += 1
    if result is None:
        result = _solve_lp_uncached(cons, objective, maximize)
    _SOLVE_CACHE.put(memo_key, result)
    return result


def _solve_lp_uncached(
    cons: List[Constraint],
    objective: LinExpr,
    maximize: bool,
) -> LPResult:

    variables = sorted(set().union(*[c.support() for c in cons], objective.support()) or set())
    var_index = {v: i for i, v in enumerate(variables)}
    n_free = len(variables)

    rows: List[Tuple[List[Fraction], Fraction, str]] = []
    for c in cons:
        coeffs = [Fraction(0)] * n_free
        for var, k in c.expr.coeffs.items():
            # Coerce: coefficients may be plain ints, but the tableau must
            # stay Fraction-valued (the ratio test divides raw entries).
            coeffs[var_index[var]] = Fraction(k)
        # expr >= 0  <=>  sum coeffs*x >= -const
        rows.append((coeffs, Fraction(-c.expr.const), c.rel))

    n_slack = sum(1 for _, _, rel in rows if rel == GE)
    m = len(rows)
    # Columns: [x+ (n_free)] [x- (n_free)] [slacks (n_slack)] [artificials (m)]
    n_cols = 2 * n_free + n_slack + m
    tableau: List[List[Fraction]] = []
    basis: List[int] = []
    slack_i = 0
    for r, (coeffs, rhs, rel) in enumerate(rows):
        row = [Fraction(0)] * (n_cols + 1)
        sign = 1 if rhs >= 0 else -1
        for j, k in enumerate(coeffs):
            row[j] = sign * k
            row[n_free + j] = -sign * k
        if rel == GE:
            row[2 * n_free + slack_i] = Fraction(-sign)
            slack_i += 1
        art_col = 2 * n_free + n_slack + r
        row[art_col] = Fraction(1)
        row[-1] = abs(rhs)
        tableau.append(row)
        basis.append(art_col)

    if m == 0:
        # No constraints: objective unbounded unless constant.
        if objective.coeffs:
            return LPResult(UNBOUNDED)
        value = objective.const
        return LPResult(OPTIMAL, value)

    # Phase 1: minimize sum of artificials.
    phase1_cost = [Fraction(0)] * n_cols
    for j in range(2 * n_free + n_slack, n_cols):
        phase1_cost[j] = Fraction(1)
    allowed = [True] * n_cols
    status = _simplex_phase(tableau, basis, phase1_cost, allowed)
    assert status == OPTIMAL  # phase 1 is always bounded below by 0
    infeas = sum(tableau[r][-1] for r in range(m) if basis[r] >= 2 * n_free + n_slack)
    if infeas > 0:
        return LPResult(INFEASIBLE)
    # Drive artificials out of the basis when possible.
    for r in range(m):
        if basis[r] >= 2 * n_free + n_slack:
            for j in range(2 * n_free + n_slack):
                if tableau[r][j] != 0:
                    _pivot(tableau, basis, r, j)
                    break

    # Phase 2.
    sense = -1 if maximize else 1
    phase2_cost = [Fraction(0)] * n_cols
    for var, j in var_index.items():
        k = objective.coeffs.get(var, Fraction(0)) * sense
        phase2_cost[j] = k
        phase2_cost[n_free + j] = -k
    allowed = [j < 2 * n_free + n_slack for j in range(n_cols)]
    status = _simplex_phase(tableau, basis, phase2_cost, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    value = objective.const
    assignment = [Fraction(0)] * n_cols
    for r, var in enumerate(basis):
        assignment[var] = tableau[r][-1]
    for var, j in var_index.items():
        k = objective.coeffs.get(var, Fraction(0))
        value += k * (assignment[j] - assignment[n_free + j])
    return LPResult(OPTIMAL, value)


# -- fast integer simplex ----------------------------------------------------
#
# The optimized twin of ``_solve_lp_uncached``, solved in slack space.
# Free variables stay whole instead of splitting into x+ - x-: phase 0
# pivots each free variable into the basis once, equality rows first, so
# that its row becomes the variable's definition and is substituted out
# of every later row and of the objective.  An equality row left with no
# free variable is empty: contradictory or redundant.  What remains is a
# standard-form LP over the nonnegative slacks of the inequality rows no
# free variable took, usually a few rows and columns, which the same
# two-phase primal simplex as the reference solves.  A free variable that
# no row took but the objective still mentions makes the LP unbounded,
# which is reported only once phase 1 has shown the system feasible.
#
# Each tableau row is held as integer numerators over one positive
# integer denominator, so a pivot is pure integer arithmetic (one gcd
# pass per touched row instead of a gcd inside every Fraction
# operation).  The optimum of an LP is unique, so statuses and values
# equal the reference's by construction; they are properties of the
# problem, not of the pivot order.


def _row_gcd_reduce(nums, den):
    """Divide a row (numerators + positive denominator) by its gcd."""
    g = den
    for n in nums:
        if n:
            g = gcd(g, n)
            if g == 1:
                return nums, den
    if g > 1:
        return [n // g for n in nums], den // g
    return nums, den


def _pivot_int(rows, dens, basis, row, col):
    """Integer pivot on (row, col); mirrors ``_pivot`` over Fractions."""
    prow = rows[row]
    pn = prow[col]
    if pn < 0:  # normalize so the new basic column has positive value
        prow = [-x for x in prow]
        pn = -pn
    nums, den = _row_gcd_reduce(list(prow), pn)
    rows[row] = nums
    dens[row] = den
    for r in range(len(rows)):
        if r == row:
            continue
        factor = rows[r][col]
        if factor == 0:
            continue
        e = dens[r]
        rrow = rows[r]
        new = [m * den - factor * n for m, n in zip(rrow, nums)]
        new, nden = _row_gcd_reduce(new, e * den)
        rows[r] = new
        dens[r] = nden
    basis[row] = col


def _phase_int(rows, dens, basis, cost, allowed):
    """Minimize an integer cost vector in place; OPTIMAL/UNBOUNDED.

    Returns None when tableau denominators blow past the bit-length
    guard -- the caller falls back to the exact-Fraction reference.
    """
    num_cols = len(cost)
    m = len(rows)
    while True:
        # Reduced costs scaled by the lcm of the active basic-row
        # denominators (a positive factor: sign tests and Bland's
        # smallest-index choice are invariant under it).  Bland's rule
        # needs only the FIRST negative entry, so the scan is lazy per
        # column: near optimality (or when the entering column is early)
        # this skips most of the O(m*n) reduced-cost row.
        active = []
        scale = 1
        for r in range(m):
            cb = cost[basis[r]]
            if cb:
                d = dens[r]
                scale = scale * d // gcd(scale, d)
                active.append((r, cb))
        factors = [(cb * (scale // dens[r]), rows[r]) for r, cb in active]
        entering = -1
        for j in range(num_cols):  # Bland: smallest eligible index.
            if not allowed[j]:
                continue
            rj = cost[j] * scale
            for f, rrow in factors:
                a = rrow[j]
                if a:
                    rj -= f * a
            if rj < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best_num = best_den = 0  # ratio = rhs/a, compared cross-multiplied
        for r in range(m):
            a = rows[r][entering]
            if a > 0:
                rhs = rows[r][-1]
                if (
                    leaving < 0
                    or rhs * best_den < best_num * a
                    or (rhs * best_den == best_num * a
                        and basis[r] < basis[leaving])
                ):
                    best_num, best_den = rhs, a
                    leaving = r
        if leaving < 0:
            return UNBOUNDED
        _pivot_int(rows, dens, basis, leaving, entering)
        if max(dens).bit_length() > _INT_BLOWUP_BITS:
            return None


def _int_row(expr, index, width):
    """``expr`` times the lcm of its denominators, as a ``width``-cell
    integer row: coefficients at their ``index`` columns, minus the
    constant in the last cell (``expr >= 0  <=>  sum coeffs*x >= -const``,
    as in the reference).  Returns the row and the lcm."""
    lcm = expr.const.denominator
    for k in expr.coeffs.values():
        d = k.denominator
        lcm = lcm * d // gcd(lcm, d)
    row = [0] * width
    for var, k in expr.coeffs.items():
        row[index[var]] = k.numerator * (lcm // k.denominator)
    const = expr.const
    row[-1] = -const.numerator * (lcm // const.denominator)
    return row, lcm


def _solve_lp_int(cons, objective, maximize):
    """Fast-path exact solve; None means "fall back to the reference"."""
    global _int_solves
    _int_solves += 1
    variables = sorted(set().union(objective.support(), *[c.support() for c in cons]))
    n = len(variables)
    index = {v: j for j, v in enumerate(variables)}
    ineqs = [c for c in cons if c.rel == GE]
    n_slack = len(ineqs)
    width = n + n_slack + 1
    # Phase-0 rows ``[free | slacks | rhs]``: equalities ``a.x = b``
    # first, then inequalities ``a.x - s = b``; each carries its slack's
    # column, or -1 for an equality.
    pending = [(_int_row(c.expr, index, width)[0], 1, -1) for c in cons if c.rel == EQ]
    for i, c in enumerate(ineqs):
        row = _int_row(c.expr, index, width)[0]
        row[n + i] = -1
        pending.append((row, 1, n + i))
    # The objective row: substitutions move constants into its last cell
    # (minus their sum, like a constraint's rhs).
    obj, obj_scale = _int_row(objective, index, width)
    obj[-1] = 0
    obj_den = 1

    kept = []  # (row, den, slack column) of inequalities no free variable took
    for at, (prow, pden, slack) in enumerate(pending):
        col = next((j for j in range(n) if prow[j]), -1)
        if col < 0:
            # No free variable left: an equality row is empty here (its
            # rhs decides), an inequality row constrains the slacks.
            if slack >= 0:
                kept.append((prow, pden, slack))
            elif prow[-1]:
                return LPResult(INFEASIBLE)
            continue
        pn = prow[col]
        if pn < 0:
            prow = [-x for x in prow]
            pn = -pn
        # Substitute the free variable out of the later rows and the
        # objective: ``row - row[col]/pn * prow`` over one denominator.
        for later in range(at + 1, len(pending)):
            row, den, s = pending[later]
            factor = row[col]
            if factor:
                row, den = _row_gcd_reduce(
                    [a * pn - factor * b for a, b in zip(row, prow)], den * pn)
                if den.bit_length() > _INT_BLOWUP_BITS:
                    return None
                pending[later] = (row, den, s)
        factor = obj[col]
        if factor:
            obj, obj_den = _row_gcd_reduce(
                [a * pn - factor * b for a, b in zip(obj, prow)], obj_den * pn)

    # Phase 1 over ``[slacks | artificials | rhs]``.  A kept row
    # ``sum a_k s_k - s = b`` with b <= 0 is negated to seat its own slack
    # in the starting basis; only rows with b > 0 need an artificial.
    n_art = sum(1 for row, _, _ in kept if row[-1] > 0)
    n_cols = n_slack + n_art
    rows, dens, basis = [], [], []
    art = n_slack
    for row, den, slack in kept:
        row = row[n:-1] + [0] * n_art + row[-1:]
        if row[-1] > 0:
            row[art] = den  # the artificial's coefficient is exactly 1
            basis.append(art)
            art += 1
        else:
            row = [-x for x in row]
            basis.append(slack - n)
        rows.append(row)
        dens.append(den)
    if n_art:
        cost = [0] * n_slack + [1] * n_art
        status = _phase_int(rows, dens, basis, cost, [True] * n_cols)
        if status is None:
            return None
        assert status == OPTIMAL  # bounded below by 0
        if any(row[-1] for row, b in zip(rows, basis) if b >= n_slack):
            return LPResult(INFEASIBLE)
        _drive_out_artificials(rows, dens, basis, n_slack)
    if any(obj[:n]):
        return LPResult(UNBOUNDED)  # a free direction the rows leave open

    # Phase 2 over the slacks; artificials may not re-enter.
    sense = -1 if maximize else 1
    cost = [sense * k for k in obj[n:-1]] + [0] * n_art
    status = _phase_int(rows, dens, basis, cost, [j < n_slack for j in range(n_cols)])
    if status is None:
        return None
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    # objective = const + (sum obj_k s_k - obj[-1]) / (obj_den * obj_scale)
    total = Fraction(-obj[-1])
    for row, den, b in zip(rows, dens, basis):
        if b < n_slack and obj[n + b] and row[-1]:
            total += obj[n + b] * Fraction(row[-1], den)
    value = objective.const
    if total:
        value += total / (obj_den * obj_scale)
    return LPResult(OPTIMAL, value)


def _drive_out_artificials(rows, dens, basis, first_art):
    """Pivot each zero-valued basic artificial (column ``first_art`` on)
    out for a real column of its row; a row with none is redundant."""
    for r in range(len(rows)):
        if basis[r] >= first_art:
            for j in range(first_art):
                if rows[r][j]:
                    _pivot_int(rows, dens, basis, r, j)
                    break


def _highs_solve(
    constraints: Sequence[Constraint],
    index: dict,
    cost: dict,
    sense: float = 1.0,
    options: Optional[Mapping[str, int]] = None,
    margin: bool = False,
) -> Optional[tuple]:
    """One HiGHS model of ``constraints`` (free columns numbered by
    ``index``, objective ``sense * cost``, HiGHS ``options`` on top of
    the defaults), solved once.

    With ``margin`` the model has one more column ``t``, numbered
    ``len(index)``, bounded to ``[0, 1]`` and subtracted from every GE
    row, and the objective maximizes ``t`` (``cost`` should be empty).

    Returns ``(solver, lower, upper)`` with the row bounds, or None when
    a coefficient does not fit a float, a matrix coefficient lies outside
    the range HiGHS accepts (it drops entries at or below its
    ``small_matrix_value`` without a word), or the bindings refuse the
    model.
    """
    core = _highs_core
    inf = core.kHighsInf
    n = len(index) + margin
    starts = [0]
    idx: List[int] = []
    vals: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    col_cost = [0.0] * n
    col_lower = _np.full(n, -inf)
    col_upper = _np.full(n, inf)
    if margin:
        col_cost[-1] = -1.0
        col_lower[-1], col_upper[-1] = 0.0, 1.0
    try:
        for c in constraints:
            row, const = c.float_row()
            for var, k in row:
                idx.append(index[var])
                vals.append(k)
            if margin and c.rel == GE:
                idx.append(n - 1)
                vals.append(-1.0)
            starts.append(len(idx))
            lower.append(-const)
            upper.append(-const if c.rel == EQ else inf)
        for var, k in cost.items():
            col_cost[index[var]] = sense * float(k)
    except OverflowError:
        return None
    try:
        solver = core._Highs()
        small = _highs_option(solver, "small_matrix_value")
        large = _highs_option(solver, "large_matrix_value")
        if not all(small < abs(k) <= large for k in vals):
            return None
        lp = core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = len(constraints)
        lp.col_cost_ = _np.asarray(col_cost, dtype=float)
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = _np.asarray(lower, dtype=float)
        lp.row_upper_ = _np.asarray(upper, dtype=float)
        lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = _np.asarray(starts, dtype=_np.int32)
        lp.a_matrix_.index_ = _np.asarray(idx, dtype=_np.int32)
        lp.a_matrix_.value_ = _np.asarray(vals, dtype=float)
        solver.setOptionValue("output_flag", False)
        for name, value in (options or {}).items():
            solver.setOptionValue(name, value)
        solver.passModel(lp)
        solver.run()
    except Exception:  # pragma: no cover - solver hiccup
        return None
    return solver, lower, upper


def _highs_option(solver, name: str):
    """An option's value (the bindings return it alone or after a status)."""
    value = solver.getOptionValue(name)
    return value[-1] if isinstance(value, tuple) else value


def _highs_outcome(
    solver, sense: float, offset: float
) -> Optional[Tuple[str, float]]:
    """The last solve as ``(status, value)``; None when inconclusive."""
    statuses = _highs_core.HighsModelStatus
    status = solver.getModelStatus()
    if status == statuses.kInfeasible:
        # HiGHS's presolve can report a feasible, unbounded LP as
        # infeasible: solve again without it and take that status.
        presolve = _highs_option(solver, "presolve")
        solver.setOptionValue("presolve", "off")
        solver.run()
        status = solver.getModelStatus()
        solver.setOptionValue("presolve", presolve)
    if status == statuses.kInfeasible:
        return (INFEASIBLE, 0.0)
    if status == statuses.kUnbounded:
        return (UNBOUNDED, 0.0)
    if status != statuses.kOptimal:
        # kUnboundedOrInfeasible among others: the exact simplex decides.
        return None
    return (OPTIMAL, sense * solver.getObjectiveValue() + offset)


def _float_lp(
    constraints: Sequence[Constraint], objective: LinExpr, maximize: bool
) -> Optional[Tuple[str, float]]:
    """Solve with HiGHS; None when HiGHS is not loaded or cannot decide
    (a system without variables is left to the exact simplex)."""
    if _highs_core is None:
        return None
    variables = sorted(
        set().union(set(), *[c.support() for c in constraints], objective.support())
    )
    index = {v: i for i, v in enumerate(variables)}
    if not index:
        return None
    try:
        offset = float(objective.const)
    except OverflowError:
        return None
    sense = -1.0 if maximize else 1.0
    model = _highs_solve(constraints, index, objective.coeffs, sense)
    if model is None:
        return None
    try:
        return _highs_outcome(model[0], sense, offset)
    except Exception:  # pragma: no cover - solver hiccup
        return None


def _margin_verdict(result: Optional[Tuple[str, float]]) -> Optional[bool]:
    """Is a float ``min expr`` clearly ``>= 0``?  None when it is too
    close to zero to trust (or there is no float result)."""
    if result is None:
        return None
    status, value = result
    if status == INFEASIBLE:
        return True
    if status == UNBOUNDED:
        return False
    if value >= -_TIGHT:
        return True
    if value < -_CLEAR:
        return False
    return None


def is_feasible(constraints: Iterable[Constraint]) -> bool:
    """Rational feasibility of a constraint conjunction."""
    cons = list(constraints)
    if not (kernels.FAST and len(cons) <= _INT_DIRECT_MAX):
        fast = _float_lp(cons, LinExpr(), False)
        if fast is not None:
            return fast[0] != INFEASIBLE
    return solve_lp(cons, LinExpr()).status != INFEASIBLE


def _connected_subset(
    constraints: Sequence[Constraint], seeds: frozenset
) -> List[Constraint]:
    """Constraints in the variable-connectivity component of ``seeds``.

    If the remaining constraints are feasible, entailment of a candidate
    over ``seeds`` is unaffected by dropping them (disjoint variables), so
    the LP can run on a much smaller tableau.
    """
    reached = set(seeds)
    remaining = list(constraints)
    picked: List[Constraint] = []
    changed = True
    while changed:
        changed = False
        rest = []
        for c in remaining:
            support = c.support()
            if support & reached:
                reached |= support
                picked.append(c)
                changed = True
            else:
                rest.append(c)
        remaining = rest
    return picked


_ENTAILS_CACHE = kernels.memo(400_000)


def entails(
    constraints: Sequence[Constraint],
    candidate: Constraint,
    assume_feasible: bool = False,
) -> bool:
    """Sound and complete (over the rationals) entailment check.

    ``constraints |= candidate`` iff the system is infeasible or the
    candidate expression's minimum over the feasible region is >= 0 (and,
    for equalities, the maximum is <= 0 too).

    With ``assume_feasible`` the check may restrict itself to the
    constraints sharing variables (transitively) with the candidate, which
    is exact when the rest of the system is feasible.
    """
    if candidate.is_trivial():
        return True
    if assume_feasible:
        constraints = _connected_subset(constraints, candidate.support())
        if not constraints:
            return False  # feasible system, unconstrained direction
    system = frozenset(constraints)
    # Syntactic fast path: the candidate already appears in the system (a
    # row equal to it shares its support, so the restriction keeps it).
    if candidate in system:
        return True
    sys_key = (system, candidate)
    cached = _ENTAILS_CACHE.get(sys_key)
    if cached is not None:
        return cached
    answer = _min_nonnegative(constraints, candidate.expr)
    if answer and candidate.rel == EQ:
        answer = _min_nonnegative(constraints, candidate.expr.scale(-1))
    _ENTAILS_CACHE.put(sys_key, answer)
    return answer


def _min_nonnegative(constraints: Sequence[Constraint], expr: LinExpr) -> bool:
    """Is ``min expr >= 0`` over the constraints (True if infeasible)?

    Uses the float LP when its verdict has a clear margin; ambiguous
    results fall back to the exact simplex.  Small systems in fast-kernel
    mode skip the float pass entirely: the exact integer simplex (with
    its memo) beats the HiGHS per-call overhead there, and its verdicts
    need no margin handling.
    """
    if not (kernels.FAST and len(constraints) <= _INT_DIRECT_MAX):
        verdict = _margin_verdict(_float_lp(constraints, expr, maximize=False))
        if verdict is not None:
            return verdict
    result = solve_lp(constraints, expr, maximize=False)
    if result.status == INFEASIBLE:
        return True
    if result.status == UNBOUNDED:
        return False
    return result.value >= 0


# -- the redundancy sweep -------------------------------------------------
#
# A sweep visits a system's rows in order, equalities first (as a
# ``Polyhedron`` lists them), and drops a row when the rest of the
# system -- the rows kept so far plus every later row -- entails it.
# The reference loop in ``Polyhedron.minimized()`` asks the LP about
# every row.  The fast-kernel sweep, ``minimize_constraints``, first lets
# ``_Sweep`` decide the rows it can without an LP, then asks one shared
# HiGHS model (``_SweepModel``), then the exact entailment check.

# How many rows the fast sweep visits and how many of them each
# shortcut decides (cumulative per process; ``polyhedra.cache_stats()``
# reports them and ``polyhedra.clear_caches()`` resets them).
_SWEEP_COUNTS = dict.fromkeys(
    ("sweep_rows", "sweep_known", "sweep_dominated", "sweep_eq_rank"), 0
)


class _Sweep:
    """The rows of one fast-kernel sweep over ``cons`` decided without
    an LP, each with the verdict the entailment check would give.

    - A row of ``known`` is kept: the caller vouches that the rest of
      ``cons`` does not entail it (see ``Polyhedron._project_capped``).
    - At the first GE row every equality has been decided.  Each GE row
      is reduced modulo the span of the kept equalities, which stay in
      the rest of every later query.  A GE row is dropped when its
      reduced form is a valid constant (the equalities entail it), or
      is parallel to, and no tighter than, the reduced form of a GE row
      still in the system: a later row, or an earlier one that was kept
      (``keep``).  The GE rows a later row dominates are dropped
      whatever happens before their turn (``doomed``).  The check needs
      consistent equalities; on an infeasible system whose equalities
      are consistent, the rows it uses all lie in the candidate's
      component, so it also agrees with the component-restricted check.
    - ``eq_rank``: once a probe has shown a point where every GE row
      holds strictly, an equality is entailed exactly when it lies in
      the affine span of the other equalities still in the system.

    Rows it cannot decide (``None``) go to the LP.
    """

    __slots__ = ("cons", "known", "first_ge", "keys", "best", "doomed")

    def __init__(self, cons: Sequence[Constraint], known):
        self.cons = cons
        self.known = known
        self.first_ge = next(
            (i for i, c in enumerate(cons) if c.rel == GE), len(cons)
        )
        self.keys: dict = {}  # GE row -> (reduced direction, effective const)
        self.best: dict = {}  # direction -> tightest const among kept rows
        self.doomed: frozenset = frozenset()
        _SWEEP_COUNTS["sweep_rows"] += len(cons)

    def verdict(self, i: int, kept: Sequence[Constraint]) -> Optional[bool]:
        """Keep (True) or drop (False) row ``i`` without an LP, or None;
        ``kept`` lists the rows kept so far."""
        if i == self.first_ge:
            self._screen(kept)
        if self.cons[i] in self.known:
            _SWEEP_COUNTS["sweep_known"] += 1
            return True
        direction, eff = self.keys.get(i, (None, None))
        best = self.best.get(direction)
        if i in self.doomed or (best is not None and best <= eff):
            _SWEEP_COUNTS["sweep_dominated"] += 1
            return False
        return None

    def keep(self, i: int) -> None:
        """Record that row ``i`` was kept."""
        direction, eff = self.keys.get(i, (None, None))
        best = self.best.get(direction)
        if direction is not None and (best is None or eff < best):
            self.best[direction] = eff

    def _screen(self, eqs: Sequence[Constraint]) -> None:
        if not eqs:
            return  # no two GE rows of a Polyhedron are parallel
        basis = eq_basis(eqs)
        if basis is None:
            return
        later: dict = {}  # direction -> tightest const among later rows
        doomed = set()
        for i in range(len(self.cons) - 1, self.first_ge - 1, -1):
            expr = self.cons[i].expr
            coeffs, const = reduce_mod(expr.coeffs, expr.const, basis)
            if not coeffs:
                if const >= 0:
                    doomed.add(i)
                continue
            direction, eff = self.keys[i] = direction_key(coeffs, const)
            best = later.get(direction)
            if best is not None and best <= eff:
                doomed.add(i)
            else:
                later[direction] = eff
        self.doomed = frozenset(doomed)

    def eq_rank(self, i: int, kept: Sequence[Constraint]) -> Optional[bool]:
        """Keep equality ``i`` unless the other equalities still in the
        system span it.  Valid only after a positive max-slack probe."""
        others = [c for c in kept if c.rel == EQ]
        others += [c for c in self.cons[i + 1:] if c.rel == EQ]
        basis = eq_basis(others)
        if basis is None:
            return None
        _SWEEP_COUNTS["sweep_eq_rank"] += 1
        expr = self.cons[i].expr
        coeffs, const = reduce_mod(expr.coeffs, expr.const, basis)
        return bool(coeffs or const)


# HiGHS settings of the redundancy sweep's shared model.  Between solves
# the sweep frees a row and swaps the objective; both edits leave the last
# basis primal feasible, so primal simplex restarts from it where the
# default (dual) strategy does not.  The rows are normalized to coprime
# integers, and the sweep ran faster unscaled.  The one-shot models of
# ``_float_lp`` keep the defaults.
_SWEEP_OPTIONS = {"simplex_strategy": 4, "simplex_scale_strategy": 0}


class _SweepModel:
    """The float-LP model one sweep over ``cons`` shares between its
    queries: one HiGHS model, modified and warm-started between solves,
    so a large sweep pays the model build once instead of per query.

    It is first solved as a max-slack probe: one more column ``t`` in
    ``[0, 1]`` is subtracted from every GE row and maximized, then fixed
    to 0 for the sweep.  A probe value above ``_CLEAR`` shows that no
    GE row is an implicit equality (``interior``), which lets
    ``_Sweep.eq_rank`` decide the equalities by rank.

    A retired model frees nothing and decides nothing.  It retires when
    it cannot be built, when the probe is not optimal (an infeasible
    system, where the component-restricted exact check can answer
    differently than the whole-system LP would), or when a HiGHS call
    raises.  Up to ``_INT_DIRECT_MAX`` rows there is no model: exact
    entailment beats the model build there.
    """

    __slots__ = ("solver", "index", "bounds", "interior", "obj_cols")

    def __init__(self, cons: Sequence[Constraint]):
        self.solver = None
        self.interior = False
        self.obj_cols: List[int] = []
        if _highs_core is None or len(cons) <= _INT_DIRECT_MAX:
            return
        variables = sorted(set().union(*[c.support() for c in cons]))
        self.index = {v: j for j, v in enumerate(variables)}
        model = _highs_solve(cons, self.index, {}, options=_SWEEP_OPTIONS, margin=True)
        if model is None:
            return
        solver, lower, upper = model
        if solver.getModelStatus() != _highs_core.HighsModelStatus.kOptimal:
            return
        self.bounds = list(zip(lower, upper))
        self.interior = -solver.getObjectiveValue() > _CLEAR
        try:
            solver.changeColCost(len(self.index), 0.0)
            solver.changeColBounds(len(self.index), 0.0, 0.0)
        except Exception:  # pragma: no cover - solver hiccup
            return
        self.solver = solver

    def set_rows(self, rows: Iterable[int], active: bool) -> None:
        """Restore ``rows`` to their bounds, or free them (+-inf)."""
        if self.solver is None:
            return
        inf = _highs_core.kHighsInf
        try:
            for j in rows:
                lower, upper = self.bounds[j] if active else (-inf, inf)
                self.solver.changeRowBounds(j, lower, upper)
        except Exception:  # pragma: no cover - solver hiccup
            self.solver = None

    def entailed(self, c: Constraint) -> Optional[bool]:
        """Whether the active rows entail ``c`` by a clear margin (the
        ``_margin_verdict`` policy of ``_min_nonnegative``), or None."""
        if self.solver is None:
            return None
        row, const = c.float_row()  # fits a float: it built the model
        entailed = self._float_verdict(row, const)
        if entailed is True and c.rel == EQ:
            entailed = self._float_verdict([(v, -k) for v, k in row], -const)
        return entailed

    def _float_verdict(self, row, const) -> Optional[bool]:
        solver = self.solver
        try:
            for j in self.obj_cols:
                solver.changeColCost(j, 0.0)
            self.obj_cols = [self.index[v] for v, _ in row]
            for j, (_, k) in zip(self.obj_cols, row):
                solver.changeColCost(j, k)
            solver.run()
            return _margin_verdict(_highs_outcome(solver, 1.0, const))
        except Exception:  # pragma: no cover - solver hiccup
            self.solver = None
            return None


def minimize_constraints(
    cons: Sequence[Constraint], known=frozenset()
) -> List[Constraint]:
    """The fast-kernel redundancy sweep: the reference loop of
    ``Polyhedron.minimized()``, with the rows that ``_Sweep`` decides
    taken out of it, and ``_SweepModel``'s float verdict asked before
    the exact check.  ``known``: rows the rest of ``cons`` does not
    entail.

    A dropped row leaves the model for good, and the row asked about
    leaves it for its query, so query ``i`` sees ``kept + cons[i+1:]``,
    the reference's rest, less rows that rest entails (the GE rows
    ``_Sweep`` dooms are freed before the first GE query).  Ambiguous
    float verdicts, and every row once the model has retired, go to
    :func:`entails` as in the reference; the sweep never restarts.
    """
    cons = list(cons)
    sweep = _Sweep(cons, known)
    model = _SweepModel(cons)
    kept: List[Constraint] = []
    for i, c in enumerate(cons):
        keep = sweep.verdict(i, kept)
        if keep is None and model.interior and c.rel == EQ:
            keep = sweep.eq_rank(i, kept)
        if i == sweep.first_ge:
            model.set_rows(sweep.doomed, False)
        if keep is not True:
            model.set_rows((i,), False)
        if keep is None:
            entailed = model.entailed(c)
            if entailed is None:
                entailed = entails(kept + cons[i + 1:], c, assume_feasible=True)
            keep = not entailed
            if keep:
                model.set_rows((i,), True)
        if keep:
            kept.append(c)
            sweep.keep(i)
    return kept
