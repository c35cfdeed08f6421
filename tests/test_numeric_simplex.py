"""Unit tests for the simplex solvers: the Fraction reference, the
integer simplex in slack space and the HiGHS float pre-pass."""

import importlib.util
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from repro import kernels
from repro.numeric import simplex
from repro.numeric.linexpr import EQ, Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron
from repro.numeric.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    entails,
    is_feasible,
    solve_lp,
)


def v(name):
    return LinExpr.var(name)


class TestSolveLP:
    def test_simple_minimum(self):
        # min x subject to x >= 3
        res = solve_lp([Constraint.ge(v("x"), 3)], v("x"))
        assert res.status == OPTIMAL
        assert res.value == 3

    def test_simple_maximum(self):
        res = solve_lp([Constraint.le(v("x"), 7)], v("x"), maximize=True)
        assert res.status == OPTIMAL
        assert res.value == 7

    def test_unbounded(self):
        res = solve_lp([Constraint.ge(v("x"), 0)], v("x"), maximize=True)
        assert res.status == UNBOUNDED

    def test_infeasible(self):
        res = solve_lp(
            [Constraint.ge(v("x"), 1), Constraint.le(v("x"), 0)], v("x")
        )
        assert res.status == INFEASIBLE

    def test_free_variables_negative_optimum(self):
        # min x subject to x >= -5 (needs the x = x+ - x- split)
        res = solve_lp([Constraint.ge(v("x"), -5)], v("x"))
        assert res.status == OPTIMAL
        assert res.value == -5

    def test_equality_constraint(self):
        res = solve_lp(
            [Constraint.eq(v("x") + v("y"), 10), Constraint.ge(v("x"), 4)],
            v("y"),
            maximize=True,
        )
        assert res.status == OPTIMAL
        assert res.value == 6

    def test_rational_optimum(self):
        # min x st 3x >= 1
        res = solve_lp([Constraint.ge(v("x").scale(3), 1)], v("x"))
        assert res.status == OPTIMAL
        assert res.value == Fraction(1, 3)

    def test_two_dim_polytope(self):
        cons = [
            Constraint.ge(v("x"), 0),
            Constraint.ge(v("y"), 0),
            Constraint.le(v("x") + v("y"), 4),
        ]
        res = solve_lp(cons, v("x") + v("y").scale(2), maximize=True)
        assert res.status == OPTIMAL
        assert res.value == 8

    def test_objective_with_constant(self):
        res = solve_lp([Constraint.ge(v("x"), 2)], v("x") + 10)
        assert res.value == 12

    def test_no_constraints_constant_objective(self):
        res = solve_lp([], LinExpr.const_expr(5))
        assert res.status == OPTIMAL
        assert res.value == 5

    def test_no_constraints_variable_objective(self):
        res = solve_lp([], v("x"))
        assert res.status == UNBOUNDED

    def test_degenerate_cycling_guard(self):
        # A classically degenerate problem; Bland's rule must terminate.
        res = solve_lp(*_cycling_lp())
        assert res.status == OPTIMAL
        assert res.value == Fraction(-1, 20)


def _cycling_lp():
    cons = [
        Constraint.le(v("x1").scale(Fraction(1, 4)) - v("x2").scale(60) - v("x3").scale(Fraction(1, 25)) + v("x4").scale(9), 0),
        Constraint.le(v("x1").scale(Fraction(1, 2)) - v("x2").scale(90) - v("x3").scale(Fraction(1, 50)) + v("x4").scale(3), 0),
        Constraint.le(v("x3"), 1),
        Constraint.ge(v("x1"), 0),
        Constraint.ge(v("x2"), 0),
        Constraint.ge(v("x3"), 0),
        Constraint.ge(v("x4"), 0),
    ]
    obj = v("x1").scale(Fraction(-3, 4)) + v("x2").scale(150) - v("x3").scale(Fraction(1, 50)) + v("x4").scale(6)
    return cons, obj


def _random_lp(rng):
    """A small LP shaped like the analysis's: equalities (non-unit
    coefficients, sometimes a rank-deficient or contradictory extra
    one), inequalities that hold at a rational point, box bounds on
    about half the systems, and an objective that may mention a
    variable no constraint does.  Empty systems occur too."""
    names = [f"x{i}" for i in range(rng.randint(1, 6))]
    point = {n: Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for n in names}

    def expr(size):
        picked = rng.sample(names, min(size, len(names)))
        return LinExpr({
            n: Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 1, 2, 3]))
            for n in picked
        })

    cons = []
    eqs = [expr(rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    for e in eqs:
        cons.append(Constraint.eq(e, e.evaluate(point)))
    if len(eqs) >= 2 and rng.random() < 0.4:
        e = eqs[0].scale(rng.choice([2, -3])) + eqs[1].scale(rng.choice([1, Fraction(1, 2)]))
        cons.append(Constraint.eq(e, e.evaluate(point) + rng.choice([0, 0, 1])))
    for _ in range(rng.randint(0, 6)):
        e = expr(rng.randint(1, 3))
        cons.append(Constraint.ge(e, e.evaluate(point) - rng.randint(0, 4)))
    if rng.random() < 0.5:
        for n in names:
            cons.append(Constraint.ge(v(n), point[n] - rng.randint(0, 3)))
            cons.append(Constraint.le(v(n), point[n] + rng.randint(0, 3)))
    if rng.random() < 0.1:
        e = expr(2)
        cons.append(Constraint.ge(e, e.evaluate(point) + 1))
        cons.append(Constraint.le(e, e.evaluate(point)))
    objective = expr(rng.randint(0, 3)) + Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
    if rng.random() < 0.2:
        objective = objective + v("unmentioned").scale(rng.choice([-1, 2]))
    return cons, objective, rng.random() < 0.5


class TestFastMatchesReference:
    """The integer simplex in slack space against the Fraction reference
    over x+/x- columns: equal status, value and repr on every system."""

    @staticmethod
    def _both(cons, objective, maximize):
        cons = [c for c in cons if not c.is_trivial()]  # as solve_lp does
        assert not any(c.is_contradiction() for c in cons)
        fast = simplex._solve_lp_int(cons, objective, maximize)
        ref = simplex._solve_lp_uncached(cons, objective, maximize)
        assert fast is not None
        assert (fast.status, fast.value, repr(fast)) == (ref.status, ref.value, repr(ref)), (
            cons, objective, maximize)
        return ref

    def test_random_systems(self):
        rng = random.Random(20110604)
        seen = Counter()
        for _ in range(400):
            ref = self._both(*_random_lp(rng))
            seen[ref.status] += 1
            if ref.status == OPTIMAL and Fraction(ref.value).denominator != 1:
                seen["fractional"] += 1
        assert min(seen[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED, "fractional")) >= 20, seen

    def test_edge_systems(self):
        x, y, z = v("x"), v("y"), v("z")
        cases = [
            ([], LinExpr.const_expr(Fraction(7, 2))),  # empty system
            ([], x),
            ([Constraint.eq(x.scale(3) + y.scale(2), 1)], x + y),  # non-unit equality
            ([Constraint.eq(x.scale(3) + y.scale(2), 1), Constraint.ge(y, 0), Constraint.ge(x, 0)], x - y),
            # rank-deficient: the third equality is the sum of the first two
            ([Constraint.eq(x + y, 2), Constraint.eq(y - z, 1), Constraint.eq(x + y.scale(2) - z, 3),
              Constraint.ge(z, 0)], x),
            # contradictory: the third equality contradicts the sum
            ([Constraint.eq(x + y, 2), Constraint.eq(y - z, 1), Constraint.eq(x + y.scale(2) - z, 4)], x),
            # an objective term no constraint mentions: unbounded only when feasible
            ([Constraint.ge(x, 1), Constraint.le(x, 3)], x + z),
            ([Constraint.ge(x, 1), Constraint.le(x, 0)], x + z),
            ([Constraint.ge(x.scale(3), 1), Constraint.ge(y.scale(7) - x, 0)], x + y),  # fractional
            _cycling_lp(),
        ]
        for cons, objective in cases:
            for maximize in (False, True):
                self._both(cons, objective, maximize)

    def test_blowup_aborts_to_reference_and_counts(self, monkeypatch):
        cons = [Constraint.eq(v("x").scale(2) + v("y"), 3), Constraint.ge(v("x") - v("y"), 0)]
        with kernels.mode_ctx("fast"):
            stats = simplex.cache_stats()
            assert solve_lp(cons, v("x")).value == 1
            after = simplex.cache_stats()
            assert after["int_solves"] == stats["int_solves"] + 1
            assert after["int_fallbacks"] == stats["int_fallbacks"]
            monkeypatch.setattr(simplex, "_INT_BLOWUP_BITS", 0)
            res = solve_lp(cons, v("y"), maximize=True)
            after = simplex.cache_stats()
            assert after["int_solves"] == stats["int_solves"] + 2
            assert after["int_fallbacks"] == stats["int_fallbacks"] + 1
            assert after["basis_phase2_reuse"] == after["basis_incremental_reuse"] == 0
        assert simplex._solve_lp_int(cons, v("y"), True) is None
        assert repr(res) == repr(simplex._solve_lp_uncached(cons, v("y"), True)) == "LPResult(optimal, 1)"


class TestEntailsAndFeasibility:
    def test_feasible(self):
        assert is_feasible([Constraint.ge(v("x"), 0)])

    def test_infeasible(self):
        assert not is_feasible([Constraint.eq(v("x"), 1), Constraint.eq(v("x"), 2)])

    def test_entails_basic(self):
        cons = [Constraint.ge(v("x"), 2)]
        assert entails(cons, Constraint.ge(v("x"), 1))
        assert not entails(cons, Constraint.ge(v("x"), 3))

    def test_entails_equality_needs_both_directions(self):
        cons = [Constraint.ge(v("x"), 1), Constraint.le(v("x"), 1)]
        assert entails(cons, Constraint.eq(v("x"), 1))
        assert not entails([Constraint.ge(v("x"), 1)], Constraint.eq(v("x"), 1))

    def test_bottom_entails_everything(self):
        cons = [Constraint.ge(v("x"), 1), Constraint.le(v("x"), 0)]
        assert entails(cons, Constraint.eq(v("y"), 42))

    def test_entails_relational(self):
        cons = [Constraint.le(v("x"), v("y")), Constraint.le(v("y"), v("z"))]
        assert entails(cons, Constraint.le(v("x"), v("z")))
        assert not entails(cons, Constraint.le(v("z"), v("x")))


def _chain(first, last):
    """``x_i >= i`` for i in [first, last]: rows that widen a system past
    ``_INT_DIRECT_MAX``, so its queries take the float pre-pass."""
    return [Constraint.ge(v(f"x{i}"), i) for i in range(first, last + 1)]


class TestFloatPrePass:
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_coefficient_beyond_float_range_falls_back_to_exact(self, mode):
        huge = 10**400  # float(huge) raises OverflowError
        kept_row = Constraint.ge(v("x0").scale(huge) + v("x1"))
        redundant_row = Constraint.ge(v("x2").scale(huge) + v("x3"))
        cons = [kept_row, redundant_row] + _chain(1, 24)
        assert len(cons) > simplex._INT_DIRECT_MAX
        with kernels.mode_ctx(mode):
            assert is_feasible(cons)
            assert entails(cons, Constraint.ge(v("x2"), 1))
            assert not entails(cons, Constraint.ge(v("x2"), 3))
            # beyond float range in the objective, not the system
            assert entails(_chain(1, 24), Constraint.ge(v("x2").scale(huge), 0))
            kept = Polyhedron(cons).minimized().constraints
        assert set(kept) == set(Polyhedron([kept_row] + _chain(1, 24)).constraints)

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_coefficient_below_highs_matrix_range_falls_back_to_exact(self, mode):
        # HiGHS drops matrix entries at or below its small_matrix_value
        # (1e-9) without an error: x would vanish from this row.
        far = Constraint.ge(v("x").scale(Fraction(1, 10**12)), 1)  # x >= 10**12
        cons = [far] + _chain(1, 24)
        assert len(cons) > simplex._INT_DIRECT_MAX
        with kernels.mode_ctx(mode):
            for system in ([far], cons):
                assert is_feasible(system)
                assert not entails(system, Constraint.le(v("x"), 0))
                assert entails(system, Constraint.ge(v("x"), 10**12))
            kept = Polyhedron(cons + [Constraint.ge(v("x"), 0)]).minimized()
        assert set(kept.constraints) == set(Polyhedron(cons).constraints)

    def test_import_loads_highs_without_scipy_optimize(self):
        if importlib.util.find_spec("scipy") is None:
            pytest.skip("scipy is not installed")
        code = textwrap.dedent(
            """
            import sys
            import repro
            from repro.numeric import simplex
            assert "scipy.optimize" not in sys.modules
            assert simplex._highs_core is not None
            from scipy.optimize import LinearConstraint, linprog, milp
            core = sys.modules["scipy.optimize._highspy._core"]
            assert core is simplex._highs_core
            res = linprog([1, 1], A_ub=[[-1, -2]], b_ub=[-4], method="highs")
            assert res.status == 0 and abs(res.fun - 2) < 1e-9, res
            res = milp([1, 1], constraints=LinearConstraint([[1, 2]], lb=3),
                       integrality=[1, 1])
            assert res.status == 0 and abs(res.fun - 2) < 1e-9, res
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env.pop("REPRO_EXACT_LP", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def _fm_like_system(rng):
    """21-60 integer constraints shaped like Fourier-Motzkin output:
    equalities first, then inequalities, many of them positive
    combinations of earlier ones.  Most systems hold at a random
    integer point; about one in ten is made infeasible.  Combinations are
    built from the inequalities' expressions as written, not from their
    canonical forms."""
    names = [f"x{i}" for i in range(rng.randint(4, 7))]
    point = {n: rng.randint(-4, 4) for n in names}

    def random_expr():
        picked = rng.sample(names, rng.randint(1, 3))
        return LinExpr({n: rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]) for n in picked})

    raw = []
    for _ in range(rng.randint(0, 2)):
        e = random_expr()
        raw.append(Constraint.eq(e, e.evaluate(point)))
    ineqs = []
    exprs = []  # each inequality's ``expr >= 0`` side, unscaled

    def add_ge(e, rhs):
        exprs.append(e - rhs)
        ineqs.append(Constraint.ge(e, rhs))

    target = rng.randint(21, 60)
    while len(Polyhedron(raw + ineqs).constraints) < target:
        if len(ineqs) >= 2 and rng.random() < 0.4:
            p, q = rng.sample(exprs, 2)
            e = p.scale(rng.randint(1, 3)) + q.scale(rng.randint(1, 3))
            add_ge(e, -rng.randint(0, 3))
        else:
            e = random_expr()
            add_ge(e, e.evaluate(point) - rng.randint(0, 4))
    if rng.random() < 0.1:
        e = random_expr()
        ineqs.append(Constraint.ge(e, e.evaluate(point) + 1))
        ineqs.append(Constraint.le(e, e.evaluate(point)))
    return raw + ineqs


@pytest.mark.parametrize(
    "count", [40, pytest.param(200, marks=pytest.mark.slow)]
)
def test_highs_sweep_matches_reference_and_exact(monkeypatch, count):
    """``minimize_constraints`` (one warm HiGHS model per sweep) keeps
    what the reference loop keeps, and the exact-only path (HiGHS not
    loaded) gives the same minimized systems and feasibility verdicts.
    The exact-only path takes up to seconds per system, so it checks
    every eighth one."""
    if simplex._highs_core is None:
        pytest.skip("HiGHS is not loaded")
    rng = random.Random(20110604)
    systems = [_fm_like_system(rng) for _ in range(count)]
    with_highs = []
    kernels.set_mode("fast")
    try:
        for raw in systems:
            cons = list(Polyhedron(raw).constraints)
            assert len(cons) > simplex._INT_DIRECT_MAX
            feasible = is_feasible(cons)
            kept = simplex.minimize_constraints(cons)
            assert (kept is None) == (not feasible)
            if kept is not None:
                with kernels.mode_ctx("reference"):
                    assert tuple(kept) == Polyhedron(raw).minimized().constraints
            with_highs.append((feasible, Polyhedron(raw).minimized().constraints))
        monkeypatch.setattr(simplex, "_highs_core", None)
        kernels.set_mode("fast")  # drop the memos filled with HiGHS
        exact = [
            (is_feasible(Polyhedron(raw).constraints),
             Polyhedron(raw).minimized().constraints)
            for raw in systems[::8]
        ]
    finally:
        kernels.set_mode("fast")
    assert exact == with_highs[::8]
    assert any(not feasible for feasible, _ in exact)


class _RecordingSolver:
    """A HiGHS solver that logs row-bound edits and solves."""

    def __init__(self, solver, log):
        self._solver = solver
        self._log = log

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def changeRowBounds(self, row, lower, upper):
        self._log.append(("bounds", row, lower, upper))
        return self._solver.changeRowBounds(row, lower, upper)

    def run(self):
        self._log.append(("run",))
        return self._solver.run()


class _RecordingCore:
    def __init__(self, core, log):
        self._core = core
        self._log = log

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        return _RecordingSolver(self._core._Highs(), self._log)


def test_highs_sweep_queries_see_only_rows_still_in_the_system(monkeypatch):
    """Every query of the shared HiGHS model after the probe sees the
    rows kept so far and the later rows, less the GE rows a later row
    dominates modulo the kept equalities: those are freed before the
    first GE query."""
    if simplex._highs_core is None:
        pytest.skip("HiGHS is not loaded")
    from tests.test_numeric_polyhedra import _sweep_system

    log = []
    monkeypatch.setattr(simplex, "_highs_core", _RecordingCore(simplex._highs_core, log))
    rng = random.Random(11)
    swept = screened = 0
    with kernels.mode_ctx("fast"):
        while swept < 40:
            raw, tags = _sweep_system(rng)
            cons = list(Polyhedron(raw).constraints)
            if "large" not in tags or "infeasible" in tags:
                continue
            del log[:]
            kept = simplex.minimize_constraints(cons)
            if kept is None:
                continue
            swept += 1
            sweep = simplex._Sweep(cons, frozenset())
            sweep._screen([c for c in kept if c.rel == EQ])
            screened += len(sweep.doomed)
            active = [True] * len(cons)
            queried = None
            for event in log[1:]:  # log[0] is the probe
                if event[0] == "bounds":
                    _, row, lower, upper = event
                    active[row] = not (lower == -upper and upper > 1e300)
                    if not active[row]:
                        queried = row
                    continue
                freed = sweep.doomed if queried >= sweep.first_ge else ()
                still = {j for j in range(queried + 1, len(cons)) if j not in freed}
                still |= {j for j in range(queried) if cons[j] in kept}
                assert {j for j, on in enumerate(active) if on} == still, (cons, queried)
    assert screened >= 20, screened
