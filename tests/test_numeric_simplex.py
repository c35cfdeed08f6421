"""Unit tests for the simplex solvers: exact, integer and the HiGHS
float pre-pass."""

import importlib.util
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from repro import kernels
from repro.numeric import simplex
from repro.numeric.linexpr import Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron
from repro.numeric.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    entails,
    is_feasible,
    sample_point,
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
        res = solve_lp(cons, obj)
        assert res.status == OPTIMAL
        assert res.value == Fraction(-1, 20)


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

    def test_sample_point(self):
        cons = [Constraint.ge(v("x"), 2), Constraint.le(v("x"), 3)]
        point = sample_point(cons)
        assert point is not None
        assert 2 <= point["x"] <= 3

    def test_sample_point_infeasible(self):
        cons = [Constraint.ge(v("x"), 2), Constraint.le(v("x"), 1)]
        assert sample_point(cons) is None

    def test_sample_point_satisfies_all(self):
        cons = [
            Constraint.ge(v("x") + v("y"), 3),
            Constraint.le(v("x") - v("y"), 1),
            Constraint.ge(v("y"), 0),
        ]
        point = sample_point(cons)
        for c in cons:
            assert c.holds(point)


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
    integer point; about one in ten is made infeasible."""
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
    target = rng.randint(21, 60)
    while len(Polyhedron(raw + ineqs).constraints) < target:
        if len(ineqs) >= 2 and rng.random() < 0.4:
            p, q = rng.sample(ineqs, 2)
            e = p.expr.scale(rng.randint(1, 3)) + q.expr.scale(rng.randint(1, 3))
            ineqs.append(Constraint.ge(e, -rng.randint(0, 3)))
        else:
            e = random_expr()
            ineqs.append(Constraint.ge(e, e.evaluate(point) - rng.randint(0, 4)))
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
