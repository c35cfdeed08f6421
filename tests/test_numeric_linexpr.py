"""Unit tests for linear expressions and constraints."""

import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd

from repro.numeric.linexpr import Constraint, EQ, GE, LinExpr


def x():
    return LinExpr.var("x")


def y():
    return LinExpr.var("y")


class TestLinExpr:
    def test_var_and_const(self):
        e = x() + 3
        assert e.coeff("x") == 1
        assert e.const == 3

    def test_zero_coefficients_dropped(self):
        e = x() - x()
        assert e.is_const()
        assert e.const == 0

    def test_addition_merges_support(self):
        e = x() + y() + x()
        assert e.coeff("x") == 2
        assert e.coeff("y") == 1
        assert e.support() == {"x", "y"}

    def test_scale(self):
        e = (x() + 2).scale(Fraction(1, 2))
        assert e.coeff("x") == Fraction(1, 2)
        assert e.const == 1

    def test_negation(self):
        e = -(x() - y())
        assert e.coeff("x") == -1
        assert e.coeff("y") == 1

    def test_substitute(self):
        e = x() + y()
        sub = e.substitute({"x": y() + 1})
        assert sub.coeff("y") == 2
        assert sub.const == 1
        assert "x" not in sub.support()

    def test_substitute_self_referential(self):
        e = x().substitute({"x": x() - 1})
        assert e.coeff("x") == 1
        assert e.const == -1

    def test_rename(self):
        e = (x() + y()).rename({"x": "z"})
        assert e.support() == {"z", "y"}

    def test_rename_collision_merges(self):
        e = (x() + y()).rename({"x": "y"})
        assert e.coeff("y") == 2

    def test_evaluate(self):
        e = x().scale(2) + y() - 1
        assert e.evaluate({"x": 3, "y": 4}) == 9

    def test_normalized_integer_coprime(self):
        e = x().scale(Fraction(2, 3)) + Fraction(4, 3)
        n = Constraint(e, GE).expr
        assert n.coeff("x") == 1
        assert n.const == 2
        assert e.coeff("x") == Fraction(2, 3)  # the expression keeps its scale

    def test_key_equality_of_scaled_expressions(self):
        a = x().scale(2) + 4
        b = x() + 2
        assert a != b
        assert Constraint(a, GE) == Constraint(b, GE)
        assert hash(Constraint(a, GE)) == hash(Constraint(b, GE))

    def test_hash_consistency(self):
        assert hash(x() + 1) == hash(LinExpr({"x": 1}, 1))


class TestConstraint:
    def test_ge_constructor(self):
        c = Constraint.ge(x(), 3)  # x >= 3
        assert c.rel == GE
        assert c.holds({"x": 3})
        assert not c.holds({"x": 2})

    def test_le_constructor(self):
        c = Constraint.le(x(), y())  # x <= y
        assert c.holds({"x": 1, "y": 2})
        assert not c.holds({"x": 3, "y": 2})

    def test_eq_constructor(self):
        c = Constraint.eq(x(), 5)
        assert c.rel == EQ
        assert c.holds({"x": 5})
        assert not c.holds({"x": 4})

    def test_strict_integer_tightening(self):
        c = Constraint.lt_int(x(), 3)  # x < 3 becomes x <= 2
        assert c.holds({"x": 2})
        assert not c.holds({"x": Fraction(5, 2)})

    def test_gt_int(self):
        c = Constraint.gt_int(x(), 0)
        assert c.holds({"x": 1})
        assert not c.holds({"x": Fraction(1, 2)})

    def test_trivial_and_contradiction(self):
        assert Constraint.ge(LinExpr.const_expr(1)).is_trivial()
        assert Constraint.ge(LinExpr.const_expr(-1)).is_contradiction()
        assert Constraint.eq(LinExpr.const_expr(0)).is_trivial()
        assert Constraint.eq(LinExpr.const_expr(2)).is_contradiction()

    def test_halves_of_equality(self):
        c = Constraint.eq(x(), y())
        halves = list(c.halves())
        assert len(halves) == 2
        assert all(h.rel == GE for h in halves)
        assert halves[0].expr == -halves[1].expr

    def test_normalized_equality_sign_canonical(self):
        a = Constraint.eq(x() - y())
        b = Constraint.eq(y() - x())
        assert a == b and hash(a) == hash(b)
        assert a.expr.coeff("x") == 1
        assert Constraint.ge(x() - y()) != Constraint.ge(y() - x())

    def test_key_distinguishes_relation(self):
        assert Constraint.ge(x()) != Constraint.eq(x())

    def test_rename(self):
        c = Constraint.ge(x(), y()).rename({"y": "z"})
        assert c.support() == {"x", "z"}


# -- the canonical form -------------------------------------------------------


_TERMS = ["a", "b", "c", "d"]


def _random_value(rng):
    k = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])
    kind = rng.random()
    if kind < 0.2:
        return Fraction(k)  # integral, but a Fraction object
    if kind < 0.45:
        return Fraction(k, rng.choice([2, 3, 4, 6]))
    return k


def _random_linexpr(rng):
    if rng.random() < 0.1:  # constant-only
        return LinExpr({}, _random_value(rng) if rng.random() < 0.8 else 0)
    support = rng.sample(_TERMS, rng.randint(1, 4))
    const = _random_value(rng) if rng.random() < 0.7 else 0
    return LinExpr({t: _random_value(rng) for t in support}, const)


def test_constraints_are_stored_in_canonical_form():
    rng = random.Random(2011)
    flips = 0
    for _ in range(600):
        expr = _random_linexpr(rng)
        for rel in (GE, EQ):
            c = Constraint(expr, rel)
            values = [c.expr.const, *c.expr.coeffs.values()]
            assert all(type(k) is int for k in values), (expr, c)
            if any(values):
                assert gcd(*values) == 1, (expr, c)
            if rel == EQ and any(values):
                coeffs = c.expr.coeffs
                lead = coeffs[min(coeffs)] if coeffs else c.expr.const
                assert lead > 0, (expr, c)
            # the same half-space or hyperplane as the input
            for _ in range(4):
                point = {t: rng.randint(-5, 5) for t in _TERMS}
                value = expr.evaluate(point)
                assert c.holds(point) == (value >= 0 if rel == GE else value == 0)
            factor = rng.choice([2, 3, Fraction(1, 2), Fraction(5, 3)])
            scaled = Constraint(expr.scale(factor), rel)
            assert scaled == c and hash(scaled) == hash(c)
            negated = Constraint(-expr, rel)
            if rel == EQ:
                assert negated == c and hash(negated) == hash(c)
                if expr.coeffs and expr.coeffs[min(expr.coeffs)] < 0:
                    flips += 1
            elif expr.coeffs or expr.const:
                assert negated != c
    assert flips > 50


def test_pickled_constraints_hash_like_fresh_ones_across_hash_seeds():
    """A constraint pickled under one ``PYTHONHASHSEED`` and loaded under
    another must still be found in a set of freshly built ones: pickles
    carry no hash computed under the writer's seed."""
    make = "Constraint.ge(LinExpr({'hd(n1)': 2, 'len(n2)': -4}), 6)"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def run(seed, code, stdin=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        header = "import pickle, sys\nfrom repro.numeric.linexpr import Constraint, LinExpr\n"
        proc = subprocess.run(
            [sys.executable, "-c", header + textwrap.dedent(code)],
            env=env, input=stdin, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    blob = run(1, f"""
        c = {make}
        hash(c), hash(c.expr)  # fill the hash caches before pickling
        sys.stdout.buffer.write(pickle.dumps((c, c.expr)))
        """)
    out = run(2, f"""
        c, e = pickle.loads(sys.stdin.buffer.read())
        fresh = {make}
        print(c in {{fresh}}, e in {{fresh.expr}})
        """, stdin=blob)
    assert out.split() == [b"True", b"True"]


def test_pickle_round_trip_keeps_values():
    c = Constraint.eq(x().scale(Fraction(3, 2)) - y(), 3)
    loaded = pickle.loads(pickle.dumps(c))
    assert loaded == c and loaded.rel == EQ
    assert loaded.expr.coeffs == c.expr.coeffs and loaded.expr.const == c.expr.const
