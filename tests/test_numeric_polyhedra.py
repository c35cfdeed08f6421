"""Unit and property tests for the polyhedra-lite domain."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import polyhedra, simplex
from repro.numeric.linexpr import EQ, GE, Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron


def v(name):
    return LinExpr.var(name)


def poly(*cons):
    return Polyhedron(cons)


class TestLatticeBasics:
    def test_top_bottom(self):
        assert Polyhedron.top().is_top()
        assert Polyhedron.bottom().is_bottom()
        assert not Polyhedron.top().is_bottom()

    def test_syntactic_contradiction_is_bottom(self):
        p = poly(Constraint.ge(LinExpr.const_expr(-1)))
        assert p.is_bottom()

    def test_semantic_contradiction_is_bottom(self):
        p = poly(Constraint.ge(v("x"), 1), Constraint.le(v("x"), 0))
        assert p.is_bottom()

    def test_meet(self):
        p = poly(Constraint.ge(v("x"), 0)).meet(poly(Constraint.le(v("x"), 5)))
        assert p.entails(Constraint.ge(v("x"), 0))
        assert p.entails(Constraint.le(v("x"), 5))

    def test_leq(self):
        small = poly(Constraint.ge(v("x"), 2))
        big = poly(Constraint.ge(v("x"), 0))
        assert small.leq(big)
        assert not big.leq(small)

    def test_bottom_leq_everything(self):
        assert Polyhedron.bottom().leq(poly(Constraint.eq(v("x"), 1)))

    def test_entails_cache_consistency(self):
        p = poly(Constraint.ge(v("x"), 1))
        c = Constraint.ge(v("x"), 0)
        assert p.entails(c)
        assert p.entails(c)  # cached path

    def test_dedup_of_scaled_constraints(self):
        p = poly(Constraint.ge(v("x"), 1), Constraint.ge(v("x").scale(2), 2))
        assert len(p.constraints) == 1


class TestJoin:
    def test_join_of_points_gives_segment(self):
        p0 = poly(Constraint.eq(v("x"), 0))
        p1 = poly(Constraint.eq(v("x"), 1))
        j = p0.join(p1)
        assert j.entails(Constraint.ge(v("x"), 0))
        assert j.entails(Constraint.le(v("x"), 1))
        assert not j.entails(Constraint.eq(v("x"), 0))

    def test_join_preserves_common_relation(self):
        p0 = poly(Constraint.eq(v("y"), v("x")))
        p1 = poly(Constraint.eq(v("y"), v("x") + 1))
        j = p0.join(p1)
        assert j.entails(Constraint.ge(v("y"), v("x")))
        assert j.entails(Constraint.le(v("y"), v("x") + 1))

    def test_join_with_bottom(self):
        p = poly(Constraint.eq(v("x"), 3))
        assert p.join(Polyhedron.bottom()).entails(Constraint.eq(v("x"), 3))
        assert Polyhedron.bottom().join(p).entails(Constraint.eq(v("x"), 3))

    def test_join_is_upper_bound(self):
        a = poly(Constraint.ge(v("x"), 0), Constraint.le(v("x"), 1))
        b = poly(Constraint.ge(v("x"), 5), Constraint.le(v("x"), 6))
        j = a.join(b)
        assert a.leq(j)
        assert b.leq(j)


class TestWiden:
    def test_widen_drops_unstable_bound(self):
        a = poly(Constraint.ge(v("i"), 0), Constraint.le(v("i"), 1))
        b = poly(Constraint.ge(v("i"), 0), Constraint.le(v("i"), 2))
        w = a.widen(b)
        assert w.entails(Constraint.ge(v("i"), 0))
        assert not w.entails(Constraint.le(v("i"), 100))

    def test_widen_keeps_stable_relation(self):
        a = poly(Constraint.le(v("i"), v("n")), Constraint.le(v("i"), 1))
        b = poly(Constraint.le(v("i"), v("n")), Constraint.le(v("i"), 2))
        w = a.widen(b)
        assert w.entails(Constraint.le(v("i"), v("n")))

    def test_widen_is_upper_bound_of_both(self):
        a = poly(Constraint.eq(v("x"), 0))
        b = poly(Constraint.ge(v("x"), 0), Constraint.le(v("x"), 1))
        w = a.widen(b)
        assert a.leq(w)
        assert b.leq(w)

    def test_widen_keeps_new_equalities_entailed_by_old(self):
        a = poly(Constraint.eq(v("x"), v("y")), Constraint.le(v("x"), 1))
        b = poly(Constraint.eq(v("x"), v("y")))
        w = a.widen(b)
        assert w.entails(Constraint.eq(v("x"), v("y")))


class TestProject:
    def test_project_via_equality(self):
        p = poly(Constraint.eq(v("y"), v("x") + 1), Constraint.ge(v("x"), 0))
        q = p.project(["x"])
        assert "x" not in q.support()
        assert q.entails(Constraint.ge(v("y"), 1))

    def test_project_fourier_motzkin(self):
        p = poly(Constraint.le(v("x"), v("y")), Constraint.le(v("y"), v("z")))
        q = p.project(["y"])
        assert q.entails(Constraint.le(v("x"), v("z")))
        assert "y" not in q.support()

    def test_project_missing_variable_is_noop(self):
        p = poly(Constraint.ge(v("x"), 0))
        assert p.project(["zz"]) is p

    def test_project_of_bottom(self):
        assert Polyhedron.bottom().project(["x"]).is_bottom()

    def test_project_all(self):
        p = poly(Constraint.ge(v("x"), 0), Constraint.le(v("x"), v("y")))
        q = p.project(["x", "y"])
        assert q.is_top()

    def test_restrict_to(self):
        p = poly(Constraint.eq(v("a"), v("b")), Constraint.eq(v("b"), v("c")))
        q = p.restrict_to(["a", "c"])
        assert q.support() <= {"a", "c"}
        assert q.entails(Constraint.eq(v("a"), v("c")))


class TestAssignRename:
    def test_assign_constant(self):
        p = Polyhedron.top().assign("x", LinExpr.const_expr(5))
        assert p.entails(Constraint.eq(v("x"), 5))

    def test_assign_increment(self):
        p = poly(Constraint.eq(v("i"), 3)).assign("i", v("i") + 1)
        assert p.entails(Constraint.eq(v("i"), 4))

    def test_assign_forgets_old_value(self):
        p = poly(Constraint.eq(v("x"), 1), Constraint.eq(v("y"), v("x")))
        q = p.assign("x", LinExpr.const_expr(9))
        assert q.entails(Constraint.eq(v("x"), 9))
        assert q.entails(Constraint.eq(v("y"), 1))

    def test_assign_swap_style(self):
        p = poly(Constraint.eq(v("x"), v("y") + 2)).assign("x", v("x") - v("y"))
        assert p.entails(Constraint.eq(v("x"), 2))

    def test_rename(self):
        p = poly(Constraint.eq(v("x"), 1)).rename({"x": "z"})
        assert p.entails(Constraint.eq(v("z"), 1))
        assert "x" not in p.support()

    def test_substitute(self):
        p = poly(Constraint.ge(v("x"), 0)).substitute({"x": v("a") - v("b")})
        assert p.entails(Constraint.ge(v("a"), v("b")))

    def test_minimized_removes_redundant(self):
        p = poly(Constraint.ge(v("x"), 2), Constraint.ge(v("x"), 0))
        q = p.minimized()
        assert len(q.constraints) == 1
        assert q.entails(Constraint.ge(v("x"), 2))


coeff_st = st.integers(min_value=-3, max_value=3)
const_st = st.integers(min_value=-5, max_value=5)


@st.composite
def constraint_st(draw):
    cx = draw(coeff_st)
    cy = draw(coeff_st)
    c = draw(const_st)
    rel = draw(st.sampled_from(["ge", "eq"]))
    expr = LinExpr({"x": cx, "y": cy}, c)
    return Constraint.ge(expr) if rel == "ge" else Constraint.eq(expr)


@st.composite
def poly_st(draw):
    cons = draw(st.lists(constraint_st(), min_size=0, max_size=4))
    return Polyhedron(cons)


points_st = st.fixed_dictionaries(
    {"x": st.integers(-10, 10).map(Fraction), "y": st.integers(-10, 10).map(Fraction)}
)


@settings(max_examples=40, deadline=None)
@given(poly_st(), poly_st(), points_st)
def test_property_join_soundness(a, b, point):
    """A point in a or b is in join(a, b)."""
    j = a.join(b)
    if a.satisfies(point) or b.satisfies(point):
        assert j.satisfies(point)


@settings(max_examples=40, deadline=None)
@given(poly_st(), poly_st(), points_st)
def test_property_meet_exactness(a, b, point):
    m = a.meet(b)
    assert m.satisfies(point) == (a.satisfies(point) and b.satisfies(point))


@settings(max_examples=40, deadline=None)
@given(poly_st(), poly_st(), points_st)
def test_property_widen_upper_bound(a, b, point):
    w = a.widen(b)
    if a.satisfies(point) or b.satisfies(point):
        assert w.satisfies(point)


@settings(max_examples=40, deadline=None)
@given(poly_st(), points_st)
def test_property_project_soundness(a, point):
    q = a.project(["y"])
    if a.satisfies(point):
        assert q.satisfies(point)


@settings(max_examples=30, deadline=None)
@given(poly_st(), poly_st())
def test_property_leq_reflexive_transitive_bits(a, b):
    assert a.leq(a)
    j = a.join(b)
    assert a.leq(j) and b.leq(j)


# -- integer Fourier-Motzkin against the Fraction formulation ------------------


def _fraction_eliminate(cons, var):
    """The textbook elimination on Fractions, kept as the oracle of
    ``polyhedra._eliminate``: substitution through ``var = -rest/a`` and
    the FM pair ``p*(-kq) + q*kp``, neither scaled to integers."""
    for i, c in enumerate(cons):
        if c.rel == EQ and var in c.expr.coeffs:
            a = c.expr.coeffs[var]
            rest = LinExpr(
                {u: k for u, k in c.expr.coeffs.items() if u != var}, c.expr.const
            )
            replacement = rest.scale(Fraction(-1) / a)
            out = []
            for j, d in enumerate(cons):
                if j == i:
                    continue
                sub = d.substitute({var: replacement})
                if sub.is_contradiction():
                    return None
                if not sub.is_trivial():
                    out.append(sub)
            return out
    pos, neg, rest_cons = [], [], []
    for c in cons:
        k = c.expr.coeffs.get(var)
        if k is None:
            rest_cons.append(c)
        elif k > 0:
            pos.append(c)
        else:
            neg.append(c)
    if len(pos) * len(neg) > polyhedra._FM_BLOWUP_CAP:
        return rest_cons
    for p in pos:
        for q in neg:
            combo = p.expr.scale(-q.expr.coeffs[var]) + q.expr.scale(
                p.expr.coeffs[var]
            )
            new = Constraint(combo, GE)
            if new.is_contradiction():
                return None
            if not new.is_trivial():
                rest_cons.append(new)
    return rest_cons


_FM_VARS = ["a", "b", "c", "d"]


def _random_coeff(rng, fractional):
    k = rng.choice([-3, -2, -1, 1, 2, 3])
    if fractional and rng.random() < 0.3:
        return Fraction(k, rng.choice([2, 3, 4]))
    if rng.random() < 0.2:
        return Fraction(k)  # integral, but a Fraction object
    return k


def _random_system(rng, fractional):
    """Random ``(expr, rel)`` inputs for the ``Constraint`` constructor."""
    rows = []
    for _ in range(rng.randint(1, 7)):
        support = rng.sample(_FM_VARS, rng.randint(1, 3))
        expr = LinExpr(
            {u: _random_coeff(rng, fractional) for u in support},
            rng.randint(-4, 4),
        )
        rel = EQ if rng.random() < 0.25 else GE
        rows.append((expr, rel))
    return rows


def _assert_same_elimination(got_in, want_in, var):
    """One elimination step, the new one on ``got_in`` and the oracle on
    ``want_in``; returns both outputs."""
    got = polyhedra._eliminate(list(got_in), var)
    want = _fraction_eliminate(list(want_in), var)
    assert (got is None) == (want is None), (want_in, var)
    if got is None:
        return None, None
    assert got == want
    assert Polyhedron(got).constraints == Polyhedron(want).constraints
    return got, want


class TestIntegerFourierMotzkin:
    def test_matches_fraction_elimination_on_random_systems(self):
        rng = random.Random(20240611)
        seen = {"bottom": 0, "negative_pivot": 0, "fractional": 0, "fm": 0}
        for trial in range(400):
            fractional = trial % 2 == 1
            rows = _random_system(rng, fractional)
            order = rng.sample(_FM_VARS, rng.randint(1, 3))
            if fractional and any(
                k.denominator != 1 for e, _ in rows for k in e.coeffs.values()
            ):
                seen["fractional"] += 1
            cons = [Constraint(e, rel) for e, rel in rows]
            # Eliminate variables in sequence, as _project_capped does; each
            # side feeds its own output to the next step.
            got, want = cons, cons
            for var in order:
                pivot = next(
                    (c for c in got if c.rel == EQ and var in c.expr.coeffs), None
                )
                if pivot is not None and pivot.expr.coeffs[var] < 0:
                    seen["negative_pivot"] += 1
                elif pivot is None and any(var in c.expr.coeffs for c in got):
                    seen["fm"] += 1
                got, want = _assert_same_elimination(got, want, var)
                if got is None:
                    seen["bottom"] += 1
                    break
        assert all(count >= 10 for count in seen.values()), seen

    def test_constraint_without_the_variable_passes_through(self):
        untouched = Constraint.ge(v("b"), 1)
        cons = [Constraint.ge(v("a"), 0), untouched, Constraint.le(v("a"), 5)]
        assert polyhedra._eliminate(cons, "a")[0] is untouched
        pivot = Constraint.eq(v("a").scale(-2), v("c"))
        assert polyhedra._eliminate([pivot, untouched], "a") == [untouched]

    def test_integer_results_are_primitive_and_their_own_normal_form(self):
        p = Constraint.ge(v("a").scale(2) + v("b").scale(4), 6)
        q = Constraint.le(v("a").scale(4), v("b").scale(-2) + 2)
        (new,) = polyhedra._eliminate([p, q], "a")
        # 4*(2a + 4b - 6) + 2*(-4a - 2b + 2) = 12b - 20, divided by 4
        assert new == Constraint(LinExpr({"b": 3}, -5), GE)
        assert Constraint(new.expr, GE).expr is new.expr
        assert all(type(k) is int for k in new.expr.coeffs.values())

    def test_contradictions_are_bottom(self):
        x_ge_1 = Constraint.ge(v("a"), 1)
        assert polyhedra._eliminate([x_ge_1, Constraint.le(v("a"), 0)], "a") is None
        neg_pivot = Constraint.eq(v("a").scale(-3), LinExpr.const_expr(-3))
        assert polyhedra._eliminate([neg_pivot, Constraint.le(v("a"), 0)], "a") is None

    def test_blowup_cap_fallback(self):
        side = int(polyhedra._FM_BLOWUP_CAP ** 0.5) + 1
        keep = Constraint.ge(v("b"), 0)
        cons = [keep]
        for i in range(side):
            cons.append(Constraint.ge(v("a") + v("c").scale(i + 1), i))
            cons.append(Constraint.le(v("a").scale(i + 1), v("d") + i))
        assert side * side > polyhedra._FM_BLOWUP_CAP
        got, want = _assert_same_elimination(cons, cons, "a")
        assert got == want == [keep]


def _first_coeff_direction(constraint):
    """The direction key of the Fraction formulation: every coefficient
    and the constant divided by the first coefficient's magnitude."""
    items = sorted(constraint.expr.coeffs.items())
    scale = Fraction(1) / abs(items[0][1])
    return (
        tuple((u, k * scale) for u, k in items),
        constraint.expr.const * scale,
    )


def _positive_multiples(c1, c2):
    k1, k2 = c1.expr.coeffs, c2.expr.coeffs
    if set(k1) != set(k2):
        return False
    u = next(iter(k1))
    ratio = Fraction(k1[u]) / k2[u]
    return ratio > 0 and all(k1[w] == ratio * k2[w] for w in k1)


class TestDirectionKeys:
    def test_keys_group_positive_multiples_and_order_by_tightness(self):
        rng = random.Random(7)
        pool = []
        for _ in range(60):
            support = rng.sample(_FM_VARS[:3], rng.randint(1, 2))
            base = {u: rng.choice([-2, -1, 1, 2, 3]) for u in support}
            factor = rng.choice([1, 2, 3, Fraction(1, 2)])
            expr = LinExpr({u: k * factor for u, k in base.items()}, rng.randint(-6, 6))
            pool.append(Constraint(expr, GE))
        shared = 0
        for c1 in pool:
            for c2 in pool:
                key1, eff1 = polyhedra._direction_of(c1)
                key2, eff2 = polyhedra._direction_of(c2)
                same = key1 == key2
                assert same == _positive_multiples(c1, c2), (c1, c2)
                old1, old2 = _first_coeff_direction(c1), _first_coeff_direction(c2)
                assert same == (old1[0] == old2[0])
                if same:
                    shared += 1
                    assert (eff1 < eff2) == (old1[1] < old2[1])
                    assert (eff1 <= eff2) == simplex.entails([c1], c2)
        assert shared > len(pool)  # some families have several members


# -- LP-free verdicts of the fast redundancy sweeps ------------------------

_SWEEP_VARS = [f"x{i}" for i in range(8)]


def _sweep_system(rng):
    """A random constraint list for ``minimized()`` and what it covers.

    Equalities hold at a random integer point.  GE rows are random rows
    that hold there, rows equal to a positive multiple of an earlier GE
    row plus a multiple of an equality, with a looser, equal or tighter
    constant, and pairs ``e >= 0``, ``-e >= 0`` that form an implicit
    equality (in two systems out of five), sometimes with an explicit
    equality they entail.  Sizes
    fall on both sides of ``_INT_DIRECT_MAX``.  About one system in
    eight is small and made infeasible, by a GE pair or by inconsistent
    equalities.
    """
    names = _SWEEP_VARS[: rng.randint(3, 6)]
    point = {n: rng.randint(-3, 3) for n in names}

    def at_point(low, high):
        picked = rng.sample(names, rng.randint(low, high))
        e = LinExpr({n: rng.choice([-3, -2, -1, 1, 2, 3]) for n in picked})
        return e - e.evaluate(point)  # zero at the point

    tags = {"infeasible"} if rng.random() < 0.125 else set()
    pairs = rng.random() < 0.4
    eqs = [Constraint(at_point(2, 3), EQ) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
    ges, sides = [], []  # each GE row's ``expr >= 0`` side

    def add_ge(expr):
        sides.append(expr)
        ges.append(Constraint(expr, GE))

    if "infeasible" in tags:
        target = rng.randint(4, 16)
    else:
        target = rng.choice([rng.randint(4, 20), rng.randint(21, 36)])
    while len(Polyhedron(eqs + ges).constraints) < target:
        roll = rng.random()
        if eqs and sides and roll < 0.35:
            base = rng.choice(sides).scale(rng.randint(1, 3))
            shift = rng.choice([-1, 0, 0, 1, 2] if base.evaluate(point) > 0 else [0, 1])
            tags.add({-1: "tighter", 0: "equal"}.get(shift, "looser"))
            add_ge(base + rng.choice(eqs).expr.scale(rng.choice([-2, -1, 1, 2])) + shift)
        elif pairs and roll < 0.45:
            tags.add("implicit")
            e = at_point(1, 2)
            add_ge(e)
            add_ge(-e)
            if rng.random() < 0.5:
                tags.add("entailed_eq")
                extra = rng.choice(eqs).expr.scale(rng.randint(1, 2)) if eqs else 0
                eqs.append(Constraint(e + extra, EQ))
        else:
            add_ge(at_point(1, 3) + rng.randint(0, 3))
    if "infeasible" in tags:
        e = at_point(1, 2)
        if rng.random() < 0.5:
            ges += [Constraint(e - 1, GE), Constraint(-e, GE)]
        else:
            eqs += [Constraint(e, EQ), Constraint(e + 1, EQ)]
    cons = eqs + ges
    tags.add("large" if len(Polyhedron(cons).constraints) > simplex._INT_DIRECT_MAX else "small")
    if eqs:
        tags.add("eqs")
    return cons, tags


def test_fast_sweeps_match_the_reference_loop():
    """The fast ``minimized()`` (LP-free verdicts, HiGHS or exact) keeps
    the very tuple the reference loop keeps, on 420 seeded systems.
    Without HiGHS every size takes the same exact loop, and the exact
    reference takes seconds on each large system, so only systems up to
    ``_INT_DIRECT_MAX`` rows are compared."""
    from repro import kernels

    rng = random.Random(20170118)
    seen = {}
    decided = dict.fromkeys(("sweep_dominated", "sweep_eq_rank"), 0)
    try:
        for _ in range(420):
            cons, tags = _sweep_system(rng)
            for tag in tags:
                seen[tag] = seen.get(tag, 0) + 1
            if simplex._highs_core is None and "large" in tags:
                continue
            kernels.set_mode("fast")
            polyhedra.clear_caches()
            fast = Polyhedron(cons).minimized().constraints
            for key in decided:
                decided[key] += polyhedra.cache_stats()[key]
            kernels.set_mode("reference")
            assert fast == Polyhedron(cons).minimized().constraints, cons
    finally:
        kernels.set_mode("fast")
    assert all(seen.get(tag, 0) >= 30 for tag in (
        "eqs", "looser", "equal", "tighter", "implicit", "entailed_eq",
        "large", "small", "infeasible",
    )), seen
    assert decided["sweep_dominated"] >= 50, decided
    if simplex._highs_core is not None:
        assert decided["sweep_eq_rank"] >= 30, decided


def test_rows_handed_on_as_known_are_irredundant(monkeypatch):
    """Along random elimination chains with a small cap, every row that
    ``_project_capped`` hands on as known irredundant -- to a cap sweep
    or with its result -- is in the list it goes with, and the rest of
    that list does not entail it."""
    chain = []
    minimized = Polyhedron.minimized

    def recording(self, known=frozenset()):
        result = minimized(self, known)
        chain.append((self.constraints, frozenset(known), result.constraints))
        return result

    monkeypatch.setattr(Polyhedron, "minimized", recording)
    rng = random.Random(5)
    checked = touched = 0
    for _ in range(300):
        names = _SWEEP_VARS[: rng.randint(5, 7)]
        point = {n: rng.randint(-3, 3) for n in names}
        cons = []
        for _ in range(rng.randint(10, 16)):
            picked = rng.sample(names, rng.randint(1, 3))
            e = LinExpr({n: rng.choice([-2, -1, 1, 2, 3]) for n in picked})
            rel = EQ if rng.random() < 0.15 else GE
            slack = 0 if rel == EQ else rng.randint(0, 3)
            cons.append(Constraint(e - e.evaluate(point) + slack, rel))
        del chain[:]
        order = rng.sample(names, rng.randint(2, 4))
        projected = Polyhedron(cons)._project_capped(order, cap=rng.randint(6, 10))
        if projected is None:
            continue
        handed = [(rows, known) for rows, known, _ in chain]
        handed.append((projected[0].constraints, frozenset(projected[1])))
        for rows, known in handed:
            assert known <= set(rows)
            for row in known:
                rest = [c for c in rows if c != row]
                assert not simplex.entails(rest, row), (rows, row)
                checked += 1
        # Kept rows of a cap sweep that a later elimination rewrote.
        for (_, _, kept), (rows, _) in zip(chain, handed[1:]):
            touched += len(set(kept) - set(rows))
    assert checked >= 300 and touched >= 100, (checked, touched)


def test_sweep_counters_count_and_reset():
    """``cache_stats()`` counts the rows the fast sweeps visit and the
    ones each shortcut decides; ``clear_caches()`` zeroes them."""
    from repro import kernels

    keys = ("sweep_rows", "sweep_known", "sweep_dominated", "sweep_eq_rank")
    with kernels.mode_ctx("fast"):
        polyhedra.clear_caches()
        assert {k: polyhedra.cache_stats()[k] for k in keys} == dict.fromkeys(keys, 0)
        # x + z >= 0 is y + z >= 0 modulo x = y, looser than y + z >= 1.
        looser = Constraint.ge(v("x") + v("z"), 0)
        tighter = Constraint.ge(v("y") + v("z"), 1)
        bound = Constraint.ge(v("z"), -5)
        p = poly(Constraint.eq(v("x"), v("y")), looser, tighter, bound)
        assert looser not in p.minimized(known={bound}).constraints
        stats = polyhedra.cache_stats()
        assert (stats["sweep_rows"], stats["sweep_known"], stats["sweep_dominated"]) == (4, 1, 1)
        if simplex._highs_core is not None:
            # Above _INT_DIRECT_MAX, with an interior point: the three
            # equalities span a plane, so the first one goes by rank.
            eqs = [Constraint.eq(v("x"), v("y")), Constraint.eq(v("y"), v("z")),
                   Constraint.eq(v("x"), v("z"))]
            box = [Constraint.ge(v(f"u{i}"), -i - 1) for i in range(20)]
            kept = poly(*eqs, *box).minimized().constraints
            assert kept == tuple(eqs[1:] + box)
            assert polyhedra.cache_stats()["sweep_eq_rank"] == 3
        polyhedra.clear_caches()
        assert {k: polyhedra.cache_stats()[k] for k in keys} == dict.fromkeys(keys, 0)


# -- the equality prescreen of Polyhedron.entails ----------------------------


def _rref_prescreen(p, candidate):
    """The prescreen's earlier form, kept as a yardstick: a Fraction RREF
    of the equalities with the constant as a ``$const`` column, which
    sorts first and so takes the first pivot."""
    from repro.numeric import linalg

    rows = [polyhedra._eq_row(c) for c in p.equalities()]
    columns = sorted(set().union(set(), *rows))
    basis = linalg.rref(rows, columns)
    row = polyhedra._eq_row(candidate)
    if basis:
        row = linalg.reduce_against(row, basis, columns + [u for u in row if u not in columns])
    const = row.pop("$const", Fraction(0))
    if not row:
        if candidate.rel == EQ:
            return const == 0
        return True if const >= 0 else None
    if candidate.rel == GE and Constraint(LinExpr(row, const), GE) in p.constraints:
        return True
    return None


def _prescreen_case(rng):
    """A random feasible polyhedron (every row holds at an integer point,
    the equalities mostly with nonzero constants) and tagged candidates:
    positive multiples of a GE row modulo the equalities with a looser,
    equal or tighter constant, equalities in the span and off it by a
    constant, GE rows that reduce to a constant, and random rows."""
    names = _SWEEP_VARS[: rng.randint(3, 6)]
    point = {n: rng.randint(-3, 3) for n in names}

    def at_point(low, high):
        picked = rng.sample(names, rng.randint(low, min(high, len(names))))
        e = LinExpr({n: rng.choice([-3, -2, -1, 1, 2, 3]) for n in picked})
        return e - e.evaluate(point)

    eqs = [at_point(2, 3) for _ in range(rng.randint(1, 3))]
    ges = [at_point(1, 3) + rng.randint(0, 3) for _ in range(rng.randint(2, 8))]
    p = Polyhedron([Constraint(e, EQ) for e in eqs] + [Constraint(e, GE) for e in ges])

    def combo():
        e = LinExpr()
        for eq in rng.sample(eqs, rng.randint(1, len(eqs))):
            e = e + eq.scale(rng.choice([-2, -1, 1, 3]))
        return e

    cases = []
    for _ in range(12):
        kind = rng.choice(["looser", "equal", "tighter", "in_span", "off_span",
                           "ge_const", "random"])
        if kind in ("looser", "equal", "tighter"):
            shift = {"looser": rng.randint(1, 3), "equal": 0, "tighter": -rng.randint(1, 3)}[kind]
            e = rng.choice(ges).scale(rng.randint(1, 3)) + combo() + shift
            c = Constraint(e, GE)
        elif kind == "in_span":
            c = Constraint(combo(), EQ)
        elif kind == "off_span":
            c = Constraint(combo() + rng.choice([-2, -1, 1, 2]), EQ)
        elif kind == "ge_const":
            c = Constraint(combo() + rng.randint(-2, 2), GE)
        else:
            c = Constraint(at_point(1, 3) + rng.randint(-2, 2), rng.choice([GE, GE, EQ]))
        if not c.expr.coeffs:
            continue
        cases.append((kind, c))
    return p, cases


def test_prescreen_verdicts_are_the_exact_lps(monkeypatch):
    """Every verdict of ``Polyhedron._gauss_prescreen`` on random feasible
    polyhedra is exact entailment's.  Reduced modulo the equalities, a
    constant decides a candidate, and a GE candidate parallel to and no
    stronger than a GE row is entailed; so candidates built that way are
    always decided, including many the ``$const``-column RREF left to
    the LP, and it agrees wherever that one decided."""
    monkeypatch.setattr(simplex, "_highs_core", None)  # exact LPs only
    rng = random.Random(2011)
    verdicts = {}
    beyond_rref = 0
    for _ in range(250):
        p, cases = _prescreen_case(rng)
        assert not p.is_bottom()
        for kind, c in cases:
            got = p._gauss_prescreen(c)
            exact = simplex.entails(p.constraints, c, assume_feasible=True)
            if got is not None:
                assert got == exact, (p, c, kind)
            old = _rref_prescreen(p, c)
            if old is not None:
                assert got == old, (p, c, kind)
            elif got is not None:
                beyond_rref += 1
            verdicts.setdefault(kind, []).append(got)
    for kind in ("looser", "equal", "in_span", "off_span", "ge_const"):
        assert len(verdicts[kind]) >= 100 and None not in verdicts[kind], kind
    assert verdicts["in_span"].count(True) == len(verdicts["in_span"])
    assert verdicts["off_span"].count(False) == len(verdicts["off_span"])
    assert verdicts["tighter"].count(None) >= 100  # left to the LP
    assert beyond_rref >= 1000, beyond_rref
