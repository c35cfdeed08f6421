"""Optimized-kernel regression tests (repro.kernels fast vs reference).

Covers the LP memo aliasing bug, bit-identical cache replay, the
HeapSet.map identity fast path, the canonical-RREF AM kernels against
full elimination over random systems, and corpus-wide representation
identity of fast-mode summaries against the reference kernels.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro import kernels
from repro.core.api import Analyzer
from repro.datawords import terms as T
from repro.datawords.multiset import MultisetDomain, MultisetValue
from repro.lang.benchlib import benchmark_program
from repro.numeric import linalg, simplex
from repro.numeric.linexpr import Constraint, LinExpr
from repro.numeric.polyhedra import Polyhedron


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts and ends with cold kernel caches in fast mode."""
    kernels.set_mode("fast")
    yield
    kernels.set_mode("fast")


def _x():
    return LinExpr.var("x")


def _system():
    # 1 <= x <= 5
    return [
        Constraint.ge(_x(), 1),
        Constraint.le(_x(), 5),
    ]


# -- LP memo-key aliasing -------------------------------------------------------


def test_scaled_objectives_do_not_alias():
    """``min 2x`` after ``min x`` must not replay the cached ``min x``.

    The objective is keyed exactly: a scale-normalized key would alias
    ``x`` and ``2x`` (and any two positive constants) to one cache slot,
    and the second query would return the first's optimum.
    """
    cons = _system()
    first = simplex.solve_lp(cons, _x())
    second = simplex.solve_lp(cons, _x().scale(2))
    assert first.value == 1
    assert second.value == 2


def test_constant_objectives_do_not_alias():
    cons = _system()
    five = simplex.solve_lp(cons, LinExpr({}, Fraction(5)))
    one = simplex.solve_lp(cons, LinExpr({}, Fraction(1)))
    assert five.value == 5
    assert one.value == 1


def test_negated_objective_not_aliased_with_maximize():
    cons = _system()
    lo = simplex.solve_lp(cons, _x())
    hi = simplex.solve_lp(cons, _x(), maximize=True)
    assert (lo.value, hi.value) == (1, 5)


# -- cache replay is bit-identical --------------------------------------------


def test_cache_hit_is_bit_identical():
    cons = _system()
    cold = simplex.solve_lp(cons, _x())
    hits_before = simplex.cache_stats()["solve_hits"]
    warm = simplex.solve_lp(cons, _x())
    assert simplex.cache_stats()["solve_hits"] == hits_before + 1
    assert warm is cold  # the memo returns the very same LPResult
    simplex.clear_caches()
    recomputed = simplex.solve_lp(cons, _x())
    assert recomputed.status == cold.status
    assert recomputed.value == cold.value
    assert repr(recomputed) == repr(cold)


def test_fast_and_reference_lp_agree_exactly():
    cons = _system() + [Constraint.ge(LinExpr.var("y"), _x())]
    objectives = [
        _x(),
        _x().scale(3),
        LinExpr.var("y") + _x(),
        LinExpr({}, Fraction(7, 2)),
    ]
    for objective in objectives:
        for maximize in (False, True):
            kernels.set_mode("fast")
            fast = simplex.solve_lp(cons, objective, maximize)
            kernels.set_mode("reference")
            ref = simplex.solve_lp(cons, objective, maximize)
            assert fast.status == ref.status
            assert fast.value == ref.value
            assert repr(fast) == repr(ref)


# -- minimized() memo ----------------------------------------------------------


def test_minimized_memo_returns_same_representation():
    cons = [
        Constraint.ge(_x(), 0),
        Constraint.ge(_x(), -1),  # redundant
        Constraint.le(_x(), 9),
    ]
    first = Polyhedron(list(cons)).minimized()
    second = Polyhedron(list(cons)).minimized()
    assert first.constraints == second.constraints
    assert [hash(c) for c in first.constraints] == [
        hash(c) for c in second.constraints
    ]
    kernels.set_mode("reference")
    ref = Polyhedron(list(cons)).minimized()
    assert [repr(c) for c in ref.constraints] == [
        repr(c) for c in first.constraints
    ]


# -- HeapSet.map identity fast path -------------------------------------------


def test_heapset_map_identity_returns_self():
    analyzer = Analyzer(benchmark_program())
    result = analyzer.analyze("addfst", domain="am")
    for _, summary in result.summaries:
        if summary.is_bottom():
            continue
        mapped = summary.map(result.domain, lambda heap: [heap])
        assert mapped is summary
        changed = summary.map(result.domain, lambda heap: [heap, heap])
        assert changed is not summary


# -- canonical AM kernels against full elimination ----------------------------
#
# Seeded random sparse homogeneous systems over a few columns, so that
# entailment, comparable joins and rows already in the span all occur.

_COLUMNS = [f"c{i}" for i in range(7)]


def _random_row(rng):
    return {
        c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
        for c in rng.sample(_COLUMNS, rng.randint(1, 4))
    }


def _combination(rng, rows):
    """A random nonzero combination of ``rows`` (or a fresh row)."""
    out = {}
    for row in rows:
        k = rng.choice((-2, -1, 0, 1, Fraction(1, 2)))
        for c, v in row.items():
            out[c] = out.get(c, 0) + k * v
    out = {c: v for c, v in out.items() if v}
    return out or _random_row(rng)


def _random_system(rng, max_rows=5):
    return [_random_row(rng) for _ in range(rng.randint(0, max_rows))]


def _canonical(rows):
    return linalg.rref(rows, sorted(set().union(*rows)))


def _value_pairs(rng, n):
    """Pairs of AM values: unrelated, equal, and one entailing the other."""
    pairs = []
    for _ in range(n):
        a = MultisetValue(_random_system(rng))
        pick = rng.random()
        if pick < 0.2:
            b = MultisetValue(a.rows)
        elif pick < 0.6:
            b = MultisetValue([_combination(rng, a.rows)
                               for _ in range(rng.randint(0, 2))])
        else:
            b = MultisetValue(_random_system(rng))
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return pairs


def test_row_insertion_equals_full_rref():
    rng = random.Random(1)
    in_span = 0
    for _ in range(3000):
        basis = _canonical(_random_system(rng))
        new = [
            _combination(rng, basis) if rng.random() < 0.3 else _random_row(rng)
            for _ in range(rng.randint(1, 2))
        ]
        got = basis
        for row in new:
            before = got
            got = linalg.insert_row(got, row)
            if got is before:
                in_span += 1
        assert got == _canonical(basis + new), (basis, new)
    assert in_span > 300


def test_lead_indexed_entailment_equals_reduction():
    rng = random.Random(2)
    domain = MultisetDomain()
    cases = []
    for a, b in _value_pairs(rng, 3000):
        row = _combination(rng, a.rows) if rng.random() < 0.5 else _random_row(rng)
        cases.append((a, b, row))
        columns = sorted(set().union(row, *a.rows))
        assert linalg.spans(a.rows, [row]) == (
            not linalg.reduce_against(row, list(a.rows), columns)
        )

    def run():
        return [
            (domain.leq(a, b), domain.leq(b, a), domain.entails_row(a, row))
            for a, b, row in cases
        ]

    fast = run()
    kernels.set_mode("reference")
    assert run() == fast
    assert sum(leq for leq, _, _ in fast) > 500
    assert sum(entailed for _, _, entailed in fast) > 500


def test_shortcut_join_equals_nullspace_join():
    rng = random.Random(3)
    domain = MultisetDomain()
    pairs = _value_pairs(rng, 3000)

    def run():
        return [
            (domain.join(a, b).rows, domain.meet(a, b).rows) for a, b in pairs
        ]

    fast = run()
    kernels.set_mode("reference")
    assert run() == fast
    general = sum(
        not domain.leq(a, b) and not domain.leq(b, a) for a, b in pairs
    )
    assert general > 300


def test_projection_rows_are_canonical():
    rng = random.Random(4)
    domain = MultisetDomain()
    cases = [
        (MultisetValue(_random_system(rng, 6)), set(rng.sample(_COLUMNS, rng.randint(1, 3))))
        for _ in range(3000)
    ]
    fast = [domain._project_columns(value, cols) for value, cols in cases]
    for (value, cols), out in zip(cases, fast):
        assert list(out.rows) == _canonical(list(out.rows))
        # The kept rows span exactly the rows of the value free of
        # ``cols``: entailed by it, and of dimension rank(value) minus
        # the rank of its rows restricted to ``cols``.
        assert not out.support() & cols
        assert domain.leq(value, out)
        on_cols = [{c: k for c, k in r.items() if c in cols} for r in value.rows]
        assert len(out.rows) == len(value.rows) - len(
            linalg.rref(on_cols, sorted(cols))
        )
    kernels.set_mode("reference")
    assert [domain._project_columns(v, c).rows for v, c in cases] == [
        out.rows for out in fast
    ]


def _word_value(rng, words, dvars):
    """A canonical AM value over ``mhd``/``mtl`` of ``words`` and ``dvars``."""
    columns = [T.mhd(w) for w in words] + [T.mtl(w) for w in words] + dvars
    rows = [
        {
            c: Fraction(rng.choice((-2, -1, 1, 1, 2)), rng.choice((1, 1, 2)))
            for c in rng.sample(columns, rng.randint(1, 4))
        }
        for _ in range(rng.randint(1, 6))
    ]
    return MultisetValue(rows)


def _renaming(rng, names, pool, kind):
    """Rename ``names`` (sorted) into ``pool``: the identity, an
    order-keeping renaming, or one that changes the order."""
    if kind == "identity":
        return {n: n for n in names}
    if kind == "keep":
        return dict(zip(names, sorted(rng.sample(pool, len(names)))))
    while True:
        targets = rng.sample(pool, len(names))
        if targets != sorted(targets):
            return dict(zip(names, targets))


def test_renamings_and_unfolds_equal_full_elimination():
    """The fast ``rename_words``, ``rename_data``, ``split`` and ``concat``
    re-eliminate only the rows they change; their rows must be canonical
    and equal to the reference kernels' full elimination."""
    rng = random.Random(5)
    domain = MultisetDomain()
    word_pool = [f"n{i}" for i in range(1, 9)]
    data_pool = ["a", "d", "e", "k", "z"]  # around and between the word terms
    cases = []
    kinds = Counter()
    for _ in range(1500):
        words = sorted(rng.sample(word_pool, rng.randint(3, 4)))
        dvars = sorted(rng.sample(data_pool, 2))
        value = _word_value(rng, words, dvars)
        kind = rng.choice(("identity", "keep", "change"))
        kinds[kind] += 1
        word_map = _renaming(rng, words, word_pool, kind)
        data_map = _renaming(rng, dvars, data_pool, rng.choice(("identity", "keep", "change")))
        fresh = [w for w in word_pool if w not in words]
        word, tail = rng.sample(words, 2)
        parts = rng.sample(words, rng.randint(2, 3))
        target = rng.choice((parts[0], rng.choice(fresh)))
        cases.append((value, word_map, data_map, word, rng.choice((tail, fresh[0])), target, parts))

    def run():
        return [
            (
                domain.rename_words(value, word_map),
                domain.rename_data(value, data_map),
                domain.split(value, word, tail),
                domain.concat(value, target, parts),
            )
            for value, word_map, data_map, word, tail, target, parts in cases
        ]

    fast = run()
    for outs in fast:
        for out in outs:
            assert list(out.rows) == _canonical(list(out.rows))
    kernels.set_mode("reference")
    reference = run()
    assert [[o.rows for o in outs] for outs in reference] == [
        [o.rows for o in outs] for outs in fast
    ]
    assert min(kinds.values()) > 400
    # Many renamings change some rows and leave others untouched.
    mixed = 0
    for value, word_map, *_ in cases:
        moved = {c for c in value.support() if T.rename_term(c, word_map) != c}
        touched = sum(not moved.isdisjoint(r) for r in value.rows)
        mixed += 0 < touched < len(value.rows)
    assert mixed > 300


# -- corpus-wide representation identity --------------------------------------

IDENTITY_ROWS = [
    ("addfst", "am"),
    ("delfst", "am"),
    ("insertsort", "am"),
    ("merge", "am"),
    ("mergesort", "am"),
    ("quicksort", "am"),
    ("create", "au"),
    ("delfst", "au"),
]


def _summary_hashes(name, domain):
    analyzer = Analyzer(benchmark_program())
    result = analyzer.analyze(name, domain=domain, max_steps=400_000)
    assert not result.diagnostics, (name, domain, result.diagnostics)
    return sorted(result.summary_hashes())


@pytest.mark.parametrize("name,domain", IDENTITY_ROWS)
def test_fast_summaries_identical_to_reference(name, domain):
    kernels.set_mode("fast")
    fast = _summary_hashes(name, domain)
    kernels.set_mode("reference")
    ref = _summary_hashes(name, domain)
    assert fast == ref


def test_fuzz_corpus_entries_identical_to_reference():
    """Every checked-in fuzz corpus entry passes the kernel-identity oracle."""
    from pathlib import Path

    from repro.fuzz.__main__ import load_corpus_entry
    from repro.fuzz.kernelcheck import KernelChecker

    corpus = sorted(
        (Path(__file__).parent / "corpus").glob("*.lisl")
    )
    assert corpus, "fuzz corpus is missing"
    checker = KernelChecker()
    for path in corpus:
        entry = load_corpus_entry(path)
        findings = checker.check_source(entry.source, entry.root, entry.inputs)
        assert not findings, (path, [f.describe() for f in findings])
