"""Property-based widening audit (lattice laws, mirrors
tests/test_multiset_properties.py).

The laws under test, for ``MultisetDomain.widen``:

- **upper bound of join**: ``join(a, b) ⊑ widen(a, b)`` (hence also
  ``a ⊑ widen(a, b)`` and ``b ⊑ widen(a, b)``);
- **stabilization**: iterating ``w := widen(w, join(w, b_i))`` along any
  increasing chain reaches a fixpoint in boundedly many steps;
- **γ-monotonicity** (AM): any concrete witness of either argument
  satisfies the widened value.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datawords import terms as T
from repro.datawords.multiset import MultisetDomain, MultisetValue

AM = MultisetDomain()
WORDS = ["a", "b", "c"]
TERMS = [T.mhd(w) for w in WORDS] + [T.mtl(w) for w in WORDS] + ["d"]


@st.composite
def row_st(draw):
    size = draw(st.integers(min_value=2, max_value=4))
    terms = draw(
        st.lists(st.sampled_from(TERMS), min_size=size, max_size=size, unique=True)
    )
    coeffs = draw(
        st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=size, max_size=size)
    )
    return {t: Fraction(k) for t, k in zip(terms, coeffs)}


@st.composite
def value_st(draw):
    rows = draw(st.lists(row_st(), min_size=0, max_size=3))
    return MultisetValue(rows)


@st.composite
def env_st(draw):
    words = {}
    for w in WORDS:
        words[w] = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    data = {"d": draw(st.integers(-3, 3))}
    return words, data


# -- AM ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(value_st(), value_st())
def test_am_widen_is_upper_bound_of_join(v1, v2):
    w = AM.widen(v1, v2)
    j = AM.join(v1, v2)
    assert AM.leq(j, w)
    assert AM.leq(v1, w)
    assert AM.leq(v2, w)


@settings(max_examples=40, deadline=None)
@given(st.lists(value_st(), min_size=1, max_size=5))
def test_am_widen_stabilizes_on_increasing_chains(values):
    # build an increasing chain by cumulative joins, then widen along it
    chain = []
    acc = AM.bottom()
    for v in values:
        acc = AM.join(acc, v)
        chain.append(acc)
    w = chain[0]
    steps = 0
    for v in chain[1:] + chain:  # replay the chain twice: must be stable
        nxt = AM.widen(w, AM.join(w, v))
        if not AM.leq(nxt, w):
            w = nxt
            steps += 1
    # vocabulary has <= len(TERMS) dimensions: the row space can only
    # lose rank that many times
    assert steps <= len(TERMS) + 1


@settings(max_examples=40, deadline=None)
@given(value_st(), value_st(), env_st())
def test_am_widen_gamma_monotone(v1, v2, env):
    words, data = env
    w = AM.widen(v1, v2)
    if AM.satisfied_by(v1, words, data) or AM.satisfied_by(v2, words, data):
        assert AM.satisfied_by(w, words, data)

