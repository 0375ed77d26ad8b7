"""Property-based checks of the structural invariants."""

from fractions import Fraction
from math import gcd

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bracketlab.jets import Jet2, jet_sin, poisson_jet, sum_of_products
from bracketlab.liepoly import LiePoly, bracket
from bracketlab.lyndon import is_lyndon, lyndon_words
from oracles import (
    ref_add,
    ref_bracket,
    ref_from_univariate,
    ref_jet_mul,
    ref_jet_sin,
    ref_jet_sub,
    ref_poisson_jet,
    ref_json,
    ref_scale,
    ref_sum_of_products,
)

WORDS = lyndon_words(4)


@st.composite
def lie_polys(draw, max_degree=8):
    terms = {}
    for w in WORDS:
        if draw(st.booleans()):
            num = draw(st.integers(min_value=-6, max_value=6))
            den = draw(st.integers(min_value=1, max_value=4))
            terms[w] = Fraction(num, den)
    return LiePoly(terms, max_degree)


@given(lie_polys(), lie_polys())
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetric(a, b):
    assert bracket(a, b, 8) == -bracket(b, a, 8)


@given(lie_polys(), lie_polys(), lie_polys())
@settings(max_examples=40, deadline=None)
def test_jacobi_identity(a, b, c):
    md = 12
    a, b, c = a.truncated(md), b.truncated(md), c.truncated(md)
    total = (
        bracket(bracket(a, b, md), c, md)
        + bracket(bracket(b, c, md), a, md)
        + bracket(bracket(c, a, md), b, md)
    )
    assert total.is_zero()


def _assert_canonical(p: LiePoly):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1


@given(
    lie_polys(), lie_polys(), st.integers(2, 8), st.integers(2, 8),
    st.fractions(-4, 4, max_denominator=9),
)
@settings(max_examples=60, deadline=None)
def test_integer_arithmetic_matches_fraction_reference(a, b, da, db, s):
    a, b = a.truncated(da), b.truncated(db)
    md = min(da, db)
    results = [
        (bracket(a, b, md), ref_bracket(a.terms, b.terms, md)),
        (a + b, ref_add(a.terms, b.terms, md)),
        (a - b, ref_add(a.terms, ref_scale(b.terms, -1), md)),
        (a - a, {}),
    ]
    for scalar in (s, 0, Fraction(-2, 3), -3):
        results.append((a.scale(scalar), ref_scale(a.terms, scalar)))
    for got, want in results:
        _assert_canonical(got)
        assert got.terms == want
        assert got.to_json() == ref_json(want)
        assert got == LiePoly(want, got.max_degree)


@given(
    st.lists(st.tuples(st.fractions(-4, 4, max_denominator=9) | st.integers(-3, 3),
                       lie_polys(), st.integers(2, 8)), max_size=5),
    st.integers(1, 8),
)
@example([], 3)
@example([(0, LiePoly.letter("F", 4), 4), (Fraction(-1, 2), LiePoly.letter("G", 2), 2)], 3)
@settings(max_examples=60, deadline=None)
def test_combination_matches_folded_fraction_reference(items, md):
    # int and Fraction scalars, zero ones among them, operands of different
    # max_degree, and the empty list
    pairs = [(s, p.truncated(d)) for s, p, d in items]
    want: dict = {}
    for s, p in pairs:
        want = ref_add(want, ref_scale(p.terms, s), md)
    got = LiePoly.combination(pairs, md)
    _assert_canonical(got)
    assert got.terms == want
    assert got.to_json() == ref_json(want)
    assert got.max_degree == md


@given(st.text(alphabet="FG", min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_lyndon_membership_matches_rotation_test(word):
    rotation_ok = all(word < word[i:] + word[:i] for i in range(1, len(word)))
    assert is_lyndon(word) == rotation_ok
    if rotation_ok and len(word) <= 9:
        assert word in lyndon_words(len(word))


@given(
    st.lists(st.floats(-2, 2), min_size=5, max_size=5),
    st.lists(st.floats(-2, 2), min_size=5, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_univariate_product_rule(da, db):
    a = Jet2.from_univariate([np.full(1, v) for v in da], 4, "p")
    b = Jet2.from_univariate([np.full(1, v) for v in db], 4, "p")
    prod = a * b
    # Leibniz at first order, general Leibniz at second
    assert np.allclose(prod.derivative(1, 0), da[1] * db[0] + da[0] * db[1], atol=1e-12)
    assert np.allclose(
        prod.derivative(2, 0), da[2] * db[0] + 2 * da[1] * db[1] + da[0] * db[2], atol=1e-12
    )


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_poisson_jet_bilinear_antisymmetric(s1, s2, x, y):
    jp = Jet2.variable_p(np.array([x]), 2)
    jq = Jet2.variable_q(np.array([y]), 2)
    from bracketlab.jets import jet_sin

    F = jet_sin(jp).scale(s1)
    G = jet_sin(jq).scale(s2) + jet_sin(jp + jq)
    ab = poisson_jet(F, G)
    ba = poisson_jet(G, F)
    assert np.allclose(ab.value, -ba.value, atol=1e-14)


# column, row and full coefficients of one 3x3 grid
SHAPES = ((3, 1), (1, 3), (3, 3))


@st.composite
def sparse_jets(draw):
    """A jet of order 0-4 holding (0, 0) and a drawn subset of the other
    multi-indices, in a shuffled key order, each coefficient of a drawn
    shape; entries span six decades and about 30% are exact +0.0 or -0.0."""
    order = draw(st.integers(0, 4))
    keys = [(i, t - i) for t in range(order + 1) for i in range(t + 1)]
    keys = [ij for ij in keys if ij == (0, 0) or draw(st.booleans())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = {}
    for k in rng.permutation(len(keys)):
        shape = SHAPES[draw(st.integers(0, 2))]
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        u = rng.random(shape)
        x[u < 0.15] = 0.0
        x[u > 0.85] = -0.0
        coeffs[keys[k]] = x
    return Jet2(order, coeffs)


def _bits(j: Jet2):
    """The order and every coefficient's shape and bits: equal only if the
    values are, including the sign of every zero."""
    return j.order, {ij: (c.shape, c.view(np.int64).tolist()) for ij, c in j.coeffs.items()}


@given(sparse_jets(), sparse_jets(), st.floats(-2, 2),
       st.lists(st.tuples(sparse_jets(), sparse_jets()), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_jet_kernel_matches_the_fold_bitwise(a, b, s, pairs):
    assert _bits(a * b) == _bits(ref_jet_mul(a, b))
    assert _bits(a - b) == _bits(ref_jet_sub(a, b))
    want = Jet2(a.order, {**a.coeffs, (0, 0): a.value + (-np.asarray(s))})
    assert _bits(a - s) == _bits(want)
    assert _bits(jet_sin(a)) == _bits(ref_jet_sin(a))
    assert _bits(sum_of_products(pairs)) == _bits(ref_sum_of_products(pairs))
    derivs = list(a.coeffs.values())
    for axis in "pq":
        got = Jet2.from_univariate(derivs, 4, axis)
        assert _bits(got) == _bits(ref_from_univariate(derivs, 4, axis))


@st.composite
def one_or_two_variable_jets(draw):
    """A jet of order 1-4 of p alone with (3, 1) coefficients, of q alone
    with (1, 3) ones, or of both with (3, 3) ones, holding (0, 0) and a
    drawn subset of its other multi-indices; about 20% of entries are 0."""
    kind = draw(st.sampled_from(["p", "q", "pq"]))
    order = draw(st.integers(1, 4))
    keys = [(i, t - i) for t in range(order + 1) for i in range(t + 1)]
    keys = [(i, j) for i, j in keys if (i == 0 or "p" in kind) and (j == 0 or "q" in kind)]
    keys = [ij for ij in keys if ij == (0, 0) or draw(st.booleans())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = SHAPES[["p", "q", "pq"].index(kind)]
    coeffs = {}
    for ij in keys:
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.2] = 0.0
        coeffs[ij] = x
    return Jet2(order, coeffs)


@given(one_or_two_variable_jets(), one_or_two_variable_jets())
@settings(max_examples=200, deadline=None)
def test_poisson_jet_skips_only_zero_terms(F, G):
    # a skipped term may flip the sign of an exact zero, so == and not bits
    got, want = poisson_jet(F, G), ref_poisson_jet(F, G)
    assert got.order == want.order
    for ij in set(got.coeffs) | set(want.coeffs):
        a, b = got.coeffs.get(ij), want.coeffs.get(ij)
        if a is None or b is None:
            assert not np.any(b if a is None else a), ij
        else:
            assert a.shape == b.shape and np.array_equal(a, b), ij
