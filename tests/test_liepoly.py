from fractions import Fraction

import numpy as np
import pytest

from bracketlab.liepoly import LiePoly, _basis_pair_bracket, bracket
from bracketlab.lyndon import lyndon_words

MD = 7


def F():
    return LiePoly.letter("F", MD)


def G():
    return LiePoly.letter("G", MD)


def random_liepoly(rng, max_term_degree, max_degree=MD):
    words = [w for w in lyndon_words(max_term_degree)]
    terms = {}
    for w in words:
        if rng.random() < 0.4:
            terms[w] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
    return LiePoly(terms, max_degree)


def test_bracket_with_self_vanishes():
    assert bracket(F(), F(), MD).is_zero()


def test_bracket_of_letters():
    assert bracket(F(), G(), MD) == LiePoly({"FG": 1}, MD)


def test_double_bracket_examples():
    fg = bracket(F(), G(), MD)
    assert bracket(fg, G(), MD) == LiePoly({"FGG": 1}, MD)
    assert bracket(fg, F(), MD) == LiePoly({"FFG": -1}, MD)


def test_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (random_liepoly(rng, 3) for _ in range(3))
        s = Fraction(3, 2)
        assert bracket(a + b.scale(s), c, MD) == bracket(a, c, MD) + bracket(b, c, MD).scale(s)


def test_antisymmetry_and_jacobi_on_100_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_liepoly(rng, 3)
        b = random_liepoly(rng, 2)
        c = random_liepoly(rng, 2)
        assert bracket(a, b, MD) == -bracket(b, a, MD)
        jac = (
            bracket(bracket(a, b, MD), c, MD)
            + bracket(bracket(b, c, MD), a, MD)
            + bracket(bracket(c, a, MD), b, MD)
        )
        assert jac.is_zero()


def test_jacobi_at_degree_six_operands():
    rng = np.random.default_rng(11)
    md = 12
    for _ in range(5):
        a = LiePoly(random_liepoly(rng, 6).terms, md)
        b = LiePoly(random_liepoly(rng, 3).terms, md)
        c = LiePoly(random_liepoly(rng, 3).terms, md)
        jac = (
            bracket(bracket(a, b, md), c, md)
            + bracket(bracket(b, c, md), a, md)
            + bracket(bracket(c, a, md), b, md)
        )
        assert jac.is_zero()


def test_truncation_drops_high_terms():
    fg = bracket(F(), G(), max_degree=2)
    assert bracket(fg, G(), max_degree=2).is_zero()


def test_no_zero_coefficients_stored():
    p = LiePoly({"F": 1, "G": 0}, MD)
    assert "G" not in p.terms
    assert (p - p).is_zero()


def test_non_lyndon_key_rejected():
    with pytest.raises(ValueError):
        LiePoly({"GF": 1}, MD)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LiePoly({"F": 0.5}, MD)


def test_grading_of_bracket():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_liepoly(rng, 3)
        b = random_liepoly(rng, 3)
        br = bracket(a, b, MD)
        if a.degrees() and b.degrees():
            assert br.degrees() <= {
                da + db for da in a.degrees() for db in b.degrees() if da + db <= MD
            }


def test_json_form():
    p = LiePoly({"FG": Fraction(-2, 3), "F": 2}, MD)
    assert p.to_json() == [
        {"lyndon": "F", "num": 2, "den": 1},
        {"lyndon": "FG", "num": -2, "den": 3},
    ]


def test_structure_constants_are_integers_to_degree_nine():
    # the Lyndon basis is a Z-basis of the free Lie algebra, which the
    # integer-numerator representation rests on
    words = lyndon_words(8)
    entries = [
        c for u in words for v in words if len(u) + len(v) <= 9
        for _, c in _basis_pair_bracket(u, v)
    ]
    assert len(entries) == 866
    assert all(type(c) is int and c for c in entries)
