from fractions import Fraction

import pytest

from oracles import witt_number

from bracketlab.errors import BoundsError
from bracketlab.lyndon import (
    expand_standard_bracketing,
    is_lyndon,
    lie_envelope_to_lyndon,
    lyndon_words,
    standard_factorization,
)


def brute_lyndon_words(max_degree):
    """Independent enumeration: every word, filtered by the rotation test."""
    out = []
    for n in range(1, max_degree + 1):
        for bits in range(2**n):
            w = "".join("FG"[(bits >> i) & 1] for i in range(n - 1, -1, -1))
            if all(w < w[i:] + w[:i] for i in range(1, n)):
                out.append(w)
    out.sort(key=lambda s: (len(s), s))
    return out


def brute_witt(d):
    def mobius(n):
        out, p, m = 1, 2, n
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    return sum(mobius(d // e) * 2**e for e in range(1, d + 1) if d % e == 0) // d


def test_single_letters():
    assert lyndon_words(1) == ["F", "G"]


def test_degree_three_enumeration():
    assert lyndon_words(3) == ["F", "G", "FG", "FFG", "FGG"]
    assert lyndon_words(3) == brute_lyndon_words(3)


@pytest.mark.parametrize("d", range(1, 11))
def test_counts_match_witt_numbers(d):
    words = [w for w in lyndon_words(10) if len(w) == d]
    assert len(words) == brute_witt(d) == witt_number(d)


def test_first_eight_witt_values():
    assert [witt_number(d) for d in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


def test_matches_brute_enumeration_through_degree_8():
    assert lyndon_words(8) == brute_lyndon_words(8)


def test_ordering_is_degree_then_lex():
    ws = lyndon_words(6)
    assert ws == sorted(ws, key=lambda s: (len(s), s))


def test_bounds_errors():
    with pytest.raises(BoundsError):
        lyndon_words(0)
    with pytest.raises(BoundsError):
        lyndon_words(13)


def test_rotation_property_holds_for_all():
    for w in lyndon_words(9):
        assert is_lyndon(w)
        for i in range(1, len(w)):
            assert w < w[i:] + w[:i]


def test_standard_factorization_examples():
    assert standard_factorization("FG") == ("F", "G")
    assert standard_factorization("FGG") == ("FG", "G")
    assert standard_factorization("FFG") == ("F", "FG")
    assert standard_factorization("FFGG") == ("F", "FGG")


def test_standard_factorization_parts_are_lyndon():
    for w in lyndon_words(9):
        if len(w) < 2:
            continue
        u, v = standard_factorization(w)
        assert is_lyndon(u) and is_lyndon(v) and u + v == w and u < v


def test_bracketing_is_triangular():
    # b(w) = w + lexicographically larger words of the same length
    for w in lyndon_words(7):
        env = expand_standard_bracketing(w)
        assert env[w] == 1
        assert all(len(x) == len(w) and x >= w for x in env)


def test_envelope_roundtrip():
    for w in lyndon_words(6):
        back = lie_envelope_to_lyndon(dict(expand_standard_bracketing(w)))
        assert back == {w: Fraction(1)}


def test_non_lie_element_rejected():
    with pytest.raises(ValueError):
        lie_envelope_to_lyndon({"GF": Fraction(1)})
