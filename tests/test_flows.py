from fractions import Fraction

import numpy as np
import pytest

from oracles import fixed_pullback, oracle_generator

from bracketlab.errors import BoundsError
from bracketlab.flows import (
    TAU,
    Conjugate,
    Factor,
    Inverse,
    Product,
    commutator,
    path_generator,
    poly_scale,
    time_poly,
)
from bracketlab.liepoly import LiePoly, bracket


def F(md=6):
    return LiePoly.letter("F", md)


def G(md=6):
    return LiePoly.letter("G", md)


def f_tau(scale=1):
    return Factor(F(2), poly_scale(TAU, scale))


def g_tau(scale=1):
    return Factor(G(2), poly_scale(TAU, scale))


def test_trivial_inverse_cancellation():
    word = Product((f_tau(), Inverse(f_tau())))
    assert path_generator(word, 5).is_zero()


def test_product_low_orders_match_hand_expansion():
    # the product path f_tau g_tau is generated by F + Ad_{f_tau} G, i.e.
    # F + G + tau [F,G] + (tau^2/2)[F,[F,G]] + (tau^3/6)[F,[F,[F,G]]] + ...
    series = path_generator(Product((f_tau(), g_tau())), 3)
    md = 4
    Fm, Gm = F(md), G(md)
    fg = bracket(Fm, Gm, md)
    assert series.coefficient(0) == Fm + Gm
    assert series.coefficient(1) == fg
    assert series.coefficient(2) == bracket(Fm, fg, md).scale(Fraction(1, 2))
    assert series.coefficient(3) == bracket(Fm, bracket(Fm, fg, md), md).scale(Fraction(1, 6))


def test_conjugate_normalizes_to_product():
    inner = f_tau()
    by = g_tau()
    conj = Conjugate(inner, by=by)
    norm = conj.normalized()
    assert isinstance(norm, Product)
    assert path_generator(conj, 4) == path_generator(
        Product((by, inner, Inverse(by))), 4
    )


def test_factor_requires_degree_one_generator():
    with pytest.raises(ValueError):
        Factor(bracket(F(3), G(3), 3), TAU)


def test_factor_with_affine_time_generates_constant():
    # c(tau) = 1 + tau starts off the identity but still generates c' X = X
    series = path_generator(Factor(F(2), time_poly(1, 1)), 3)
    assert series.coefficient(0) == F(4)
    for k in range(1, 4):
        assert series.coefficient(k).is_zero()


def test_truncation_bounds():
    with pytest.raises(BoundsError):
        path_generator(f_tau(), 0)
    with pytest.raises(BoundsError):
        path_generator(f_tau(), 9)


def _random_word(rng, depth):
    if depth == 0:
        gen = F(2) if rng.random() < 0.5 else G(2)
        coeff = Fraction(int(rng.integers(-2, 3)) or 1, int(rng.integers(1, 3)))
        deg = int(rng.integers(1, 3))
        time = tuple([Fraction(0)] * deg + [coeff])
        return Factor(gen, time)
    kind = rng.integers(0, 3)
    if kind == 0:
        return Product(tuple(_random_word(rng, depth - 1) for _ in range(rng.integers(2, 4))))
    if kind == 1:
        return Inverse(_random_word(rng, depth - 1))
    return Conjugate(_random_word(rng, depth - 1), by=_random_word(rng, depth - 1))


@pytest.mark.parametrize("seed", range(12))
def test_generator_matches_envelope_oracle(seed):
    rng = np.random.default_rng(seed)
    word = _random_word(rng, int(rng.integers(1, 4)))
    T = 4
    series = path_generator(word, T)
    expected = oracle_generator(word, T)
    for k in range(T + 1):
        assert series.coefficient(k) == expected[k], f"tau^{k} mismatch (seed {seed})"


@pytest.mark.parametrize("seed", range(6))
def test_inverse_path_cancels(seed):
    rng = np.random.default_rng(100 + seed)
    word = _random_word(rng, int(rng.integers(1, 3)))
    combined = Product((word, Inverse(word)))
    assert path_generator(combined, 4).is_zero()


def test_grading_for_linear_times():
    word = Product((f_tau(), g_tau(), f_tau(-1), g_tau(-1)))
    series = path_generator(word, 5)
    for k in range(6):
        degs = series.coefficient(k).degrees()
        assert degs <= {k + 1}


def test_commutator_convention():
    # [a, b] = a b a^-1 b^-1
    word = commutator(f_tau(), g_tau())
    series = path_generator(word, 3)
    assert series.coefficient(0).is_zero()
    # check against the oracle rather than a guessed closed form
    expected = oracle_generator(word, 3)
    for k in range(4):
        assert series.coefficient(k) == expected[k]


def test_pullback_by_constant_preserves_tau_pattern():
    # conjugating by a tau-independent-generator factor keeps the set of
    # non-zero tau powers (each coefficient maps through an invertible
    # degree-filtered operator)
    core = Product((f_tau(), g_tau(), f_tau(-1), g_tau(-1)))
    conj = Conjugate(core, by=g_tau())
    s0 = path_generator(core, 4)
    s1 = path_generator(conj, 4)
    for k in range(5):
        z0 = s0.coefficient(k).is_zero()
        if z0:
            # conjugation cannot create a lower-order term from nothing at
            # tau^0; higher powers can pick up corrections, so only check
            # the leading zero pattern
            if all(s0.coefficient(j).is_zero() for j in range(k + 1)):
                assert s1.coefficient(k).is_zero()


def test_zero_series_api():
    z = path_generator(Product((f_tau(), Inverse(f_tau()))), 3)
    assert z.is_zero()
    assert z == path_generator(Product((Inverse(f_tau()), f_tau())), 3)
    assert z != path_generator(Product((f_tau(), g_tau())), 3)
    assert all(z.coefficient(k).is_zero() for k in range(4))


def test_fixed_factor_generates_nothing():
    fixed = Factor(F(2), time_poly(Fraction(1, 2)))
    assert path_generator(fixed, 4).is_zero()
    assert path_generator(Inverse(fixed), 4).is_zero()


def test_fixed_conjugation_maps_coefficients_through_pullback():
    from bracketlab.expansions import symmetrized_commutator_word

    core = symmetrized_commutator_word()
    fixed = Factor(G(2), time_poly(Fraction(1, 2)))
    T = 5
    base = path_generator(core, T)
    conj = path_generator(Conjugate(core, by=fixed), T)
    for k in range(T + 1):
        assert conj.coefficient(k) == fixed_pullback(fixed, base.coefficient(k), T + 1)
    # tau-power zero/nonzero pattern is preserved
    for k in range(T + 1):
        assert conj.coefficient(k).is_zero() == base.coefficient(k).is_zero()


def test_fixed_pullback_refuses_moving_words_and_inverts_fixed_ones():
    md = 5
    H = bracket(F(md), G(md), md) + G(md)
    moving = Product((f_tau(), Factor(G(2), time_poly(1))))
    for word in (moving, Inverse(moving), Conjugate(Factor(G(2), time_poly(1)), by=moving)):
        with pytest.raises(ValueError):
            fixed_pullback(word, H, md)
    c = Product((Factor(F(2), time_poly(Fraction(1, 2))), Factor(G(2), time_poly(-2))))
    moved = fixed_pullback(c, H, md)
    assert moved != H.truncated(md)
    assert fixed_pullback(Inverse(c), moved, md) == H.truncated(md)
    conj = Conjugate(Factor(F(2), time_poly(3)), by=c)
    assert fixed_pullback(conj, H, md) == fixed_pullback(
        c, fixed_pullback(Factor(F(2), time_poly(3)), fixed_pullback(Inverse(c), H, md), md), md
    )


def test_fixed_conjugation_matches_envelope_oracle():
    from bracketlab.expansions import symmetrized_commutator_word

    core = symmetrized_commutator_word()
    fixed = Factor(G(2), time_poly(Fraction(1, 3)))
    word = Conjugate(core, by=fixed)
    T = 4
    series = path_generator(word, T)
    expected = oracle_generator(word, T)
    for k in range(T + 1):
        assert series.coefficient(k) == expected[k]


def _random_word_any_start(rng, depth):
    if depth == 0:
        gen = F(2) if rng.random() < 0.5 else G(2)
        coeffs = [
            Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        return Factor(gen, tuple(coeffs))
    kind = rng.integers(0, 3)
    if kind == 0:
        return Product(
            tuple(_random_word_any_start(rng, depth - 1) for _ in range(rng.integers(2, 4)))
        )
    if kind == 1:
        return Inverse(_random_word_any_start(rng, depth - 1))
    return Conjugate(
        _random_word_any_start(rng, depth - 1), by=_random_word_any_start(rng, depth - 1)
    )


@pytest.mark.parametrize("seed", range(10))
def test_generator_matches_oracle_with_arbitrary_starts(seed):
    # time polynomials may have constant parts: paths need not start at
    # the identity, and fixed sub-words act purely through pullbacks
    rng = np.random.default_rng(500 + seed)
    word = _random_word_any_start(rng, int(rng.integers(1, 3)))
    T = 3
    series = path_generator(word, T)
    expected = oracle_generator(word, T)
    for k in range(T + 1):
        assert series.coefficient(k) == expected[k], f"tau^{k} mismatch (seed {seed})"


@pytest.mark.parametrize("seed", range(5))
def test_inverse_cancels_both_orders_arbitrary_starts(seed):
    rng = np.random.default_rng(900 + seed)
    word = _random_word_any_start(rng, int(rng.integers(1, 3)))
    assert path_generator(Product((word, Inverse(word))), 3).is_zero()
    assert path_generator(Product((Inverse(word), word)), 3).is_zero()


# times with several nonzero terms, constants included: the powers
# (-c(tau))^k / k! of the pullback then have cross terms at every tau order
MIXED_TIME = time_poly(Fraction(1, 2), -1, Fraction(2, 3))
MIXED_TIME_WORDS = {
    "product": Product((Factor(F(2), MIXED_TIME), Factor(G(2), time_poly(0, 1, Fraction(-1, 2))))),
    "conjugate": Conjugate(Factor(G(2), time_poly(Fraction(-1, 3), 0, Fraction(3, 2))),
                           by=Factor(F(2) + G(2).scale(2), MIXED_TIME)),
    "commutator": commutator(Factor(F(2), time_poly(1, Fraction(1, 2))),
                             Factor(G(2).scale(-1), time_poly(Fraction(-1, 2), 0, 1))),
}


@pytest.mark.parametrize("name", MIXED_TIME_WORDS)
def test_generator_matches_oracle_with_mixed_times(name):
    word, T = MIXED_TIME_WORDS[name], 3
    series = path_generator(word, T)
    expected = oracle_generator(word, T)
    assert not series.is_zero()
    for k in range(T + 1):
        assert series.coefficient(k) == expected[k], f"tau^{k} mismatch ({name})"
