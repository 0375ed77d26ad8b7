from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from bracketlab.errors import ConstructionError
from bracketlab.piecewise import (
    Piece,
    PiecewisePoly,
    build_profile,
    smooth_step,
    table_profile,
)


def test_smooth_step_end_conditions():
    x = sp.symbols("x")
    v0, v1 = Fraction(-2, 3), Fraction(5, 7)
    for K in (3, 4):
        piece = smooth_step(Fraction(1), Fraction(4), v0, v1, K)
        assert len(piece.coeffs) == 2 * K + 2
        s = (x - 1) / 3
        poly = sum(sp.Rational(c.numerator, c.denominator) * s**i for i, c in enumerate(piece.coeffs))
        for e, v in ((1, v0), (4, v1)):
            assert poly.subs(x, e) == sp.Rational(v.numerator, v.denominator)
            for k in range(1, K + 1):
                assert sp.diff(poly, x, k).subs(x, e) == 0


def test_step_is_monotone_and_flat_at_ends():
    piece = smooth_step(Fraction(0), Fraction(2), Fraction(0), Fraction(1), K=3)
    pw = PiecewisePoly([piece])
    x = np.linspace(0, 2, 1001)
    vals = pw(x)
    assert vals[0] == 0 and vals[-1] == 1
    assert np.all(np.diff(vals) >= -1e-15)
    d = pw.eval_derivs(x, 3)
    for k in (1, 2, 3):
        assert abs(d[k][0]) < 1e-12 and abs(d[k][-1]) < 1e-12


def test_profile_c3_junctions_exact():
    prof = build_profile(table_profile(Fraction(0), Fraction(10), Fraction(1, 2), Fraction(2)), K=3)
    jumps = prof.junction_jumps(3)
    assert all(j == 0 for j in jumps)


def test_table_profile_integral_exact():
    h, L, b = Fraction(3, 10), Fraction(10), Fraction(2)
    prof = build_profile(table_profile(Fraction(0), L, h, b), K=3)
    assert prof.integral() == h * (L - b)


def test_antiderivative_and_derivative_roundtrip():
    prof = build_profile(table_profile(Fraction(0), Fraction(4), Fraction(1), Fraction(1)), K=3)
    anti = prof.antiderivative(Fraction(0))
    back = anti.derivative()
    x = np.linspace(0, 4, 500)
    assert np.max(np.abs(back(x) - prof(x))) < 1e-12
    # the derivative is built once per profile and shared by every evaluation
    assert anti.derivative() is back


def test_eval_derivs_against_sympy():
    coeffs = (Fraction(2), Fraction(1), Fraction(-3, 4), 0, Fraction(5, 3), Fraction(-7, 2),
              Fraction(1, 6), Fraction(-2, 5))
    piece = Piece(Fraction(1), Fraction(3), coeffs)
    pw = PiecewisePoly([piece])
    xs = sp.symbols("x")
    s = (xs - 1) / 2
    poly = sum(
        sp.Rational(c.numerator, c.denominator) * s**i for i, c in enumerate(piece.coeffs)
    )
    x = np.linspace(1, 3, 101)
    for k in range(5):
        want = np.array([float(sp.diff(poly, xs, k).subs(xs, xv)) for xv in x[::10]])
        got = pw.eval_derivs(x[::10], 4)[k]
        assert np.max(np.abs(got - want)) < 1e-9


def test_zero_outside_support():
    prof = build_profile(table_profile(Fraction(1), Fraction(2), Fraction(1), Fraction(1, 4)), K=3)
    assert prof(np.array([0.0, 0.5, 2.5, 3.0])).tolist() == [0, 0, 0, 0]
    d = prof.eval_derivs(np.array([0.0, 3.0]), 2)
    assert all(np.all(dk == 0) for dk in d)


def test_endpoint_values_belong_to_pieces():
    prof = build_profile(
        [("const", Fraction(0), Fraction(1), Fraction(2)), ("const", Fraction(1), Fraction(2), Fraction(2))],
        K=3,
    )
    assert prof(np.array([0.0]))[0] == 2.0
    assert prof(np.array([2.0]))[0] == 2.0


def test_non_contiguous_pieces_rejected():
    with pytest.raises(ConstructionError):
        PiecewisePoly(
            [Piece(Fraction(0), Fraction(1), (Fraction(1),)), Piece(Fraction(2), Fraction(3), (Fraction(1),))]
        )


def test_table_needs_room_for_blends():
    with pytest.raises(ConstructionError):
        table_profile(Fraction(0), Fraction(1), Fraction(1), Fraction(1))
