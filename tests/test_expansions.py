import json
from fractions import Fraction

from oracles import oracle_generator

from bracketlab.expansions import verify_symmetrized_expansion, verify_conjugated_expansion, symmetrized_commutator_word, conjugated_commutator_word
from bracketlab.liepoly import LiePoly, bracket

# regression snapshot: the emitted order-4 coefficient of the conjugated
# commutator word (degree-5 Lie polynomial, no published value to compare)
Q_SNAPSHOT = {
    "FFFFG": Fraction(-25, 144),
    "FFFGG": Fraction(65, 144),
    "FFGFG": Fraction(55, 144),
    "FFGGG": Fraction(-65, 144),
    "FGFGG": Fraction(5, 12),
    "FGGGG": Fraction(25, 144),
}


def test_expansion_32_exact():
    rep = verify_symmetrized_expansion(5)
    assert rep.match
    md = 6
    F, G = LiePoly.letter("F", md), LiePoly.letter("G", md)
    P = bracket(F, G, md)
    assert rep.series.coefficient(0).is_zero()
    assert rep.series.coefficient(1) == P.scale(2)
    assert rep.series.coefficient(2).is_zero()
    I = bracket(bracket(P, F, md), F, md) + bracket(bracket(P, G, md), G, md)
    assert rep.series.coefficient(3) == I.scale(Fraction(1, 6))


def test_expansion_32_tau3_is_pure_degree_4():
    rep = verify_symmetrized_expansion(5)
    assert rep.series.coefficient(3).degrees() == {4}


def test_expansion_32_against_envelope_oracle():
    series = verify_symmetrized_expansion(4).series
    expected = oracle_generator(symmetrized_commutator_word(), 4)
    for k in range(5):
        assert series.coefficient(k) == expected[k]


def test_expansion_33_exact():
    rep = verify_conjugated_expansion(5)
    assert rep.match
    md = 6
    F, G = LiePoly.letter("F", md), LiePoly.letter("G", md)
    P = bracket(F, G, md)
    assert rep.series.coefficient(0).is_zero()
    assert rep.series.coefficient(1).is_zero()
    # (3/2)({{F,G},F} + {{F,G},G}) = (3/2)(-FFG + FGG)
    assert rep.series.coefficient(2) == LiePoly(
        {"FFG": Fraction(-3, 2), "FGG": Fraction(3, 2)}, md
    )
    assert rep.series.coefficient(3).is_zero()


def test_expansion_33_q_is_degree_5_and_matches_snapshot():
    rep = verify_conjugated_expansion(5)
    q = rep.series.coefficient(4)
    assert q.degrees() == {5}
    assert q.terms == Q_SNAPSHOT


def test_expansion_33_against_envelope_oracle():
    series = verify_conjugated_expansion(5).series
    expected = oracle_generator(conjugated_commutator_word(), 5)
    for k in range(6):
        assert series.coefficient(k) == expected[k]


def test_report_json_is_serializable_and_shaped():
    rep = verify_symmetrized_expansion(5).to_json()
    text = json.dumps(rep)
    back = json.loads(text)
    assert back["checks"]["match"] == {"value": 0, "bound": 0, "sense": "==", "method": "certified",
                                       "tol": 0, "margin": 0, "pass": True}
    assert back["conditions"]["tau1_is_2P"] is True
    assert back["T"] == 5
    coeffs = back["coefficients"]
    assert coeffs[1]["terms"] == [{"lyndon": "FG", "num": 2, "den": 1}]
    assert coeffs[0]["terms"] == [] and coeffs[2]["terms"] == []
