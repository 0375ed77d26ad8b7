"""Symbolic verification of the two composed-flow expansions.

Both checks build a flow word, run :func:`path_generator`, and compare
low-order tau coefficients against the predicted bracket polynomials with
exact rational arithmetic.  The order-4 coefficient of the conjugated
commutator word (a degree-5 Lie polynomial) has no closed published form;
it is emitted for regression snapshotting rather than compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .flows import (
    Conjugate,
    Factor,
    FlowWord,
    LieSeries,
    Product,
    commutator,
    path_generator,
    poly_scale,
    TAU,
)
from .liepoly import LiePoly, bracket
from .reporting import check

DEFAULT_TRUNCATION = 5


def _letters(max_degree: int) -> tuple[LiePoly, LiePoly]:
    return LiePoly.letter("F", max_degree), LiePoly.letter("G", max_degree)


def symmetrized_commutator_word() -> FlowWord:
    """phi_{tau(F+G)/2} f_{-tau} g_{-tau} f_tau g_tau phi_{-tau(F+G)/2}."""
    F, G = _letters(2)
    half_sum = (F + G).scale(Fraction(1, 2))
    return Product(
        (
            Factor(half_sum, TAU),
            Factor(F, poly_scale(TAU, -1)),
            Factor(G, poly_scale(TAU, -1)),
            Factor(F, TAU),
            Factor(G, TAU),
            Factor(half_sum, poly_scale(TAU, -1)),
        )
    )


def conjugated_commutator_word() -> FlowWord:
    """The commutator path [phi_{-tau F} phi_{-tau G}, phi_{tau(F+G)}]
    conjugated by phi_{tau(F-G)/6}."""
    F, G = _letters(2)
    x = Product((Factor(F, poly_scale(TAU, -1)), Factor(G, poly_scale(TAU, -1))))
    y = Factor(F + G, TAU)
    theta = commutator(x, y)
    sixth_diff = (F - G).scale(Fraction(1, 6))
    return Conjugate(theta, by=Factor(sixth_diff, TAU))


@dataclass
class ExpansionReport:
    word: str
    truncation: int
    series: LieSeries
    conditions: dict  # name -> bool, each an exact rational comparison
    details: dict = field(default_factory=dict)

    @property
    def checks(self) -> dict:
        failed = sum(not ok for ok in self.conditions.values())
        return {"match": check(failed, 0, "==", "certified")}

    @property
    def match(self) -> bool:
        return self.checks["match"]["pass"]

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "T": self.truncation,
            "coefficients": self.series.to_json(),
            "conditions": self.conditions,
            "checks": self.checks,
            "details": self.details,
        }


def verify_symmetrized_expansion(truncation: int = DEFAULT_TRUNCATION) -> ExpansionReport:
    """Check that the symmetrized commutator word is generated by
    2 tau {F,G} + (tau^3/6) ({{P,F},F} + {{P,G},G}) + O(tau^4)."""
    series = path_generator(symmetrized_commutator_word(), truncation)
    md = truncation + 1
    F, G = _letters(md)
    P = bracket(F, G, md)
    expected_tau1 = P.scale(2)
    expected_tau3 = (
        bracket(bracket(P, F, md), F, md) + bracket(bracket(P, G, md), G, md)
    ).scale(Fraction(1, 6))

    return ExpansionReport(
        word="phi_{t(F+G)/2} f_{-t} g_{-t} f_t g_t phi_{-t(F+G)/2}",
        truncation=truncation,
        series=series,
        conditions={
            "tau0_zero": series.coefficient(0).is_zero(),
            "tau1_is_2P": series.coefficient(1) == expected_tau1,
            "tau2_zero": series.coefficient(2).is_zero(),
            "tau3_is_I_over_6": series.coefficient(3) == expected_tau3,
            "tau3_pure_degree_4": series.coefficient(3).degrees() <= {4},
        },
        details={
            "expected_tau1": expected_tau1.to_json(),
            "expected_tau3": expected_tau3.to_json(),
            "tau4_terms": series.coefficient(4).to_json() if truncation >= 4 else [],
        },
    )


def verify_conjugated_expansion(truncation: int = DEFAULT_TRUNCATION) -> ExpansionReport:
    """Check that the conjugated commutator word is generated by
    3 tau^2 (A + B) + tau^4 Q + O(tau^5) with A = (1/2){{F,G},F},
    B = (1/2){{F,G},G}, and Q purely of Lie degree 5."""
    series = path_generator(conjugated_commutator_word(), truncation)
    md = truncation + 1
    F, G = _letters(md)
    P = bracket(F, G, md)
    expected_tau2 = (bracket(P, F, md) + bracket(P, G, md)).scale(Fraction(3, 2))
    q_poly = series.coefficient(4) if truncation >= 4 else LiePoly.zero(md)

    return ExpansionReport(
        word="phi_{t(F-G)/6} [phi_{-tF} phi_{-tG}, phi_{t(F+G)}] phi_{-t(F-G)/6}",
        truncation=truncation,
        series=series,
        conditions={
            "tau0_zero": series.coefficient(0).is_zero(),
            "tau1_zero": series.coefficient(1).is_zero(),
            "tau2_is_3(A+B)": series.coefficient(2) == expected_tau2,
            "tau3_zero": series.coefficient(3).is_zero(),
            "tau4_pure_degree_5": q_poly.degrees() <= {5},
        },
        details={
            "expected_tau2": expected_tau2.to_json(),
            "q_terms": q_poly.to_json(),
        },
    )
