import numpy as np
import pytest
import sympy as sp

from oracles import P_SYM, Q_SYM, sym_bracket, sym_grid_values

from bracketlab.brackets import BracketField, BracketWord, iterated_bracket
from bracketlab.domain import Domain2
from bracketlab.errors import BoundsError, PreconditionError
from bracketlab.fields import AnalyticField, sin_p, sin_q, trig_polynomial
from bracketlab.jets import jet_sin


def test_coordinate_bracket_is_minus_one():
    dom = Domain2.rect(64, (0, 1, 0, 1))
    b = BracketField(AnalyticField(dom, lambda jp, jq: jp), AnalyticField(dom, lambda jp, jq: jq))
    assert np.allclose(b.values(), -1.0)


def test_antisymmetry_pointwise_exact(sin_pair):
    F, G = sin_pair
    a = BracketField(F, G).values()
    b = BracketField(G, F).values()
    assert np.array_equal(a, -b)


def test_self_bracket_vanishes(sin_pair):
    F, _ = sin_pair
    assert np.max(np.abs(BracketField(F, F).values())) == 0.0


def test_sin_sin_bracket_matches_oracle(torus256):
    F, G = sin_p(torus256), sin_q(torus256)
    P, Q = torus256.grid()
    want = sym_grid_values(sym_bracket(sp.sin(P_SYM), sp.sin(Q_SYM)), P, Q)
    assert np.max(np.abs(BracketField(F, G).values() - want)) < 1e-12


def test_double_bracket_examples(torus256):
    F, G = sin_p(torus256), sin_q(torus256)
    P, Q = torus256.grid()
    d1 = iterated_bracket(BracketWord.parse("{{F,G},F}"), F, G).values()
    assert np.max(np.abs(d1 - np.cos(P) ** 2 * np.sin(Q))) < 1e-12
    z = iterated_bracket(BracketWord.parse("{{F,F},F}"), F, G).values()
    assert np.max(np.abs(z)) == 0.0


@pytest.mark.parametrize(
    "word",
    [
        "{F,G}", "{{F,G},F}", "{{F,G},G}", "{{{F,G},F},F}", "{{{F,G},G},G}", "{{{F,G},F},G}",
        # depth 3 with six and seven letters: exactness goes by depth, not letters
        "{{{F,G},F},{{F,G},G}}", "{{{F,G},{F,G}},{{F,G},F}}",
        "{{G,{{F,G},G}},{{F,G},G}}",  # (ad_H)^2 G with H = (ad_G)^2 F: depth 4
    ],
)
def test_iterated_brackets_match_sympy(word, torus128):
    fe = sp.sin(P_SYM) + sp.Rational(1, 2) * sp.cos(2 * P_SYM) * sp.sin(Q_SYM)
    ge = sp.sin(Q_SYM) + sp.Rational(1, 3) * sp.sin(P_SYM + Q_SYM)
    dom = torus128

    def build_field(expr):
        fn = {
            str(fe): lambda jp, jq: jet_sin(jp)
            + (jet_sin(jq) * (jet_sin(jp.scale(2.0) + np.pi / 2))).scale(0.5),
            str(ge): lambda jp, jq: jet_sin(jq) + jet_sin(jp + jq).scale(1.0 / 3.0),
        }[str(expr)]
        return AnalyticField(dom, fn)

    F, G = build_field(fe), build_field(ge)
    tree = BracketWord.parse(word)

    def fold(t):
        if t == "F":
            return fe
        if t == "G":
            return ge
        return sym_bracket(fold(t[0]), fold(t[1]))

    want = sym_grid_values(fold(tree.tree), *dom.grid())
    got = iterated_bracket(tree, F, G).values()
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < 1e-9


def test_bracket_word_api():
    w = BracketWord.parse("{{F,G},F}")
    assert str(w) == "{{F,G},F}"
    ad2 = BracketWord.ad_power(2, "F", "G")
    assert str(ad2) == "{{G,F},F}"
    with pytest.raises(PreconditionError):
        BracketWord.parse("{F,G")
    with pytest.raises(PreconditionError):
        BracketWord.parse("{F,H}")


def test_nesting_depth_cap(sin_pair):
    F, G = sin_pair
    iterated_bracket(BracketWord.ad_power(4, "F", "G"), F, G)  # depth 4
    too_deep = BracketWord.ad_power(5, "F", "G")  # depth 5
    with pytest.raises(BoundsError, match="jet order 0 .* MAX_JET_ORDER = 4"):
        iterated_bracket(too_deep, F, G)


def test_poisson_output_order_cap(sin_pair):
    F, G = sin_pair
    with pytest.raises(BoundsError):
        BracketField(F, G).jet(4)


def test_leibniz_rule(torus128, rng):
    dom = torus128
    F = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
    G = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
    H = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
    lhs = BracketField(F * G, H).values()
    rhs = F.values() * BracketField(G, H).values() + BracketField(F, H).values() * G.values()
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_jacobi_identity_numeric(torus128, rng):
    dom = torus128
    fields = [trig_polynomial(dom, rng.normal(size=(2, 2)) / 4) for _ in range(3)]
    F, G, H = fields
    total = (
        BracketField(BracketField(F, G), H).values()
        + BracketField(BracketField(G, H), F).values()
        + BracketField(BracketField(H, F), G).values()
    )
    assert np.max(np.abs(total)) < 1e-8
