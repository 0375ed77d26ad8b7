import numpy as np
import pytest
import sympy as sp

from oracles import P_SYM, Q_SYM, sym_grid_values

from bracketlab.jets import (
    Jet2,
    jet_cos,
    jet_exp,
    jet_log,
    jet_sin,
    poisson_jet,
)


def test_variable_jets():
    P = np.linspace(0, 1, 5)
    j = Jet2.variable_p(P, 2)
    assert np.allclose(j.value, P)
    assert np.allclose(j.derivative(1, 0), 1.0)
    assert np.allclose(j.derivative(0, 1), 0.0)


@pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 2), (4, 0), (1, 3)])
def test_product_chain_against_sympy(i, j):
    # f = sin(p) cos(2 q) + exp(sin(p + q) / 3)
    expr = sp.sin(P_SYM) * sp.cos(2 * Q_SYM) + sp.exp(sp.sin(P_SYM + Q_SYM) / 3)
    rng = np.random.default_rng(1)
    P = rng.uniform(0, 2 * np.pi, 40)
    Q = rng.uniform(0, 2 * np.pi, 40)
    jp = Jet2.variable_p(P, 4)
    jq = Jet2.variable_q(Q, 4)
    jet = jet_sin(jp) * jet_cos(jq.scale(2.0)) + jet_exp(jet_sin(jp + jq).scale(1.0 / 3.0))
    want = sym_grid_values(sp.diff(expr, P_SYM, i, Q_SYM, j), P, Q)
    assert np.max(np.abs(jet.derivative(i, j) - want)) < 1e-9


def test_mixed_partials_are_exact_by_construction():
    # the jet stores one coefficient per multi-index, so symmetry of mixed
    # partials cannot fail; check the access API agrees with itself
    P = np.array([0.3])
    j = jet_sin(Jet2.variable_p(P, 4) * Jet2.variable_p(P, 4))
    assert j.derivative(2, 1) == pytest.approx(j.derivative(2, 1))


def test_poisson_jet_convention():
    # {p, q} = -1
    rng = np.random.default_rng(2)
    P = rng.uniform(-1, 1, 9)
    Q = rng.uniform(-1, 1, 9)
    jp = Jet2.variable_p(P, 1)
    jq = Jet2.variable_q(Q, 1)
    br = poisson_jet(jp, jq)
    assert np.allclose(br.value, -1.0)


def test_poisson_jet_order_drop():
    P = np.zeros(3)
    jp = Jet2.variable_p(P, 3)
    jq = Jet2.variable_q(P, 3)
    assert poisson_jet(jp, jq).order == 2


def test_jet_log_along_p():
    x = np.linspace(0.5, 3.0, 17)
    j = Jet2.variable_p(x, 4)
    lg = jet_log(j * j + 1.0)
    expr = sp.log(P_SYM**2 + 1)
    for k in range(5):
        want = sp.lambdify(P_SYM, sp.diff(expr, P_SYM, k), "numpy")(x)
        assert np.max(np.abs(lg.derivative(k, 0) - want)) < 1e-9


def test_compose_along_p_matches_sympy():
    x = np.linspace(-1.0, 1.0, 11)
    inner = Jet2.variable_p(x, 4)
    u = inner * inner - inner.scale(0.5)  # p^2 - p/2
    s = jet_sin(u)
    expr = sp.sin(P_SYM**2 - P_SYM / 2)
    for k in range(5):
        want = sp.lambdify(P_SYM, sp.diff(expr, P_SYM, k), "numpy")(x)
        assert np.max(np.abs(s.derivative(k, 0) - want)) < 1e-9


def test_from_univariate_promotion():
    x = np.linspace(0, 1, 7)
    derivs = [np.sin(x), np.cos(x), -np.sin(x)]
    j = Jet2.from_univariate(derivs, 2, "q")
    assert np.allclose(j.derivative(0, 1), np.cos(x))
    assert np.allclose(j.derivative(1, 0), 0.0)
    assert np.allclose(j.derivative(0, 2), -np.sin(x))
