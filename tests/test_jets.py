import numpy as np
import pytest
import sympy as sp

from oracles import P_SYM, Q_SYM, sym_grid_values

from bracketlab.jets import (
    Jet2,
    factorial,
    jet_cos,
    jet_exp,
    jet_log,
    jet_sin,
    poisson_jet,
    sum_of_products,
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


# -- sparse coefficient dicts: a missing multi-index is a structural zero ---------

P_COL = np.linspace(-1.0, 2.0, 5)[:, None]
Q_ROW = np.linspace(0.5, 3.0, 4)[None, :]
FULL = (5, 4)
KEYS4 = [(i, t - i) for t in range(5) for i in range(t + 1)]


def _sparse_jets():
    rng = np.random.default_rng(3)
    p_only = {(0, 0): np.sin(P_COL), (1, 0): np.cos(P_COL), (2, 0): -np.sin(P_COL) / 2}
    q_only = {(0, k): np.exp(Q_ROW) / factorial(k) for k in range(5)}
    return {
        "p-only": Jet2(4, p_only),
        "q-only": Jet2(4, q_only),
        "p": Jet2(4, {(0, 0): P_COL, (1, 0): np.ones(P_COL.shape)}),
        "q": Jet2(4, {(0, 0): Q_ROW, (0, 1): np.ones(Q_ROW.shape)}),
        "full": Jet2(4, {ij: rng.normal(size=FULL) for ij in KEYS4}),
    }


def _zero_filled(j):
    return Jet2(j.order, {ij: j.coeffs.get(ij, np.zeros_like(j.value))
                          for ij in KEYS4 if sum(ij) <= j.order})


def _assert_same_jet(sparse, dense, where):
    assert sparse.order == dense.order, where
    assert isinstance(sparse.coeffs[(0, 0)], np.ndarray), where
    assert sparse.value.shape == dense.value.shape, where
    assert set(sparse.coeffs) <= set(dense.coeffs), where
    for ij, want in dense.coeffs.items():
        got = sparse.coeffs.get(ij, np.zeros_like(sparse.value))
        assert np.array_equal(np.broadcast_to(got, FULL), np.broadcast_to(want, FULL)), (where, ij)


UNARY = {
    "neg": lambda a: -a,
    "scale": lambda a: a.scale(-1.5),
    "dp": lambda a: a.dp(),
    "dq": lambda a: a.dq(),
    "truncated": lambda a: a.truncated(2),
    "sin": jet_sin,
    "plus-scalar": lambda a: a + 0.25,
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "poisson": poisson_jet,
    "mixed-orders": lambda a, b: a * b.truncated(3) + a.truncated(2),
}


@pytest.mark.parametrize("op", UNARY)
def test_sparse_jet_unary_ops_match_zero_filled(op):
    for name, j in _sparse_jets().items():
        _assert_same_jet(UNARY[op](j), UNARY[op](_zero_filled(j)), name)


@pytest.mark.parametrize("op", BINARY)
def test_sparse_jet_binary_ops_match_zero_filled(op):
    jets = _sparse_jets()
    for pair in [("p-only", "q-only"), ("q-only", "p-only"), ("p", "q"), ("p-only", "p"),
                 ("full", "q-only"), ("p", "full")]:
        a, b = (jets[k] for k in pair)
        _assert_same_jet(BINARY[op](a, b), BINARY[op](_zero_filled(a), _zero_filled(b)), pair)


def test_jets_store_only_the_coefficients_they_have():
    P = P_COL  # a (5, 1) column
    assert set(Jet2.variable_p(P, 4).coeffs) == {(0, 0), (1, 0)}
    assert set(Jet2.variable_q(Q_ROW, 4).coeffs) == {(0, 0), (0, 1)}
    j = Jet2.from_univariate([np.sin(P), np.cos(P), -np.sin(P)], 4, "p")
    assert set(j.coeffs) == {(0, 0), (1, 0), (2, 0)}
    assert set(jet_sin(Jet2.variable_p(P, 4)).coeffs) == {(k, 0) for k in range(5)}
    dq = j.dq()
    assert set(dq.coeffs) == {(0, 0)} and np.array_equal(dq.value, np.zeros(P.shape))
    assert np.array_equal(j.derivative(1, 2), np.zeros(P.shape))
    with pytest.raises(ValueError):
        j.derivative(3, 2)


def test_no_operand_is_written():
    # products add into arrays they allocate; every array a caller passes
    # in, and every coefficient from_univariate shares with its caller for
    # k < 2 (the coordinate and the ones of a variable), keeps its values
    P, Q = P_COL.copy(), Q_ROW.copy()
    jp, jq = Jet2.variable_p(P, 4), Jet2.variable_q(Q, 4)
    assert jp.coeffs[(0, 0)] is P and jq.coeffs[(0, 0)] is Q
    derivs = [np.sin(P), np.cos(P), -np.sin(P)]
    u = Jet2.from_univariate(derivs, 4, "p")
    assert u.coeffs[(0, 0)] is derivs[0] and u.coeffs[(1, 0)] is derivs[1]
    operands = [jp, jq, u, *_sparse_jets().values()]
    before = [{ij: c.copy() for ij, c in j.coeffs.items()} for j in operands]
    for a in operands:
        jet_sin(a)
        for b in operands:
            a * b
            a - b
            sum_of_products([(a, b), (b, a), (a, a)])
    for j, old in zip(operands, before):
        for ij, c in j.coeffs.items():
            assert np.array_equal(c.view(np.int64), old[ij].view(np.int64)), ij
