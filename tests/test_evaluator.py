"""The field-expression evaluator: one jet per node, exact truncation.

``values_of`` and ``evaluate`` walk a field DAG once.  Each node is
evaluated once, at the highest jet order any consumer needs, and lower
orders are served by ``Jet2.truncated``; that is only sound if truncating
a higher-order jet gives the lower-order jet bit for bit.
"""

import numpy as np
import pytest

from bracketlab import witness
from bracketlab.brackets import BracketField
from bracketlab.domain import Domain2
from bracketlab.errors import BoundsError
from bracketlab.fields import AnalyticField, evaluate, trig_polynomial, values_of
from bracketlab.functionals import lh_check


def counted(field: AnalyticField, orders: list) -> AnalyticField:
    """The same field, logging the jet order of every builder call."""

    def build(jp, jq):
        orders.append(jp.order)
        return field.builder(jp, jq)

    return AnalyticField(field.domain, build)


def random_pair(dom, seed):
    rng = np.random.default_rng(seed)
    return [
        trig_polynomial(dom, rng.normal(size=(3, 3)), rng.uniform(0, 6, 3), rng.uniform(0, 6, 3))
        for _ in range(2)
    ]


def test_lh_check_builds_each_leaf_once_at_order_two():
    dom = Domain2.torus(32)
    F0, G0 = random_pair(dom, 5)
    f_orders, g_orders = [], []
    F, G = counted(F0, f_orders), counted(G0, g_orders)
    assert lh_check(F, G) == lh_check(F0, G0)
    assert (f_orders, g_orders) == ([2], [2])


def test_shared_node_is_evaluated_once():
    dom = Domain2.torus(32)
    F, G = random_pair(dom, 6)
    shared_orders = []
    P = BracketField(F, G).map(lambda j: shared_orders.append(j.order) or j)
    roots = [BracketField(P, F), BracketField(P, G), P * 2.0]
    together = values_of(roots)
    assert shared_orders == [1]
    for root, vals in zip(roots, together):
        assert np.array_equal(vals, root.values())


def test_repeated_requests_get_their_own_orders():
    dom = Domain2.torus(16)
    F, _ = random_pair(dom, 7)
    j0, j3, j1 = evaluate([(F, 0), (F, 3), (F, 1)])
    assert (j0.order, j3.order, j1.order) == (0, 3, 1)


def assert_truncation_exact(field, pts=None):
    top = field.jet(field.max_order, pts)
    for k in range(top.order):
        low, cut = field.jet(k, pts), top.truncated(k)
        assert low.coeffs.keys() == cut.coeffs.keys()
        for ij, c in low.coeffs.items():
            assert np.array_equal(c, cut.coeffs[ij]), (k, ij)
            assert np.array_equal(np.signbit(c), np.signbit(cut.coeffs[ij])), (k, ij)


def test_truncated_trig_polynomial_jet_is_the_lower_order_jet():
    F, G = random_pair(Domain2.torus(48), 8)
    assert_truncation_exact(F)
    assert_truncation_exact(BracketField(F, G))


def test_truncated_witness_jet_is_the_lower_order_jet():
    wf = witness.build_witness()
    dom = wf.window_domain(200)
    p, q = dom.coords()
    chunk = (p[64:128], q)
    for N in (100, 1000):
        assert_truncation_exact(wf.field_FN(dom, N), chunk)
    R = wf.field_R(dom, 1000)
    assert_truncation_exact(R, chunk)
    with pytest.raises(BoundsError):
        R.jet(4, chunk)


@pytest.mark.parametrize("order", [0, 2])
def test_jet_of_a_root_that_is_also_a_parent(order):
    # the inner bracket is read by the outer one and returned itself
    dom = Domain2.torus(16)
    F, G = random_pair(dom, 9)
    P = BracketField(F, G)
    jp, jd = evaluate([(P, order), (BracketField(P, F), 0)])
    assert jp.order == order and jd.order == 0
    assert np.array_equal(jp.value, P.values())
