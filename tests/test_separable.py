"""Separable evaluation is bit-identical to evaluation on dense points.

Fields evaluate by default on broadcast coordinates p (n,1), q (1,n), so
functions of one variable are computed on n points.  The elementwise
operations are the same as on the dense meshgrid, so every value must be
equal, not merely close.  ``Dense`` forces the dense meshgrid as the
reference.
"""

import numpy as np
import pytest

from bracketlab import witness
from bracketlab.brackets import BracketField
from bracketlab.domain import Domain2
from bracketlab.errors import PreconditionError
from bracketlab.fields import JetField, sin_p, sin_q, trig_polynomial, values_of
from bracketlab.functionals import lh_check
from bracketlab.ratescan import (
    ModulatedFamily,
    OscillatoryFamily,
    RandomFourierFamily,
    functional_value,
)


class Dense(JetField):
    """A leaf evaluating its base field on the explicit dense grid when no
    points are given."""

    def __init__(self, base: JetField):
        self.base = base
        self.domain = base.domain
        self.max_order = base.max_order
        self.provenance = base.provenance

    def _jet(self, order, parent_jets, pts):
        return self.base.jet(order, self.domain.grid() if pts is None else pts)


@pytest.fixture(scope="module")
def wf():
    return witness.build_witness()


def test_one_variable_field_values_are_full_and_contiguous():
    for dom in (Domain2.torus(64), Domain2.rect(48, (-1.0, 2.0, 0.5, 3.0))):
        F = sin_p(dom)
        assert F.jet(0).value.shape == (dom.n, 1)
        vals = F.values()
        assert vals.shape == (dom.n, dom.n) and vals.flags.c_contiguous
        dense = F.values(dom.grid())
        assert np.array_equal(vals, dense)
        if dom.kind == "torus":
            assert dom.integrate(vals) == dom.integrate(dense)
        else:
            with pytest.raises(PreconditionError):
                dom.integrate(vals)


def test_lh_check_on_trig_pair():
    dom = Domain2.torus(64)
    rng = np.random.default_rng(11)
    F, G = (
        trig_polynomial(dom, rng.normal(size=(3, 3)), rng.uniform(0, 6, 3), rng.uniform(0, 6, 3))
        for _ in range(2)
    )
    assert lh_check(F, G) == lh_check(Dense(F), Dense(G))
    want = BracketField(BracketField(Dense(F), Dense(G)), Dense(F)).values()
    assert np.array_equal(BracketField(BracketField(F, G), F).values(), want)


def test_witness_window(wf):
    # 200 rows: one full 128-row chunk and one partial chunk; the chunked
    # fields share the profile leaves, which keep the q row between chunks
    dom = wf.window_domain(200)
    N = 1000
    FN, G = wf.field_FN(dom, N), wf.field_G(dom)
    D = BracketField(BracketField(FN, G), FN)
    FN_dense = Dense(wf.field_FN(dom, N))
    D_dense = BracketField(BracketField(FN_dense, Dense(wf.field_G(dom))), FN_dense).values()
    R_dense = Dense(wf.field_R(dom, N)).values()
    chunked = [D, wf.field_R(dom, N)]
    p, q = dom.coords()
    for i0 in range(0, dom.n, 128):
        D_rows, R_rows = values_of(chunked, (p[i0 : i0 + 128], q))
        assert np.array_equal(D_rows, D_dense[i0 : i0 + 128])
        assert np.array_equal(R_rows, R_dense[i0 : i0 + 128])
    want = [(v.max(), v.min()) for v in (D_dense, R_dense)]
    assert witness._window_extrema(chunked, dom) == want


def test_rate_scan_members(wf):
    dom = Domain2.torus(64)
    F, G = sin_p(dom), sin_q(dom)
    eps = 1e-2
    members = [
        (OscillatoryFamily(), np.array([np.log(3.0), 0.4, 1.1, 1.0])),
        (
            ModulatedFamily(wf.u.eval_derivs, wf.a.eval_derivs, wf.a.uniform_norm),
            np.array([np.log(5.0), 0.7, 1.0]),
        ),
        (RandomFourierFamily(3, n_members=2, oversample=64), np.array([1.0, 1.0])),
    ]
    for family, x in members:
        Fp, Gp = family.member(F, G, eps, x)
        got = functional_value("double", Fp, Gp)
        assert got == functional_value("double", Dense(Fp), Dense(Gp)), family.name


def test_random_fourier_norm_values():
    # reference: the rank-K sum of the builder, on the dense meshgrid
    rng = np.random.default_rng(4)
    coeffs, phases = rng.normal(size=(3, 3)), rng.uniform(0, 2 * np.pi, size=(2, 3))
    t = np.arange(96) * (2 * np.pi / 96)
    P, Q = np.meshgrid(t, t, indexing="ij")
    want = 0.0
    for k in range(3):
        g = 0.0
        for l in range(3):
            g = g + np.sin((l + 1.0) * Q + phases[1, l]) * coeffs[k, l]
        want = want + np.sin((k + 1.0) * P + phases[0, k]) * g
    family = RandomFourierFamily(0, oversample=96)
    guard = np.cos(np.pi * 3 / 96) ** 2
    assert family._norm_bound(coeffs, phases) == float(np.max(np.abs(want))) / guard
    got = trig_polynomial(Domain2.torus(96), coeffs, phases[0], phases[1]).values()
    assert np.array_equal(got, want)
