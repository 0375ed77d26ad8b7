import numpy as np
import pytest

from bracketlab.brackets import BracketField
from bracketlab.domain import Domain2
from bracketlab.errors import BoundsError, DomainMismatchError, PreconditionError
from bracketlab.fields import (
    AnalyticField,
    SampledField,
    load_field_csv,
    save_field_csv,
    sin_p,
    sin_q,
    trig_polynomial,
)
from bracketlab.jets import jet_sin


def test_domain_validation():
    with pytest.raises(BoundsError):
        Domain2.torus(8)
    with pytest.raises(PreconditionError):
        Domain2("cylinder", 32)
    with pytest.raises(PreconditionError):
        Domain2.rect(32, (0, 0, 0, 1))


def test_torus_axes_exclude_endpoint():
    dom = Domain2.torus(64)
    p, q = dom.axes()
    assert p[0] == 0.0 and p[-1] < 2 * np.pi
    assert len(p) == 64
    assert dom.spacing == (2 * np.pi / 64, 2 * np.pi / 64)


def test_torus_integration_is_spectral():
    dom = Domain2.torus(64)
    P, Q = dom.grid()
    assert dom.integrate(np.sin(P) ** 2) == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_sampled_field_derivatives_converge():
    errs = []
    for n in (64, 128):
        dom = Domain2.torus(n)
        P, Q = dom.grid()
        f = SampledField(dom, np.sin(P) * np.cos(Q))
        j = f.jet(2)
        errs.append(np.max(np.abs(j.derivative(1, 1) + np.cos(P) * np.sin(Q))))
    assert errs[1] < errs[0] / 8  # 4th-order stencil


def test_sampled_derivative_of_a_constant_sees_only_the_edges():
    # zeros extend a rectangle, so the stencil sees a step at each edge;
    # the torus wraps and sees none
    dom = Domain2.rect(17, (0.0, 1.0, -1.0, 2.0))
    j = SampledField(dom, np.ones((17, 17))).jet(1)
    edges = np.array([7, -1] + [0] * 13 + [1, -7], dtype=float)
    hp, hq = dom.spacing
    assert np.array_equal(j.derivative(1, 0), np.broadcast_to((edges / (12.0 * hp))[:, None], (17, 17)))
    assert np.array_equal(j.derivative(0, 1), np.broadcast_to(edges / (12.0 * hq), (17, 17)))
    torus = SampledField(Domain2.torus(16), np.ones((16, 16))).jet(1)
    assert not torus.derivative(1, 0).any() and not torus.derivative(0, 1).any()


def test_sampled_field_off_grid_rejected():
    dom = Domain2.torus(32)
    f = SampledField(dom, np.zeros((32, 32)))
    with pytest.raises(PreconditionError):
        f.jet(1, (np.zeros(3), np.zeros(3)))


def test_sampled_bracket_matches_analytic():
    dom = Domain2.torus(256)
    P, Q = dom.grid()
    a = SampledField(dom, np.sin(P))
    b = SampledField(dom, np.sin(Q))
    vals = BracketField(a, b).values()
    assert np.max(np.abs(vals + np.cos(P) * np.cos(Q))) < 1e-7


def test_domain_mismatch_rejected():
    F = sin_p(Domain2.torus(64))
    G = sin_q(Domain2.torus(128))
    with pytest.raises(DomainMismatchError):
        BracketField(F, G)


def test_bracket_order_accounting():
    dom = Domain2.torus(32)
    F, G = sin_p(dom), sin_q(dom)
    b1 = BracketField(F, G)
    assert b1.max_order == 3
    b4 = BracketField(BracketField(BracketField(b1, F), G), F)
    assert b4.max_order == 0
    with pytest.raises(BoundsError):
        BracketField(b4, F)


def test_field_algebra():
    dom = Domain2.torus(64)
    F = sin_p(dom)
    G = sin_q(dom)
    P, Q = dom.grid()
    assert np.allclose((-F).values(), -np.sin(P))
    assert np.allclose((F * 2.0).values(), 2 * np.sin(P))
    assert np.allclose((F + G).values(), np.sin(P) + np.sin(Q))
    assert np.allclose((F * G).values(), np.sin(P) * np.sin(Q))


@pytest.mark.parametrize(
    "coeffs",
    [
        None,
        np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0], [0.5, 0.75, 1.5]]),
        np.array([[1.0, -0.5, 0.25], [0.0, 0.0, 0.0], [0.5, 0.75, 1.5]]),
        np.zeros((3, 3)),
    ],
    ids=["random-2x2", "zero-coefficient", "zero-row", "all-zero"],
)
def test_trig_polynomial_matches_direct_sum(rng, coeffs):
    # the K^2 definition, differentiated in closed form: d^i/dp^i sin(k p + a)
    # is k^i sin(k p + a + i pi/2)
    dom = Domain2.torus(64)
    if coeffs is None:
        coeffs = rng.normal(size=(2, 2))
    K = coeffs.shape[0]
    ph_p = rng.uniform(0, 2 * np.pi, K)
    ph_q = rng.uniform(0, 2 * np.pi, K)
    f = trig_polynomial(dom, coeffs, ph_p, ph_q)
    P, Q = dom.grid()

    def want(i, j):
        return sum(
            coeffs[k, l] * (k + 1) ** i * (l + 1) ** j
            * np.sin((k + 1) * P + ph_p[k] + i * np.pi / 2)
            * np.sin((l + 1) * Q + ph_q[l] + j * np.pi / 2)
            for k in range(K)
            for l in range(K)
        )

    jet = f.jet(2)
    for i in range(3):
        for j in range(3 - i):
            assert np.max(np.abs(jet.derivative(i, j) - want(i, j))) < 1e-12, (i, j)
    vals = f.values()
    assert vals.shape == (64, 64) and vals.flags.c_contiguous
    assert np.max(np.abs(vals - want(0, 0))) < 1e-12
    if not coeffs.any():
        assert not vals.any()


def test_csv_roundtrip_torus(tmp_path):
    dom = Domain2.torus(32)
    P, Q = dom.grid()
    vals = np.sin(P) * np.cos(2 * Q)
    path = tmp_path / "field.csv"
    save_field_csv(vals, dom, path)
    back = load_field_csv(path)
    assert back.domain == dom
    assert np.array_equal(back.values(), vals)


def test_csv_roundtrip_rect(tmp_path):
    dom = Domain2.rect(32, (0.0, 2.0, -1.0, 3.0))
    vals = np.arange(32 * 32, dtype=float).reshape(32, 32)
    path = tmp_path / "field.csv"
    save_field_csv(vals, dom, path)
    back = load_field_csv(path)
    assert back.domain.bounds == dom.bounds
    assert np.array_equal(back.values(), vals)


def test_csv_bytes_stable(tmp_path):
    dom = Domain2.torus(16)
    vals = np.full((16, 16), 1.0 / 3.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_field_csv(vals, dom, p1)
    save_field_csv(vals, dom, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_analytic_field_off_grid_evaluation():
    dom = Domain2.torus(32)
    f = AnalyticField(dom, lambda jp, jq: jet_sin(jp + jq.scale(2.0)))
    pts = (np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    assert np.allclose(f.values(pts), np.sin(pts[0] + 2 * pts[1]))
