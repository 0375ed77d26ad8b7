import numpy as np
import pytest

from bracketlab.advect import advect, y_bound_check
from bracketlab.domain import Domain2
from bracketlab.errors import PreconditionError
from bracketlab.fields import AnalyticField, sin_p, sin_q, zero_field
from bracketlab.jets import jet_sin


def test_zero_hamiltonian_is_identity(torus128):
    K = sin_p(torus128)
    out = advect(zero_field(torus128), K, 1.0, 8)
    assert np.array_equal(out.values(), K.values())


def test_zero_time_is_identity(torus128):
    out = advect(sin_p(torus128), sin_q(torus128), 0.0, 8)
    assert np.allclose(out.values(), sin_q(torus128).values(), atol=1e-15)


def test_linear_flow_oracle():
    # H = p on a rectangle: sgrad p = (0, 1), so K o flow_t = f(q + t)
    dom = Domain2.rect(64, (-2, 2, -2, 2))
    H = AnalyticField(dom, lambda jp, jq: jp)
    K = AnalyticField(dom, lambda jp, jq: jet_sin(jq))
    t = 0.5
    out = advect(H, K, t, 32)
    _, Q = dom.grid()
    assert out.provenance == "sampled"
    assert np.max(np.abs(out.values() - np.sin(Q + t))) < 1e-8


def test_step_minimum():
    dom = Domain2.torus(32)
    with pytest.raises(PreconditionError):
        advect(sin_p(dom), sin_q(dom), 1.0, 2)


def test_sampled_fields_rejected(torus128):
    from bracketlab.fields import SampledField

    s = SampledField(torus128, np.zeros((128, 128)))
    with pytest.raises(PreconditionError):
        advect(s, sin_p(torus128), 1.0, 8)


def test_rk4_convergence(torus128):
    # a genuinely curved flow (sgrad depends on both coordinates)
    H = AnalyticField(torus128, lambda jp, jq: jet_sin(jp) * jet_sin(jq))
    K = sin_q(torus128)
    ref = advect(H, K, 1.0, 512).values()
    e1 = np.max(np.abs(advect(H, K, 1.0, 8).values() - ref))
    e2 = np.max(np.abs(advect(H, K, 1.0, 16).values() - ref))
    assert e2 < e1 / 12  # ~16x for a 4th-order scheme


def test_y_bound_trivial_zero_G(torus128):
    out = y_bound_check(sin_p(torus128), zero_field(torus128), 0.1, 0.1, 16)
    assert abs(out["value"]) < 1e-12 and out["pass"]


def test_y_bound_sin_pair(sin_pair):
    F, G = sin_pair
    out = y_bound_check(F, G, 0.1, 0.1, 64)
    assert out["pass"] and out["margin"] > 0


def test_y_bound_commuting_pair(torus128):
    # F = f(p), G = g(p): the bracket vanishes, transport terms cancel
    from bracketlab.jets import jet_cos

    F = sin_p(torus128)
    G = AnalyticField(torus128, lambda jp, jq: jet_cos(jp))
    out = y_bound_check(F, G, 0.1, 0.1, 64)
    assert abs(out["value"]) <= 1e-6 and abs(out["bound"]) <= 1e-12
    assert out["pass"]
