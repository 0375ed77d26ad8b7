import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import bracketlab
from bracketlab.brackets import BracketField
from bracketlab.domain import Domain2
from bracketlab.errors import BoundsError, PreconditionError
from bracketlab.fields import AnalyticField, sin_p, sin_q, trig_polynomial, zero_field
from bracketlab.functionals import (
    FunctionalVector,
    squared_bracket_identity_check,
    double_brackets,
    integral_identity_check,
    kolmogorov_ratio,
    lh_check,
    phi_v,
    psi,
    symmetry_check,
)
from bracketlab.jets import jet_cos


def test_functional_vector_validation():
    with pytest.raises(PreconditionError):
        FunctionalVector(0, 0, 0, 0)
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(PreconditionError):
            FunctionalVector(1, bad, 0, 0)
    v = FunctionalVector(1, 2, 3, 4)
    assert v.A() == FunctionalVector(2, 1, 3, 4)
    assert v.B() == FunctionalVector(1, 2, 4, 3)
    assert v.C() == FunctionalVector(3, 4, 1, 2)
    assert v.scaled(2, 3) == FunctionalVector(12, 24, 54, 72)


def test_phi_v_closed_form(sin_pair):
    F, G = sin_pair
    assert phi_v(FunctionalVector(1, 0, 0, 0), F, G) == pytest.approx(1.0, abs=1e-12)
    # all four pieces of sin-sin give extrema +-1
    assert phi_v(FunctionalVector(1, 1, 1, 1), F, G) == pytest.approx(4.0, abs=1e-9)


def test_phi_v_vanishes_on_equal_fields(sin_pair):
    F, _ = sin_pair
    assert phi_v(FunctionalVector(1, 1, 1, 1), F, F) == 0.0


def test_phi_v_nonnegative_on_random_pairs(torus128, rng):
    for _ in range(25):
        F = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 4)
        G = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 4)
        val = phi_v(FunctionalVector(1.0, 0.5, 0.25, 2.0), F, G)
        assert val >= -10 * torus128.h**2


def test_psi_closed_form(sin_pair):
    F, G = sin_pair
    assert psi(F, G) == pytest.approx(2.0, abs=1e-9)


def test_psi_zero_on_zero_field(torus128):
    F = sin_p(torus128)
    assert psi(F, zero_field(torus128)) == 0.0


def test_psi_zero_for_coordinate_pair():
    dom = Domain2.rect(64, (0, 1, 0, 1))
    p, q = AnalyticField(dom, lambda jp, jq: jp), AnalyticField(dom, lambda jp, jq: jq)
    assert psi(p, q) == pytest.approx(0.0, abs=1e-12)


def test_psi_positive_when_bracket_nonzero(torus128, rng):
    # Psi > 0 whenever {F,G} is not identically zero
    for _ in range(10):
        F = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 4)
        G = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 4)
        pnorm = float(np.max(np.abs(BracketField(F, G).values())))
        if pnorm > 1e-6:
            assert psi(F, G) > 1e-9


def test_lh_closed_form(sin_pair):
    F, G = sin_pair
    out = lh_check(F, G)
    assert out["value"] == pytest.approx(1.0, abs=1e-12)
    assert out["bound"] == pytest.approx(0.25, abs=1e-12)
    assert out["pass"]


def test_lh_commuting_pair(torus128):
    # {F,G} = 0: lhs >= 0 = rhs
    F = sin_p(torus128)
    G = AnalyticField(torus128, lambda jp, jq: jet_cos(jp))
    out = lh_check(F, G)
    assert out["bound"] == pytest.approx(0.0, abs=1e-15)
    assert out["pass"]


def test_lh_rejects_zero_G(torus128):
    with pytest.raises(PreconditionError):
        lh_check(sin_p(torus128), zero_field(torus128))


def test_lh_random_sweep(torus256, rng):
    # the inequality is a theorem; 200 pairs at n = 256
    tol = 10 * torus256.h**2
    for _ in range(200):
        F = trig_polynomial(torus256, rng.normal(size=(2, 2)) / 4)
        G = trig_polynomial(torus256, rng.normal(size=(2, 2)) / 4)
        out = lh_check(F, G, tol=tol)
        assert out["margin"] >= -tol


def test_kolmogorov_examples(sin_pair):
    F, G = sin_pair
    out1 = kolmogorov_ratio(F, G, N=1)
    assert out1["osc_value"] == pytest.approx(2.0, abs=1e-9)
    assert out1["ratio"] >= 1.0 - 1e-9  # osc >= uniform norm for zero-mean brackets
    out2 = kolmogorov_ratio(F, G, N=2)
    assert out2["osc_value"] == pytest.approx(2.0, abs=1e-9)
    assert out2["ratio"] == pytest.approx(2.0, abs=1e-9)


def test_kolmogorov_iterated_form(sin_pair):
    F, G = sin_pair
    out = kolmogorov_ratio(F, G, k=1, m=2)
    assert out["form"] == "adH^m G" and out["osc_value"] > 0


def test_kolmogorov_preconditions(torus128):
    F = sin_p(torus128)
    G = AnalyticField(torus128, lambda jp, jq: jet_cos(jp))  # commutes with F
    with pytest.raises(PreconditionError):
        kolmogorov_ratio(F, G, N=2)
    F2, G2 = sin_p(torus128), sin_q(torus128)
    assert kolmogorov_ratio(F2, G2, k=2, m=2)["osc_value"] > 0  # nested k + m = 4 deep
    with pytest.raises(BoundsError):
        kolmogorov_ratio(F2, G2, k=2, m=3)  # 5 deep
    for bad in ({"N": 0}, {"k": -1, "m": 1}, {"k": 1, "m": 0}, {"k": 1}, {"N": 1, "m": 1}):
        with pytest.raises(PreconditionError):
            kolmogorov_ratio(F2, G2, **bad)


def test_integral_identity(torus256):
    P = sin_p(torus256)
    Q = sin_q(torus256)
    R = AnalyticField(torus256, lambda jp, jq: jet_cos(jp + jq))
    out = integral_identity_check(P, Q, R)
    assert out["checks"]["identity"]["value"] <= 1e-8


def test_integral_identity_constant_R(torus128):
    P, Q = sin_p(torus128), sin_q(torus128)
    R = AnalyticField(torus128, lambda jp, jq: jp.scale(0.0) + 1.0)
    out = integral_identity_check(P, Q, R)
    assert abs(out["lhs"]) < 1e-9 and abs(out["rhs"]) < 1e-9


def test_cor_identity(torus256):
    F, G = sin_p(torus256), sin_q(torus256)
    out = squared_bracket_identity_check(F, G)
    assert out["checks"]["identity"]["value"] <= 1e-6
    # closed form: both sides equal -3 pi^2 / 2
    assert out["lhs"] == pytest.approx(-1.5 * np.pi**2, rel=1e-9)


def test_zero_mean(torus128, rng):
    for _ in range(10):
        F = trig_polynomial(torus128, rng.normal(size=(2, 2)))
        G = trig_polynomial(torus128, rng.normal(size=(2, 2)))
        vals = BracketField(F, G).values()
        assert abs(torus128.integrate(vals)) / np.max(np.abs(vals)) <= 1e-8


@pytest.mark.parametrize("element", ["A", "B", "C"])
def test_dihedral_symmetries_exact(element, torus128, rng):
    for _ in range(8):
        F = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 2)
        G = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 2)
        v = FunctionalVector(*np.abs(rng.normal(size=4)) + 0.1)
        out = symmetry_check(v, F, G, element)
        assert out["checks"][element]["value"] <= 1e-12


def test_scaling_symmetry(torus128, rng):
    for _ in range(8):
        F = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 2)
        G = trig_polynomial(torus128, rng.normal(size=(2, 2)) / 2)
        v = FunctionalVector(*np.abs(rng.normal(size=4)) + 0.1)
        alpha, beta = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        out = symmetry_check(v, F, G, (alpha, beta))
        assert out["checks"]["scale"]["value"] <= 1e-12


def test_scaling_identity_trivial_at_unit(sin_pair):
    F, G = sin_pair
    out = symmetry_check(FunctionalVector(1, 1, 1, 1), F, G, (1.0, 1.0))
    assert out["lhs"] == out["rhs"]


def test_double_brackets_shapes(sin_pair):
    F, G = sin_pair
    d1, d2 = double_brackets(F, G)
    assert d1.shape == d2.shape == (256, 256)


# Four random 3x3 pairs at 256^2; prints the minor page faults per lh_check
# over the last three, after the first has warmed the allocator.
LH_FAULT_PROBE = """
import resource
import numpy as np
from bracketlab.domain import Domain2
from bracketlab.fields import trig_polynomial
from bracketlab.functionals import lh_check
dom, rng = Domain2.torus(256), np.random.default_rng(1)
pairs = [
    [trig_polynomial(dom, rng.normal(size=(3, 3)), rng.uniform(0, 6, 3), rng.uniform(0, 6, 3))
     for _ in range(2)]
    for _ in range(4)
]
lh_check(*pairs[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for F, G in pairs[1:]:
    lh_check(F, G)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_lh_check_reuses_freed_arrays():
    """Importing bracketlab keeps freed n^2 jet arrays mapped, so a warm
    256^2 lh_check faults in almost no pages (about 4,600 per op without)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bracketlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LH_FAULT_PROBE],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert float(proc.stdout) < 100
