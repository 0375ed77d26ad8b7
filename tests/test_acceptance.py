"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Run as `pytest -s tests/test_acceptance.py` to see
the lines live; tolerances are pinned here, not configurable."""

import time
from fractions import Fraction

import numpy as np
import pytest

from bracketlab.domain import Domain2
from bracketlab.advect import y_bound_check
from bracketlab.brackets import BracketField
from bracketlab.expansions import verify_symmetrized_expansion, verify_conjugated_expansion
from bracketlab.fields import sin_p, sin_q, trig_polynomial
from bracketlab.functionals import (
    FunctionalVector,
    squared_bracket_identity_check,
    lh_check,
    psi,
    symmetry_check,
)
from bracketlab.liepoly import LiePoly, bracket
from bracketlab.lyndon import lyndon_words
from bracketlab.ratescan import phi_bar_upper, rate_report
from bracketlab.witness import build_witness, cutoff_witness, r_extrema, verify_oscillation_ratios


class _Timer:
    def __init__(self, label, limit):
        self.label, self.limit = label, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.label}] {status} ({dt:.1f}s / limit {self.limit:.0f}s)")
        if exc_type is None and dt > self.limit:
            raise AssertionError(f"{self.label}: runtime {dt:.1f}s exceeds {self.limit}s")


@pytest.fixture(scope="module")
def witness_fields():
    return build_witness()


def test_criterion_01_symbolic_32():
    with _Timer("criterion 01: symbolic 3.2 expansion", 5):
        rep = verify_symmetrized_expansion(5)
        assert rep.match
        md = 6
        F, G = LiePoly.letter("F", md), LiePoly.letter("G", md)
        P = bracket(F, G, md)
        assert rep.series.coefficient(1) == P.scale(2)
        assert rep.series.coefficient(0).is_zero()
        assert rep.series.coefficient(2).is_zero()
        I = bracket(bracket(P, F, md), F, md) + bracket(bracket(P, G, md), G, md)
        assert rep.series.coefficient(3) == I.scale(Fraction(1, 6))


def test_criterion_02_symbolic_33():
    with _Timer("criterion 02: symbolic 3.3 expansion", 30):
        rep = verify_conjugated_expansion(5)
        assert rep.match
        md = 6
        F, G = LiePoly.letter("F", md), LiePoly.letter("G", md)
        P = bracket(F, G, md)
        assert rep.series.coefficient(2) == (bracket(P, F, md) + bracket(P, G, md)).scale(
            Fraction(3, 2)
        )
        assert rep.series.coefficient(3).is_zero()
        assert rep.series.coefficient(4).degrees() <= {5}


def test_criterion_03_lemma_quadratic():
    with _Timer("criterion 03: quadratic extrema", 5):
        ext = r_extrema(1.1, 1.63)
        assert abs(ext["r_minus1"] + 0.153) <= 1e-12
        assert abs(ext["r_plus1"] - 0.987) <= 1e-12
        assert abs(ext["critical_value"] + 0.860) <= 1e-3


def test_criterion_04_counterexample_desk_scale(witness_fields):
    with _Timer("criterion 04: counterexample at n=2048", 120):
        out = verify_oscillation_ratios(witness_fields, N_list=(100, 1000, 10000), n=2048)
        by_N = {row["N"]: row for row in out["rows"]}
        assert by_N[1000]["maxR"] <= 0.99
        assert by_N[1000]["ratio_max"] <= 0.995
        assert by_N[1000]["ratio_min"] <= 0.995
        rn = [row["residual_times_N"] for row in out["rows"]]
        assert max(rn) / min(rn) <= 2.0


def test_criterion_05_lh_property_suite():
    with _Timer("criterion 05: Landau-Hadamard sweep (200 pairs)", 60):
        dom = Domain2.torus(256)
        tol = 10 * dom.h**2
        rng = np.random.default_rng(0)
        for _ in range(200):
            F = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
            G = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
            out = lh_check(F, G, tol=tol)
            assert out["margin"] >= -tol


def test_criterion_06_integral_identity_and_psi():
    with _Timer("criterion 06: squared-bracket identity and Psi", 30):
        dom = Domain2.torus(256)
        F, G = sin_p(dom), sin_q(dom)
        out = squared_bracket_identity_check(F, G)
        assert out["checks"]["identity"]["value"] <= 1e-6
        assert abs(psi(F, G) - 2.0) <= 1e-6


def test_criterion_07_numerical_algebra(witness_fields):
    with _Timer("criterion 07: Jacobi, zero mean, cutoff", 60):
        dom = Domain2.torus(128)
        rng = np.random.default_rng(1)
        for _ in range(5):
            F = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
            G = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
            H = trig_polynomial(dom, rng.normal(size=(2, 2)) / 4)
            jac = (
                BracketField(BracketField(F, G), H).values()
                + BracketField(BracketField(G, H), F).values()
                + BracketField(BracketField(H, F), G).values()
            )
            assert np.max(np.abs(jac)) <= 1e-8
            vals = BracketField(F, G).values()
            assert abs(dom.integrate(vals)) / np.max(np.abs(vals)) <= 1e-8
        cut = cutoff_witness(witness_fields, n=256)
        assert cut["cutoff_bracket_identity_resid"]["value"] <= 1e-9
        assert cut["cutoff_max_equality_gap"]["value"] <= 1e-9


def test_criterion_08_symmetries():
    with _Timer("criterion 08: dihedral and scaling identities", 60):
        dom = Domain2.torus(128)
        rng = np.random.default_rng(2)
        for _ in range(10):
            F = trig_polynomial(dom, rng.normal(size=(2, 2)) / 2)
            G = trig_polynomial(dom, rng.normal(size=(2, 2)) / 2)
            v = FunctionalVector(*(np.abs(rng.normal(size=4)) + 0.05))
            for element in ("A", "B", "C", (float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))):
                out = symmetry_check(v, F, G, element)
                (rec,) = out["checks"].values()
                assert rec["value"] <= 1e-12, (element, out)


def test_criterion_09_free_lie_algebra():
    with _Timer("criterion 09: Lyndon counts and exact Lie identities", 60):
        words = lyndon_words(8)
        counts = [sum(1 for w in words if len(w) == d) for d in range(1, 9)]
        assert counts == [2, 1, 2, 3, 6, 9, 18, 30]
        rng = np.random.default_rng(3)
        basis = lyndon_words(3)
        md = 12
        for _ in range(100):
            def rand_poly():
                terms = {
                    w: Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                    for w in basis
                    if rng.random() < 0.5
                }
                return LiePoly(terms, md)

            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert bracket(a, b, md) == -bracket(b, a, md)
            jac = (
                bracket(bracket(a, b, md), c, md)
                + bracket(bracket(b, c, md), a, md)
                + bracket(bracket(c, a, md), b, md)
            )
            assert jac.is_zero()


def test_criterion_10_rate_scan():
    with _Timer("criterion 10: perturbation rate scan", 600):
        dom = Domain2.torus(256)
        F, G = sin_p(dom), sin_q(dom)
        eps_grid = np.logspace(-4, -1, 10)

        rep = rate_report(F, G, eps_grid, which="maxFG", budget=200, seed=0)
        psi13 = rep["psi"] ** (1.0 / 3.0)
        for row in rep["rows"]:
            assert row["decrease"] > 0.0, f"no strict decrease at eps={row['eps']}"
            assert row["decrease"] <= 5.0 * psi13 * row["eps"] ** (2.0 / 3.0)
        assert rep["fit"]["exponent"] >= 0.55

        rep2 = rate_report(F, G, eps_grid, which="double", budget=120, seed=0)
        pos = [(r["eps"], r["decrease"]) for r in rep2["rows"] if r["decrease"] > 0]
        assert len(pos) >= 3
        # the C13 envelope is fitted to these same rows, so it is reported, not checked
        assert "decreases_below_C13_eps13" not in rep2["checks"]
        assert rep2["fit"]["C13_envelope"] == max(d / e ** (1.0 / 3.0) for e, d in pos)
        assert "residual" in rep2["fit"]

        # determinism under seed 0 at one grid point
        a = phi_bar_upper(F, G, 1e-2, which="maxFG", budget=60, seed=0)
        b = phi_bar_upper(F, G, 1e-2, which="maxFG", budget=60, seed=0)
        assert a == b


def test_criterion_11_y_bound():
    with _Timer("criterion 11: commutator-path bound", 30):
        dom = Domain2.torus(128)
        out = y_bound_check(sin_p(dom), sin_q(dom), s=0.1, t=0.1, steps=64)
        assert out["margin"] >= -1e-4
        assert out["pass"]
