import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bracketlab import witness
from bracketlab.domain import Domain2
from bracketlab.errors import ConstructionError, PreconditionError
from bracketlab.fields import AnalyticField, ProfileField, values_of
from bracketlab.jets import jet_sin
from bracketlab.piecewise import PiecewisePoly
from bracketlab.witness import (
    WitnessConfig,
    build_witness,
    check_witness_invariants,
    cutoff_witness,
    kappa_search,
    r_rectangle_scan,
    r_eval,
    r_extrema,
    r_field,
    r_max_abs,
    verify_oscillation_ratios,
)
from oracles import ref_r_field, ref_tail_bound, ref_verify_oscillation_ratios


@pytest.fixture(scope="module")
def fields():
    return build_witness()


# -- the quadratic ---------------------------------------------------------------


def test_r_expanded_coefficients():
    # r(1.1, 1.63, z) = 1.21 z^2 + 0.57 z - 0.793
    z = np.linspace(-1, 1, 41)
    want = 1.21 * z**2 + 0.57 * z - 0.793
    assert np.max(np.abs(r_eval(1.1, 1.63, z) - want)) < 1e-14


def test_r_endpoint_values():
    assert r_eval(1.1, 1.63, -1.0) == pytest.approx(-0.153, abs=1e-12)
    assert r_eval(1.1, 1.63, 1.0) == pytest.approx(0.987, abs=1e-12)


def test_r_critical_value():
    ext = r_extrema(1.1, 1.63)
    assert ext["critical_value"] == pytest.approx(-(0.57**2) / (4 * 1.21) - 0.793, abs=1e-14)
    assert ext["critical_value"] == pytest.approx(-0.860, abs=1e-3)


def test_r_max_abs_against_dense_scan():
    for alpha in (1.0985, 1.1, 1.101, 1.11):
        z = np.linspace(-1, 1, 200001)
        dense = float(np.max(np.abs(r_eval(alpha, 1.63, z))))
        exact = float(r_max_abs(alpha, 1.63))
        assert exact >= dense - 1e-12
        assert exact - dense < 1e-8


def test_kappa_search_default():
    kappa = kappa_search()
    assert kappa == pytest.approx(1.1e-3, abs=2e-4)
    # the margin 0.003 at z=1 over the sensitivity 2(alpha+1)-gamma = 2.57
    assert kappa == pytest.approx(0.003 / 2.57, rel=0.05)
    # certify with a dense grid scan: inside passes ...
    alphas = np.linspace(1.1 - kappa, 1.1 + kappa, 20001)
    assert np.all(r_max_abs(alphas, 1.63) < 0.99)
    # ... and meaningfully larger kappa fails
    assert float(r_max_abs(1.1 + kappa + 1e-4, 1.63)) >= 0.99


def test_kappa_search_unachievable_bound():
    with pytest.raises(PreconditionError):
        kappa_search(bound=0.987)


def test_kappa_monotone_in_bound():
    assert kappa_search(bound=1.0 - 1e-9) > kappa_search()


def test_r_rectangle_scan():
    out = r_rectangle_scan(kappa_search())
    assert out["pass"] and out["value"] < 0.99 and out["sense"] == "<"


# -- construction ------------------------------------------------------------------


def test_build_passes_all_invariants(fields):
    report = check_witness_invariants(fields)
    assert all(r["pass"] for r in report.values()), report


def test_integral_of_w_exactly_zero(fields):
    assert fields.w.integral() == 0


def test_w_range_on_core(fields):
    inv = check_witness_invariants(fields)
    lo, hi = inv["w_cond_ii_min"]["value"], inv["w_cond_ii_max"]["value"]
    assert 1.0 <= lo and hi <= 2.0


def test_a_stays_in_kappa_band(fields):
    inv = check_witness_invariants(fields)
    lo, hi = inv["a_cond_ii_min"]["value"], inv["a_cond_ii_max"]["value"]
    assert 1.1 - fields.kappa <= lo and hi <= 1.1 + fields.kappa


def test_FN_uniform_convergence(fields):
    dom = fields.window_domain(256)
    F = fields.field_F(dom)
    for N in (10, 100):
        FN = fields.field_FN(dom, N)
        dev = float(np.max(np.abs(FN.values() - F.values())))
        assert dev <= fields.a.uniform_norm / N + 1e-15


def test_infeasible_config_rejected():
    with pytest.raises(ConstructionError):
        WitnessConfig(rise_len=Fraction(50))  # cannot carry 1.2 at slope 0.01
    with pytest.raises(ConstructionError):
        WitnessConfig(taper_len=Fraction(10))
    with pytest.raises(PreconditionError):
        WitnessConfig(c1=Fraction(100))  # support would start below 0


def test_condition_reading_is_flagged(fields):
    assert "condition_v_reading" in fields.notes


# -- R bound and ratios --------------------------------------------------------------


def test_r_field_bound(fields):
    checks = r_field(fields, N=1000, n=512)["checks"]
    assert all(c["pass"] for c in checks.values())
    assert checks["max_abs_R_window"]["value"] <= 0.99
    # the tail estimate reproduces the 0.36-style case-2 bound with margin
    assert checks["tail_bound_outside_window"]["value"] <= 0.36


def test_r_field_zero_where_profiles_vanish(fields):
    dom = fields.window_domain(128)
    R = fields.field_R(dom, 50)
    # on [c1, c2 - ramp] both w' and a' vanish identically, so R = 0
    c1, c2 = float(fields.cfg.c1), float(fields.cfg.c2)
    pts = (np.full(5, 1.0), np.linspace(c1 + 0.001, c2 - 0.003, 5))
    vals = R.values(pts)
    assert np.max(np.abs(vals)) < 1e-12


def test_verify_oscillation_ratios_small_grid(fields):
    out = verify_oscillation_ratios(fields, N_list=(100, 1000), n=512)
    assert out["denominator_max"] == pytest.approx(1.0, abs=1e-12)
    assert out["denominator_min"] == pytest.approx(-1.0, abs=1e-12)
    for row in out["rows"]:
        assert row["maxR"] <= 0.99
        if row["N"] >= 1000:
            assert row["ratio_max"] <= 0.995 and row["ratio_min"] <= 0.995
    rn = [row["residual_times_N"] for row in out["rows"]]
    assert max(rn) / min(rn) <= 2.0
    assert all(c["pass"] for c in out["checks"].values())
    assert set(out["checks"]) == {"max_abs_R", "ratio_within_envelope",
                                  "residual_times_N_spread", "ratio_at_N_ge_1000"}


def test_cutoff_witness(fields):
    out = cutoff_witness(fields, n=256)
    assert all(c["pass"] for c in out.values())
    assert out["cutoff_bracket_identity_resid"]["value"] <= 1e-9
    assert out["cutoff_max_equality_gap"]["value"] <= 1e-9


def test_cutoff_margin_must_be_positive(fields):
    with pytest.raises(PreconditionError):
        cutoff_witness(fields, margin=0.0)


def test_cutoff_plateau_too_small_rejected(fields):
    with pytest.raises(PreconditionError):
        cutoff_witness(fields, plateau=(2.0, 10.0, 0.0, 700.0))


def test_cutoff_plateau_global_cover_trivial(fields):
    out = cutoff_witness(fields, n=128, plateau=(-5.0, 20.0, -5.0, 700.0))
    assert all(c["pass"] for c in out.values())


def test_double_bracket_closed_form_oracle(fields):
    # independent check of the jet pipeline: for F = u(p), G = -v(q),
    # {{F,G},F} = u'(p)^2 w'(q), and for the perturbed pair the exact
    # calculus gives u'^2 R - (1/N) w u'' a' sin(Nu) (1 + a cos(Nu))
    from bracketlab.brackets import BracketField

    N = 100
    dom = fields.window_domain(256)
    p, q = dom.axes()
    P, Q = dom.grid()
    u, u1, u2 = fields.u.eval_derivs(p, 2)
    w, w1 = fields.w.eval_derivs(q, 1)
    a, a1 = fields.a.eval_derivs(q, 1)

    F = fields.field_F(dom)
    G = fields.field_G(dom)
    d0 = BracketField(BracketField(F, G), F).values()
    want0 = np.outer(u1**2, w1)
    assert np.max(np.abs(d0 - want0)) < 1e-10

    FN = fields.field_FN(dom, N)
    dN = BracketField(BracketField(FN, G), FN).values()
    cosNu = np.cos(N * u)[:, None]
    R = w1[None, :] * (a[None, :] * cosNu + 1.0) ** 2 + (a1 * w)[None, :] * (
        a[None, :] + cosNu
    )
    correction = (
        (w * a1)[None, :]
        * u2[:, None]
        * np.sin(N * u)[:, None]
        * (1.0 + a[None, :] * cosNu)
        / N
    )
    want = (u1**2)[:, None] * R - correction
    assert np.max(np.abs(dN - want)) < 1e-9


def test_ratio_envelope_flag(fields):
    out = verify_oscillation_ratios(fields, N_list=(100, 1000), n=512)
    assert out["checks"]["ratio_within_envelope"]["pass"]


def test_one_pass_matches_the_three_pass_oracle(fields):
    # 200 rows: one full 128-row chunk and one partial chunk; |R| peaks on
    # rows where u = 0, which lie in both chunks
    N_list = (100, 1000, 10000)
    assert verify_oscillation_ratios(fields, N_list, 200) == ref_verify_oscillation_ratios(
        fields, N_list, 200)
    for N in N_list:
        assert r_field(fields, N, 200) == ref_r_field(fields, N, 200)


def test_window_extrema_are_the_whole_window_reductions():
    dom = Domain2.rect(200, (0.0, 3.0, 0.0, 2.0))
    roots = [
        AnalyticField(dom, lambda jp, jq: jet_sin(jp) * jet_sin(jq.scale(2.0)) + 3.0),  # min > 0
        AnalyticField(dom, lambda jp, jq: jet_sin(jp * jq).scale(-1.0) - 2.0),  # max < 0
        AnalyticField(dom, lambda jp, jq: jet_sin(jq.scale(3.0))),  # every row ties
        AnalyticField(dom, lambda jp, jq: jet_sin(jp.scale(2.0)).scale(-1.0)),  # every column ties
        AnalyticField(dom, lambda jp, jq: jp - 1.5),  # max = -min, first at the min
    ]
    got = witness._window_extrema(roots, dom)
    for v, ext in zip(values_of(roots), got):
        assert ext == (v.max(), v.min())
        assert witness._abs_max(*ext) == np.max(np.abs(v))


def test_profile_leaf_serves_the_jets_of_a_fresh_evaluation(fields):
    # a lower order is served from the kept jet; a higher order, or another
    # array, is evaluated afresh
    dom = fields.window_domain(64)
    p, q = dom.coords()
    for name in ("u", "v", "w", "a"):
        calls = []

        def fn(x, m, profile=getattr(fields, name)):
            calls.append(m)
            return profile.eval_derivs(x, m)

        axis = "p" if name == "u" else "q"
        leaf = ProfileField(dom, fn, axis)
        x = p if axis == "p" else q
        for arr, order in ((x, 1), (x, 4), (x, 0), (x[::-1, ::-1], 2), (x, 2), (x, 3)):
            pts = (arr, q) if axis == "p" else (p, arr)
            got = leaf.jet(order, pts)
            want = ProfileField(dom, getattr(fields, name).eval_derivs, axis).jet(order, pts)
            assert got.order == order and got.coeffs.keys() == want.coeffs.keys(), name
            for ij, c in want.coeffs.items():
                assert np.array_equal(got.coeffs[ij], c), (name, ij)
        assert calls == [1, 4, 2, 2, 3], name


def test_q_profiles_are_evaluated_once_per_verify(fields, monkeypatch):
    # n = 512 is four 128-row chunks; every chunk reads v, w and a on the
    # same q row, which their leaves evaluate once
    calls = []
    for cls in (PiecewisePoly, witness.WitnessA):
        def counted(self, x, upto, orig=cls.eval_derivs):
            calls.append((self, np.shape(x)))
            return orig(self, x, upto)

        monkeypatch.setattr(cls, "eval_derivs", counted)
    fresh = dataclasses.replace(fields)  # new leaves, bound to the counted methods
    n = 512
    for N_list in ((100,), (100, 1000, 10000)):
        calls.clear()
        verify_oscillation_ratios(fresh, N_list, n)
        on_q = sorted(id(obj) for obj, shape in calls if shape == (1, n))
        assert on_q == sorted(map(id, (fields.v, fields.w, fields.a))), N_list


def test_tail_bound_is_the_per_call_bound(fields):
    # the window's q bounds, and so the tail bound, do not depend on n
    for n in (64, 2048):
        assert fields.tail_bound == ref_tail_bound(fields, fields.window_domain(n))


def test_verify_refuses_bad_N_before_evaluating(fields, monkeypatch):
    def unexpected(*args):
        raise AssertionError("the window was evaluated")

    monkeypatch.setattr(witness, "values_of", unexpected)
    for N_list in ((), (100, 0)):
        with pytest.raises(PreconditionError):
            verify_oscillation_ratios(fields, N_list, 256)


def test_verify_keeps_no_whole_window_array(fields):
    # three N at n = 1024: the three-pass form peaked at 47.1 MiB of traced
    # memory, the one-pass form at 20.2 MiB
    verify_oscillation_ratios(fields, (100,), 128)  # memo caches and plans
    tracemalloc.start()
    try:
        verify_oscillation_ratios(fields, (100, 1000, 10000), 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
