import numpy as np
import pytest
from scipy.optimize import minimize

from bracketlab import ratescan
from bracketlab.domain import Domain2
from bracketlab.errors import PreconditionError
from bracketlab.fields import AnalyticField, sin_p, sin_q
from bracketlab.jets import jet_cos
from bracketlab.ratescan import (
    OscillatoryFamily,
    RandomFourierFamily,
    default_families,
    exponent_fit,
    functional_value,
    measure_feasibility,
    phi_bar_upper,
    rate_report,
)


@pytest.fixture(scope="module")
def pair():
    dom = Domain2.torus(128)
    return sin_p(dom), sin_q(dom)


def test_exponent_fit_exact_power_laws():
    eps = np.logspace(-4, -1, 8)
    fit = exponent_fit([(e, e ** (2 / 3)) for e in eps])
    assert fit["exponent"] == pytest.approx(2 / 3, abs=1e-12)
    assert fit["C"] == pytest.approx(1.0, abs=1e-12)
    fit = exponent_fit([(e, 3 * e ** (1 / 3)) for e in eps])
    assert fit["exponent"] == pytest.approx(1 / 3, abs=1e-12)
    assert fit["C"] == pytest.approx(3.0, rel=1e-10)


def test_exponent_fit_with_noise():
    rng = np.random.default_rng(5)
    eps = np.logspace(-4, -1, 12)
    pts = [(e, e ** (2 / 3) * (1 + 0.01 * rng.uniform(-1, 1))) for e in eps]
    fit = exponent_fit(pts)
    assert 0.66 <= fit["exponent"] <= 0.68


def test_exponent_fit_drops_nonpositive():
    eps = np.logspace(-3, -1, 5)
    pts = [(e, e) for e in eps]
    pts[0] = (pts[0][0], 0.0)
    fit = exponent_fit(pts)
    assert fit["n_used"] == 4 and len(fit["dropped"]) == 1
    with pytest.raises(PreconditionError):
        exponent_fit([(e, -1.0) for e in eps])


def test_functional_values(pair):
    F, G = pair
    assert functional_value("maxFG", F, G) == pytest.approx(1.0, abs=1e-12)
    assert functional_value("double", F, G) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(PreconditionError):
        functional_value("osc", F, G)


def test_eps_zero_returns_base_exactly(pair):
    F, G = pair
    out = phi_bar_upper(F, G, 0.0, which="maxFG")
    assert out["best"] == functional_value("maxFG", F, G)
    assert out["decrease"] == 0.0 and out["evals"] == 0


def test_strict_decrease_found_at_small_eps(pair):
    F, G = pair
    out = phi_bar_upper(F, G, 1e-2, which="maxFG", budget=150, seed=0)
    assert out["best"] < out["base"]
    assert out["decrease"] > 1e-3


def test_monotone_in_eps(pair):
    F, G = pair
    b1 = phi_bar_upper(F, G, 1e-3, which="maxFG", budget=120, seed=0)["best"]
    b2 = phi_bar_upper(F, G, 1e-2, which="maxFG", budget=120, seed=0)["best"]
    b3 = phi_bar_upper(F, G, 1e-1, which="maxFG", budget=120, seed=0)["best"]
    assert b3 <= b2 + 1e-9 <= b1 + 2e-9


def test_feasibility_measured_on_members(pair):
    F, G = pair
    eps = 3e-3
    fam = OscillatoryFamily()
    for x in fam.sweep(eps)[:10]:
        assert measure_feasibility(fam, F, G, eps, x) <= eps * (1 + 1e-12)
    rf = RandomFourierFamily(0, n_members=4)
    for x in rf.sweep(eps):
        assert measure_feasibility(rf, F, G, eps, x) <= eps * (1 + 1e-12)


def test_random_fourier_norm_certificate(pair):
    F, G = pair
    rf = RandomFourierFamily(7, n_members=3, oversample=256)
    eps = 1e-2
    Fp, Gp = rf.member(F, G, eps, np.array([1.0, 1.0]))
    # certified on a much finer grid than the member used
    fine = Domain2.torus(1024).grid()
    dev = np.max(np.abs(Fp.values(fine) - F.values(fine)))
    assert dev <= eps * (1 + 1e-9)


def test_nelder_mead_runs_through_the_module_minimize(monkeypatch):
    # tracing wraps ratescan.minimize, so the refinement must call it by that name
    dom = Domain2.torus(32)
    F, G = sin_p(dom), sin_q(dom)
    plain = phi_bar_upper(F, G, 1e-2, budget=60)
    scipy_minimize, methods = ratescan.minimize, []

    def counting(fun, x0, **options):
        methods.append(options["method"])
        return scipy_minimize(fun, x0, **options)

    monkeypatch.setattr(ratescan, "minimize", counting)
    assert phi_bar_upper(F, G, 1e-2, budget=60) == plain
    assert methods == ["Nelder-Mead"]


@pytest.mark.parametrize("which", ["maxFG", "double"])
def test_rows_report_the_member_that_was_evaluated(which):
    # Nelder-Mead moves frac past 1; the row reports the clamped member
    dom = Domain2.torus(32)
    F, G = sin_p(dom), sin_q(dom)
    families = {f.name: f for f in default_families(0)}
    for eps in (1e-3, 1e-2, 1e-1):
        row = phi_bar_upper(F, G, eps, which=which, families=list(families.values()),
                            budget=60)
        fam, x = families[row["family"]], np.array(row["params"])
        assert fam.params(x) == row["params"]
        assert row["params"][-1] <= 1.0
        assert functional_value(which, *fam.member(F, G, eps, x)) == row["best"]


def test_deterministic_under_seed(pair):
    F, G = pair
    a = phi_bar_upper(F, G, 1e-2, which="maxFG", budget=80, seed=3)
    b = phi_bar_upper(F, G, 1e-2, which="maxFG", budget=80, seed=3)
    assert a == b


def test_budget_validation(pair):
    F, G = pair
    with pytest.raises(PreconditionError):
        phi_bar_upper(F, G, 1e-2, budget=0)


def test_rate_report_requires_two_decades(pair):
    F, G = pair
    with pytest.raises(PreconditionError):
        rate_report(F, G, [1e-2, 2e-2, 4e-2])


def test_rate_report_maxfg_checks(pair):
    F, G = pair
    rep = rate_report(F, G, np.logspace(-3, -1, 5), which="maxFG", budget=60, seed=0)
    assert rep["checks"]["strict_decrease_everywhere"]["pass"]
    assert rep["checks"]["decreases_below_5_psi13_eps23"]["pass"]
    assert rep["psi"] == pytest.approx(2.0, abs=1e-9)
    assert rep["metadata"]["one_sided"].startswith("every best value")


def test_rate_report_builds_the_families_once(monkeypatch):
    # each member's two norm bounds are computed once, not once per eps
    calls = []
    monkeypatch.setattr(RandomFourierFamily, "_norm_bound", lambda self, c, p: calls.append(1) or 1.0)
    dom = Domain2.torus(32)
    n_sweep = len(OscillatoryFamily().sweep(1e-2)) + RandomFourierFamily(0).n_members
    rate_report(sin_p(dom), sin_q(dom), [1e-3, 1e-2, 1e-1], budget=n_sweep, seed=0)
    assert len(calls) == 2 * RandomFourierFamily(0).n_members


def test_rate_report_commuting_pair_flags_psi_zero():
    dom = Domain2.torus(128)
    F = sin_p(dom)
    G = AnalyticField(dom, lambda jp, jq: jet_cos(jp))
    rep = rate_report(F, G, np.logspace(-3, -1, 5), which="maxFG", budget=40, seed=0)
    assert rep["fit"].get("psi_zero") and rep["fit"].get("two_thirds_reference_skipped")
    # a degenerate pair is reported with the same one-sidedness statement
    full = rate_report(sin_p(dom), sin_q(dom), np.logspace(-3, -1, 5), budget=40, seed=0)
    assert "exponent" in full["fit"] and rep["metadata"] == full["metadata"]


def test_double_functional_decreases_found(pair):
    F, G = pair
    out = phi_bar_upper(F, G, 1e-2, which="double", budget=60, seed=0)
    assert out["decrease"] > 0.0


def test_default_families_with_witness(pair):
    from bracketlab.witness import build_witness

    wf = build_witness(check=False)
    fams = default_families(0, witness_fields=wf)
    assert [f.name for f in fams] == ["oscillatory", "modulated", "random-fourier"]
    dom = wf.window_domain(128)
    F, G = wf.field_F(dom), wf.field_G(dom)
    mod = fams[1]
    x = mod.sweep(1e-2)[0]
    assert measure_feasibility(mod, F, G, 1e-2, x) <= 1e-2 * (1 + 1e-12)


def test_empty_family_list_returns_base_with_warning(pair):
    F, G = pair
    out = phi_bar_upper(F, G, 1e-2, which="maxFG", families=[], budget=10)
    assert out["best"] == out["base"]
    assert out["warning"] is not None


def test_witness_pair_double_rate_report():
    from bracketlab.witness import build_witness

    wf = build_witness(check=False)
    dom = wf.window_domain(192)
    F, G = wf.field_F(dom), wf.field_G(dom)
    fams = default_families(0, witness_fields=wf)
    rep = rate_report(
        F, G, np.logspace(-3, -1, 5), which="double", families=fams, budget=50, seed=0
    )
    # upper-bound decreases must stay consistent with a 1/3-power envelope
    pos = [(r["eps"], r["decrease"]) for r in rep["rows"] if r["decrease"] > 0]
    assert len(pos) >= 3
    assert rep["fit"]["exponent"] >= 1.0 / 3.0 - 0.05


def test_random_fourier_bound_covers_every_refined_sup():
    # each perturbation's sup, refined in closed form: the 20 largest nodes
    # of a 512^2 grid, then Nelder-Mead; it must not exceed the certified bound
    family = RandomFourierFamily(0)
    n, k = 512, np.arange(1.0, RandomFourierFamily.modes + 1)
    t = np.arange(n) * (2 * np.pi / n)
    for index in range(family.n_members):
        for coeffs, phases, bound in family._sample(index):
            def s(p, q, coeffs=coeffs, phases=phases):
                return np.sin(k * p + phases[0]) @ coeffs @ np.sin(k * q + phases[1])

            grid = np.abs(np.sin(np.outer(t, k) + phases[0]) @ coeffs
                          @ np.sin(np.outer(t, k) + phases[1]).T)
            sup = max(
                -minimize(lambda x: -abs(s(*x)), [t[i // n], t[i % n]], method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-15}).fun
                for i in np.argpartition(grid.ravel(), -20)[-20:]
            )
            assert sup <= bound, (index, sup / bound)
