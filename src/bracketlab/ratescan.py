"""Empirical profiling of the perturbation convergence rate.

For a functional Phi and a pair (F, G), the perturbed infimum over the
eps-ball in the uniform norm is probed by searching parametric
perturbation families.  Each functional value is a maximum over grid
nodes, which is a lower bound on the member's sup, so a reported best
value and decrease are sampled at the grid size and bound the infimum and
the true decrease in no known direction; the report says so.  The sharp
perturbations are not known in closed form; the family designs below are
heuristics seeded near the theoretically balanced oscillation scales
eps^{-1/4} .. eps^{-1/2}, plus O(1) frequencies whose soft-rescaling
members guarantee strict decreases for the double-bracket functional.
"""

from __future__ import annotations

import numpy as np

from .brackets import BracketField
from .domain import Domain2
from .jets import jet_sin
from .errors import PreconditionError
from .fields import JetField, ProfileField, trig_polynomial, values_of
from .functionals import double_brackets, psi as psi_functional
from .reporting import check

REFERENCE_EXPONENTS = (1.0 / 3.0, 0.5, 2.0 / 3.0)


# -- functionals under perturbation ---------------------------------------------


def functional_value(which: str, F: JetField, G: JetField) -> float:
    if which == "maxFG":
        return float(BracketField(F, G).values().max())
    if which == "double":
        d1, d2 = double_brackets(F, G)
        return float(d1.max()) + float(d2.max())
    raise PreconditionError(f"unknown functional {which!r} (use 'maxFG' or 'double')")


# -- perturbation families --------------------------------------------------------


def _clip_frac(frac: float) -> float:
    return float(min(1.0, max(1e-6, frac)))


class OscillatoryFamily:
    """F' = F + f eps sin(lambda F + phi_F), G' likewise; the perturbation
    is a composition with the field itself, so it is analytic and its sup
    norm is exactly f eps."""

    name = "oscillatory"

    def sweep(self, eps: float) -> list[np.ndarray]:
        lams = [0.5, 1.0, 2.0]
        lams += [c * eps**ex for ex in (-0.25, -1.0 / 3.0, -0.5) for c in (1.0, 2.0)]
        phases = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)
        return [np.array([np.log(lam), pf, pf, 1.0]) for lam in lams for pf in phases]

    def params(self, x) -> list[float]:
        """[log lambda, phi_F, phi_G, frac] of the member that x names."""
        return [float(np.clip(x[0], -50.0, 50.0)), float(x[1]), float(x[2]), _clip_frac(x[3])]

    def member(self, F: JetField, G: JetField, eps: float, x: np.ndarray):
        log_lam, pf, pg, frac = self.params(x)
        lam = float(np.exp(log_lam))
        amp = frac * eps

        def perturbed(X, phase):
            return X.map(lambda b: b + jet_sin(b.scale(lam) + phase).scale(amp))

        return perturbed(F, pf), perturbed(G, pg)


class ModulatedFamily:
    """F' = F + f eps A(q) sin(lambda u(p) + phi) for split-variable pairs,
    mirroring the counterexample's perturbation shape.  A is the witness
    modulation normalized to unit sup norm; G is left unperturbed."""

    name = "modulated"

    def __init__(self, u_fn, a_fn, a_norm: float):
        self.u_fn, self.a_fn, self.a_norm = u_fn, a_fn, a_norm

    def sweep(self, eps: float) -> list[np.ndarray]:
        lams = [c * eps**ex for ex in (-0.25, -1.0 / 3.0, -0.5) for c in (0.5, 1.0, 2.0)]
        return [
            np.array([np.log(lam), phase, 1.0])
            for lam in lams
            for phase in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)
        ]

    def params(self, x) -> list[float]:
        """[log lambda, phi, frac] of the member that x names."""
        return [float(np.clip(x[0], -50.0, 50.0)), float(x[1]), _clip_frac(x[2])]

    def member(self, F: JetField, G: JetField, eps: float, x: np.ndarray):
        log_lam, phase, frac = self.params(x)
        lam = float(np.exp(log_lam))
        amp = frac * eps / self.a_norm
        U, A = ProfileField(F.domain, self.u_fn, "p"), ProfileField(F.domain, self.a_fn, "q")
        return F + (A * U.map(lambda b: jet_sin(b.scale(lam) + phase))) * amp, G


class RandomFourierFamily:
    """F' = F + f eps s with s a random trigonometric polynomial of low
    mode count, scaled so its true sup norm is certified <= 1.  The bound
    is the max of |s| on an oversampled torus grid, computed by the same
    trig_polynomial builder that forms the member, divided by the guard
    cos(pi d / n)^2 for degree d = modes on an n-point grid: every point
    lies within pi/n of a node on each axis, and by Bernstein-Szego a
    degree-d polynomial stays above ||s|| cos(d t) at distance t from its
    maximiser.  The scale f eps / bound is folded into the coefficients.
    Modes run 1..3 on each axis."""

    name = "random-fourier"
    modes = 3

    def __init__(self, seed: int, n_members: int = 8, oversample: int = 512):
        self.seed = int(seed)
        self.n_members = n_members
        self.oversample = oversample
        self._cache: dict[int, tuple] = {}

    def sweep(self, eps: float) -> list[np.ndarray]:
        return [np.array([float(i), 1.0]) for i in range(self.n_members)]

    def _sample(self, index: int):
        # each member owns a generator derived from (master seed, index),
        # so evaluation order cannot change the results
        if index not in self._cache:
            rng = np.random.default_rng((self.seed, index))
            K = self.modes
            cf = rng.normal(size=(K, K))
            cg = rng.normal(size=(K, K))
            phf = rng.uniform(0, 2 * np.pi, size=(2, K))
            phg = rng.uniform(0, 2 * np.pi, size=(2, K))
            self._cache[index] = tuple(
                (c, ph, self._norm_bound(c, ph)) for c, ph in ((cf, phf), (cg, phg))
            )
        return self._cache[index]

    def _norm_bound(self, coeffs, phases) -> float:
        n = self.oversample
        vals = trig_polynomial(Domain2.torus(n), coeffs, phases[0], phases[1]).values()
        guard = np.cos(np.pi * self.modes / n) ** 2
        return float(np.max(np.abs(vals))) / guard

    def params(self, x) -> list[float]:
        """[member index, frac] of the member that x names."""
        return [float(int(round(x[0])) % self.n_members), _clip_frac(x[1])]

    def member(self, F: JetField, G: JetField, eps: float, x: np.ndarray):
        index, frac = self.params(x)
        return tuple(
            X + trig_polynomial(X.domain, c * (frac * eps / norm), ph[0], ph[1])
            for X, (c, ph, norm) in zip((F, G), self._sample(int(index)))
        )


# -- search -----------------------------------------------------------------------


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on the first call: only a scan that
    reaches its Nelder-Mead step pays for loading scipy.optimize."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def default_families(seed: int = 0, witness_fields=None) -> list:
    fams: list = [OscillatoryFamily(), RandomFourierFamily(seed)]
    if witness_fields is not None:
        wf = witness_fields
        a_norm = wf.a.uniform_norm
        fams.insert(
            1,
            ModulatedFamily(
                u_fn=lambda x, m: wf.u.eval_derivs(x, m),
                a_fn=lambda x, m: wf.a.eval_derivs(x, m),
                a_norm=a_norm,
            ),
        )
    return fams


def measure_feasibility(family, F: JetField, G: JetField, eps: float, x) -> float:
    """Measured sup deviation of a family member from (F, G); tests check
    this never exceeds eps."""
    Fp, Gp = family.member(F, G, eps, x)
    f, fp, g, gp = values_of([F, Fp, G, Gp])
    return max(float(np.max(np.abs(fp - f))), float(np.max(np.abs(gp - g))))


def phi_bar_upper(
    F: JetField,
    G: JetField,
    eps: float,
    which: str = "maxFG",
    families: list | None = None,
    budget: int = 400,
    seed: int = 0,
) -> dict:
    """Smallest sampled value of the functional over the family members in
    the eps-ball: coarse sweep over each family's parameter grid, then a
    Nelder-Mead refinement from the best sweep point.  Deterministic for
    a fixed seed.  With exact sups this would be an upper bound on the
    perturbed infimum; grid maxima make it a sampled value.  The reported
    params are those of the evaluated member, as the family clamps them."""
    if eps < 0:
        raise PreconditionError("eps must be >= 0")
    if budget < 1:
        raise PreconditionError("need a positive evaluation budget")
    base_value = functional_value(which, F, G)
    if eps == 0.0:
        return {
            "eps": 0.0,
            "best": base_value,
            "base": base_value,
            "decrease": 0.0,
            "family": None,
            "params": None,
            "evals": 0,
            "warning": None,
        }
    families = families if families is not None else default_families(seed)
    evals = 0
    best = base_value
    best_family = None
    best_x = None
    warning = None

    # Feasibility is structural: each family scales a sup-norm-certified
    # unit perturbation by frac * eps <= eps, so every member it can
    # produce lies in the eps-ball.  measure_feasibility() spot-checks it.
    def evaluate(family, x) -> float:
        nonlocal evals
        Fp, Gp = family.member(F, G, eps, x)
        evals += 1
        return functional_value(which, Fp, Gp)

    for family in families:
        for x in family.sweep(eps):
            if evals >= budget:
                break
            val = evaluate(family, x)
            if val < best:
                best, best_family, best_x = val, family, x
    if evals == 0:
        warning = "budget exhausted before any member was evaluated"
    if best_family is not None and evals < budget and len(best_x) > 1:
        res = minimize(
            lambda x: evaluate(best_family, x),
            best_x,
            method="Nelder-Mead",
            options={"maxfev": min(80, budget - evals), "xatol": 1e-4, "fatol": 1e-12},
        )
        if res.fun < best:
            best, best_x = float(res.fun), res.x
    return {
        "eps": eps,
        "best": float(best),
        "base": base_value,
        "decrease": base_value - float(best),
        "family": best_family.name if best_family is not None else None,
        "params": None if best_x is None else best_family.params(best_x),
        "evals": evals,
        "warning": warning,
    }


# -- fitting and reporting ----------------------------------------------------------


def exponent_fit(points: list[tuple[float, float]]) -> dict:
    """OLS fit of log d = exponent log eps + log C; non-positive decreases
    are dropped with a warning, and at least 3 surviving points are
    required."""
    dropped = [(e, d) for e, d in points if d <= 0.0]
    kept = [(e, d) for e, d in points if d > 0.0]
    if len(kept) < 3:
        raise PreconditionError(
            f"exponent fit needs >= 3 positive-decrease points, got {len(kept)}"
        )
    x = np.log(np.array([e for e, _ in kept]))
    y = np.log(np.array([d for _, d in kept]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return {
        "exponent": float(slope),
        "C": float(np.exp(intercept)),
        "residual": resid,
        "n_used": len(kept),
        "dropped": dropped,
    }


def rate_report(
    F: JetField,
    G: JetField,
    eps_grid,
    which: str = "maxFG",
    families: list | None = None,
    budget: int = 400,
    seed: int = 0,
) -> dict:
    """Full pipeline: per-eps search, power-law fit, and the consistency
    annotations against the 2/3- and 1/3-law reference curves."""
    eps_grid = [float(e) for e in eps_grid]
    if len(eps_grid) >= 2 and max(eps_grid) / min(eps_grid) < 100.0:
        raise PreconditionError("eps grid should span at least two decades")
    psi_val = psi_functional(F, G)
    # built once: a family caches its members, which depend on (seed, index) only
    families = families if families is not None else default_families(seed)
    rows = []
    for eps in sorted(eps_grid):
        r = phi_bar_upper(F, G, eps, which=which, families=families, budget=budget, seed=seed)
        rows.append(r)

    checks: dict = {}
    psi_zero = psi_val <= 1e-12
    try:
        fit = exponent_fit([(r["eps"], r["decrease"]) for r in rows])
    except PreconditionError:
        if not psi_zero:
            raise
        # degenerate pair: the functional cannot be decreased along these
        # families, so there is no power law to fit
        fit = {"skipped": "no positive decreases (degenerate pair)"}
    if psi_zero and (which == "maxFG" or "skipped" in fit):
        fit["psi_zero"] = True
        fit["two_thirds_reference_skipped"] = True
    if "skipped" not in fit:
        if which == "maxFG":
            if not psi_zero:
                checks["decreases_below_5_psi13_eps23"] = check(
                    max(r["decrease"] / (psi_val ** (1.0 / 3.0) * r["eps"] ** (2.0 / 3.0))
                        for r in rows),
                    5.0, "<=", "sampled",
                )
                checks["exponent_not_below_two_thirds"] = check(
                    fit["exponent"], 0.55, ">=", "fitted")
            checks["strict_decrease_everywhere"] = check(
                min(r["decrease"] for r in rows), 0.0, ">", "sampled")
        else:
            fit["C13_envelope"] = max(
                r["decrease"] / r["eps"] ** (1.0 / 3.0) for r in rows if r["decrease"] > 0)
            checks["exponent_at_least_one_third"] = check(
                fit["exponent"], 1.0 / 3.0 - 0.05, ">=", "fitted")
        fit["observed_exponent_position"] = _position(fit["exponent"])

    return {
        "which": which,
        "seed": seed,
        "budget": budget,
        "grid_n": F.domain.n,
        "rows": rows,
        "fit": fit,
        "psi": psi_val,
        "checks": checks,
        "reference_exponents": list(REFERENCE_EXPONENTS),
        "metadata": {
            "one_sided": "every best value and decrease is sampled at grid_n: a maximum "
            "over grid nodes is a lower bound on a member's sup, so neither bounds the "
            "perturbed infimum or the true decrease in a known direction",
            "family_design": "heuristic; oscillation scales seeded at eps^{-1/4..-1/2} "
            "plus O(1) soft-rescaling frequencies",
        },
    }


def _position(exponent: float) -> str:
    refs = [(1.0 / 3.0, "1/3"), (0.5, "1/2"), (2.0 / 3.0, "2/3")]
    below = [name for val, name in refs if exponent < val - 0.02]
    above = [name for val, name in refs if exponent > val + 0.02]
    near = [name for val, name in refs if abs(exponent - val) <= 0.02]
    return f"near {near}" if near else f"above {above}, below {below}"
