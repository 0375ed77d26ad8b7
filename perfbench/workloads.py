"""The four benchmark workloads: input generation, the op, and its oracle.

Every workload is a closed loop with one op in flight.  Op ``i`` draws its
inputs from ``default_rng([seed, i + 1])`` and run-level draws come from
``default_rng([seed])``, so the same seed gives the same inputs whatever
order or subset of ops a run reaches.  Library calls receive only these
generated inputs.

Library functions are looked up on their modules at call time, so the
traced worker's wrappers see every call.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from bracketlab import expansions, flows, functionals, ratescan, witness
from bracketlab.domain import Domain2
from bracketlab.fields import sin_p, sin_q, trig_polynomial
from bracketlab.liepoly import LiePoly

LH_GRID = 256
# 512^2 window points: 4x the 256^2 torus of lh-sweep
WITNESS_GRID = 512
RATE_GRID = 128
RATE_BUDGET = 60  # 44 family sweep points, then 16 Nelder-Mead evaluations
RATE_EPS_LOG10 = (-4.0, -1.0)
SYMBOLIC_TRUNCATIONS = (6, 7, 8)
EXPANSION_TRUNCATION = 8
# the coefficients a, b of F, G and the time scale c of a symbolic word's
# four factors: twelve nonzero rationals, drawn without replacement
MAGNITUDES = tuple(Fraction(n, d) for n, d in (
    (1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (1, 3),
    (2, 3), (1, 1), (2, 1), (1, 2), (1, 3), (3, 1),
))
# relative slack on "deviation <= eps", as the library's own tests allow
FEASIBILITY_RTOL = 1e-12


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i + 1])


class Workload:
    """One workload; subclasses set up in ``__init__`` (timed as set-up)."""

    name = ""
    # traced runs report counts over ops 0 .. count_ops-1 only
    count_ops = 1

    def inputs(self, i: int):
        raise NotImplementedError

    def describe(self, inp) -> object:
        """JSON-able form of the inputs, for seed checks."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> list[str]:
        """Oracle: an empty list when the result is correct."""
        raise NotImplementedError

    def to_json(self, inp, result) -> object:
        """The op's result as canonical_json accepts it, for its digest."""
        return result


class LhSweep(Workload):
    """lh_check on random 3x3 trigonometric pairs: jets, fields, brackets."""

    name = "lh-sweep"
    count_ops = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.domain = Domain2.torus(LH_GRID)
        self.tol = functionals.tol_disc(self.domain)

    def inputs(self, i: int):
        # the distribution of the CLI's lh-check random pairs
        rng = op_rng(self.seed, i)
        decay = np.array([1.0, 0.5, 0.25])
        out = []
        for _ in range(2):
            coeffs = rng.normal(size=(3, 3)) * decay[None, :] * decay[:, None]
            coeffs /= float(np.sum(np.abs(coeffs)))
            out.append((coeffs, rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, 2 * np.pi, 3)))
        return out

    def describe(self, inp):
        return [[c, pp, pq] for c, pp, pq in inp]

    def run(self, inp):
        F, G = (trig_polynomial(self.domain, *spec) for spec in inp)
        return functionals.lh_check(F, G)

    def check(self, inp, result):
        if not result["margin"] >= -self.tol:
            return [f"LH margin {result['margin']!r} below -tol_disc {-self.tol!r}"]
        return []


class WitnessWindow(Workload):
    """verify_oscillation_ratios on the witness window: piecewise evaluation."""

    name = "witness-window"
    count_ops = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.fields = witness.build_witness()
        rng = np.random.default_rng([seed])
        # one N per decade of [1e2, 1e5): every three ops face the 0.995 bound
        self.N_cycle = [int(rng.integers(10**d, 10 ** (d + 1))) for d in (2, 3, 4)]

    def inputs(self, i: int):
        return self.N_cycle[i % len(self.N_cycle)]

    def describe(self, inp):
        return inp

    def run(self, N):
        return witness.verify_oscillation_ratios(self.fields, N_list=(N,), n=WITNESS_GRID)

    def check(self, N, result):
        bad = []
        rows = result["rows"]
        if [row["N"] for row in rows] != [N]:
            bad.append(f"rows are for N={[row['N'] for row in rows]}, asked N={N}")
        for row in rows:
            if not row["maxR"] <= witness.R_BOUND:
                bad.append(f"N={row['N']}: max|R| {row['maxR']!r} > {witness.R_BOUND}")
            ratio = max(row["ratio_max"], row["ratio_min"])
            if row["N"] >= 1000 and not ratio <= 0.995:
                bad.append(f"N={row['N']}: ratio {ratio!r} > 0.995")
        return bad


class RateScan(Workload):
    """phi_bar_upper on sin p, sin q: many perturbed fields around one base."""

    name = "rate-scan"
    count_ops = 2
    functionals_per_op = ("maxFG", "double")

    def __init__(self, seed: int):
        self.seed = seed
        dom = Domain2.torus(RATE_GRID)
        self.F, self.G = sin_p(dom), sin_q(dom)
        self.families = ratescan.default_families(seed)
        # family construction includes each member's tables (the random-Fourier
        # norm bounds), which the library builds on first use; building them
        # here keeps that once-per-run cost out of the first op
        eps = 10.0 ** RATE_EPS_LOG10[1]
        for fam in self.families:
            for x in fam.sweep(eps):
                fam.member(self.F, self.G, eps, x)

    def inputs(self, i: int):
        lo, hi = RATE_EPS_LOG10
        return float(10.0 ** op_rng(self.seed, i).uniform(lo, hi))

    def describe(self, inp):
        return inp

    def run(self, eps):
        # one scan point: maxFG (order-1 jets) then double (order-2 jets)
        return {
            which: ratescan.phi_bar_upper(
                self.F, self.G, eps, which=which, families=self.families,
                budget=RATE_BUDGET, seed=self.seed,
            )
            for which in self.functionals_per_op
        }

    def check(self, eps, result):
        bad = []
        by_name = {fam.name: fam for fam in self.families}
        for which in self.functionals_per_op:
            r = result[which]
            if r["eps"] != eps:
                bad.append(f"{which}: scanned eps {r['eps']!r}, asked {eps!r}")
            if not r["best"] <= r["base"]:
                bad.append(f"{which}: best {r['best']!r} above base {r['base']!r}")
            if r["family"] is None:
                continue
            x = np.asarray(r["params"], dtype=float)
            dev = ratescan.measure_feasibility(by_name[r["family"]], self.F, self.G, eps, x)
            if not dev <= eps * (1.0 + FEASIBILITY_RTOL):
                bad.append(f"{which}: member deviates {dev!r} > eps {eps!r}")
        return bad


class Symbolic(Workload):
    """Exact Lie series of w.w^-1 and the two paper expansions; no numpy."""

    name = "symbolic"
    count_ops = 4

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int):
        rng = op_rng(self.seed, i)
        # every word uses the same twelve magnitudes, in a random order with
        # random signs, so op cost depends little on the draw
        mags = [MAGNITUDES[k] for k in rng.permutation(len(MAGNITUDES))]
        coeffs = iter([m if rng.random() < 0.5 else -m for m in mags])

        def factor():
            gen = (LiePoly.letter("F", 2).scale(next(coeffs))
                   + LiePoly.letter("G", 2).scale(next(coeffs)))
            return flows.Factor(gen, flows.poly_scale(flows.TAU, next(coeffs)))

        # one fixed shape, a factor, a nested product of two factors and a
        # factor: words of different shapes differ in cost by up to 30%
        first = factor()
        middle = flows.Product((factor(), factor()))
        return flows.Product((first, middle, factor()))

    def describe(self, word):
        def walk(w):
            if isinstance(w, flows.Factor):
                return [w.generator.to_json(), [[c.numerator, c.denominator] for c in w.time]]
            return [walk(c) for c in w.children]

        return walk(word)

    def run(self, word):
        loop = flows.Product((word, flows.Inverse(word)))
        return {
            "loop": [flows.path_generator(loop, T) for T in SYMBOLIC_TRUNCATIONS],
            "symmetrized": expansions.verify_symmetrized_expansion(EXPANSION_TRUNCATION),
            "conjugated": expansions.verify_conjugated_expansion(EXPANSION_TRUNCATION),
        }

    def check(self, word, result):
        bad = [
            f"T={T}: generator of w.w^-1 is not zero"
            for T, series in zip(SYMBOLIC_TRUNCATIONS, result["loop"])
            if not series.is_zero()
        ]
        for key in ("symmetrized", "conjugated"):
            if result[key].match is not True:
                bad.append(f"{key} expansion does not match")
        return bad

    def to_json(self, word, result):
        return {
            "loop": [s.to_json() for s in result["loop"]],
            "symmetrized": result["symmetrized"].to_json(),
            "conjugated": result["conjugated"].to_json(),
        }


WORKLOADS = {w.name: w for w in (LhSweep, WitnessWindow, RateScan, Symbolic)}
