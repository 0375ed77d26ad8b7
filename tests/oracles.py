"""Independent oracles used by the tests.

The flow-generator oracle recomputes the generating Hamiltonian of a flow
word entirely in the free associative algebra: the word maps to the group
element W(tau) = prod_i exp(c_i(tau) X_i) (pointwise inverse maps to the
series inverse), and the generator is V = W' W^{-1}, rewritten into the
Lyndon basis per tau power.  This shares no code path with the Lie-series
pullback exp(-c(tau) ad_X) used by flows.path_generator.

The reference arithmetic is LiePoly's bracket, sum and scaling on plain
{Lyndon word: Fraction} maps, with every basis pair rewritten through the
envelope afresh.

The field oracle differentiates closed-form sympy expressions with the
coordinate bracket {f, g} = f_q g_p - f_p g_q.

The jet oracle is the earlier Jet2 arithmetic: each product formed on its
own with a fresh array per term, sums as a fold of +, differences as the
sum with a negated copy, and every Taylor coefficient divided by k!.
Its Poisson bracket forms both terms of F_q G_p - F_p G_q, also where a
factor is a structural zero.

The witness oracle is the three-pass verification: whole-window arrays of
the unperturbed double bracket, then per N of the perturbed one and of
u'^2 R and R, each reduced with numpy over the whole window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial

import numpy as np
import sympy as sp

from bracketlab import flows, witness
from bracketlab.brackets import BracketField
from bracketlab.fields import values_of
from bracketlab.jets import Jet2
from bracketlab.liepoly import LiePoly, bracket
from bracketlab.lyndon import (
    env_add_into,
    env_commutator,
    env_mul,
    expand_standard_bracketing,
    lie_envelope_to_lyndon,
)
from bracketlab.reporting import check

# -- envelope tau-series -------------------------------------------------------


class EnvSeries:
    """coeffs[k] is an envelope polynomial (dict word -> Fraction); the
    empty word "" is the unit."""

    def __init__(self, coeffs: list[dict], truncation: int, max_degree: int):
        self.coeffs = coeffs
        self.T = truncation
        self.D = max_degree

    @classmethod
    def unit(cls, T: int, D: int) -> "EnvSeries":
        return cls([{"": Fraction(1)}] + [{} for _ in range(T)], T, D)

    def prune(self) -> "EnvSeries":
        for c in self.coeffs:
            for w in [w for w, v in c.items() if len(w) > self.D or not v]:
                del c[w]
        return self

    def mul(self, other: "EnvSeries") -> "EnvSeries":
        out = [dict() for _ in range(self.T + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.T or not b:
                    continue
                env_add_into(out[i + j], env_mul(a, b))
        return EnvSeries(out, self.T, self.D).prune()

    def add(self, other: "EnvSeries", scale=1) -> "EnvSeries":
        out = [dict(c) for c in self.coeffs]
        for k, c in enumerate(other.coeffs):
            env_add_into(out[k], c, scale)
        return EnvSeries(out, self.T, self.D).prune()

    def d_dtau(self) -> "EnvSeries":
        out = [dict() for _ in range(self.T + 1)]
        for k in range(1, self.T + 1):
            out[k - 1] = {w: Fraction(k) * v for w, v in self.coeffs[k].items()}
        return EnvSeries(out, self.T, self.D)

    def inverse(self) -> "EnvSeries":
        # split W = C0 + (tau terms); C0 is group-like with unit constant
        # word, so it inverts by degree-nilpotent geometric series, after
        # which the tau part inverts by tau-nilpotent geometric series
        c0 = self.coeffs[0]
        assert c0.get("", 0) == 1, "group element must have unit constant term"
        c0_inv = _env_unit_inverse(c0, self.D)
        c0_inv_series = EnvSeries([dict(c0_inv)] + [{} for _ in range(self.T)], self.T, self.D)
        n = c0_inv_series.mul(self).add(EnvSeries.unit(self.T, self.D), -1)
        assert not n.coeffs[0], "normalized series must start at the unit"
        out = EnvSeries.unit(self.T, self.D)
        power = EnvSeries.unit(self.T, self.D)
        for k in range(1, self.T + 1):
            power = power.mul(n)
            out = out.add(power, (-1) ** k)
        return out.mul(c0_inv_series)


def _env_unit_inverse(c0: dict, D: int) -> dict:
    """(1 + M)^{-1} for an envelope element with unit empty-word part;
    M raises word length, so the geometric series stops at degree D."""
    m = {w: v for w, v in c0.items() if w}
    out = {"": Fraction(1)}
    power = {"": Fraction(1)}
    for k in range(1, D + 1):
        power = {w: v for w, v in env_mul(power, m).items() if len(w) <= D}
        if not power:
            break
        env_add_into(out, power, (-1) ** k)
    return out


def _exp_factor(factor: flows.Factor, T: int, D: int) -> EnvSeries:
    # exp(c(tau) X): sum_k c^k / k! X^k; the power of X is bounded by the
    # degree cap D (constant parts of c contribute at every tau order)
    x_env = {w: c for w, c in factor.generator.terms.items()}
    c_poly = list(factor.time) + [Fraction(0)] * (T + 1 - len(factor.time))
    out = EnvSeries.unit(T, D)
    xk = {"": Fraction(1)}
    ck = [Fraction(1)] + [Fraction(0)] * T  # c^0
    fact = 1
    for k in range(1, D + 1):
        xk = {w: v for w, v in env_mul(xk, x_env).items() if len(w) <= D}
        if not xk:
            break
        new_ck = [Fraction(0)] * (T + 1)
        for i, a in enumerate(ck):
            if not a:
                continue
            for j, b in enumerate(c_poly[: T + 1 - i]):
                if b:
                    new_ck[i + j] += a * b
        ck = new_ck
        fact *= k
        term = [
            {w: v * ck[t] / fact for w, v in xk.items()} if ck[t] else {}
            for t in range(T + 1)
        ]
        out = out.add(EnvSeries(term, T, D))
    return out.prune()


def _word_element(word: flows.FlowWord, T: int, D: int) -> EnvSeries:
    word = word.normalized()
    if isinstance(word, flows.Factor):
        return _exp_factor(word, T, D)
    if isinstance(word, flows.Product):
        out = _word_element(word.children[0], T, D)
        for child in word.children[1:]:
            out = out.mul(_word_element(child, T, D))
        return out
    if isinstance(word, flows.Inverse):
        return _word_element(word.child, T, D).inverse()
    raise TypeError(word)


def oracle_generator(word: flows.FlowWord, T: int) -> list[LiePoly]:
    """Generator series V = W' W^{-1} as Lyndon-basis coefficients.

    W is carried one tau order beyond T so its derivative is complete
    through tau^T; degree truncation is a graded-algebra quotient, so one
    extra degree keeps every component of V up to degree T+1 exact.
    """
    W = _word_element(word, T + 1, T + 2)
    V = W.d_dtau().mul(W.inverse())
    out = []
    for k in range(T + 1):
        terms = lie_envelope_to_lyndon(V.coeffs[k])
        out.append(LiePoly({w: c for w, c in terms.items() if len(w) <= T + 1}, T + 1))
    return out


# -- reference Lie arithmetic on {Lyndon word: Fraction} maps ---------------------


def ref_bracket(p: dict, q: dict, max_degree: int) -> dict:
    out: dict = {}
    for u, cu in p.items():
        for v, cv in q.items():
            if len(u) + len(v) > max_degree:
                continue
            env = env_commutator(expand_standard_bracketing(u), expand_standard_bracketing(v))
            for w, cw in lie_envelope_to_lyndon(env).items():
                out[w] = out.get(w, 0) + cu * cv * cw
    return {w: c for w, c in out.items() if c}


def ref_add(p: dict, q: dict, max_degree: int) -> dict:
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c and len(w) <= max_degree}


def ref_scale(p: dict, s) -> dict:
    return {w: c * s for w, c in p.items() if c * s}


def ref_json(terms: dict) -> list[dict]:
    return [
        {"lyndon": w, "num": terms[w].numerator, "den": terms[w].denominator}
        for w in sorted(terms, key=lambda s: (len(s), s))
    ]


# -- sympy field oracle ----------------------------------------------------------

P_SYM, Q_SYM = sp.symbols("p q")


def sym_bracket(f: sp.Expr, g: sp.Expr) -> sp.Expr:
    return sp.diff(f, Q_SYM) * sp.diff(g, P_SYM) - sp.diff(f, P_SYM) * sp.diff(g, Q_SYM)


def sym_grid_values(expr: sp.Expr, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    fn = sp.lambdify((P_SYM, Q_SYM), sp.expand(expr), "numpy")
    out = fn(P, Q)
    return np.broadcast_to(np.asarray(out, dtype=float), P.shape)


# -- reference jet arithmetic ---------------------------------------------------------


def _ref_triangle(order: int) -> list[tuple[int, int]]:
    return [(i, t - i) for t in range(order + 1) for i in range(t + 1)]


def _ref_product(a: dict, b: dict, m: int) -> dict:
    out = {}
    for i1, j1 in _ref_triangle(m):
        x = a.get((i1, j1))
        if x is None:
            continue
        for (i2, j2), y in b.items():
            if i1 + i2 + j1 + j2 <= m:
                ij = (i1 + i2, j1 + j2)
                out[ij] = out[ij] + x * y if ij in out else x * y
    return out


def ref_jet_mul(a: Jet2, b: Jet2) -> Jet2:
    m = min(a.order, b.order)
    return Jet2(m, _ref_product(a.coeffs, b.coeffs, m))


def ref_jet_add(a: Jet2, b: Jet2) -> Jet2:
    m = min(a.order, b.order)
    out = {ij: c for ij, c in a.coeffs.items() if sum(ij) <= m}
    for ij, c in b.coeffs.items():
        if sum(ij) <= m:
            out[ij] = out[ij] + c if ij in out else c
    return Jet2(m, out)


def ref_jet_sub(a: Jet2, b: Jet2) -> Jet2:
    return ref_jet_add(a, Jet2(b.order, {ij: -c for ij, c in b.coeffs.items()}))


def ref_sum_of_products(pairs: list) -> Jet2:
    return reduce(ref_jet_add, [ref_jet_mul(a, b) for a, b in pairs])


def ref_from_univariate(derivs: list, order: int, axis: str) -> Jet2:
    return Jet2(order, {
        ((k, 0) if axis == "p" else (0, k)): np.asarray(derivs[k], dtype=float) / factorial(k)
        for k in range(min(order + 1, len(derivs)))
    })


def ref_jet_sin(u: Jet2) -> Jet2:
    m = u.order
    s, c = np.sin(u.value), np.cos(u.value)
    derivs = [[s, c, -s, -c][k % 4] for k in range(m + 1)]
    z = {ij: c for ij, c in u.coeffs.items() if ij != (0, 0)}
    out = {(0, 0): derivs[0]}
    zk = z
    for k in range(1, m + 1):
        if k > 1:
            zk = _ref_product(zk, z, m)
        f = derivs[k] / factorial(k)
        for ij, c in zk.items():
            out[ij] = out[ij] + c * f if ij in out else c * f
    return Jet2(m, out)


def ref_poisson_jet(F: Jet2, G: Jet2) -> Jet2:
    """{F, G} = F_q G_p - F_p G_q with both terms formed, structurally zero
    factors included."""
    return ref_jet_sub(ref_jet_mul(F.dq(), G.dp()), ref_jet_mul(F.dp(), G.dq()))


# -- whole-window witness verification --------------------------------------------


def _ref_window_values(fields: list, dom) -> list[np.ndarray]:
    chunk = 128
    p, q = dom.coords()
    out = [np.empty((dom.n, dom.n)) for _ in fields]
    for i0 in range(0, dom.n, chunk):
        for arr, vals in zip(out, values_of(fields, (p[i0 : i0 + chunk], q))):
            arr[i0 : i0 + chunk] = vals
    return out


def ref_tail_bound(wf, dom) -> float:
    """The tail bound outside the window of dom, computed afresh."""
    q = witness._fine_axis(wf.w)
    extra = witness._fine_axis(wf.a.left)
    q = np.unique(np.concatenate([q, extra, witness._fine_axis(wf.a.right)]))
    qo = q[(q < dom.bounds[2]) | (q > dom.bounds[3])]
    wd = wf.w.eval_derivs(qo, 1)
    ad = wf.a.eval_derivs(qo, 1)
    tail = np.abs(wd[1]) * (1.0 + np.abs(ad[0])) ** 2 + np.abs(ad[1] * wd[0]) * (
        np.abs(ad[0]) + 1.0
    )
    return float(tail.max()) if qo.size else 0.0


def _ref_r_report(wf, N: int, dom, vals: np.ndarray) -> dict:
    amax = float(np.max(np.abs(vals)))
    tail_bound = ref_tail_bound(wf, dom)
    return {
        "N": N,
        "checks": {
            "max_abs_R_window": check(amax, witness.R_BOUND, "<=", "sampled"),
            "tail_bound_outside_window": check(tail_bound, witness.R_BOUND, "<=", "sampled"),
        },
    }


def ref_r_field(wf, N: int, n: int) -> dict:
    dom = wf.window_domain(n)
    (vals,) = _ref_window_values([wf.field_R(dom, N)], dom)
    return _ref_r_report(wf, N, dom, vals)


def ref_verify_oscillation_ratios(wf, N_list, n: int) -> dict:
    """The three-pass form: whole-window D0, then per N the whole-window DN
    and u'^2 R with R, and a fresh R report."""
    dom = wf.window_domain(n)
    F, G = wf.field_F(dom), wf.field_G(dom)
    (D0,) = _ref_window_values([BracketField(BracketField(F, G), F)], dom)
    d0_max, d0_min = float(D0.max()), float(D0.min())
    rows = []
    for N in N_list:
        FN = wf.field_FN(dom, N)
        (DN,) = _ref_window_values([BracketField(BracketField(FN, G), FN)], dom)
        R = wf.field_R(dom, N)
        model, rvals = _ref_window_values([wf.field_uprime_sq(dom) * R, R], dom)
        rrep = _ref_r_report(wf, N, dom, rvals)
        resid = float(np.max(np.abs(DN - model)))
        rows.append({
            "N": N,
            "ratio_max": float(DN.max()) / d0_max,
            "ratio_min": float(DN.min()) / d0_min,
            "residual": resid,
            "residual_times_N": resid * N,
            "maxR": max(c["value"] for c in rrep["checks"].values()),
        })
    ratios = [max(row["ratio_max"], row["ratio_min"]) for row in rows]
    rn = [row["residual_times_N"] for row in rows]
    checks = {
        "max_abs_R": check(max(row["maxR"] for row in rows), witness.R_BOUND, "<=", "sampled"),
        "ratio_within_envelope": check(
            max(r - 2.0 * row["residual"] / d0_max for r, row in zip(ratios, rows)),
            witness.R_BOUND, "<=", "sampled",
        ),
        "residual_times_N_spread": check(
            max(rn) / min(rn) if min(rn) > 0 else np.inf, 2.0, "<=", "sampled"
        ),
    }
    large = [r for r, row in zip(ratios, rows) if row["N"] >= 1000]
    if large:
        checks["ratio_at_N_ge_1000"] = check(max(large), 0.995, "<=", "sampled")
    return {"denominator_max": d0_max, "denominator_min": d0_min, "rows": rows, "checks": checks}


# -- moved from the library: only tests call them ----------------------------------


def fixed_pullback(word: flows.FlowWord, H: LiePoly, max_degree: int) -> LiePoly:
    """Pi^c(H) = H o c^{-1} for a tau-independent word c, applied exactly:
    H o phi_X^s = sum_k s^k / k! {..{H, X}.., X} per factor, with s = -c."""
    factors = flows._factors(word)
    if any(any(c[1:]) for _, c in factors):
        raise ValueError("fixed_pullback needs a tau-independent word")
    out = H.truncated(max_degree)
    for X, c in reversed(factors):
        s = -c[0] if c else Fraction(0)
        term, total = out, out
        for k in range(1, max_degree + 1):
            term = bracket(term, X, max_degree).scale(s / k)
            total = total + term
        out = total
    return out


def _mobius(n: int) -> int:
    m, p, count = n, 2, 0
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def witt_number(degree: int) -> int:
    """Dimension of the degree-d homogeneous part of the free Lie algebra
    on two letters (Witt's formula)."""
    divisors = [e for e in range(1, degree + 1) if degree % e == 0]
    return sum(_mobius(degree // e) * 2**e for e in divisors) // degree
