"""Double-bracket functionals and the inequality / identity checks.

Grid extrema are taken over grid nodes only; maxima of smooth fields are
captured to O(h^2), and the default tolerances below are stated in those
terms.  Reductions use numpy's fixed-order pairwise scheme, so repeated
runs on the same grid are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brackets import BracketField, BracketWord, iterated_bracket
from .errors import CheckFailed, PreconditionError
from .fields import JetField, ScaledField, values_of

DEFAULT_TOL_QUAD = 1e-6
DEFAULT_TOL_FLOW = 1e-4
DEFAULT_TOL_SYMMETRY = 1e-12


def tol_disc(domain) -> float:
    """Default discretization tolerance for grid max/min comparisons."""
    return 10.0 * domain.h**2


@dataclass(frozen=True)
class FunctionalVector:
    """Non-negative weights (v1, v2, v3, v4), not all zero."""

    v1: float
    v2: float
    v3: float
    v4: float

    def __post_init__(self):
        vals = (self.v1, self.v2, self.v3, self.v4)
        if any(v < 0 for v in vals):
            raise PreconditionError("functional weights must be non-negative")
        if all(v == 0 for v in vals):
            raise PreconditionError("functional weight vector must be non-zero")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.v1, self.v2, self.v3, self.v4)

    # dihedral generators acting on the weight vector
    def A(self) -> "FunctionalVector":
        return FunctionalVector(self.v2, self.v1, self.v3, self.v4)

    def B(self) -> "FunctionalVector":
        return FunctionalVector(self.v1, self.v2, self.v4, self.v3)

    def C(self) -> "FunctionalVector":
        return FunctionalVector(self.v3, self.v4, self.v1, self.v2)

    def scaled(self, alpha: float, beta: float) -> "FunctionalVector":
        """Weight vector w with Phi^v(alpha F, beta G) = Phi^w(F, G).

        Both double brackets {{F,G},F} and {{F,G},G} scale by alpha^2 beta
        and alpha beta^2 respectively, and v1, v2 weight the first while
        v3, v4 weight the second, so the factors pair up as below.
        """
        a2b = alpha * alpha * beta
        ab2 = alpha * beta * beta
        return FunctionalVector(a2b * self.v1, a2b * self.v2, ab2 * self.v3, ab2 * self.v4)


def double_brackets(F: JetField, G: JetField) -> tuple[np.ndarray, np.ndarray]:
    """Grid values of {{F,G},F} and {{F,G},G}."""
    P = BracketField(F, G)
    return tuple(values_of([BracketField(P, F), BracketField(P, G)]))


def phi_v(
    v: FunctionalVector, F: JetField, G: JetField, check_nonnegative: bool = True
) -> float:
    """v1 max{{F,G},F} - v2 min{{F,G},F} + v3 max{{F,G},G} - v4 min{{F,G},G}.

    Brackets have zero mean, so each max is >= 0 and each min <= 0 up to
    discretization; the weighted combination is asserted non-negative to
    the grid tolerance.
    """
    d1, d2 = double_brackets(F, G)
    val = (
        v.v1 * float(d1.max())
        - v.v2 * float(d1.min())
        + v.v3 * float(d2.max())
        - v.v4 * float(d2.min())
    )
    if check_nonnegative and val < -tol_disc(F.domain):
        raise CheckFailed(f"weighted double-bracket functional came out negative: {val}")
    return val


def psi(F: JetField, G: JetField, positivity_tol: float = 1e-9) -> float:
    """Uniform norm of {{{F,G},F},F} + {{{F,G},G},G} over the grid.

    For compactly supported (or periodic zero-mean) pairs this is strictly
    positive whenever {F,G} is not identically zero, and that is asserted.
    On plain window rectangles the compact-support hypothesis is not
    promised (think F = p, G = q, where the combination vanishes although
    {p,q} = -1), so the assertion is skipped there.
    """
    P = BracketField(F, G)
    term1, term2, pvals = values_of(
        [BracketField(BracketField(P, F), F), BracketField(BracketField(P, G), G), P]
    )
    val = float(np.max(np.abs(term1 + term2)))
    compact_setting = F.domain.kind == "torus" or F.domain.support_margin
    if (
        compact_setting
        and float(np.max(np.abs(pvals))) > positivity_tol
        and not val > 0.0
    ):
        raise CheckFailed("degree-4 bracket combination vanished although {F,G} does not")
    return val


def oscillation(values: np.ndarray) -> float:
    return float(values.max() - values.min())


def lh_check(F: JetField, G: JetField, tol: float | None = None) -> dict:
    """Landau-Hadamard bound for the double bracket:
    max{{F,G},F} >= ||{F,G}||^2 / (2 osc G), reported with its margin."""
    P = BracketField(F, G)
    gvals, pvals, dvals = values_of([G, P, BracketField(P, F)])
    if float(np.max(np.abs(gvals))) == 0.0:
        raise PreconditionError("lh_check requires G not identically zero")
    if tol is None:
        tol = tol_disc(F.domain)
    lhs = float(dvals.max())
    pnorm = float(np.max(np.abs(pvals)))
    rhs = pnorm**2 / (2.0 * oscillation(gvals))
    margin = lhs - rhs
    return {"lhs": lhs, "rhs": rhs, "margin": margin, "pass": margin >= -tol}


def kolmogorov_ratio(
    F: JetField,
    G: JetField,
    N: int | None = None,
    k: int | None = None,
    m: int | None = None,
    bracket_tol: float = 1e-12,
) -> dict:
    """Oscillation of an iterated ad-power bracket and its ratio against
    the ||{F,G}||-power scaling.

    N-form: osc (ad_F)^N G and ratio osc * ||G||^{N-1} / ||{F,G}||^N.
    (k, m)-form: osc (ad_H)^m G with H = (ad_G)^k F and ratio
    osc * ||F||^{k m} ||G||^{m-1} / ||{F,G}||^{(k+1) m}.

    The multiplicative constants these ratios would be compared against
    are not pinned down numerically anywhere we can check, so only the
    ratio is reported.
    """
    if N is not None:
        if k is not None or m is not None:
            raise PreconditionError("give either N or (k, m), not both")
        if N < 1:
            raise PreconditionError(f"N must be >= 1, got {N}")
        word = BracketWord.ad_power(N, "F", "G")
    else:
        if k is None or m is None:
            raise PreconditionError("give N, or both k and m")
        if k < 0 or m < 1:
            raise PreconditionError(f"need k >= 0 and m >= 1, got k={k}, m={m}")
        if (k + 1) * m > 4:
            raise PreconditionError("(k+1)*m must be <= 4 for jet-exact evaluation")
        word = BracketWord.ad_power(m, BracketWord.ad_power(k, "G", "F").tree, "G")
    pvals, fvals, gvals, wvals = values_of(
        [BracketField(F, G), F, G, iterated_bracket(word, F, G)]
    )
    pnorm = float(np.max(np.abs(pvals)))
    if pnorm <= bracket_tol:
        raise PreconditionError("kolmogorov_ratio requires {F,G} not identically zero")
    fnorm, gnorm = float(np.max(np.abs(fvals))), float(np.max(np.abs(gvals)))
    osc = oscillation(wvals)
    if N is not None:
        ratio = osc * gnorm ** (N - 1) / pnorm**N
        return {"form": "adF^N G", "N": N, "osc_value": osc, "ratio": ratio}
    ratio = osc * fnorm ** (k * m) * gnorm ** (m - 1) / pnorm ** ((k + 1) * m)
    return {"form": "adH^m G", "k": k, "m": m, "osc_value": osc, "ratio": ratio}


def integral_identity_check(
    P: JetField, Q: JetField, R: JetField, tol: float = DEFAULT_TOL_QUAD
) -> dict:
    """Integration-by-parts identity int {P,Q} R = int {R,P} Q."""
    dom = P.domain
    pq, rvals, rp, qvals, pvals = values_of([BracketField(P, Q), R, BracketField(R, P), Q, P])
    lhs = dom.integrate(pq * rvals)
    rhs = dom.integrate(rp * qvals)
    scale = max(
        abs(lhs),
        abs(rhs),
        float(np.max(np.abs(pvals))) * float(np.max(np.abs(qvals))),
        1e-300,
    )
    rel_err = abs(lhs - rhs) / scale
    return {"lhs": lhs, "rhs": rhs, "rel_err": rel_err, "pass": rel_err <= tol}


def squared_bracket_identity_check(F: JetField, G: JetField, tol: float = DEFAULT_TOL_QUAD) -> dict:
    """int I(F,G) {F,G} = -int ({{F,G},F}^2 + {{F,G},G}^2) with
    I = {{{F,G},F},F} + {{{F,G},G},G}."""
    dom = F.domain
    P = BracketField(F, G)
    d1 = BracketField(P, F)
    d2 = BracketField(P, G)
    i1, i2, pvals, v1, v2 = values_of([BracketField(d1, F), BracketField(d2, G), P, d1, d2])
    lhs = dom.integrate((i1 + i2) * pvals)
    rhs = -dom.integrate(v1**2 + v2**2)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel_err = abs(lhs - rhs) / scale
    return {"lhs": lhs, "rhs": rhs, "rel_err": rel_err, "pass": rel_err <= tol}


def zero_mean_check(F: JetField, G: JetField, tol: float = DEFAULT_TOL_QUAD) -> dict:
    """The mean of a Poisson bracket vanishes."""
    dom = F.domain
    vals = BracketField(F, G).values()
    integral = dom.integrate(vals)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    resid = abs(integral) / scale
    return {"integral": integral, "residual": resid, "pass": resid <= tol}


def symmetry_check(
    v: FunctionalVector,
    F: JetField,
    G: JetField,
    element: str | tuple[float, float],
    rel_tol: float = DEFAULT_TOL_SYMMETRY,
) -> dict:
    """Dihedral and scaling identities of Phi^v, as same-grid evaluations.

    element: "A" checks Phi^v(F,-G) = Phi^{Av}(F,G); "B" checks
    Phi^v(-F,G) = Phi^{Bv}(F,G); "C" checks Phi^v(-G,-F) = Phi^{Cv}(F,G);
    a pair (alpha, beta) checks the rescaling law.
    """
    if element == "A":
        lhs = phi_v(v, F, ScaledField(G, -1.0))
        rhs = phi_v(v.A(), F, G)
    elif element == "B":
        lhs = phi_v(v, ScaledField(F, -1.0), G)
        rhs = phi_v(v.B(), F, G)
    elif element == "C":
        lhs = phi_v(v, ScaledField(G, -1.0), ScaledField(F, -1.0))
        rhs = phi_v(v.C(), F, G)
    elif isinstance(element, tuple):
        alpha, beta = element
        if not (alpha > 0 and beta > 0):
            raise PreconditionError("scaling factors must be positive")
        lhs = phi_v(v, ScaledField(F, alpha), ScaledField(G, beta))
        rhs = phi_v(v.scaled(alpha, beta), F, G)
    else:
        raise PreconditionError(f"unknown symmetry element {element!r}")
    err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return {"element": str(element), "lhs": lhs, "rhs": rhs, "rel_err": err, "pass": err <= rel_tol}
