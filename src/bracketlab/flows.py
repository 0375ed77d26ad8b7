"""Flow words and the Lie series of their generating Hamiltonians.

A FlowWord describes a path of diffeomorphisms, tau |-> word(tau), built
from factors phi_X^{c(tau)} (the flow of a degree-1 generator X run for
time c(tau)), ordered products, pointwise inverses, and conjugations.
Every word is a plain product of factors: phi_X^{-c} inverts phi_X^{c}, so
the inverse of phi_{X1}^{c1} ... phi_{Xn}^{cn} is
phi_{Xn}^{-cn} ... phi_{X1}^{-c1}, and c.a.c^{-1} is a product too.

``path_generator`` returns the truncated Lie series of the time-dependent
Hamiltonian generating that path as one fold over the factors from the
right.  A product f.b, with f = phi_X^{c(tau)}, is generated by
c'(tau) X + exp(-c(tau) ad_X) B(tau), so the fold is
gen <- c'(tau) X + exp(-c(tau) ad_X) gen, where ad_X H = {H, X} and
exp(-c ad_X) H = sum_k (-c)^k/k! {..{H,X}..,X} = H o phi_X^{-c}.

With the bracket convention {F, G} = (d/dt)|_0 F o g_t, the pullback of a
fixed element H by the path of f is H o f_tau^{-1}, which is that Lie
series.  All arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundsError
from .liepoly import LiePoly, Scalar, bracket

MAX_TRUNCATION = 8

# Polynomials in tau are coefficient tuples (c0, c1, ...), exact rationals.
TimePoly = tuple[Fraction, ...]


def time_poly(*coeffs: Scalar) -> TimePoly:
    return tuple(Fraction(c) for c in coeffs)


TAU = time_poly(0, 1)


def poly_derivative(p: TimePoly) -> TimePoly:
    return tuple(Fraction(k) * c for k, c in enumerate(p))[1:] or (Fraction(0),)


def poly_scale(p: TimePoly, s: Scalar) -> TimePoly:
    s = Fraction(s)
    return tuple(c * s for c in p)


# -- flow words --------------------------------------------------------------


class FlowWord:
    """Base class; concrete nodes below."""

    def normalized(self) -> "FlowWord":
        """A Conjugate as its product c.a.c^{-1}; any other word as itself."""
        return self


@dataclass(frozen=True)
class Factor(FlowWord):
    generator: LiePoly
    time: TimePoly

    def __post_init__(self):
        if self.generator.is_zero() or self.generator.degrees() != {1}:
            raise ValueError("factor generators must have degree exactly 1")


@dataclass(frozen=True)
class Product(FlowWord):
    children: tuple[FlowWord, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("a product needs at least one child")


@dataclass(frozen=True)
class Inverse(FlowWord):
    child: FlowWord


@dataclass(frozen=True)
class Conjugate(FlowWord):
    """c . a . c^{-1}; normalizes to exactly that product."""

    child: FlowWord
    by: FlowWord

    def normalized(self) -> Product:
        return Product((self.by, self.child, Inverse(self.by)))


def commutator(a: FlowWord, b: FlowWord) -> FlowWord:
    """[a, b] = a b a^{-1} b^{-1}."""
    return Product((a, b, Inverse(a), Inverse(b)))


# -- Lie series ---------------------------------------------------------------


class LieSeries:
    """Truncated formal power series in tau with LiePoly coefficients."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs: list[LiePoly], truncation: int):
        if len(coeffs) != truncation + 1:
            raise ValueError("need exactly truncation+1 coefficients")
        self.coeffs = list(coeffs)
        self.truncation = truncation

    def coefficient(self, k: int) -> LiePoly:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieSeries):
            return NotImplemented
        return self.truncation == other.truncation and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        parts = [f"tau^{k}: {c!r}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "LieSeries(" + ("; ".join(parts) if parts else "0") + ")"

    def to_json(self) -> list[dict]:
        return [
            {"tau_power": k, "terms": c.to_json()} for k, c in enumerate(self.coeffs)
        ]


# -- generator calculus -------------------------------------------------------


def _factors(word: FlowWord) -> list[tuple[LiePoly, TimePoly]]:
    """The word as its ordered factors phi_X^{c(tau)}, as (X, c) pairs."""
    if isinstance(word, Factor):
        return [(word.generator, word.time)]
    if isinstance(word, Product):
        return [f for child in word.children for f in _factors(child)]
    if isinstance(word, Inverse):
        return [(X, poly_scale(c, -1)) for X, c in reversed(_factors(word.child))]
    if isinstance(word, Conjugate):
        return _factors(word.normalized())
    raise TypeError(f"not a FlowWord: {word!r}")


def _prepend_factor(
    X: LiePoly, c: TimePoly, series: list[LiePoly], max_degree: int
) -> list[LiePoly]:
    """The generator c'(tau) X + exp(-c(tau) ad_X) series of phi_X^{c(tau)}.b,
    where series generates b and exp(-c ad_X) series =
    sum_k (-c(tau))^k / k! {..{series, X}.., X}, truncated at the series'
    last power tau^T and at Lie degree max_degree.

    (-c)^k / k! is a sparse {tau power: coefficient} map that starts at
    tau^(k v), v the tau-valuation of c, so ad_X^k of the tau^j coefficient
    is formed only while j + k v <= T; each bracket with the degree-1 X
    raises the degree, so the sum also ends at max_degree.  Each tau^j
    coefficient collects its (scalar, term) pairs and is reduced once.
    """
    T = len(series) - 1
    dc = poly_derivative(c) + (0,) * T
    pairs = [[(1, p), (dc[j], X)] for j, p in enumerate(series)]
    c = {i: a for i, a in enumerate(c) if a}
    v = min(c, default=T + 1)
    power, terms, k = {0: Fraction(1)}, dict(enumerate(series)), 1
    while terms:
        nxt: dict[int, Fraction] = {}
        for m, b in power.items():
            for i, a in c.items():
                if m + i <= T:
                    nxt[m + i] = nxt.get(m + i, 0) - a * b / k
        power = {m: b for m, b in nxt.items() if b}
        terms = {j: bracket(t, X, max_degree)
                 for j, t in terms.items() if j + k * v <= T and not t.is_zero()}
        for j, t in terms.items():
            for m, b in power.items():
                if j + m <= T:
                    pairs[j + m].append((b, t))
        k += 1
    return [LiePoly.combination(p, max_degree) for p in pairs]


def path_generator(word: FlowWord, truncation: int) -> LieSeries:
    """Lie series of the generating Hamiltonian of tau |-> word(tau).

    Requires 1 <= truncation <= 8.  Coefficients are kept to Lie degree
    truncation+1; for words whose factor times are linear in tau the
    grading makes the tau^k coefficient pure degree k+1, and that bound
    stays a valid truncation for constant or mixed time polynomials (a
    constant part of c(tau) only adds higher-degree corrections).
    """
    if not isinstance(truncation, int) or not 1 <= truncation <= MAX_TRUNCATION:
        raise BoundsError(
            f"truncation must be an integer in [1, {MAX_TRUNCATION}], got {truncation!r}"
        )
    T, max_degree = truncation, truncation + 1
    gen = [LiePoly.zero(max_degree)] * (T + 1)
    for X, c in reversed(_factors(word)):
        gen = _prepend_factor(X.truncated(max_degree), c, gen, max_degree)
    return LieSeries(gen, T)
