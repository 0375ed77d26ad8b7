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
c'(tau) X + Pi^f_tau(B(tau)): B carried through the exact pullback by the
initial map, H |-> H o phi_X^{-c(0)} = sum_k (-c(0))^k/k! {..{H,X}..,X},
and then through the solution of d/dtau P(H) = -{P(H), c'(tau) X}.

With the bracket convention {F, G} = (d/dt)|_0 F o g_t, the pullback of a
fixed element H by the path of f is H o f_tau^{-1}, which is what the ODE
above encodes.  All arithmetic is exact rational.
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


def _theta_poly(X: LiePoly, s: Fraction, H: LiePoly, max_degree: int) -> LiePoly:
    """H o phi_X^s = sum_k s^k / k! {..{H, X}.., X}; each bracket raises
    the degree, so the sum terminates at the truncation."""
    out = H.truncated(max_degree)
    term = out
    coeff = Fraction(1)
    for k in range(1, max_degree + 1):
        term = bracket(term, X, max_degree)
        if term.is_zero():
            break
        coeff = coeff * s / k
        out = out + term.scale(coeff)
    return out


def _pullback_coeffs(
    gen: list[LiePoly], seed: LiePoly, upto: int, max_degree: int
) -> list[LiePoly]:
    """Coefficients of the ODE part of Pi^a_tau(seed), for a path with
    generator coefficients gen.

    Solves d/dtau U = -{U, A(tau)}, U(0) = seed, order by order:
    (k+1) U_{k+1} = -sum_{i+j=k} {U_i, A_j}.
    """
    U = [seed]
    for k in range(upto):
        acc = LiePoly.zero(max_degree)
        for i in range(k + 1):
            a = gen[k - i]
            if U[i].is_zero() or a.is_zero():
                continue
            acc = acc + bracket(U[i], a, max_degree)
        U.append(acc.scale(Fraction(-1, k + 1)))
    return U


def path_generator(word: FlowWord, truncation: int) -> LieSeries:
    """Lie series of the generating Hamiltonian of tau |-> word(tau).

    Requires 1 <= truncation <= 8.  Coefficients are kept to Lie degree
    truncation+1; for words whose factor times are linear in tau the
    grading makes the tau^k coefficient pure degree k+1, and that bound
    stays a valid truncation for constant or mixed time polynomials (the
    initial fixed pullbacks only add higher-degree corrections).
    """
    if not isinstance(truncation, int) or not 1 <= truncation <= MAX_TRUNCATION:
        raise BoundsError(
            f"truncation must be an integer in [1, {MAX_TRUNCATION}], got {truncation!r}"
        )
    T, max_degree = truncation, truncation + 1
    gen = [LiePoly.zero(max_degree) for _ in range(T + 1)]
    # f.b, with f = phi_X^{c(tau)}, is generated by c'(tau) X + Pi^f_tau(B)
    for X, c in reversed(_factors(word)):
        X = X.truncated(max_degree)
        dc = poly_derivative(c)
        left = [X.scale(dc[k] if k < len(dc) else 0) for k in range(T + 1)]
        out = list(left)
        for j, seed in enumerate(gen):
            if c and c[0]:
                seed = _theta_poly(X, -c[0], seed, max_degree)
            if seed.is_zero():
                continue
            for m, u in enumerate(_pullback_coeffs(left, seed, T - j, max_degree)):
                out[j + m] = out[j + m] + u
        gen = out
    return LieSeries(gen, T)
