"""Flow words and the Lie series of their generating Hamiltonians.

A FlowWord describes a path of diffeomorphisms, tau |-> word(tau), built
from factors phi_X^{c(tau)} (the flow of a degree-1 generator X run for
time c(tau)), ordered products, pointwise inverses, and conjugations.
``path_generator`` returns the truncated Lie series of the time-dependent
Hamiltonian generating that path, using:

* a factor with time polynomial c generates c'(tau) * X;
* a product a.b generates A(tau) + Pb(tau) where Pb is B(tau) carried
  through the pullback of a, the operator solving
  d/dtau P(H) = -{P(H), A(tau)} from P_0 = pullback by the initial map
  a_0 (the identity for paths whose factor times vanish at tau = 0);
* an inverse generates the unique series cancelling its partner, solved
  triangularly order by order from gen(a . a^{-1}) = 0;
* a tau-independent word generates nothing and acts purely through its
  exact pullback H |-> H o c^{-1} = sum_k (-s)^k/k! {..{H,X}..,X}.

With the bracket convention {F, G} = (d/dt)|_0 F o g_t, the pullback of a
fixed element H by the path of a is H o a_tau^{-1}, which is what the ODE
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

    def normalized(self) -> FlowWord:
        return Product(tuple(c.normalized() for c in self.children))


@dataclass(frozen=True)
class Inverse(FlowWord):
    child: FlowWord

    def normalized(self) -> FlowWord:
        return Inverse(self.child.normalized())


@dataclass(frozen=True)
class Conjugate(FlowWord):
    """c . a . c^{-1}; normalizes to exactly that product."""

    child: FlowWord
    by: FlowWord

    def normalized(self) -> FlowWord:
        by = self.by.normalized()
        return Product((by, self.child.normalized(), Inverse(by)))


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

    @classmethod
    def zero(cls, truncation: int, max_degree: int) -> "LieSeries":
        return cls([LiePoly.zero(max_degree) for _ in range(truncation + 1)], truncation)

    def coefficient(self, k: int) -> LiePoly:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "LieSeries") -> "LieSeries":
        T = min(self.truncation, other.truncation)
        return LieSeries([self.coeffs[k] + other.coeffs[k] for k in range(T + 1)], T)

    def __neg__(self) -> "LieSeries":
        return LieSeries([-c for c in self.coeffs], self.truncation)

    def __sub__(self, other: "LieSeries") -> "LieSeries":
        return self + (-other)

    def scale(self, s: Scalar) -> "LieSeries":
        return LieSeries([c.scale(s) for c in self.coeffs], self.truncation)

    def differentiated(self) -> "LieSeries":
        """d/dtau, truncation drops by one."""
        if self.truncation == 0:
            raise BoundsError("cannot differentiate a constant-only series")
        out = [self.coeffs[k + 1].scale(k + 1) for k in range(self.truncation)]
        return LieSeries(out, self.truncation - 1)

    def integrated(self, max_degree: int) -> "LieSeries":
        """tau-antiderivative with zero constant term, truncation grows by one."""
        out = [LiePoly.zero(max_degree)]
        out += [self.coeffs[k].scale(Fraction(1, k + 1)) for k in range(self.truncation + 1)]
        return LieSeries(out, self.truncation + 1)

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


def _is_constant_time(time: TimePoly) -> bool:
    return all(c == 0 for c in time[1:])


def is_fixed_word(word: FlowWord) -> bool:
    """True when the word describes a single tau-independent diffeomorphism
    (every factor time polynomial is constant)."""
    word = word.normalized()
    if isinstance(word, Factor):
        return _is_constant_time(word.time)
    if isinstance(word, Product):
        return all(is_fixed_word(c) for c in word.children)
    if isinstance(word, Inverse):
        return is_fixed_word(word.child)
    raise TypeError(word)


def _flatten_fixed(word: FlowWord) -> list[tuple[LiePoly, Fraction]]:
    """A fixed word as an ordered list of (generator, time) factor powers."""
    word = word.normalized()
    if isinstance(word, Factor):
        s = word.time[0] if word.time else Fraction(0)
        return [(word.generator, s)]
    if isinstance(word, Product):
        out = []
        for c in word.children:
            out += _flatten_fixed(c)
        return out
    if isinstance(word, Inverse):
        return [(X, -s) for X, s in reversed(_flatten_fixed(word.child))]
    raise TypeError(word)


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


def fixed_pullback(word: FlowWord, H: LiePoly, max_degree: int | None = None) -> LiePoly:
    """Pi^c(H) = H o c^{-1} for a tau-independent word c, applied exactly."""
    if not is_fixed_word(word):
        raise ValueError("fixed_pullback needs a tau-independent word")
    if max_degree is None:
        max_degree = H.max_degree
    out = H
    for X, s in reversed(_flatten_fixed(word)):
        out = _theta_poly(X, -s, out, max_degree)
    return out


def _fixed_pullback_series(word: FlowWord, series: LieSeries, max_degree: int) -> LieSeries:
    coeffs = [fixed_pullback(word, c, max_degree) for c in series.coeffs]
    return LieSeries(coeffs, series.truncation)


def _at_zero(word: FlowWord) -> FlowWord:
    """The tau = 0 snapshot of a word, as a fixed word."""
    word = word.normalized()
    if isinstance(word, Factor):
        s = word.time[0] if word.time else Fraction(0)
        return Factor(word.generator, (s,))
    if isinstance(word, Product):
        return Product(tuple(_at_zero(c) for c in word.children))
    if isinstance(word, Inverse):
        return Inverse(_at_zero(word.child))
    raise TypeError(word)


def _starts_at_identity(word: FlowWord) -> bool:
    return all(s == 0 for _, s in _flatten_fixed(_at_zero(word)))


def _pullback_coeffs(gen: LieSeries, seed: LiePoly, upto: int, max_degree: int) -> list[LiePoly]:
    """Coefficients of Pi^a_tau(seed) for a path with generator series gen.

    Solves d/dtau U = -{U, A(tau)}, U(0) = seed, order by order:
    (k+1) U_{k+1} = -sum_{i+j=k} {U_i, A_j}.
    """
    U = [seed]
    for k in range(upto):
        acc = LiePoly.zero(max_degree)
        for i in range(k + 1):
            a = gen.coeffs[k - i]
            if U[i].is_zero() or a.is_zero():
                continue
            acc = acc + bracket(U[i], a, max_degree)
        U.append(acc.scale(Fraction(-1, k + 1)))
    return U


def _pullback_apply(
    gen: LieSeries, series: LieSeries, max_degree: int, init: FlowWord | None = None
) -> LieSeries:
    """Sum_j tau^j Pi^a_tau(B_j) truncated, applied coefficient-wise.

    For a path a with a_0 != id the pullback factorizes as (ODE evolution
    from the identity, driven by gen(a)) composed after Pi^{a_0}, so each
    coefficient is carried through the fixed initial pullback first.
    """
    T = min(gen.truncation, series.truncation)
    out = [LiePoly.zero(max_degree) for _ in range(T + 1)]
    for j in range(T + 1):
        seed = series.coeffs[j]
        if init is not None:
            seed = fixed_pullback(init, seed, max_degree)
        if seed.is_zero():
            continue
        U = _pullback_coeffs(gen, seed, T - j, max_degree)
        for m, u in enumerate(U):
            out[j + m] = out[j + m] + u
    return LieSeries(out, T)


def _inverse_generator(gen: LieSeries, max_degree: int, init: FlowWord | None = None) -> LieSeries:
    """Generator of the pointwise-inverse path: the unique series Abar with
    A(tau) + Pi^a_tau(Abar(tau)) = 0, solved triangularly.  The order-k
    equation reads Pi^{a_0}(Abar_k) + known lower-order terms = -A_k, so
    each new coefficient is recovered through the inverse initial pullback.
    """
    T = gen.truncation
    inv_init = Inverse(init) if init is not None else None
    partial = [LiePoly.zero(max_degree) for _ in range(T + 1)]
    out: list[LiePoly] = []
    for k in range(T + 1):
        seed_k = -(gen.coeffs[k] + partial[k])  # = Pi^{a_0}(Abar_k)
        abar_k = seed_k if inv_init is None else fixed_pullback(inv_init, seed_k, max_degree)
        out.append(abar_k)
        if seed_k.is_zero():
            continue
        U = _pullback_coeffs(gen, seed_k, T - k, max_degree)
        for m, u in enumerate(U):
            partial[k + m] = partial[k + m] + u
    return LieSeries(out, T)


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
    max_degree = truncation + 1
    return _generator(word.normalized(), truncation, max_degree)


def _generator(word: FlowWord, T: int, max_degree: int) -> LieSeries:
    if isinstance(word, Factor):
        dt = poly_derivative(word.time)
        coeffs = []
        for k in range(T + 1):
            c = dt[k] if k < len(dt) else Fraction(0)
            coeffs.append(word.generator.truncated(max_degree).scale(c))
        return LieSeries(coeffs, T)
    if isinstance(word, Product):
        gen = _generator(word.children[-1], T, max_degree)
        for child in reversed(word.children[:-1]):
            if is_fixed_word(child):
                # a fixed map generates nothing; it only transports the
                # tail's Hamiltonian through its (tau-independent) pullback
                gen = _fixed_pullback_series(child, gen, max_degree)
            else:
                left = _generator(child, T, max_degree)
                init = None if _starts_at_identity(child) else _at_zero(child)
                gen = left + _pullback_apply(left, gen, max_degree, init)
        return gen
    if isinstance(word, Inverse):
        if is_fixed_word(word):
            return LieSeries.zero(T, max_degree)
        init = None if _starts_at_identity(word.child) else _at_zero(word.child)
        return _inverse_generator(_generator(word.child, T, max_degree), max_degree, init)
    if isinstance(word, Conjugate):
        return _generator(word.normalized(), T, max_degree)
    raise TypeError(f"not a FlowWord: {word!r}")
