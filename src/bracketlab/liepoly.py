"""Exact free-Lie-algebra elements in the Lyndon basis.

Coefficients are integer numerators over one reduced positive denominator.
The Lyndon basis is a Z-basis, so brackets of basis elements have integer
coefficients and all arithmetic here is on ints; floating point is not
used, so bracket identities hold exactly.  Everything above
``max_degree`` is silently truncated, which keeps the algebra closed for
series work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import lyndon
from .errors import BoundsError

Scalar = lyndon.Scalar


def _check_scalar(x: Scalar) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact rational scalar required, got {type(x).__name__}")


class LiePoly:
    """A finitely supported map from Lyndon words to exact rationals, as
    ``num[word] / den`` with ``den > 0``, gcd(den, *num.values()) == 1, no
    zero numerators, and zero as ``({}, 1)``.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("num", "den", "max_degree")

    def __init__(self, terms: dict[str, Scalar], max_degree: int):
        for word, coeff in terms.items():
            if _check_scalar(coeff) and not lyndon.is_lyndon(word) and len(word) <= max_degree:
                raise ValueError(f"{word!r} is not a Lyndon word over {lyndon.ALPHABET}")
        den = lcm(*(c.denominator for c in terms.values()))
        self._set({w: c.numerator * (den // c.denominator) for w, c in terms.items()},
                  den, max_degree)

    def _set(self, num: dict[str, int], den: int, max_degree: int) -> None:
        """num / den with zero and over-degree terms dropped, reduced."""
        if not isinstance(max_degree, int) or max_degree < 1:
            raise BoundsError(f"max_degree must be a positive integer, got {max_degree!r}")
        num = {w: c for w, c in num.items() if c and len(w) <= max_degree}
        g = gcd(den, *num.values())
        self.num = {w: c // g for w, c in num.items()} if g != 1 else num
        self.den = den // g
        self.max_degree = max_degree

    @classmethod
    def _of(cls, num: dict[str, int], den: int, max_degree: int) -> "LiePoly":
        """From integer numerators over den > 0, all keys Lyndon words."""
        out = cls.__new__(cls)
        out._set(num, den, max_degree)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int) -> "LiePoly":
        return cls._of({}, 1, max_degree)

    @classmethod
    def letter(cls, name: str, max_degree: int) -> "LiePoly":
        return cls({name: 1}, max_degree)

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> dict[str, Fraction]:
        """A new {word: Fraction} map of the nonzero coefficients."""
        return {w: Fraction(c, self.den) for w, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def degrees(self) -> set[int]:
        return {len(w) for w in self.num}

    def coefficient(self, word: str) -> Fraction:
        return Fraction(self.num.get(word, 0), self.den)

    def truncated(self, max_degree: int) -> "LiePoly":
        return LiePoly._of(self.num, self.den, max_degree)

    # -- linear structure ------------------------------------------------

    @classmethod
    def combination(cls, pairs: list[tuple[Scalar, "LiePoly"]], max_degree: int) -> "LiePoly":
        """sum s * p over the (s, p) pairs, truncated at max_degree: integer
        numerators over one common denominator, reduced once."""
        pairs = [(s, p) for s, p in pairs if _check_scalar(s)]
        den = lcm(*[s.denominator * p.den for s, p in pairs])
        out: dict[str, int] = {}
        for s, p in pairs:
            f = s.numerator * (den // (s.denominator * p.den))
            for w, c in p.num.items():
                out[w] = out.get(w, 0) + c * f
        return cls._of(out, den, max_degree)

    def __add__(self, other: "LiePoly") -> "LiePoly":
        return LiePoly.combination([(1, self), (1, other)], min(self.max_degree, other.max_degree))

    def __neg__(self) -> "LiePoly":
        return self.scale(-1)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return LiePoly.combination([(1, self), (-1, other)], min(self.max_degree, other.max_degree))

    def scale(self, s: Scalar) -> "LiePoly":
        return LiePoly.combination([(s, self)], self.max_degree)

    def __mul__(self, s: Scalar) -> "LiePoly":
        return self.scale(s)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LiePoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        return " + ".join(f"{c}*({w})" for w, c in _sorted(self.terms)) or "0"

    def to_json(self) -> list[dict]:
        """Sorted list of {"lyndon", "num", "den"} records."""
        return [{"lyndon": w, "num": c.numerator, "den": c.denominator}
                for w, c in _sorted(self.terms)]


def _sorted(terms: dict[str, Fraction]) -> list[tuple[str, Fraction]]:
    return sorted(terms.items(), key=lambda t: (len(t[0]), t[0]))


@lru_cache(maxsize=None)
def _basis_pair_bracket(u: str, v: str) -> tuple[tuple[str, int], ...]:
    """[b(u), b(v)] in the Lyndon basis, as a hashable tuple of (word, int)."""
    if u == v:
        return ()
    env = lyndon.env_commutator(
        lyndon.expand_standard_bracketing(u), lyndon.expand_standard_bracketing(v)
    )
    rewritten = lyndon.lie_envelope_to_lyndon(env)
    return tuple(sorted(rewritten.items()))


def bracket(p: LiePoly, q: LiePoly, max_degree: int) -> LiePoly:
    """Lie bracket of two basis-form elements, truncated at max_degree.

    Bilinear and antisymmetric by construction; each basis pair is
    rewritten through the associative envelope and memoized.  Numerators
    multiply as ints over the denominator p.den * q.den.
    """
    out: dict[str, int] = {}
    for u, cu in p.num.items():
        for v, cv in q.num.items():
            if len(u) + len(v) > max_degree:
                continue
            s = cu * cv
            for w, cw in _basis_pair_bracket(u, v):
                out[w] = out.get(w, 0) + s * cw
    return LiePoly._of(out, p.den * q.den, max_degree)
