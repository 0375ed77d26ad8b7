"""Exact free-Lie-algebra elements in the Lyndon basis.

Coefficients are :class:`fractions.Fraction`; floating point is not used
anywhere in this module, so bracket identities hold exactly.  Everything
above ``max_degree`` is silently truncated, which keeps the algebra
closed for series work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import lyndon
from .errors import BoundsError

Scalar = int | Fraction


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational scalar required, got {type(x).__name__}")


class LiePoly:
    """A finitely supported map from Lyndon words to exact rationals.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("terms", "max_degree")

    def __init__(self, terms: dict[str, Scalar], max_degree: int):
        if not isinstance(max_degree, int) or max_degree < 1:
            raise BoundsError(f"max_degree must be a positive integer, got {max_degree!r}")
        clean: dict[str, Fraction] = {}
        for word, coeff in terms.items():
            c = _as_fraction(coeff)
            if not c:
                continue
            if len(word) > max_degree:
                continue
            if not lyndon.is_lyndon(word):
                raise ValueError(f"{word!r} is not a Lyndon word over {lyndon.ALPHABET}")
            clean[word] = c
        self.terms = clean
        self.max_degree = max_degree

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int) -> "LiePoly":
        return cls({}, max_degree)

    @classmethod
    def letter(cls, name: str, max_degree: int) -> "LiePoly":
        return cls({name: Fraction(1)}, max_degree)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def coefficient(self, word: str) -> Fraction:
        return self.terms.get(word, Fraction(0))

    def truncated(self, max_degree: int) -> "LiePoly":
        return LiePoly(self.terms, max_degree)

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "LiePoly") -> "LiePoly":
        md = min(self.max_degree, other.max_degree)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return LiePoly(out, md)

    def __neg__(self) -> "LiePoly":
        return LiePoly({w: -c for w, c in self.terms.items()}, self.max_degree)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return self + (-other)

    def scale(self, s: Scalar) -> "LiePoly":
        s = _as_fraction(s)
        if not s:
            return LiePoly.zero(self.max_degree)
        return LiePoly({w: c * s for w, c in self.terms.items()}, self.max_degree)

    def __mul__(self, s: Scalar) -> "LiePoly":
        return self.scale(s)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LiePoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda s: (len(s), s)):
            c = self.terms[w]
            parts.append(f"{c}*({w})")
        return " + ".join(parts)

    def to_json(self) -> list[dict]:
        """Sorted list of {"lyndon", "num", "den"} records."""
        return [
            {"lyndon": w, "num": self.terms[w].numerator, "den": self.terms[w].denominator}
            for w in sorted(self.terms, key=lambda s: (len(s), s))
        ]


@lru_cache(maxsize=None)
def _basis_pair_bracket(u: str, v: str) -> tuple[tuple[str, Fraction], ...]:
    """[b(u), b(v)] rewritten in the Lyndon basis, as a hashable tuple."""
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
    rewritten through the associative envelope and memoized.
    """
    out: dict[str, Fraction] = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            if len(u) + len(v) > max_degree:
                continue
            s = cu * cv
            for w, cw in _basis_pair_bracket(u, v):
                out[w] = out.get(w, 0) + s * cw
    return LiePoly(out, max_degree)
