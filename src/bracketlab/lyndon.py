"""Lyndon words over the two-letter alphabet {F, G} and the associated
basis of the free Lie algebra.

Lie elements appear in two representations:

* *basis form* -- a sparse map from Lyndon words to rational coefficients
  (what :class:`~bracketlab.liepoly.LiePoly` stores, over one denominator), and
* *envelope form* -- a noncommutative polynomial in the free associative
  algebra, a map from arbitrary words to coefficients, where the Lie
  bracket is the commutator ``ab - ba``.

The bridge between them is the classical triangularity of the Lyndon
basis: the envelope expansion of the standard bracketing of a Lyndon word
``w`` equals ``w`` plus lexicographically larger words of the same
degree.  Rewriting an envelope Lie element into the basis therefore
reduces to repeatedly stripping its smallest surviving word, which must
be Lyndon.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import BoundsError

ALPHABET = "FG"
Scalar = int | Fraction
MAX_WORD_DEGREE = 12


@lru_cache(maxsize=None)
def is_lyndon(word: str) -> bool:
    """A nonempty word is Lyndon iff it is strictly smaller than every
    proper rotation of itself."""
    n = len(word)
    if n == 0 or any(c not in ALPHABET for c in word):
        return False
    return all(word < word[i:] + word[:i] for i in range(1, n))


def lyndon_words(max_degree: int) -> list[str]:
    """All Lyndon words over {F, G} of degree <= max_degree, ordered by
    (degree, lexicographic).

    Uses Duval's generation; requires 1 <= max_degree <= 12.
    """
    if not isinstance(max_degree, int) or not 1 <= max_degree <= MAX_WORD_DEGREE:
        raise BoundsError(
            f"max_degree must be an integer in [1, {MAX_WORD_DEGREE}], got {max_degree!r}"
        )
    k = len(ALPHABET)
    w = [-1]
    out: list[str] = []
    while w:
        w[-1] += 1
        out.append("".join(ALPHABET[c] for c in w))
        m = len(w)
        while len(w) < max_degree:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
    out.sort(key=lambda s: (len(s), s))
    return out


def standard_factorization(word: str) -> tuple[str, str]:
    """Right standard factorization of a Lyndon word of length >= 2.

    The right factor is the lexicographically smallest proper suffix,
    equivalently the longest proper Lyndon suffix.
    """
    if len(word) < 2:
        raise ValueError(f"cannot factor the single letter {word!r}")
    suffix = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(suffix)], suffix


# -- envelope arithmetic ----------------------------------------------------
#
# Envelope polynomials are plain dicts word -> int or Fraction with no zero
# values; int inputs give int outputs, in the Lyndon rewrite too.


def env_add_into(acc: dict[str, Scalar], other: dict[str, Scalar], scale=1) -> None:
    for w, c in other.items():
        v = acc.get(w, 0) + c * scale
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


def env_mul(a: dict[str, Scalar], b: dict[str, Scalar]) -> dict[str, Scalar]:
    out: dict[str, Scalar] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            v = out.get(w, 0) + ca * cb
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def env_commutator(a: dict[str, Scalar], b: dict[str, Scalar]) -> dict[str, Scalar]:
    out = env_mul(a, b)
    env_add_into(out, env_mul(b, a), -1)
    return out


@lru_cache(maxsize=None)
def expand_standard_bracketing(word: str) -> dict[str, int]:
    """Envelope expansion of the standard bracketing b(word) of a Lyndon
    word.  Coefficients are ints; the smallest word is ``word`` itself
    with coefficient 1 (triangularity)."""
    if not is_lyndon(word):
        raise ValueError(f"{word!r} is not a Lyndon word")
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return env_commutator(expand_standard_bracketing(u), expand_standard_bracketing(v))


def lie_envelope_to_lyndon(env: dict[str, Scalar]) -> dict[str, Scalar]:
    """Rewrite an envelope *Lie* element into the Lyndon basis.

    Triangular elimination: the lexicographically smallest surviving word
    of each degree must be Lyndon (else the input was not a Lie element,
    which raises), and subtracting that multiple of its standard
    bracketing removes it without introducing smaller words.
    """
    by_degree: dict[int, dict[str, Scalar]] = {}
    for w, c in env.items():
        if c:
            by_degree.setdefault(len(w), {})[w] = c
    out: dict[str, Scalar] = {}
    for _, part in sorted(by_degree.items()):
        while part:
            w = min(part)
            c = part.pop(w)
            if not is_lyndon(w):
                raise ValueError(
                    f"element is not in the free Lie algebra: leading word {w!r}"
                )
            out[w] = c
            expansion = expand_standard_bracketing(w)
            for ww, cc in expansion.items():
                if ww == w:
                    continue
                v = part.get(ww, 0) - c * cc
                if v:
                    part[ww] = v
                else:
                    part.pop(ww, None)
    return out
