"""Truncated Taylor-jet arithmetic, vectorized over numpy arrays.

A jet of order m at a batch of base points stores the Taylor coefficients
d^{i+j} f / (dp^i dq^j) / (i! j!) as arrays, one array per multi-index the
jet can have; a function of one variable is a jet along one axis
(from_univariate).  A missing multi-index is a structural zero that sums
and products skip, so a term x * 0 is never added: nonzero coefficients are
unchanged by that, but an exact zero may read -0 where adding +0 would
have made it 0.  Sums, products, and univariate compositions are exact on
the truncated polynomial ring, so iterated Poisson brackets of analytic
fields are computed without differentiation noise.

Products, compositions and sums of products share one kernel that forms
each output coefficient in turn: its first product is a new array, and
later terms are added into it in place in the order of the fold
out + a * b, so every value and the sign of every zero are the fold's.
No call writes an array it did not allocate, so jets may share arrays.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import factorial

import numpy as np


def _triangle(order: int) -> list[tuple[int, int]]:
    return [(i, j) for t in range(order + 1) for i in range(t + 1) for j in [t - i]]


class Jet2:
    """Order-m 2-D jet; coeffs maps (i, j) with i+j <= m to arrays, always
    holding the value (0, 0); a missing key is a structural zero."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def variable_p(cls, values, order: int) -> "Jet2":
        return cls.from_univariate([values, np.ones_like(values, dtype=float)], order, "p")

    @classmethod
    def variable_q(cls, values, order: int) -> "Jet2":
        return cls.from_univariate([values, np.ones_like(values, dtype=float)], order, "q")

    @classmethod
    def from_univariate(cls, derivs: list, order: int, axis: str) -> "Jet2":
        """Promote 1-D raw derivatives of f(p) (axis='p') or f(q) to 2-D."""
        return cls(order, {
            ((k, 0) if axis == "p" else (0, k)): _taylor(derivs[k], k)
            for k in range(min(order + 1, len(derivs)))
        })

    @property
    def value(self):
        return self.coeffs[(0, 0)]

    def derivative(self, i: int, j: int):
        """Raw partial derivative d^{i+j} f / dp^i dq^j."""
        if i + j > self.order:
            raise ValueError("derivative beyond the jet order")
        c = self.coeffs.get((i, j))
        return np.zeros_like(self.value) if c is None else c * (factorial(i) * factorial(j))

    def truncated(self, order: int) -> "Jet2":
        if order > self.order:
            raise ValueError("cannot extend a jet")
        return Jet2(order, {ij: c for ij, c in self.coeffs.items() if sum(ij) <= order})

    def dp(self) -> "Jet2":
        return self._lowered({(i - 1, j): i * c if i > 1 else c  # shared: never written in place
                              for (i, j), c in self.coeffs.items() if i})

    def dq(self) -> "Jet2":
        return self._lowered({(i, j - 1): j * c if j > 1 else c
                              for (i, j), c in self.coeffs.items() if j})

    def _lowered(self, coeffs: dict) -> "Jet2":
        if (0, 0) not in coeffs:
            coeffs[(0, 0)] = np.zeros_like(self.value)
        return Jet2(self.order - 1, coeffs)

    def _linear(self, other, op, lone) -> "Jet2":
        """self op other for op + or -; lone(c) stands for op(0, c) where
        self has no coefficient."""
        if not isinstance(other, Jet2):
            return Jet2(self.order, {**self.coeffs, (0, 0): op(self.value, other)})
        m = min(self.order, other.order)
        out = {ij: c for ij, c in self.coeffs.items() if sum(ij) <= m}
        for ij, c in other.coeffs.items():
            if sum(ij) <= m:
                out[ij] = op(out[ij], c) if ij in out else lone(c)
        return Jet2(m, out)

    def __add__(self, other):
        return self._linear(other, operator.add, lambda c: c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, {ij: -c for ij, c in self.coeffs.items()})

    def __sub__(self, other):
        # x - y is x + (-y) in IEEE arithmetic, signed zeros included
        return self._linear(other, operator.sub, operator.neg)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s) -> "Jet2":
        return Jet2(self.order, {ij: c * s for ij, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(other)
        m = min(self.order, other.order)
        return Jet2(m, _sum_of_products([(self.coeffs, other.coeffs)], m))

    __rmul__ = __mul__

    def compose(self, outer_derivs: list) -> "Jet2":
        """f o self, given raw derivatives [f(u0), f'(u0), ...] at the
        value array u0; exact on the truncated ring."""
        m = self.order
        z = {ij: c for ij, c in self.coeffs.items() if ij != (0, 0)}  # self - u0
        powers = []  # z^1 .. z^m
        for k in range(1, m + 1):
            powers.append(z if k == 1 else _sum_of_products([(powers[-1], z)], m))
        terms = [(zk, {(0, 0): _taylor(outer_derivs[k], k)}) for k, zk in enumerate(powers, 1)]
        return Jet2(m, {(0, 0): np.asarray(outer_derivs[0], dtype=float),
                        **_sum_of_products(terms, m)})


def sum_of_products(pairs: list) -> Jet2:
    """The sum of a * b over the (a, b) jet pairs, at the lowest order of
    any pair; bit for bit the fold of + over the products."""
    m = min(min(a.order, b.order) for a, b in pairs)
    return Jet2(m, _sum_of_products([(a.coeffs, b.coeffs) for a, b in pairs], m))


def _taylor(deriv, k: int):
    """The Taylor coefficient deriv / k!; not divided, and so possibly the
    caller's array, for k < 2."""
    c = np.asarray(deriv, dtype=float)
    return c if k < 2 else c / factorial(k)


@lru_cache(maxsize=1024)
def _plan(keys: tuple, m: int) -> tuple:
    """For pairs of coefficient dicts with these (left keys, right keys):
    each multi-index of the order-m sum of their products, with the pairs
    that feed it in list order, each with its (left, right) key pairs in
    _triangle order of the left key, so a truncated product equals the
    lower-order one bit for bit."""
    plan = {}
    for n, (a_keys, b_keys) in enumerate(keys):
        for i1, j1 in (ij for ij in _triangle(m) if ij in a_keys):
            for i2, j2 in b_keys:
                if i1 + i2 + j1 + j2 <= m:
                    terms = plan.setdefault((i1 + i2, j1 + j2), {})
                    terms.setdefault(n, []).append(((i1, j1), (i2, j2)))
    return tuple((ij, tuple((n, tuple(p)) for n, p in terms.items()))
                 for ij, terms in plan.items())


def _sum_of_products(pairs: list, m: int) -> dict:
    """Coefficients of the order-m sum of a * b over pairs of coefficient
    dicts, one at a time; a pair that gives a coefficient several terms is
    summed on its own and then added, as the fold out + a * b adds it."""
    out = {}
    for ij, terms in _plan(tuple([(tuple(a), tuple(b)) for a, b in pairs]), m):
        acc = None
        for n, key_pairs in terms:
            a, b = pairs[n]
            term = None
            for ka, kb in key_pairs:
                x = a[ka] * b[kb]
                term = x if term is None else _add_into(term, x)
            acc = term if acc is None else _add_into(acc, term)
        out[ij] = acc
    return out


def _add_into(acc, x):
    """acc + x, written into acc, an array the kernel allocated, when it
    has the shape and type of the sum."""
    if acc.shape == x.shape and acc.dtype == x.dtype:
        acc += x
        return acc
    return acc + x


def _trig_derivs(u0, order: int, fn: str) -> list:
    s, c = np.sin(u0), np.cos(u0)
    cycle = [s, c, -s, -c] if fn == "sin" else [c, -s, -c, s]
    return [cycle[k % 4] for k in range(order + 1)]


def jet_sin(u: Jet2) -> Jet2:
    return u.compose(_trig_derivs(u.value, u.order, "sin"))


def jet_cos(u: Jet2) -> Jet2:
    return u.compose(_trig_derivs(u.value, u.order, "cos"))


def jet_log(u: Jet2) -> Jet2:
    v = u.value
    return u.compose([np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4][: u.order + 1])


def jet_exp(u: Jet2) -> Jet2:
    e = np.exp(u.value)
    return u.compose([e] * (u.order + 1))


def poisson_jet(F: Jet2, G: Jet2) -> Jet2:
    """{F, G} = F_q G_p - F_p G_q, one jet order lower than its inputs.

    A term with a structurally zero factor (F_q when F has no key with
    j > 0, and so on) is skipped, and a lone -F_p G_q negates the smaller
    factor, so no n^2 array is spent on 0 * x or on a negation; only the
    sign of an exact zero can differ from the full formula."""
    f_p, f_q = _depends_on(F)
    g_p, g_q = _depends_on(G)
    plus, minus = f_q and g_p, f_p and g_q
    if plus and minus:
        return F.dq() * G.dp() - F.dp() * G.dq()
    if minus:
        a, b = F.dp(), G.dq()
        return (-a) * b if _size(a) <= _size(b) else a * -b
    return F.dq() * G.dp()


def _depends_on(J: Jet2) -> tuple[bool, bool]:
    """Whether J has a key with i > 0, and one with j > 0."""
    return any(i for i, _ in J.coeffs), any(j for _, j in J.coeffs)


def _size(J: Jet2) -> int:
    return sum(np.size(c) for c in J.coeffs.values())
