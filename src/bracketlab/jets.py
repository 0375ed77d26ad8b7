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
"""

from __future__ import annotations

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
            ((k, 0) if axis == "p" else (0, k)): np.asarray(derivs[k], dtype=float) / factorial(k)
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

    def __add__(self, other):
        if isinstance(other, Jet2):
            m = min(self.order, other.order)
            out = {ij: c for ij, c in self.coeffs.items() if sum(ij) <= m}
            for ij, c in other.coeffs.items():
                if sum(ij) <= m:
                    out[ij] = out[ij] + c if ij in out else c
            return Jet2(m, out)
        out = dict(self.coeffs)
        out[(0, 0)] = out[(0, 0)] + other
        return Jet2(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, {ij: -c for ij, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return self + (-other)
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s) -> "Jet2":
        return Jet2(self.order, {ij: c * s for ij, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(other)
        m = min(self.order, other.order)
        return Jet2(m, _product(self.coeffs, other.coeffs, m))

    __rmul__ = __mul__

    def compose(self, outer_derivs: list) -> "Jet2":
        """f o self, given raw derivatives [f(u0), f'(u0), ...] at the
        value array u0; exact on the truncated ring."""
        m = self.order
        z = {ij: c for ij, c in self.coeffs.items() if ij != (0, 0)}  # self - u0
        out = {(0, 0): np.asarray(outer_derivs[0], dtype=float)}
        zk = z
        for k in range(1, m + 1):
            if k > 1:
                zk = _product(zk, z, m)
            s = np.asarray(outer_derivs[k], dtype=float) / factorial(k)
            for ij, c in zk.items():
                out[ij] = out[ij] + c * s if ij in out else c * s
        return Jet2(m, out)


def _product(a: dict, b: dict, m: int) -> dict:
    """Coefficients of the order-m product of two coefficient dicts.  Each
    coefficient sums its terms in _triangle order of a's multi-indices, so
    a truncated product equals the lower-order one bit for bit."""
    out = {}
    for i1, j1 in _triangle(m):
        x = a.get((i1, j1))
        if x is None:
            continue
        for (i2, j2), y in b.items():
            if i1 + i2 + j1 + j2 <= m:
                ij = (i1 + i2, j1 + j2)
                out[ij] = out[ij] + x * y if ij in out else x * y
    return out


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
    """{F, G} = F_q G_p - F_p G_q, one jet order lower than its inputs."""
    return F.dq() * G.dp() - F.dp() * G.dq()
