"""Truncated Taylor-jet arithmetic, vectorized over numpy arrays.

A jet of order m at a batch of base points stores the Taylor coefficients
d^{i+j} f / (dp^i dq^j) / (i! j!) as arrays, one array per multi-index;
a function of one variable is a jet along one axis (from_univariate).
Sums, products, and univariate compositions are exact on the truncated
polynomial ring, so iterated Poisson brackets of analytic fields are
computed without differentiation noise.
"""

from __future__ import annotations

import numpy as np


def factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _triangle(order: int) -> list[tuple[int, int]]:
    return [(i, j) for t in range(order + 1) for i in range(t + 1) for j in [t - i]]


class Jet2:
    """Order-m 2-D jet; coeffs maps (i, j) with i+j <= m to arrays."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int) -> "Jet2":
        value = np.asarray(value, dtype=float)
        out = {ij: np.zeros_like(value) for ij in _triangle(order)}
        out[(0, 0)] = value
        return cls(order, out)

    @classmethod
    def variable_p(cls, values, order: int) -> "Jet2":
        out = cls.constant(values, order)
        if order >= 1:
            out.coeffs[(1, 0)] = np.ones_like(out.coeffs[(0, 0)])
        return out

    @classmethod
    def variable_q(cls, values, order: int) -> "Jet2":
        out = cls.constant(values, order)
        if order >= 1:
            out.coeffs[(0, 1)] = np.ones_like(out.coeffs[(0, 0)])
        return out

    @classmethod
    def from_univariate(cls, derivs: list, order: int, axis: str) -> "Jet2":
        """Promote 1-D raw derivatives of f(p) (axis='p') or f(q) to 2-D."""
        coeffs = {}
        for i, j in _triangle(order):
            k = i if axis == "p" else j
            other = j if axis == "p" else i
            if other == 0 and k < len(derivs):
                coeffs[(i, j)] = np.asarray(derivs[k], dtype=float) / factorial(k)
            else:
                coeffs[(i, j)] = np.zeros_like(np.asarray(derivs[0], dtype=float))
        return cls(order, coeffs)

    @property
    def value(self):
        return self.coeffs[(0, 0)]

    def derivative(self, i: int, j: int):
        """Raw partial derivative d^{i+j} f / dp^i dq^j."""
        return self.coeffs[(i, j)] * (factorial(i) * factorial(j))

    def truncated(self, order: int) -> "Jet2":
        if order > self.order:
            raise ValueError("cannot extend a jet")
        return Jet2(order, {ij: self.coeffs[ij] for ij in _triangle(order)})

    def dp(self) -> "Jet2":
        m = self.order - 1
        return Jet2(m, {(i, j): (i + 1) * self.coeffs[(i + 1, j)] for i, j in _triangle(m)})

    def dq(self) -> "Jet2":
        m = self.order - 1
        return Jet2(m, {(i, j): (j + 1) * self.coeffs[(i, j + 1)] for i, j in _triangle(m)})

    def __add__(self, other):
        if isinstance(other, Jet2):
            m = min(self.order, other.order)
            return Jet2(m, {ij: self.coeffs[ij] + other.coeffs[ij] for ij in _triangle(m)})
        out = {ij: c for ij, c in self.coeffs.items()}
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
        keys = _triangle(m)
        out = {ij: None for ij in keys}
        for i1, j1 in keys:
            a = self.coeffs[(i1, j1)]
            for i2, j2 in keys:
                if i1 + i2 + j1 + j2 > m:
                    continue
                ij = (i1 + i2, j1 + j2)
                term = a * other.coeffs[(i2, j2)]
                out[ij] = term if out[ij] is None else out[ij] + term
        return Jet2(m, out)

    __rmul__ = __mul__

    def compose(self, outer_derivs: list) -> "Jet2":
        """f o self, given raw derivatives [f(u0), f'(u0), ...] at the
        value array u0; exact on the truncated ring."""
        m = self.order
        z = Jet2(m, dict(self.coeffs))
        z.coeffs[(0, 0)] = np.zeros_like(np.asarray(self.coeffs[(0, 0)]))
        out = Jet2.constant(
            np.asarray(outer_derivs[0], dtype=float) + 0.0 * self.coeffs[(0, 0)], m
        )
        zk = None
        for k in range(1, m + 1):
            zk = z if zk is None else zk * z
            out = out + zk.scale(np.asarray(outer_derivs[k], dtype=float) / factorial(k))
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
