"""Piecewise-polynomial construction with exact rational coefficients.

Smooth compactly supported profiles are assembled from two-point Hermite
steps: a step piece matches a prescribed value and K derivatives at both
ends (degree 2K+1), so profiles built from steps and constants are C^K.
Building bounded-slope functions goes through their derivative profile --
monotone Hermite steps never overshoot, so slope caps hold exactly -- and
an exact antiderivative.

Knots and coefficients are Fractions end to end; float conversion happens
only at evaluation time, in well-conditioned local coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import ConstructionError


def _solve_fraction_system(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ConstructionError("singular Hermite system")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1, 1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


@lru_cache(maxsize=None)
def hermite_basis(K: int) -> list[list[Fraction]]:
    """Degree-(2K+1) two-point Hermite basis on [0,1].

    Returns 2(K+1) coefficient vectors, ordered (end0 value, end0 d1, ...,
    end0 dK, end1 value, ..., end1 dK); basis j has a 1 in condition j.
    """
    n = 2 * (K + 1)
    rows: list[list[Fraction]] = []
    for end in (0, 1):
        for k in range(K + 1):
            row = []
            for i in range(n):
                if end == 0:
                    c = Fraction(factorial(k)) if i == k else Fraction(0)
                else:
                    if i >= k:
                        c = Fraction(factorial(i), factorial(i - k))
                    else:
                        c = Fraction(0)
                row.append(c)
            rows.append(row)
    basis = []
    for j in range(n):
        b = [Fraction(1) if r == j else Fraction(0) for r in range(n)]
        basis.append(_solve_fraction_system(rows, b))
    return basis


class Piece:
    """Polynomial on [x0, x1] in the local coordinate s = (x-x0)/(x1-x0)."""

    __slots__ = ("x0", "x1", "coeffs")

    def __init__(self, x0: Fraction, x1: Fraction, coeffs: tuple[Fraction, ...]):
        if not x1 > x0:
            raise ConstructionError("piece interval is empty")
        self.x0 = Fraction(x0)
        self.x1 = Fraction(x1)
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @property
    def length(self) -> Fraction:
        return self.x1 - self.x0

    def derivative(self) -> "Piece":
        L = self.length
        d = tuple(Fraction(k) * c / L for k, c in enumerate(self.coeffs))[1:] or (Fraction(0),)
        return Piece(self.x0, self.x1, d)

    def antiderivative(self, start: Fraction) -> "Piece":
        L = self.length
        out = [Fraction(start)]
        out += [L * c / (k + 1) for k, c in enumerate(self.coeffs)]
        return Piece(self.x0, self.x1, tuple(out))

    def integral(self) -> Fraction:
        return self.length * sum(c / (k + 1) for k, c in enumerate(self.coeffs))

    def end_value(self) -> Fraction:
        return sum(self.coeffs)

    def derivs_at(self, x: Fraction, upto: int) -> list[Fraction]:
        """Exact derivatives at a point (rational), for junction checks."""
        out = []
        piece = self
        for _ in range(upto + 1):
            s = (x - self.x0) / self.length
            val = Fraction(0)
            for c in reversed(piece.coeffs):
                val = val * s + c
            out.append(val)
            piece = piece.derivative()
        return out


def hermite_step(
    x0: Fraction, x1: Fraction, left: tuple, right: tuple, K: int
) -> Piece:
    """Piece matching (value, d1..dK) at x0 and x1."""
    basis = hermite_basis(K)
    L = Fraction(x1) - Fraction(x0)
    n = 2 * (K + 1)
    data = list(left) + list(right)
    if len(data) != n:
        raise ConstructionError(f"need {K + 1} values per end")
    coeffs = [Fraction(0)] * (2 * K + 2)
    for j, d in enumerate(data):
        k = j % (K + 1)
        scale = Fraction(d) * L**k  # d^k/dx^k = v  <=>  d^k/ds^k = v L^k
        if scale:
            for i, c in enumerate(basis[j]):
                coeffs[i] += scale * c
    return Piece(x0, x1, tuple(coeffs))


class PiecewisePoly:
    """Contiguous pieces; identically zero outside the knot span."""

    def __init__(self, pieces: list[Piece]):
        if not pieces:
            raise ConstructionError("no pieces")
        for a, b in zip(pieces, pieces[1:]):
            if a.x1 != b.x0:
                raise ConstructionError("pieces are not contiguous")
        self.pieces = list(pieces)

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.pieces[0].x0, self.pieces[-1].x1

    def knots(self) -> list[Fraction]:
        return [p.x0 for p in self.pieces] + [self.pieces[-1].x1]

    def integral(self) -> Fraction:
        return sum(p.integral() for p in self.pieces)

    def derivative(self) -> "PiecewisePoly":
        # memoized: eval_derivs walks the derivative chain on every call
        if not hasattr(self, "_derivative"):
            self._derivative = PiecewisePoly([p.derivative() for p in self.pieces])
        return self._derivative

    def antiderivative(self, start: Fraction = Fraction(0)) -> "PiecewisePoly":
        acc = Fraction(start)
        out = []
        for p in self.pieces:
            ap = p.antiderivative(acc)
            out.append(ap)
            acc = ap.end_value()
        return PiecewisePoly(out)

    # -- evaluation ------------------------------------------------------

    def _float_tables(self):
        if not hasattr(self, "_tables"):
            edges = np.array([float(p.x0) for p in self.pieces] + [float(self.pieces[-1].x1)])
            deg = max(len(p.coeffs) for p in self.pieces)
            coef = np.zeros((len(self.pieces), deg))
            lens = np.zeros(len(self.pieces))
            for i, p in enumerate(self.pieces):
                for k, c in enumerate(p.coeffs):
                    coef[i, k] = float(c)
                lens[i] = float(p.length)
            self._tables = (edges, coef, lens)
        return self._tables

    def __call__(self, x) -> np.ndarray:
        return self.eval_derivs(x, 0)[0]

    def eval_derivs(self, x, upto: int) -> list[np.ndarray]:
        """[f(x), f'(x), ..., f^(upto)(x)], zero outside the support."""
        x = np.asarray(x, dtype=float)
        values = [np.zeros(x.shape) for _ in range(upto + 1)]
        poly: PiecewisePoly = self
        for order in range(upto + 1):
            edges, coef, lens = poly._float_tables()
            idx = np.searchsorted(edges, x, side="right") - 1
            inside = (idx >= 0) & (idx < len(poly.pieces)) & (x <= edges[-1])
            # right endpoint belongs to the last piece
            at_end = x == edges[-1]
            idx = np.where(at_end, len(poly.pieces) - 1, idx)
            ii = np.clip(idx, 0, len(poly.pieces) - 1)
            s = (x - edges[ii]) / lens[ii]
            acc = np.zeros(x.shape)
            for c in coef.T[::-1]:
                acc = acc * s + c[ii]
            values[order] = np.where(inside | at_end, acc, 0.0)
            if order < upto:
                poly = poly.derivative()
        return values

    def junction_jumps(self, upto: int) -> list[Fraction]:
        """Max absolute mismatch of derivatives 0..upto across interior knots
        and against zero at the outer knots (exact)."""
        worst = [Fraction(0)] * (upto + 1)
        for a, b in zip(self.pieces, self.pieces[1:]):
            da = a.derivs_at(a.x1, upto)
            db = b.derivs_at(b.x0, upto)
            for k in range(upto + 1):
                worst[k] = max(worst[k], abs(da[k] - db[k]))
        first, last = self.pieces[0], self.pieces[-1]
        for k, v in enumerate(first.derivs_at(first.x0, upto)):
            worst[k] = max(worst[k], abs(v))
        for k, v in enumerate(last.derivs_at(last.x1, upto)):
            worst[k] = max(worst[k], abs(v))
        return worst

    def to_json(self) -> dict:
        return {
            "knots": ["%d/%d" % (k.numerator, k.denominator) for k in self.knots()],
            "pieces": [
                {
                    "x0": float(p.x0),
                    "x1": float(p.x1),
                    "coeffs": ["%d/%d" % (c.numerator, c.denominator) for c in p.coeffs],
                }
                for p in self.pieces
            ],
        }


# -- profile builders ---------------------------------------------------------


def build_profile(segments: list[tuple], K: int = 3) -> PiecewisePoly:
    """Assemble a C^K profile from ('const', x0, x1, value) and
    ('step', x0, x1, v0, v1) segments; steps are flat (zero derivatives)
    at both ends, hence monotone between v0 and v1."""
    flat = tuple([Fraction(0)] * K)
    pieces = []
    for seg in segments:
        kind = seg[0]
        if kind == "const":
            _, x0, x1, v = seg
            if Fraction(x1) <= Fraction(x0):
                continue
            pieces.append(Piece(Fraction(x0), Fraction(x1), (Fraction(v),)))
        elif kind == "step":
            _, x0, x1, v0, v1 = seg
            pieces.append(
                hermite_step(
                    Fraction(x0), Fraction(x1), (Fraction(v0),) + flat, (Fraction(v1),) + flat, K
                )
            )
        else:
            raise ConstructionError(f"unknown profile segment {kind!r}")
    return PiecewisePoly(pieces)


def table_profile(x0: Fraction, x1: Fraction, height: Fraction, blend: Fraction) -> list[tuple]:
    """Segments of a flat-topped bump: step up over `blend`, hold, step
    down; its integral is exactly height * (x1 - x0 - blend)."""
    x0, x1, height, blend = Fraction(x0), Fraction(x1), Fraction(height), Fraction(blend)
    if x1 - x0 <= 2 * blend:
        raise ConstructionError("table profile needs length > 2 * blend")
    return [
        ("step", x0, x0 + blend, 0, height),
        ("const", x0 + blend, x1 - blend, height),
        ("step", x1 - blend, x1, height, 0),
    ]
