"""Piecewise-polynomial construction with exact rational coefficients.

Smooth compactly supported profiles are assembled from constants and
smoothstep pieces: a step from v0 to v1 with K vanishing derivatives at
both ends is v0 + (v1 - v0) S_K(s), S_K the degree-(2K+1) smoothstep, so
profiles are C^K -- C^3 joints, and C^4 for the cutoff plateau.  Building
bounded-slope functions goes through their derivative profile --
smoothsteps are monotone, so slope caps hold exactly -- and an exact
antiderivative.

Knots and coefficients are Fractions end to end; float conversion happens
only at evaluation time, in well-conditioned local coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .errors import ConstructionError


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


def smooth_step(x0: Fraction, x1: Fraction, v0: Fraction, v1: Fraction, K: int) -> Piece:
    """Step from v0 at x0 to v1 at x1 with derivatives 1..K zero at both
    ends: v0 + (v1 - v0) s^(K+1) sum_n (-s)^n C(K+n, n) C(2K+1, K-n)."""
    rise = Fraction(v1) - Fraction(v0)
    tail = [rise * (-1) ** n * comb(K + n, n) * comb(2 * K + 1, K - n) for n in range(K + 1)]
    return Piece(x0, x1, (Fraction(v0),) + (Fraction(0),) * K + tuple(tail))


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
        # every derivative has these knots, so each point is located once;
        # the right endpoint belongs to the last piece
        edges, _, lens = self._float_tables()
        last = len(self.pieces) - 1
        inside = (x >= edges[0]) & (x <= edges[-1])
        idx = np.where(x == edges[-1], last, np.searchsorted(edges, x, side="right") - 1)
        ii = np.clip(idx, 0, last)
        s = (x - edges[ii]) / lens[ii]
        values = []
        poly: PiecewisePoly = self
        for order in range(upto + 1):
            coef = poly._float_tables()[1]
            acc = coef[ii, -1]
            for c in coef.T[-2::-1]:
                acc = acc * s + c[ii]
            values.append(np.where(inside, acc, 0.0))
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
            pieces.append(smooth_step(x0, x1, v0, v1, K))
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
