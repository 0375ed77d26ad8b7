"""2-D evaluation domains: the periodic torus and rectangles.

A rectangle is an evaluation window: a closed grid over its bounds, used
to zoom into a region at high resolution.  Nothing is assumed about the
fields on its edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, PreconditionError

TWO_PI = 2.0 * np.pi
MIN_GRID = 16


@dataclass(frozen=True)
class Domain2:
    kind: str  # "torus" | "rect"
    n: int
    bounds: tuple[float, float, float, float] = (0.0, TWO_PI, 0.0, TWO_PI)

    def __post_init__(self):
        if self.kind not in ("torus", "rect"):
            raise PreconditionError(f"unknown domain kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < MIN_GRID:
            raise BoundsError(f"grid resolution must be an integer >= {MIN_GRID}")
        p0, p1, q0, q1 = self.bounds
        if not (p1 > p0 and q1 > q0 and np.all(np.isfinite(self.bounds))):
            raise PreconditionError(f"rectangle bounds not finite and increasing: {self.bounds}")

    @classmethod
    def torus(cls, n: int) -> "Domain2":
        return cls("torus", n)

    @classmethod
    def rect(cls, n: int, bounds) -> "Domain2":
        return cls("rect", n, tuple(float(b) for b in bounds))

    @property
    def spacing(self) -> tuple[float, float]:
        p0, p1, q0, q1 = self.bounds
        if self.kind == "torus":
            return (TWO_PI / self.n, TWO_PI / self.n)
        return ((p1 - p0) / (self.n - 1), (q1 - q0) / (self.n - 1))

    @property
    def h(self) -> float:
        return max(self.spacing)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        p0, p1, q0, q1 = self.bounds
        if self.kind == "torus":
            return (
                np.arange(self.n) * (TWO_PI / self.n),
                np.arange(self.n) * (TWO_PI / self.n),
            )
        return np.linspace(p0, p1, self.n), np.linspace(q0, q1, self.n)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """The axes as broadcastable columns p (n,1) and rows q (1,n), so a
        function of one variable is evaluated on n points, not n^2."""
        p, q = self.axes()
        return p[:, None], q[None, :]

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        p, q = self.axes()
        return np.meshgrid(p, q, indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Integral of a grid sample over the torus, sum * hp * hq, which is
        spectrally accurate for trigonometric integrands.  A rectangle is
        refused: its grid carries both edges, and the identities that
        integrate drop boundary terms that vanish only on the torus."""
        if self.kind != "torus":
            raise PreconditionError("integrals are taken on the torus only, not on a rectangle")
        hp, hq = self.spacing
        return float(np.sum(values) * hp * hq)
