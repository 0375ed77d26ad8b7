"""2-D evaluation domains: the periodic torus and rectangles.

Rectangles come in two flavors controlled by ``support_margin``: domains
that promise compactly supported fields (everything vanishes on the
outermost margin band, checked at evaluation where it matters, e.g. for
integrals) and plain evaluation windows used to zoom into a region at
high resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, PreconditionError

TWO_PI = 2.0 * np.pi
MIN_GRID = 16


@dataclass(frozen=True)
class Domain2:
    kind: str  # "torus" | "rect"
    n: int
    bounds: tuple[float, float, float, float] = (0.0, TWO_PI, 0.0, TWO_PI)
    support_margin: bool = True  # rect only: fields must vanish on the edge band
    margin_cells: int = 2

    def __post_init__(self):
        if self.kind not in ("torus", "rect"):
            raise PreconditionError(f"unknown domain kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < MIN_GRID:
            raise BoundsError(f"grid resolution must be an integer >= {MIN_GRID}")
        p0, p1, q0, q1 = self.bounds
        if not (p1 > p0 and q1 > q0):
            raise PreconditionError("degenerate rectangle bounds")

    @classmethod
    def torus(cls, n: int) -> "Domain2":
        return cls("torus", n)

    @classmethod
    def rect(cls, n: int, bounds, support_margin: bool = True) -> "Domain2":
        return cls("rect", n, tuple(float(b) for b in bounds), support_margin)

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
        """Integral of a grid sample against dp dq.

        On the torus this is the rectangle rule (spectrally accurate for
        trigonometric integrands); on a support rectangle it reduces to
        the same weight since boundary values vanish.
        """
        hp, hq = self.spacing
        if self.kind == "rect" and self.support_margin:
            self.check_support(values)
        return float(np.sum(values) * hp * hq)

    def check_support(self, values: np.ndarray, tol: float = 0.0) -> None:
        m = self.margin_cells
        band = np.concatenate(
            [
                values[:m, :].ravel(),
                values[-m:, :].ravel(),
                values[:, :m].ravel(),
                values[:, -m:].ravel(),
            ]
        )
        worst = float(np.max(np.abs(band))) if band.size else 0.0
        if worst > tol:
            raise PreconditionError(
                f"field does not vanish on the rectangle margin band (max {worst:.3e})"
            )

    def same_grid(self, other: "Domain2") -> bool:
        return (
            self.kind == other.kind
            and self.n == other.n
            and self.bounds == other.bounds
        )
