"""Jet-valued fields on 2-D domains.

A JetField exposes the full jet of order <= 4 (value and all partials) at
requested points.  Analytic fields build their jets by closed-form jet
arithmetic and can be evaluated anywhere; sampled fields live on their
grid and differentiate by 4th-order central differences.  Derived fields
(brackets, products, sums) assemble jets from their parents, consuming
jet orders as appropriate.
"""

from __future__ import annotations

import csv as _csv

import numpy as np

from .domain import Domain2
from .errors import BoundsError, DomainMismatchError, PreconditionError
from .jets import Jet2, jet_sin

MAX_JET_ORDER = 4


class JetField:
    """Base interface: domain, provenance tag, and jet evaluation."""

    domain: Domain2
    provenance: str
    max_order: int

    def jet(self, order: int, pts=None) -> Jet2:
        raise NotImplementedError

    def values(self, pts=None) -> np.ndarray:
        """Values as one full-shape C-contiguous array: a stride-0 broadcast
        view would change the summation order of Domain2.integrate."""
        v = self.jet(0, pts).value
        shape = np.broadcast_shapes(*(np.shape(x) for x in _as_points(self, pts)))
        return v if v.shape == shape else np.broadcast_to(v, shape).copy()

    def grid_values(self) -> np.ndarray:
        return self.values()

    # small field algebra, enough for cutoffs, sign flips and rescalings
    def __neg__(self):
        return ScaledField(self, -1.0)

    def __mul__(self, s):
        if isinstance(s, JetField):
            return ProductField(self, s)
        return ScaledField(self, float(s))

    __rmul__ = __mul__

    def __add__(self, other):
        return SumField(self, other)


def _as_points(field: JetField, pts):
    if pts is None:
        return field.domain.coords()
    return pts


class AnalyticField(JetField):
    """Field defined by a jet builder (jp, jq) -> Jet2.

    The builder receives coordinate jets carrying the requested order and
    must combine them with jet arithmetic only, so all partials are exact.
    """

    def __init__(self, domain: Domain2, builder, max_order: int = MAX_JET_ORDER, name: str = ""):
        self.domain = domain
        self.builder = builder
        self.max_order = min(max_order, MAX_JET_ORDER)
        self.provenance = "analytic"
        self.name = name

    def jet(self, order: int, pts=None) -> Jet2:
        if order > self.max_order:
            raise BoundsError(f"jet order {order} exceeds supported {self.max_order}")
        P, Q = _as_points(self, pts)
        jp = Jet2.variable_p(np.asarray(P, dtype=float), order)
        jq = Jet2.variable_q(np.asarray(Q, dtype=float), order)
        return self.builder(jp, jq)


class SampledField(JetField):
    """Grid sample differentiated by 4th-order central differences
    (periodic wrap on the torus, zero extension on support rectangles)."""

    def __init__(self, domain: Domain2, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (domain.n, domain.n):
            raise PreconditionError("sample shape must match the domain grid")
        self.domain = domain
        self._values = values
        self.provenance = "sampled"
        self.max_order = MAX_JET_ORDER
        self._deriv_cache: dict[tuple[int, int], np.ndarray] = {}

    def _diff(self, arr: np.ndarray, axis: int) -> np.ndarray:
        h = self.domain.spacing[axis]
        if self.domain.kind == "torus":
            shift = lambda k: np.roll(arr, -k, axis=axis)
        else:
            def shift(k):
                out = np.zeros_like(arr)
                idx_src = [slice(None)] * 2
                idx_dst = [slice(None)] * 2
                if k > 0:
                    idx_src[axis] = slice(k, None)
                    idx_dst[axis] = slice(None, -k)
                elif k < 0:
                    idx_src[axis] = slice(None, k)
                    idx_dst[axis] = slice(-k, None)
                else:
                    return arr.copy()
                out[tuple(idx_dst)] = arr[tuple(idx_src)]
                return out
        return (-shift(2) + 8 * shift(1) - 8 * shift(-1) + shift(-2)) / (12.0 * h)

    def _derivative(self, i: int, j: int) -> np.ndarray:
        key = (i, j)
        if key not in self._deriv_cache:
            if i == j == 0:
                self._deriv_cache[key] = self._values
            elif i > 0:
                self._deriv_cache[key] = self._diff(self._derivative(i - 1, j), axis=0)
            else:
                self._deriv_cache[key] = self._diff(self._derivative(i, j - 1), axis=1)
        return self._deriv_cache[key]

    def jet(self, order: int, pts=None) -> Jet2:
        if pts is not None:
            raise PreconditionError("sampled fields evaluate on their own grid only")
        if order > self.max_order:
            raise BoundsError(f"jet order {order} exceeds supported {self.max_order}")
        from .jets import factorial

        coeffs = {}
        for t in range(order + 1):
            for i in range(t + 1):
                j = t - i
                coeffs[(i, j)] = self._derivative(i, j) / (factorial(i) * factorial(j))
        return Jet2(order, coeffs)


class ScaledField(JetField):
    def __init__(self, base: JetField, s: float):
        self.base, self.s = base, float(s)
        self.domain = base.domain
        self.max_order = base.max_order
        self.provenance = base.provenance

    def jet(self, order: int, pts=None) -> Jet2:
        return self.base.jet(order, pts).scale(self.s)


class SumField(JetField):
    def __init__(self, a: JetField, b: JetField):
        if not a.domain.same_grid(b.domain):
            raise DomainMismatchError("summands live on different domains")
        self.a, self.b = a, b
        self.domain = a.domain
        self.max_order = min(a.max_order, b.max_order)
        self.provenance = a.provenance if a.provenance == b.provenance else "sampled"

    def jet(self, order: int, pts=None) -> Jet2:
        return self.a.jet(order, pts) + self.b.jet(order, pts)


class ProductField(JetField):
    def __init__(self, a: JetField, b: JetField):
        if not a.domain.same_grid(b.domain):
            raise DomainMismatchError("factors live on different domains")
        self.a, self.b = a, b
        self.domain = a.domain
        self.max_order = min(a.max_order, b.max_order)
        self.provenance = a.provenance if a.provenance == b.provenance else "sampled"

    def jet(self, order: int, pts=None) -> Jet2:
        return self.a.jet(order, pts) * self.b.jet(order, pts)


# -- named analytic builders ---------------------------------------------------


def sin_p(domain: Domain2) -> AnalyticField:
    return AnalyticField(domain, lambda jp, jq: jet_sin(jp), name="sin(p)")


def sin_q(domain: Domain2) -> AnalyticField:
    return AnalyticField(domain, lambda jp, jq: jet_sin(jq), name="sin(q)")


def zero_field(domain: Domain2) -> AnalyticField:
    return AnalyticField(domain, lambda jp, jq: jp.scale(0.0), name="0")


def coordinate_p(domain: Domain2) -> AnalyticField:
    return AnalyticField(domain, lambda jp, jq: jp, name="p")


def coordinate_q(domain: Domain2) -> AnalyticField:
    return AnalyticField(domain, lambda jp, jq: jq, name="q")


def trig_polynomial(domain: Domain2, coeffs: np.ndarray, phases_p=None, phases_q=None) -> AnalyticField:
    """Real trigonometric polynomial sum_{k,l} c[k,l] sin(k p + a_k) sin(l q + b_l)
    over modes 1..K; used for random smooth test fields."""
    coeffs = np.asarray(coeffs, dtype=float)
    K, L = coeffs.shape
    ap = np.zeros(K) if phases_p is None else np.asarray(phases_p, dtype=float)
    aq = np.zeros(L) if phases_q is None else np.asarray(phases_q, dtype=float)

    def build(jp: Jet2, jq: Jet2) -> Jet2:
        sq = [jet_sin(jq.scale(l + 1.0) + aq[l]) for l in range(L)]
        out = None
        for k in range(K):
            sk = jet_sin(jp.scale(k + 1.0) + ap[k])
            for l in range(L):
                c = coeffs[k, l]
                if c == 0.0:
                    continue
                term = (sk * sq[l]).scale(c)
                out = term if out is None else out + term
        return out if out is not None else jp.scale(0.0)

    return AnalyticField(domain, build, name="trig-poly")


# -- CSV import/export ---------------------------------------------------------


def _kind_string(domain: Domain2) -> str:
    if domain.kind == "torus":
        return "torus"
    p0, p1, q0, q1 = domain.bounds
    return "rect:%.17g:%.17g:%.17g:%.17g" % (p0, p1, q0, q1)


def save_field_csv(values: np.ndarray, domain: Domain2, path) -> None:
    """Row-major matrix with a 'n,h,kind' header line."""
    values = np.asarray(values, dtype=float)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("n,h,kind\n")
        fh.write("%d,%.17g,%s\n" % (domain.n, domain.spacing[0], _kind_string(domain)))
        for row in values:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_field_csv(path) -> SampledField:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        if header[:3] != ["n", "h", "kind"]:
            raise PreconditionError(f"bad field CSV header in {path}")
        meta = next(reader)
        n = int(meta[0])
        kind = meta[2]
        rows = [list(map(float, row)) for row in reader if row]
    values = np.asarray(rows, dtype=float)
    if values.shape != (n, n):
        raise PreconditionError(f"field CSV body is {values.shape}, expected ({n}, {n})")
    if kind == "torus":
        domain = Domain2.torus(n)
    elif kind.startswith("rect:"):
        bounds = tuple(float(x) for x in kind.split(":")[1:])
        domain = Domain2.rect(n, bounds, support_margin=False)
    else:
        raise PreconditionError(f"unknown domain kind {kind!r} in {path}")
    return SampledField(domain, values)
