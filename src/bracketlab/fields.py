"""Jet-valued fields on 2-D domains.

A JetField exposes the full jet of order <= 4 (value and all partials) at
requested points.  Analytic fields build their jets by closed-form jet
arithmetic and can be evaluated anywhere; sampled fields live on their
grid and differentiate by 4th-order central differences.  Every other
field is a DerivedField: a node computing its jet from its parents' jets,
consuming ``lowers`` jet orders of each (one for a bracket, none for sums,
products and maps).

Field expressions are DAGs with shared nodes ({F,G} appears in every
double bracket), and one evaluator walks them: ``evaluate`` and
``values_of`` take all the roots a caller needs, give each node the
highest jet order any consumer asks of it, compute its jet once at that
order, and serve lower orders by truncation.  Truncation is exact: jet
products and compositions accumulate each coefficient over a prefix of
the same multi-index order, so a truncated jet equals the lower-order one
bit for bit.  A node's jet is released once its last consumer has read
it, so an evaluation holds only the jets still to be read.
"""

from __future__ import annotations

import csv as _csv
import operator

import numpy as np

from .domain import Domain2
from .errors import BoundsError, DomainMismatchError, PreconditionError
from .jets import Jet2, jet_sin
from .reporting import write_csv

MAX_JET_ORDER = 4


class JetField:
    """Node interface: domain, provenance tag, the jet orders it supports,
    and the parents whose jets ``_jet`` combines."""

    domain: Domain2
    provenance: str
    max_order: int
    parents: tuple = ()
    lowers = 0  # jet orders consumed from each parent

    def _jet(self, order: int, parent_jets: list, pts) -> Jet2:
        raise NotImplementedError

    def jet(self, order: int, pts=None) -> Jet2:
        return evaluate([(self, order)], pts)[0]

    def values(self, pts=None) -> np.ndarray:
        return values_of([self], pts)[0]

    def map(self, fn) -> "DerivedField":
        """The field whose jet is fn(jet of self)."""
        return DerivedField(fn, self)

    # small field algebra, enough for cutoffs, sign flips and rescalings
    def __neg__(self):
        return ScaledField(self, -1.0)

    def __mul__(self, s):
        if isinstance(s, JetField):
            return DerivedField(operator.mul, self, s)
        return ScaledField(self, float(s))

    __rmul__ = __mul__

    def __add__(self, other):
        return DerivedField(operator.add, self, other)


class DerivedField(JetField):
    """fn(*parent jets) as a lazy jet field; with lowers=k it reads its
    parents' jets k orders above its own."""

    def __init__(self, fn, *parents: JetField, lowers: int = 0):
        self.domain = parents[0].domain
        for p in parents[1:]:
            if not self.domain.same_grid(p.domain):
                raise DomainMismatchError("operands live on different domains")
        self.fn, self.parents, self.lowers = fn, parents, lowers
        self.max_order = min([p.max_order for p in parents]) - lowers
        if self.max_order < 0:
            raise BoundsError("operands do not carry enough jet orders")
        kinds = {p.provenance for p in parents}
        self.provenance = kinds.pop() if len(kinds) == 1 else "sampled"

    def _jet(self, order: int, parent_jets: list, pts) -> Jet2:
        return self.fn(*parent_jets)


def ScaledField(base: JetField, s: float) -> DerivedField:
    s = float(s)
    return DerivedField(lambda j: j.scale(s), base)


def evaluate(requests, pts=None) -> list[Jet2]:
    """Jets of the (field, order) requests at pts (default: the separable
    grid coordinates), computing each node of their DAG once."""
    topo: list[JetField] = []  # parents before consumers
    need: dict[JetField, int] = {}  # the highest order any consumer asks
    for node, order in requests:
        _visit(node, need, topo)
        need[node] = max(need[node], order)
    asked = {node: need[node] for node, _ in requests}
    last_use: dict[JetField, int] = {}  # index of each parent's last consumer
    for i in range(len(topo) - 1, -1, -1):
        node = topo[i]
        order = need[node]
        if order > node.max_order:
            raise BoundsError(f"jet order {order} exceeds supported {node.max_order}")
        for p in node.parents:
            last_use.setdefault(p, i)
            need[p] = max(need[p], order + node.lowers)

    jets: dict[JetField, Jet2] = {}
    out: dict[JetField, Jet2] = {}
    for i, node in enumerate(topo):
        order = need[node]
        parent_jets = [_at_order(jets[p], order + node.lowers) for p in node.parents]
        jet = node._jet(order, parent_jets, pts)
        for p in node.parents:
            if last_use[p] == i:
                jets.pop(p, None)  # a parent may appear twice
        if node in last_use:
            jets[node] = jet
        if node in asked:
            out[node] = _at_order(jet, asked[node])
    return [_at_order(out[node], order) for node, order in requests]


def _visit(node: JetField, need: dict, topo: list) -> None:
    if node not in need:
        need[node] = 0
        for p in node.parents:
            _visit(p, need, topo)
        topo.append(node)


def _at_order(jet: Jet2, order: int) -> Jet2:
    return jet if jet.order == order else jet.truncated(order)


def values_of(fields, pts=None) -> list[np.ndarray]:
    """Values of several fields from one evaluation, each as a full-shape
    C-contiguous array: a stride-0 broadcast view would change the
    summation order of Domain2.integrate."""
    jets = evaluate([(f, 0) for f in fields], pts)
    n = fields[0].domain.n
    shape = (n, n) if pts is None else np.broadcast_shapes(*map(np.shape, pts))
    return [
        j.value if j.value.shape == shape else np.broadcast_to(j.value, shape).copy()
        for j in jets
    ]


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

    def _jet(self, order: int, parent_jets: list, pts) -> Jet2:
        P, Q = self.domain.coords() if pts is None else pts
        jp = Jet2.variable_p(np.asarray(P, dtype=float), order)
        jq = Jet2.variable_q(np.asarray(Q, dtype=float), order)
        return self.builder(jp, jq)


def univariate_jet(fn, jc: Jet2, axis: str) -> Jet2:
    """Jet of f(p) (axis "p", jc the p coordinate jet) or of f(q), from
    fn(x, m) giving the raw derivatives [f, f', ..., f^(m)] at x."""
    return Jet2.from_univariate(fn(jc.value, jc.order), jc.order, axis)


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

    def _jet(self, order: int, parent_jets: list, pts) -> Jet2:
        if pts is not None:
            raise PreconditionError("sampled fields evaluate on their own grid only")
        from .jets import factorial

        coeffs = {}
        for t in range(order + 1):
            for i in range(t + 1):
                j = t - i
                coeffs[(i, j)] = self._derivative(i, j) / (factorial(i) * factorial(j))
        return Jet2(order, coeffs)


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


def field_table(values: np.ndarray, domain: Domain2) -> tuple[list[str], list]:
    """CSV header and rows of a field matrix: 'n,h,kind', a metadata row, the values."""
    meta = [domain.n, domain.spacing[0], _kind_string(domain)]
    return ["n", "h", "kind"], [meta, *np.asarray(values, dtype=float)]


def save_field_csv(values: np.ndarray, domain: Domain2, path) -> None:
    write_csv(*field_table(values, domain), path)


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
