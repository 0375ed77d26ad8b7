"""Span recording around bracketlab's public entry points, from outside.

The traced worker calls :func:`install`, which replaces the listed
functions and methods with wrappers that record one span per call: name,
start, end, parent span and op id.  Nothing inside ``src/`` changes; the
wrappers sit on the module and class attributes the library looks up at
call time.  Spans stay in memory and are written as JSON lines when the
run ends.

A span's self time is its duration minus the time its child spans cover,
minus the time the tracer's own bookkeeping spent on those children, so
hashing points or summing bytes does not land in a layer's self time.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

# span record slots
NAME, START, END, PARENT, OP, COUNT, FLAG, HOOK = range(8)

# op ids for spans outside any op
SETUP_OP = -1
CHECK_OP = -2

# flags on ratescan.functional_value spans
BASE_EVAL, IMPROVED, NELDER_MEAD = 1, 2, 4


class NullTracer:
    """Untraced runs: the same calls, no recording."""

    def call(self, name, fn, args=(), kwargs=None):
        return fn(*args, **(kwargs or {}))

    def begin_op(self, op: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def set_op(self, op: int) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = SETUP_OP
        self._op_span = None
        self._seen: dict = {}  # jet evaluations of the current op: key -> max order
        self._keep: list = []  # fields of the current op, so ids are not reused
        self._grid_keys: dict = {}
        self._search_best = None
        self.t0 = perf_counter()

    # -- span bookkeeping --------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        stack = self._stack
        parent = stack[-1] if stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, 0, 0, 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            rec[END] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(rec, args, kwargs or {}, out)
            if parent >= 0:
                self.spans[parent][HOOK] += perf_counter() - rec[END]
        return out

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen.clear()
        self._keep.clear()
        rec = ["op", perf_counter(), 0.0, -1, op, 0, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._op_span = rec

    def end_op(self) -> None:
        self._op_span[END] = perf_counter()
        self._stack.pop()
        self._op_span = None

    def set_op(self, op: int) -> None:
        self.op = op

    def _open(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    # -- hooks: counters taken where the work happens ----------------------

    def _jet_bytes(self, rec, args, kwargs, out):
        # computed, not measured: one array per coefficient, all of one shape
        coeffs = getattr(out, "coeffs", None)
        if coeffs:
            rec[COUNT] = len(coeffs) * coeffs[(0, 0)].nbytes

    def _points_key(self, field, pts):
        if pts is None:
            dom = field.domain
            if dom not in self._grid_keys:
                self._grid_keys[dom] = _digest_arrays(dom.grid())
            return self._grid_keys[dom]
        return _digest_arrays(pts)

    def _field_jet(self, rec, args, kwargs, out):
        field = args[0]
        order = args[1] if len(args) > 1 else kwargs["order"]
        pts = args[2] if len(args) > 2 else kwargs.get("pts")
        rec[COUNT] = field.domain.n**2 if pts is None else int(pts[0].size)
        if self.op < 0:
            return
        key = (id(field), self._points_key(field, pts))
        prior = self._seen.get(key)
        if prior is not None and order <= prior:
            rec[FLAG] = 1
        self._seen[key] = order if prior is None else max(prior, order)
        self._keep.append(field)

    def _eval_points(self, rec, args, kwargs, out):
        x = args[1] if len(args) > 1 else kwargs["x"]
        rec[COUNT] = int(getattr(x, "size", 1))

    def _search(self, name, fn):
        def wrapper(*args, **kwargs):
            self._search_best = None
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _functional_value(self, rec, args, kwargs, out):
        if self._search_best is None:
            rec[FLAG] = BASE_EVAL
            self._search_best = out
            return
        if out < self._search_best:
            rec[FLAG] |= IMPROVED
            self._search_best = out
        if self._open("ratescan.nelder_mead"):
            rec[FLAG] |= NELDER_MEAD

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "count", "flag")
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                row = dict(zip(keys, rec[:7]))
                row["id"] = i
                row["start"] = rec[START] - self.t0
                row["end"] = rec[END] - self.t0
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _digest_arrays(arrays) -> tuple:
    h = hashlib.blake2b(digest_size=16)
    shapes = []
    for a in arrays:
        h.update(a.tobytes() if a.flags.c_contiguous else a.copy().tobytes())
        shapes.append(a.shape)
    return tuple(shapes), h.digest()


# -- installation -------------------------------------------------------------


def _wrapper(tracer, name, fn, hook):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return wrapper


def _patch_function(tracer, modules, module, attr, name, hook=None, wrapper=None):
    """Replace a module-level function in every bracketlab module that
    imported it by name."""
    orig = getattr(module, attr)
    wrapper = wrapper or _wrapper(tracer, name, orig, hook)
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapper)


def _patch_method(tracer, cls, attr, name, hook=None):
    """Replace a method and every alias of it in the class body
    (``__rmul__ = __mul__`` makes two names for one function)."""
    orig = cls.__dict__[attr]
    wrapper = _wrapper(tracer, name, orig, hook)
    for key, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, key, wrapper)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    import sys

    from bracketlab import (
        brackets,
        expansions,
        fields,
        flows,
        functionals,
        jets,
        liepoly,
        lyndon,
        piecewise,
        ratescan,
        witness,
    )

    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("bracketlab")]
    J = jets.Jet2
    _patch_method(tracer, J, "__mul__", "jets.mul", tracer._jet_bytes)
    for attr in ("__add__", "__sub__", "__rsub__", "__neg__", "scale"):
        _patch_method(tracer, J, attr, "jets.linear", tracer._jet_bytes)
    _patch_method(tracer, J, "compose", "jets.compose", tracer._jet_bytes)
    for attr in ("jet_sin", "jet_cos", "jet_exp"):
        _patch_function(tracer, modules, jets, attr, "jets.compose_fn")
    _patch_function(tracer, modules, jets, "poisson_jet", "brackets.poisson")

    for cls in _subclasses(fields.JetField):
        if "jet" in vars(cls):
            name = "brackets.jet" if cls is brackets.BracketField else "fields.jet"
            _patch_method(tracer, cls, "jet", name, tracer._field_jet)

    P = piecewise.PiecewisePoly
    _patch_method(tracer, P, "eval_derivs", "piecewise.eval", tracer._eval_points)
    _patch_method(tracer, P, "derivative", "piecewise.derivative")
    _patch_method(tracer, witness.WitnessA, "eval_derivs", "witness.a_eval")
    _patch_function(tracer, modules, witness, "build_witness", "witness.build")
    _patch_function(tracer, modules, witness, "verify_oscillation_ratios", "witness.verify")
    _patch_function(tracer, modules, witness, "r_field", "witness.r_field")

    _patch_function(tracer, modules, functionals, "lh_check", "functionals.lh_check")

    search = tracer._search("ratescan.phi_bar_upper", ratescan.phi_bar_upper)
    _patch_function(tracer, modules, ratescan, "phi_bar_upper", None, wrapper=search)
    _patch_function(
        tracer, modules, ratescan, "functional_value", "ratescan.functional_value",
        tracer._functional_value,
    )
    _patch_function(tracer, [ratescan], ratescan, "minimize", "ratescan.nelder_mead")
    for fam in (ratescan.OscillatoryFamily, ratescan.ModulatedFamily, ratescan.RandomFourierFamily):
        _patch_method(tracer, fam, "member", "ratescan.member")

    _patch_function(tracer, modules, liepoly, "bracket", "liepoly.bracket")
    _patch_function(tracer, modules, lyndon, "lie_envelope_to_lyndon", "lyndon.rewrite")
    _patch_function(tracer, modules, flows, "path_generator", "flows.path_generator")
    for attr in ("verify_symmetrized_expansion", "verify_conjugated_expansion"):
        _patch_function(tracer, modules, expansions, attr, "expansions.verify")


# -- per-layer metrics -----------------------------------------------------------

SELF_TIMES = {
    "jets.mul.self_s": ("jets.mul",),
    "jets.compose.self_s": ("jets.compose", "jets.compose_fn"),
    "jets.linear.self_s": ("jets.linear",),
    "fields.jet.self_s": ("fields.jet",),
    "brackets.self_s": ("brackets.jet", "brackets.poisson"),
    "piecewise.eval.self_s": ("piecewise.eval",),
    "witness.verify.self_s": ("witness.verify",),
    "witness.r_field.self_s": ("witness.r_field",),
    "witness.a_eval.self_s": ("witness.a_eval",),
    "functionals.lh_check.self_s": ("functionals.lh_check",),
    "ratescan.functional_value.self_s": ("ratescan.functional_value",),
    "ratescan.member.self_s": ("ratescan.member",),
    "liepoly.bracket.self_s": ("liepoly.bracket",),
    "flows.path_generator.self_s": ("flows.path_generator",),
    "expansions.verify.self_s": ("expansions.verify",),
    "reporting.canonical_json.self_s": ("reporting.canonical_json",),
}

# span name -> metric counting its calls
CALL_COUNTS = {
    "jets.mul": "jets.mul.calls",
    "jets.compose": "jets.compose.calls",
    "fields.jet": "fields.jet.calls",
    "brackets.poisson": "brackets.nodes",
    "piecewise.eval": "piecewise.eval.calls",
    "piecewise.derivative": "piecewise.derivative.calls",
    "liepoly.bracket": "liepoly.bracket.calls",
    "lyndon.rewrite": "lyndon.rewrite.calls",
}

JET_OPS = ("jets.mul", "jets.linear", "jets.compose")

# (metric name, unit, better); the order in which results print them
LAYER_METRICS = (
    [(m, "1/op", "lower") for m in CALL_COUNTS.values()]
    + [
        ("jets.bytes_computed", "B/op", "lower"),
        ("fields.jet.points", "1/op", "lower"),
        ("fields.jet.redundant_ratio", "ratio", "lower"),
        ("piecewise.eval.points", "1/op", "lower"),
        ("ratescan.evals", "1/op", "lower"),
        ("ratescan.improve_ratio", "ratio", "higher"),
        ("ratescan.nm_share", "ratio", "lower"),
    ]
    + [(m, "s/op", "lower") for m in SELF_TIMES]
    + [
        ("witness.build_s", "s/run", "lower"),
        ("proc.cpu_per_wall", "ratio", "higher"),
        ("trace.overhead_ops_per_s", "1/s", "higher"),
    ]
)


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - covered[i] - rec[HOOK] for i, rec in enumerate(spans)]


def layer_metrics(spans, count_ops: int) -> dict:
    """Per-layer numbers of one traced run.

    Counts are per op over ops 0 .. count_ops-1, whose inputs depend only
    on the seed, so they repeat exactly between runs of one seed.  Self
    times are per op over every op the run completed.
    """
    selfs = self_times(spans)
    ops = sum(1 for rec in spans if rec[NAME] == "op")
    k = min(count_ops, ops)
    if k == 0:
        raise ValueError("traced run completed no op")
    calls = dict.fromkeys(CALL_COUNTS.values(), 0)
    jet_bytes = field_points = eval_points = 0
    jet_calls = redundant = 0
    evals = improved = nm = 0
    self_by_name: dict[str, float] = {}
    build_s = 0.0
    for rec, s in zip(spans, selfs):
        name, op = rec[NAME], rec[OP]
        if name == "witness.build":
            build_s += rec[END] - rec[START]
        if op < 0:
            continue
        self_by_name[name] = self_by_name.get(name, 0.0) + s
        if op >= k:
            continue
        if name in CALL_COUNTS:
            calls[CALL_COUNTS[name]] += 1
        if name in JET_OPS:
            jet_bytes += rec[COUNT]
        elif name in ("fields.jet", "brackets.jet"):
            jet_calls += 1
            redundant += rec[FLAG]
            if name == "fields.jet":
                field_points += rec[COUNT]
        elif name == "piecewise.eval":
            eval_points += rec[COUNT]
        elif name == "ratescan.functional_value" and not rec[FLAG] & BASE_EVAL:
            evals += 1
            improved += bool(rec[FLAG] & IMPROVED)
            nm += bool(rec[FLAG] & NELDER_MEAD)
    out = {m: c / k for m, c in calls.items()}
    out.update(
        {
            "jets.bytes_computed": jet_bytes / k,
            "fields.jet.points": field_points / k,
            "fields.jet.redundant_ratio": redundant / jet_calls if jet_calls else 0.0,
            "piecewise.eval.points": eval_points / k,
            "ratescan.evals": evals / k,
            "ratescan.improve_ratio": improved / evals if evals else 0.0,
            "ratescan.nm_share": nm / evals if evals else 0.0,
        }
    )
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names) / ops
    out["witness.build_s"] = build_s
    return out
