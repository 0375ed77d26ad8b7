"""Command-line front end.

Every command declares only the options it reads, resolves them from
(defaults <- config file <- CLI flags), echoes them into its JSON record,
and exits with a total status taxonomy:

    0  run completed, all asserted checks passed
    1  run completed, a mathematical check failed
    2  usage or precondition error (unknown command/key, bad inputs)
    3  operational error (missing file, unwritable output)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .advect import y_bound_check
from .brackets import BracketWord, iterated_bracket
from .domain import Domain2
from .errors import BoundsError, CheckFailed, ConstructionError, PreconditionError
from .expansions import verify_symmetrized_expansion, verify_conjugated_expansion
from .fields import (
    AnalyticField,
    field_table,
    load_field_csv,
    sin_p,
    sin_q,
    trig_polynomial,
    zero_field,
)
from .functionals import (
    FunctionalVector,
    squared_bracket_identity_check,
    integral_identity_check,
    kolmogorov_ratio,
    lh_check,
    symmetry_check,
)
from .jets import jet_cos
from .ratescan import default_families, rate_report
from .reporting import write_csv, write_json
from .witness import (
    WitnessConfig,
    build_witness,
    check_witness_invariants,
    cutoff_witness,
    kappa_search,
    r_rectangle_scan,
    r_extrema,
    verify_oscillation_ratios,
)

# -- option table -----------------------------------------------------------------


def _converter(name: str, cast, *json_types, ok=lambda x: True):
    """An option's converter: cast(value) for a flag's text or a config value
    of one of json_types, refused unless ok(cast(value)).  A bad value raises
    TypeError or ValueError, which argparse reports as a usage error naming
    the converter."""

    def convert(value):
        if type(value) not in json_types:
            raise TypeError(value)
        try:
            out = cast(value)
        except ZeroDivisionError as e:  # Fraction("1/0")
            raise ValueError(value) from e
        if not ok(out):
            raise ValueError(value)
        return out

    convert.__name__ = name
    return convert


def _split(s: str, cast) -> tuple:
    return tuple(cast(x) for x in s.split(","))


def _kept_text(parse):
    """Cast for an option the config echoes as text: the text, once ``parse``
    accepts it; the command parses it again."""

    def cast(s: str) -> str:
        parse(s)
        return s

    return cast


text = _converter("text", str, str)
integer = _converter("integer", int, str, int)
count = _converter("count", int, str, int, ok=lambda x: x >= 0)
number = _converter("number", float, str, int, float, ok=math.isfinite)
positive = _converter("positive number", float, str, int, float, ok=lambda x: 0 < x < np.inf)
switch = _converter("switch", bool, bool)
fraction = _converter("fraction", _kept_text(Fraction), str)
int_list = _converter("integer list", _kept_text(lambda s: _split(s, int)), str)
weights = _converter("weights", _kept_text(lambda s: FunctionalVector(*_split(s, float))), str)


@dataclass(frozen=True)
class Option:
    default: object
    convert: Callable
    help: str
    flags: tuple[str, ...] = ()  # default: ("--" + key with '_' spelled '-',)
    choices: tuple | None = None

    def check(self, key: str, value):
        """A config file's value, converted and checked as its flag would be."""
        if value is None and self.default is None:
            return None
        try:
            value = self.convert(value)
        except (TypeError, ValueError):
            raise PreconditionError(f"config {key!r}: invalid {self.convert.__name__} {value!r}")
        if self.choices is not None and value not in self.choices:
            raise PreconditionError(f"config {key!r}: {value!r} is not one of {self.choices}")
        return value


COMMON_OPTIONS = {
    "out_dir": Option(None, text, "artifact directory (default $BRACKETLAB_OUT or cwd)"),
    "json": Option(None, text, "JSON artifact path"),
}
SEED = Option(0, integer, "random seed")
CSV = Option(None, text, "CSV artifact path")
FIELD_PAIR = Option("sin-sin", text, "field pair: sin-sin, witness, or name,name")
GRID_256 = Option(256, integer, "grid points per axis")
GRID_128 = Option(128, integer, "grid points per axis")
Command = namedtuple("Command", "run help options")
COMMANDS: dict[str, Command] = {}


def command(name: str, help_: str, **options: Option):
    """Declare a command: its function, help text and option table."""

    def register(fn):
        COMMANDS[name] = Command(fn, help_, {**COMMON_OPTIONS, **options})
        return fn

    return register


@dataclass
class RunConfig:
    command: str
    options: dict


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bracketlab",
        description="Poisson-bracket functional calculus: expansions, rigidity checks, "
        "counterexample verification and perturbation rate scans.",
    )
    p.add_argument("--version", action="version", version=f"bracketlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        for key, opt in cmd.options.items():
            flags = opt.flags or ("--" + key.replace("_", "-"),)
            kind = ({"action": "store_const", "const": True} if isinstance(opt.default, bool)
                    else {"type": opt.convert, "choices": opt.choices})
            help_ = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            sp.add_argument(*flags, dest=key, help=help_, **kind)
    return p


def resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    table = COMMANDS[command].options
    options = {key: opt.default for key, opt in table.items()}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
                raise PreconditionError(f"config file is not valid JSON: {e}") from e
        if not isinstance(file_cfg, dict):
            raise PreconditionError("config file must hold a JSON object of option values")
        unknown = set(file_cfg) - set(table)
        if unknown:
            raise PreconditionError(f"unknown config keys for {command}: {sorted(unknown)}")
        options.update({key: table[key].check(key, v) for key, v in file_cfg.items()})
    for key in table:
        flag_val = getattr(args, key)
        if flag_val is not None:
            options[key] = flag_val
    if options["out_dir"] is None:
        options["out_dir"] = os.environ.get("BRACKETLAB_OUT", ".")
    return RunConfig(command, options)


# -- field resolution ------------------------------------------------------------

_NAMED = {
    "sin-p": sin_p,
    "sin-q": sin_q,
    "zero": zero_field,
    "cos-pq": lambda dom: AnalyticField(dom, lambda jp, jq: jet_cos(jp + jq)),
}


def _single_field(name: str, domain: Domain2):
    if name in _NAMED:
        return _NAMED[name](domain)
    if name.endswith(".csv"):
        if not os.path.exists(name):
            raise FileNotFoundError(f"field file not found: {name}")
        return load_field_csv(name)
    raise PreconditionError(f"unknown field name {name!r}")


def resolve_pair(spec: str, n: int):
    if spec == "sin-sin":
        dom = Domain2.torus(n)
        return sin_p(dom), sin_q(dom)
    if spec == "witness":
        wf = build_witness(check=False)
        dom = wf.window_domain(n)
        return wf.field_F(dom), wf.field_G(dom)
    names = spec.split(",")
    if len(names) != 2:
        raise PreconditionError(f"field pair spec must be 'name,name', got {spec!r}")
    if all(s.endswith(".csv") for s in names):
        a, b = (_single_field(s, None) for s in names)
        if a.domain != b.domain:
            raise PreconditionError("CSV fields live on different grids")
        return a, b
    dom = Domain2.torus(n)
    return _single_field(names[0], dom), _single_field(names[1], dom)


def _random_trig_pair(rng: np.random.Generator, dom: Domain2):
    def one():
        coeffs = rng.normal(size=(3, 3)) * np.array([1.0, 0.5, 0.25])[None, :]
        coeffs *= np.array([1.0, 0.5, 0.25])[:, None]
        scale = float(np.sum(np.abs(coeffs)))
        return trig_polynomial(
            dom, coeffs / scale, rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, 2 * np.pi, 3)
        )

    return one(), one()


# -- commands ---------------------------------------------------------------------


def _refuse_unread(o: dict, command: str, keys: tuple, why: str):
    """Refuse options set away from their defaults, by flag or config key,
    that this run of the command would echo without reading."""
    for key in keys:
        if o[key] != COMMANDS[command].options[key].default:
            raise PreconditionError(f"--{key} {why}")


def _functional(name: str, value, grid: int, report: dict):
    """A grid functional's command result: the report under what it is, its
    headline value and its grid.  A report with no checks (kolmogorov's
    ratio) gets an empty map."""
    return {"functional": name, "value": value, "grid": grid, "checks": {}, **report}, None


@command("bch", "verify a composed-flow Lie-series expansion symbolically",
         which=Option("3.2", text, "which expansion", choices=("3.2", "3.3")),
         T=Option(5, integer, "series truncation order (1..8)", flags=("-T",)))
def cmd_bch(o: dict):
    verify = verify_symmetrized_expansion if o["which"] == "3.2" else verify_conjugated_expansion
    return verify(o["T"]).to_json(), None


@command("lemma-r", "extrema of the quadratic r(alpha,gamma,z) and the kappa margin",
         alpha=Option(1.1, _converter("nonzero number", float, str, int, float,
                                      ok=lambda x: x != 0 and math.isfinite(x)),
                      "centre alpha0 of the kappa interval"),
         gamma=Option(1.63, number, "gamma in r(alpha,gamma,z)"),
         bound=Option(0.99, number, "bound on max |r|"),
         resolution=Option(1e-5, number, "alpha sweep resolution of the kappa search"))
def cmd_lemma_r(o: dict):
    ext = r_extrema(o["alpha"], o["gamma"])
    kappa = kappa_search(o["gamma"], o["bound"], o["alpha"], o["resolution"])
    scan = r_rectangle_scan(kappa, o["gamma"], alpha0=o["alpha"], bound=o["bound"])
    return {"extrema": ext, "kappa": kappa, "checks": {"rectangle_scan": scan}}, None


@command("witness-build", "construct the counterexample profiles and certify them",
         delta=Option("1/20", fraction, "spacing of the c_i, as an exact fraction like 1/20"))
def cmd_witness_build(o: dict):
    fields = build_witness(WitnessConfig(delta=Fraction(o["delta"])), check=False)
    return {**fields.to_json(), "checks": check_witness_invariants(fields)}, None


@command("witness-verify", "ratio and residual scan of the perturbed double bracket",
         N_list=Option("100,1000,10000", int_list, "comma-separated frequencies",
                       flags=("--N-list", "--N")),
         grid_n=Option(2048, integer, "window grid points per axis", flags=("--grid-n", "--n")),
         csv=CSV)
def cmd_witness_verify(o: dict):
    fields = build_witness()
    out = verify_oscillation_ratios(fields, _split(o["N_list"], int), o["grid_n"])
    out["checks"].update(cutoff_witness(fields))
    header = ["N", "ratio_max", "ratio_min", "residual", "maxR"]
    rows = [[r[k] for k in header] for r in out["rows"]]
    return out, (header, rows)


@command("lh-check", "Landau-Hadamard inequality for the double bracket",
         fields=FIELD_PAIR, n=GRID_256,
         trials=Option(0, count, "additional random trig-polynomial pairs"), seed=SEED)
def cmd_lh_check(o: dict):
    if not o["trials"]:
        _refuse_unread(o, "lh-check", ("seed",), "draws the random pairs of --trials, which is 0")
    F, G = resolve_pair(o["fields"], o["n"])
    checks = {"given_pair": lh_check(F, G)}
    rng = np.random.default_rng(o["seed"])
    dom = Domain2.torus(o["n"])
    trials = [lh_check(*_random_trig_pair(rng, dom)) for _ in range(o["trials"])]
    if trials:
        # one tol for all trials, so this record passes iff every trial does
        checks["worst_random_pair"] = min(trials, key=lambda c: c["margin"])
    worst = min(c["margin"] for c in checks.values())
    return _functional("double-bracket Landau-Hadamard", worst, o["n"], {"checks": checks})


@command("kolmogorov", "oscillation ratio of iterated ad-power brackets",
         fields=FIELD_PAIR, n=GRID_256,
         N=Option(None, integer, "power N of (ad_F)^N G; 1 when --k and --m are unset"),
         k=Option(None, integer, "k of H = (ad_G)^k F in (ad_H)^m G; needs --m"),
         m=Option(None, integer, "power m of (ad_H)^m G; needs --k"))
def cmd_kolmogorov(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    N = 1 if o["N"] is None and o["k"] is None and o["m"] is None else o["N"]
    report = kolmogorov_ratio(F, G, N=N, k=o["k"], m=o["m"])
    return _functional("iterated ad-power oscillation", report["ratio"], o["n"], report)


@command("integral-identity", "integration-by-parts identity on the grid",
         fields=Option("sin-p,sin-q,cos-pq", text, "P,Q,R field names"),
         n=GRID_256,
         squares=Option(False, switch, "check the squared double-bracket identity form instead"))
def cmd_integral_identity(o: dict):
    if o["squares"]:
        _refuse_unread(o, "integral-identity", ("fields",), "is not read with --squares, "
                       "which checks sin p, sin q")
        report = squared_bracket_identity_check(*resolve_pair("sin-sin", o["n"]))
    else:
        names = o["fields"].split(",")
        if len(names) != 3:
            raise PreconditionError("integral-identity needs P,Q,R field names")
        dom = Domain2.torus(o["n"])
        report = integral_identity_check(*(_single_field(s, dom) for s in names))
    return _functional("bracket integral identity", report["checks"]["identity"]["value"],
                       o["n"], report)


@command("y-bound", "commutator-path Hamiltonian bound via flow advection",
         fields=FIELD_PAIR, n=GRID_128,
         s=Option(0.1, number, "scale s of F"),
         t=Option(0.1, number, "scale t of G"),
         steps=Option(64, integer, "RK4 steps per unit flow time"))
def cmd_y_bound(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    rec = y_bound_check(F, G, s=o["s"], t=o["t"], steps=o["steps"])
    return _functional("commutator-path bound", rec["margin"], o["n"], {"checks": {"y_bound": rec}})


@command("symmetry", "dihedral / scaling identities of the weighted functional",
         fields=FIELD_PAIR, n=GRID_128,
         v=Option("1,0,0,0", weights, "weight vector, e.g. 1,0,0,0"),
         element=Option("A", text, "symmetry to check", choices=("A", "B", "C", "scale", "all")),
         alpha=Option(2.0, number, "scale of F for --element scale"),
         beta=Option(3.0, number, "scale of G for --element scale"))
def cmd_symmetry(o: dict):
    if o["element"] in ("A", "B", "C"):
        _refuse_unread(o, "symmetry", ("alpha", "beta"), "is read only with --element scale or all")
    F, G = resolve_pair(o["fields"], o["n"])
    v = FunctionalVector(*_split(o["v"], float))
    elements = ["A", "B", "C", "scale"] if o["element"] == "all" else [o["element"]]
    sides, checks = [], {}
    for el in elements:
        rep = symmetry_check(v, F, G, (o["alpha"], o["beta"]) if el == "scale" else el)
        checks.update(rep.pop("checks"))
        sides.append(rep)
    return _functional("weighted double-bracket symmetries",
                       max(c["value"] for c in checks.values()), o["n"],
                       {"elements": sides, "checks": checks})


@command("rate-scan", "perturbation search, decreases, and power-law fit",
         which=Option("maxFG", text, "functional to perturb", choices=("maxFG", "double")),
         n=GRID_256,
         eps_min=Option(1e-4, positive, "smallest perturbation size"),
         eps_max=Option(1e-1, positive, "largest perturbation size"),
         eps_count=Option(10, _converter("count (>= 3)", int, str, int, ok=lambda x: x >= 3),
                          "log-spaced perturbation sizes"),
         budget=Option(200, integer, "function evaluations per search"), seed=SEED, csv=CSV)
def cmd_rate_scan(o: dict):
    F, G = resolve_pair("sin-sin", o["n"])
    eps_grid = np.logspace(np.log10(o["eps_min"]), np.log10(o["eps_max"]), o["eps_count"])
    rep = rate_report(F, G, eps_grid, which=o["which"], families=default_families(o["seed"]),
                      budget=o["budget"], seed=o["seed"])
    rows = [
        [r["eps"], r["best"], r["decrease"], r["family"] or "",
         "" if r["params"] is None else ";".join("%.17g" % v for v in r["params"])]
        for r in rep["rows"]
    ]
    return rep, (["eps", "best_phi", "decrease", "family", "params"], rows)


@command("bracket-eval", "evaluate an iterated bracket word to a CSV matrix",
         word=Option("{{F,G},F}", text, "bracket word over the letters F and G"),
         fields=FIELD_PAIR, n=GRID_256, csv=CSV)
def cmd_bracket_eval(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    word = BracketWord.parse(o["word"])
    vals = iterated_bracket(word, F, G).values()
    report = {"word": str(word), "max": float(vals.max()), "min": float(vals.min()),
              "max_abs": float(np.max(np.abs(vals))), "checks": {}}
    return report, field_table(vals, F.domain)


def run(cfg: RunConfig) -> int:
    """Run one command and write its artifacts.  A command returns (report,
    table) with report["checks"] mapping names to reporting.check records;
    the run passes when every record passes, so a command with none passes.
    The JSON record is written last, so a failed run leaves none behind."""
    report, table = COMMANDS[cfg.command].run(cfg.options)
    ok = all(c["pass"] for c in report["checks"].values())
    out_dir = cfg.options["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    if table is not None:
        write_csv(*table, cfg.options["csv"] or os.path.join(out_dir, f"{cfg.command}.csv"))
    payload = {
        "tool": "bracketlab",
        "version": __version__,
        "config": {"command": cfg.command, **cfg.options},
        "pass": ok,
        "report": report,
    }
    json_path = cfg.options["json"] or os.path.join(out_dir, f"{cfg.command}.json")
    write_json(payload, json_path)
    print(f"{cfg.command}: {'PASS' if ok else 'FAIL'} ({json_path})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except (PreconditionError, BoundsError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (CheckFailed, ConstructionError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a missing file, an unwritable output
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
