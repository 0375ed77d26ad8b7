"""Command-line front end.

Every command resolves its options from (defaults <- config file <- CLI
flags), echoes the normalized configuration into its artifacts, and exits
with a total status taxonomy:

    0  run completed, all asserted checks passed
    1  run completed, a mathematical check failed
    2  usage or precondition error (unknown command/key, bad inputs)
    3  operational error (missing file, unwritable output)
"""

from __future__ import annotations

import argparse
import json
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
    DEFAULT_TOL_FLOW,
    DEFAULT_TOL_QUAD,
    DEFAULT_TOL_SYMMETRY,
    FunctionalVector,
    squared_bracket_identity_check,
    integral_identity_check,
    kolmogorov_ratio,
    lh_check,
    symmetry_check,
    tol_disc,
)
from .jets import jet_cos
from .ratescan import default_families, rate_report
from .reporting import write_csv, write_json
from .witness import (
    WitnessConfig,
    build_witness,
    cutoff_witness,
    kappa_search,
    r_rectangle_scan,
    r_extrema,
    verify_oscillation_ratios,
)

# -- option table -----------------------------------------------------------------


def _converter(name: str, cast, *json_types):
    """An option's converter: cast(value) for a flag's text or a config value
    of one of json_types.  A bad value raises TypeError or ValueError, which
    argparse reports as a usage error naming the converter."""

    def convert(value):
        if type(value) not in json_types:
            raise TypeError(value)
        try:
            return cast(value)
        except ZeroDivisionError as e:  # Fraction("1/0")
            raise ValueError(value) from e

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
number = _converter("number", float, str, int, float)
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
    "seed": Option(0, integer, "random seed"),
    "out_dir": Option(None, text, "artifact directory (default $BRACKETLAB_OUT or cwd)"),
    "json": Option(None, text, "JSON artifact path"),
    "csv": Option(None, text, "CSV artifact path"),
}
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

    def normalized(self) -> dict:
        return {"command": self.command, **{k: self.options[k] for k in sorted(self.options)}}


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
    "cos-pq": lambda dom: AnalyticField(dom, lambda jp, jq: jet_cos(jp + jq), name="cos(p+q)"),
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
        if not a.domain.same_grid(b.domain):
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


def _functional(name: str, value, grid: int, tolerances: dict, report: dict):
    """A grid functional's command result: the report under what it is, its
    headline value, its grid and its tolerances.  A report with no check
    (kolmogorov's ratio) passes."""
    report = {"functional": name, "value": value, "grid": grid, "tolerances": tolerances,
              **report}
    return report, report.get("pass", True), None


@command("bch", "verify a composed-flow Lie-series expansion symbolically",
         which=Option("3.2", text, "which expansion", choices=("3.2", "3.3")),
         T=Option(5, integer, "series truncation order (1..8)", flags=("-T",)))
def cmd_bch(o: dict):
    verify = verify_symmetrized_expansion if o["which"] == "3.2" else verify_conjugated_expansion
    report = verify(o["T"])
    return report.to_json(), bool(report.match), None


@command("lemma-r", "extrema of the quadratic r(alpha,gamma,z) and the kappa margin",
         alpha=Option(1.1, number, "centre alpha0 of the kappa interval"),
         gamma=Option(1.63, number, "gamma in r(alpha,gamma,z)"),
         bound=Option(0.99, number, "bound on max |r|"),
         resolution=Option(1e-5, number, "alpha sweep resolution of the kappa search"))
def cmd_lemma_r(o: dict):
    ext = r_extrema(o["alpha"], o["gamma"])
    kappa = kappa_search(o["gamma"], o["bound"], o["alpha"], o["resolution"])
    scan = r_rectangle_scan(kappa, o["gamma"], alpha0=o["alpha"], bound=o["bound"])
    report = {"extrema": ext, "kappa": kappa, "rectangle_scan": scan, "bound": o["bound"]}
    return report, bool(scan["pass"]), None


@command("witness-build", "construct the counterexample profiles and certify them",
         delta=Option("1/20", fraction, "spacing of the c_i, as an exact fraction like 1/20"),
         grid_n=Option(2048, integer, "window grid points per axis"))
def cmd_witness_build(o: dict):
    fields = build_witness(WitnessConfig(delta=Fraction(o["delta"]), grid_n=o["grid_n"]))
    return fields.to_json(), True, None


@command("witness-verify", "ratio and residual scan of the perturbed double bracket",
         N_list=Option("100,1000,10000", int_list, "comma-separated frequencies",
                       flags=("--N-list", "--N")),
         grid_n=Option(2048, integer, "window grid points per axis", flags=("--grid-n", "--n")))
def cmd_witness_verify(o: dict):
    fields = build_witness(WitnessConfig(grid_n=o["grid_n"]))
    out = verify_oscillation_ratios(fields, N_list=_split(o["N_list"], int))
    out["cutoff"] = cut = cutoff_witness(fields)
    header = ["N", "ratio_max", "ratio_min", "residual", "maxR"]
    rows = [[r[k] for k in header] for r in out["rows"]]
    return out, bool(out["pass"] and cut["pass"]), (header, rows)


@command("lh-check", "Landau-Hadamard inequality for the double bracket",
         fields=FIELD_PAIR, n=GRID_256,
         trials=Option(0, integer, "additional random trig-polynomial pairs"))
def cmd_lh_check(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    results = [lh_check(F, G)]
    rng = np.random.default_rng(o["seed"])
    dom = Domain2.torus(o["n"])
    for _ in range(o["trials"]):
        results.append(lh_check(*_random_trig_pair(rng, dom)))
    worst = min(r["margin"] for r in results)
    return _functional(
        "double-bracket Landau-Hadamard", worst, o["n"], {"tol_disc": tol_disc(F.domain)},
        {"checks": results[:8], "n_checked": len(results), "worst_margin": worst,
         "pass": all(r["pass"] for r in results)},
    )


@command("kolmogorov", "oscillation ratio of iterated ad-power brackets",
         fields=FIELD_PAIR, n=GRID_256,
         N=Option(1, integer, "power N of (ad_F)^N G"),
         k=Option(None, integer, "k of H = (ad_G)^k F in (ad_H)^m G; needs --m"),
         m=Option(None, integer, "power m of (ad_H)^m G; needs --k"))
def cmd_kolmogorov(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    if o["k"] is not None or o["m"] is not None:
        report = kolmogorov_ratio(F, G, k=o["k"], m=o["m"])
    else:
        report = kolmogorov_ratio(F, G, N=o["N"])
    return _functional("iterated ad-power oscillation", report["ratio"], o["n"], {}, report)


@command("integral-identity", "integration-by-parts identity on the grid",
         fields=Option("sin-p,sin-q,cos-pq", text, "P,Q,R field names"),
         n=GRID_256,
         squares=Option(False, switch, "check the squared double-bracket identity form instead"))
def cmd_integral_identity(o: dict):
    if o["squares"]:
        report = squared_bracket_identity_check(*resolve_pair("sin-sin", o["n"]))
    else:
        names = o["fields"].split(",")
        if len(names) != 3:
            raise PreconditionError("integral-identity needs P,Q,R field names")
        dom = Domain2.torus(o["n"])
        report = integral_identity_check(*(_single_field(s, dom) for s in names))
    return _functional("bracket integral identity", report["rel_err"], o["n"],
                       {"tol_quad": DEFAULT_TOL_QUAD}, report)


@command("y-bound", "commutator-path Hamiltonian bound via flow advection",
         fields=FIELD_PAIR, n=GRID_128,
         s=Option(0.1, number, "scale s of F"),
         t=Option(0.1, number, "scale t of G"),
         steps=Option(64, integer, "RK4 steps per unit flow time"))
def cmd_y_bound(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    report = y_bound_check(F, G, s=o["s"], t=o["t"], steps=o["steps"])
    return _functional("commutator-path bound", report["slack"], o["n"],
                       {"tol_flow": DEFAULT_TOL_FLOW}, report)


@command("symmetry", "dihedral / scaling identities of the weighted functional",
         fields=FIELD_PAIR, n=GRID_128,
         v=Option("1,0,0,0", weights, "weight vector, e.g. 1,0,0,0"),
         element=Option("A", text, "symmetry to check", choices=("A", "B", "C", "scale", "all")),
         alpha=Option(2.0, number, "scale of F for --element scale"),
         beta=Option(3.0, number, "scale of G for --element scale"))
def cmd_symmetry(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    v = FunctionalVector(*_split(o["v"], float))
    elements = ["A", "B", "C", "scale"] if o["element"] == "all" else [o["element"]]
    checks = [symmetry_check(v, F, G, (o["alpha"], o["beta"]) if el == "scale" else el)
              for el in elements]
    return _functional(
        "weighted double-bracket symmetries", max(c["rel_err"] for c in checks), o["n"],
        {"rel_tol": DEFAULT_TOL_SYMMETRY},
        {"checks": checks, "pass": all(c["pass"] for c in checks)},
    )


@command("rate-scan", "perturbation search, decreases, and power-law fit",
         which=Option("maxFG", text, "functional to perturb", choices=("maxFG", "double")),
         n=GRID_256,
         eps_min=Option(1e-4, number, "smallest perturbation size"),
         eps_max=Option(1e-1, number, "largest perturbation size"),
         eps_count=Option(10, integer, "log-spaced perturbation sizes"),
         budget=Option(200, integer, "function evaluations per search"))
def cmd_rate_scan(o: dict):
    F, G = resolve_pair("sin-sin", o["n"])
    eps_grid = np.logspace(np.log10(o["eps_min"]), np.log10(o["eps_max"]), o["eps_count"])
    rep = rate_report(F, G, eps_grid, which=o["which"], families=default_families(o["seed"]),
                      budget=o["budget"], seed=o["seed"])
    rows = [
        [r["eps"], r["best"], r["decrease"], r["family"] or "",
         "" if r["params"] is None else ";".join("%.17g" % v for v in r["params"])]
        for r in rep.rows
    ]
    ok = all(v for v in rep.checks.values() if isinstance(v, bool))
    return rep.to_json(), ok, (["eps", "best_phi", "decrease", "family", "params"], rows)


@command("bracket-eval", "evaluate an iterated bracket word to a CSV matrix",
         word=Option("{{F,G},F}", text, "bracket word over the letters F and G"),
         fields=FIELD_PAIR, n=GRID_256)
def cmd_bracket_eval(o: dict):
    F, G = resolve_pair(o["fields"], o["n"])
    word = BracketWord.parse(o["word"])
    vals = iterated_bracket(word, F, G).values()
    report = {"word": str(word), "max": float(vals.max()), "min": float(vals.min()),
              "max_abs": float(np.max(np.abs(vals)))}
    return report, True, field_table(vals, F.domain)


def run(cfg: RunConfig) -> int:
    report, ok, table = COMMANDS[cfg.command].run(cfg.options)
    payload = {
        "tool": "bracketlab",
        "version": __version__,
        "config": cfg.normalized(),
        "pass": bool(ok),
        "report": report,
    }
    out_dir = cfg.options["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    json_path = cfg.options["json"] or os.path.join(out_dir, f"{cfg.command}.json")
    write_json(payload, json_path)
    if table is not None:
        csv_path = cfg.options["csv"] or os.path.join(out_dir, f"{cfg.command}.csv")
        write_csv(*table, csv_path)
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
