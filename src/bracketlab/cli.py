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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .advect import y_bound_check
from .brackets import BracketWord, iterated_bracket
from .domain import Domain2
from .errors import BoundsError, CheckFailed, ConstructionError, PreconditionError
from .expansions import verify_symmetrized_expansion, verify_conjugated_expansion
from .fields import (
    AnalyticField,
    load_field_csv,
    save_field_csv,
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
    cutoff_witness,
    kappa_search,
    r_rectangle_scan,
    r_extrema,
    verify_oscillation_ratios,
)

COMMON_DEFAULTS = {"seed": 0, "out_dir": None, "json": None, "csv": None}

DEFAULTS: dict[str, dict] = {
    "bch": {"which": "3.2", "T": 5},
    "lemma-r": {"alpha": 1.1, "gamma": 1.63, "bound": 0.99, "resolution": 1e-5},
    "witness-build": {"delta": "1/20", "grid_n": 2048},
    "witness-verify": {"N_list": "100,1000,10000", "grid_n": 2048},
    "lh-check": {"fields": "sin-sin", "n": 256, "trials": 0},
    "kolmogorov": {"fields": "sin-sin", "n": 256, "N": 1, "k": None, "m": None},
    "integral-identity": {"fields": "sin-p,sin-q,cos-pq", "n": 256, "squares": False},
    "y-bound": {"fields": "sin-sin", "n": 128, "s": 0.1, "t": 0.1, "steps": 64},
    "symmetry": {"fields": "sin-sin", "n": 128, "v": "1,0,0,0", "element": "A",
                 "alpha": 2.0, "beta": 3.0},
    "rate-scan": {"which": "maxFG", "n": 256, "eps_min": 1e-4, "eps_max": 1e-1,
                  "eps_count": 10, "budget": 200},
    "bracket-eval": {"word": "{{F,G},F}", "fields": "sin-sin", "n": 256},
}


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

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out-dir", dest="out_dir", help="artifact directory "
                        "(default $BRACKETLAB_OUT or cwd)")
        sp.add_argument("--json", help="JSON artifact path")
        sp.add_argument("--csv", help="CSV artifact path")
        return sp

    sp = add("bch", "verify a composed-flow Lie-series expansion symbolically")
    sp.add_argument("--which", choices=["3.2", "3.3"])
    sp.add_argument("-T", type=int, help="series truncation order (1..8)")

    sp = add("lemma-r", "extrema of the quadratic r(alpha,gamma,z) and the kappa margin")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--bound", type=float)
    sp.add_argument("--resolution", type=float)

    sp = add("witness-build", "construct the counterexample profiles and certify them")
    sp.add_argument("--delta", help="spacing of the c_i, as an exact fraction like 1/20")
    sp.add_argument("--grid-n", dest="grid_n", type=int)

    sp = add("witness-verify", "ratio and residual scan of the perturbed double bracket")
    sp.add_argument("--N-list", dest="N_list", help="comma-separated frequencies")
    sp.add_argument("--N", dest="N_list", help="single frequency (alias)")
    sp.add_argument("--grid-n", "--n", dest="grid_n", type=int)

    sp = add("lh-check", "Landau-Hadamard inequality for the double bracket")
    sp.add_argument("--fields")
    sp.add_argument("--n", type=int)
    sp.add_argument("--trials", type=int, help="additional random trig-polynomial pairs")

    sp = add("kolmogorov", "oscillation ratio of iterated ad-power brackets")
    sp.add_argument("--fields")
    sp.add_argument("--n", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--m", type=int)

    sp = add("integral-identity", "integration-by-parts identity on the grid")
    sp.add_argument("--fields", help="P,Q,R field names")
    sp.add_argument("--n", type=int)
    sp.add_argument("--squares", dest="squares", action="store_const", const=True,
                    help="check the squared double-bracket identity form instead")

    sp = add("y-bound", "commutator-path Hamiltonian bound via flow advection")
    sp.add_argument("--fields")
    sp.add_argument("--n", type=int)
    sp.add_argument("--s", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--steps", type=int)

    sp = add("symmetry", "dihedral / scaling identities of the weighted functional")
    sp.add_argument("--fields")
    sp.add_argument("--n", type=int)
    sp.add_argument("--v", help="weight vector, e.g. 1,0,0,0")
    sp.add_argument("--element", choices=["A", "B", "C", "scale", "all"])
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)

    sp = add("rate-scan", "perturbation search, decreases, and power-law fit")
    sp.add_argument("--which", choices=["maxFG", "double"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--eps-min", dest="eps_min", type=float)
    sp.add_argument("--eps-max", dest="eps_max", type=float)
    sp.add_argument("--eps-count", dest="eps_count", type=int)
    sp.add_argument("--budget", type=int)

    sp = add("bracket-eval", "evaluate an iterated bracket word to a CSV matrix")
    sp.add_argument("--word")
    sp.add_argument("--fields")
    sp.add_argument("--n", type=int)
    return p


def resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    defaults = {**COMMON_DEFAULTS, **DEFAULTS[command]}
    options = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        if not os.path.exists(cfg_path):
            raise FileNotFoundError(f"config file not found: {cfg_path}")
        with open(cfg_path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise PreconditionError(f"config file is not valid JSON: {e}") from e
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise PreconditionError(f"unknown config keys for {command}: {sorted(unknown)}")
        options.update(file_cfg)
    for key in defaults:
        flag_val = getattr(args, key, None)
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
        a = _single_field(names[0], None)
        b = load_field_csv(names[1])
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


def cmd_bch(cfg: RunConfig):
    which, T = cfg.options["which"], int(cfg.options["T"])
    report = verify_symmetrized_expansion(T) if which == "3.2" else verify_conjugated_expansion(T)
    return report.to_json(), bool(report.match), None


def cmd_lemma_r(cfg: RunConfig):
    o = cfg.options
    ext = r_extrema(o["alpha"], o["gamma"])
    kappa = kappa_search(o["gamma"], o["bound"], o["alpha"], o["resolution"])
    scan = r_rectangle_scan(kappa, o["gamma"])
    report = {"extrema": ext, "kappa": kappa, "rectangle_scan": scan, "bound": o["bound"]}
    return report, bool(scan["pass"]), None


def cmd_witness_build(cfg: RunConfig):
    wcfg = WitnessConfig(delta=Fraction(str(cfg.options["delta"])), grid_n=int(cfg.options["grid_n"]))
    fields = build_witness(wcfg)
    return fields.to_json(), True, None


def cmd_witness_verify(cfg: RunConfig):
    N_list = tuple(int(x) for x in str(cfg.options["N_list"]).split(","))
    wcfg = WitnessConfig(grid_n=int(cfg.options["grid_n"]))
    fields = build_witness(wcfg)
    out = verify_oscillation_ratios(fields, N_list=N_list)
    cut = cutoff_witness(fields)
    out["cutoff"] = cut
    rows = [
        [r["N"], r["ratio_max"], r["ratio_min"], r["residual"], r["maxR"]] for r in out["rows"]
    ]
    csv_payload = (["N", "ratio_max", "ratio_min", "residual", "maxR"], rows)
    return out, bool(out["pass"] and cut["pass"]), csv_payload


def cmd_lh_check(cfg: RunConfig):
    o = cfg.options
    F, G = resolve_pair(o["fields"], int(o["n"]))
    results = [lh_check(F, G)]
    rng = np.random.default_rng(int(o["seed"]))
    dom = Domain2.torus(int(o["n"]))
    for _ in range(int(o["trials"])):
        Fr, Gr = _random_trig_pair(rng, dom)
        results.append(lh_check(Fr, Gr))
    worst = min(r["margin"] for r in results)
    report = {"functional": "double-bracket Landau-Hadamard", "value": worst,
              "grid": int(o["n"]), "tolerances": {"tol_disc": 10.0 * F.domain.h**2},
              "checks": results if len(results) <= 8 else results[:8],
              "n_checked": len(results), "worst_margin": worst,
              "pass": all(r["pass"] for r in results)}
    return report, bool(report["pass"]), None


def cmd_kolmogorov(cfg: RunConfig):
    o = cfg.options
    F, G = resolve_pair(o["fields"], int(o["n"]))
    if o["k"] is not None or o["m"] is not None:
        report = kolmogorov_ratio(F, G, k=int(o["k"]), m=int(o["m"]))
    else:
        report = kolmogorov_ratio(F, G, N=int(o["N"]))
    report = {"functional": "iterated ad-power oscillation", "value": report["ratio"],
              "grid": int(o["n"]), "tolerances": {}, **report}
    return report, True, None


def cmd_integral_identity(cfg: RunConfig):
    o = cfg.options
    n = int(o["n"])
    if o["squares"]:
        F, G = resolve_pair("sin-sin", n)
        report = squared_bracket_identity_check(F, G)
    else:
        names = str(o["fields"]).split(",")
        if len(names) != 3:
            raise PreconditionError("integral-identity needs P,Q,R field names")
        dom = Domain2.torus(n)
        P, Q, R = (_single_field(s, dom) for s in names)
        report = integral_identity_check(P, Q, R)
    report = {"functional": "bracket integral identity", "value": report["rel_err"],
              "grid": n, "tolerances": {"tol_quad": 1e-6}, **report}
    return report, bool(report["pass"]), None


def cmd_y_bound(cfg: RunConfig):
    o = cfg.options
    F, G = resolve_pair(o["fields"], int(o["n"]))
    report = y_bound_check(F, G, s=float(o["s"]), t=float(o["t"]), steps=int(o["steps"]))
    report = {"functional": "commutator-path bound", "value": report["slack"],
              "grid": int(o["n"]), "tolerances": {"tol_flow": 1e-4}, **report}
    return report, bool(report["pass"]), None


def cmd_symmetry(cfg: RunConfig):
    o = cfg.options
    F, G = resolve_pair(o["fields"], int(o["n"]))
    v = FunctionalVector(*(float(x) for x in str(o["v"]).split(",")))
    elements = ["A", "B", "C", "scale"] if o["element"] == "all" else [o["element"]]
    checks = []
    for el in elements:
        arg = (float(o["alpha"]), float(o["beta"])) if el == "scale" else el
        checks.append(symmetry_check(v, F, G, arg))
    report = {"functional": "weighted double-bracket symmetries",
              "value": max(c["rel_err"] for c in checks), "grid": int(o["n"]),
              "tolerances": {"rel_tol": 1e-12},
              "checks": checks, "pass": all(c["pass"] for c in checks)}
    return report, bool(report["pass"]), None


def cmd_rate_scan(cfg: RunConfig):
    o = cfg.options
    F, G = resolve_pair("sin-sin", int(o["n"]))
    eps_grid = np.logspace(
        np.log10(float(o["eps_min"])), np.log10(float(o["eps_max"])), int(o["eps_count"])
    )
    rep = rate_report(
        F,
        G,
        eps_grid,
        which=o["which"],
        families=default_families(int(o["seed"])),
        budget=int(o["budget"]),
        seed=int(o["seed"]),
    )
    rows = [
        [r["eps"], r["best"], r["decrease"], r["family"] or "",
         "" if r["params"] is None else ";".join("%.17g" % v for v in r["params"])]
        for r in rep.rows
    ]
    ok = all(v for v in rep.checks.values() if isinstance(v, bool))
    return rep.to_json(), ok, (["eps", "best_phi", "decrease", "family", "params"], rows)


def cmd_bracket_eval(cfg: RunConfig):
    o = cfg.options
    F, G = resolve_pair(o["fields"], int(o["n"]))
    word = BracketWord.parse(o["word"])
    field = iterated_bracket(word, F, G)
    vals = field.values()
    report = {
        "word": str(word),
        "max": float(vals.max()),
        "min": float(vals.min()),
        "max_abs": float(np.max(np.abs(vals))),
    }
    return report, True, ("matrix", vals, F.domain)


COMMANDS = {
    "bch": cmd_bch,
    "lemma-r": cmd_lemma_r,
    "witness-build": cmd_witness_build,
    "witness-verify": cmd_witness_verify,
    "lh-check": cmd_lh_check,
    "kolmogorov": cmd_kolmogorov,
    "integral-identity": cmd_integral_identity,
    "y-bound": cmd_y_bound,
    "symmetry": cmd_symmetry,
    "rate-scan": cmd_rate_scan,
    "bracket-eval": cmd_bracket_eval,
}


def run(cfg: RunConfig) -> int:
    report, ok, extra = COMMANDS[cfg.command](cfg)
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
    if extra is not None:
        csv_path = cfg.options["csv"] or os.path.join(out_dir, f"{cfg.command}.csv")
        if extra[0] == "matrix":
            _, vals, domain = extra
            save_field_csv(vals, domain, csv_path)
        else:
            header, rows = extra
            write_csv(header, rows, csv_path)
    print(f"{cfg.command}: {'PASS' if ok else 'FAIL'} ({json_path})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PreconditionError, BoundsError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (CheckFailed, ConstructionError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"operational error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
