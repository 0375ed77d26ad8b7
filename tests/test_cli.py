import json
import subprocess
import sys
from math import pi

import numpy as np
import pytest

from bracketlab import functionals
from bracketlab.cli import COMMANDS, build_parser, main, resolve_config
from bracketlab.domain import Domain2
from bracketlab.fields import save_field_csv
from bracketlab.reporting import METHODS


def run_cli(args, cwd):
    return main(args + ["--out-dir", str(cwd)])


def test_parse_bch():
    args = build_parser().parse_args(["bch", "--which", "3.2", "-T", "5"])
    cfg = resolve_config(args)
    assert cfg.command == "bch" and cfg.options["T"] == 5 and cfg.options["which"] == "3.2"


def test_parse_lemma_r_defaults():
    args = build_parser().parse_args(["lemma-r"])
    cfg = resolve_config(args)
    assert cfg.options["alpha"] == 1.1 and cfg.options["gamma"] == 1.63


def test_seed_defaults_to_zero():
    args = build_parser().parse_args(["lh-check"])
    assert resolve_config(args).options["seed"] == 0


def test_unknown_command_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "bracketlab.cli", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_only_the_nelder_mead_step_loads_scipy_optimize(tmp_path):
    # a fresh interpreter, so no other test has imported scipy yet
    code = f"""
import sys
import bracketlab.cli
assert "scipy" not in sys.modules, "import bracketlab.cli loaded scipy"
for argv in (["bch", "--which", "3.2"], ["lh-check", "--trials", "2", "--n", "32"],
             ["witness-verify", "--N-list", "100", "--grid-n", "64"]):
    assert bracketlab.cli.main(argv + ["--out-dir", {str(tmp_path)!r}]) == 0, argv
    assert "scipy.optimize" not in sys.modules, argv
from bracketlab.domain import Domain2
from bracketlab.fields import sin_p, sin_q
from bracketlab.ratescan import phi_bar_upper
dom = Domain2.torus(32)
phi_bar_upper(sin_p(dom), sin_q(dom), 1e-2, budget=60)
assert "scipy.optimize" in sys.modules, "Nelder-Mead did not run"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bch_32_passes(tmp_path):
    assert run_cli(["bch", "--which", "3.2", "-T", "5"], tmp_path) == 0
    payload = json.loads((tmp_path / "bch.json").read_text())
    assert payload["pass"] is True
    assert payload["report"]["checks"]["match"]["pass"] is True
    assert payload["config"]["command"] == "bch"
    assert payload["version"]


def test_lemma_r_defaults_pass(tmp_path):
    assert run_cli(["lemma-r"], tmp_path) == 0
    payload = json.loads((tmp_path / "lemma-r.json").read_text())
    ext = payload["report"]["extrema"]
    assert abs(ext["r_minus1"] + 0.153) < 1e-12
    assert abs(ext["r_plus1"] - 0.987) < 1e-12


@pytest.mark.parametrize("flag, value", [("--alpha", 1.0), ("--bound", 0.995)])
def test_lemma_r_scans_the_rectangle_of_its_own_kappa(tmp_path, flag, value):
    # kappa is searched around --alpha against --bound; the scan must use both
    assert run_cli(["lemma-r", flag, str(value)], tmp_path) == 0
    scan = json.loads((tmp_path / "lemma-r.json").read_text())["report"]["checks"]["rectangle_scan"]
    assert scan["pass"] is True
    assert scan["value"] < scan["bound"] == (value if flag == "--bound" else 0.99)


def test_lh_check_zero_fields_exit_2(tmp_path):
    assert run_cli(["lh-check", "--fields", "zero,zero"], tmp_path) == 2


def test_lh_check_constant_G_exit_2(tmp_path, capsys):
    dom = Domain2.torus(32)
    P, _ = dom.grid()
    save_field_csv(np.sin(P), dom, tmp_path / "sp.csv")
    save_field_csv(np.ones_like(P), dom, tmp_path / "one.csv")
    fields = f"{tmp_path / 'sp.csv'},{tmp_path / 'one.csv'}"
    assert run_cli(["lh-check", "--fields", fields], tmp_path) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "lh-check.json").exists()


def test_missing_csv_field_exit_3(tmp_path):
    assert run_cli(["lh-check", "--fields", "nope.csv,nada.csv"], tmp_path) == 3


def test_missing_config_file_exit_3(tmp_path):
    assert run_cli(["bch", "--config", str(tmp_path / "none.json")], tmp_path) == 3


def test_config_file_merging_and_flag_priority(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"which": "3.3", "T": 4}))
    args = build_parser().parse_args(["bch", "--config", str(cfg_file), "-T", "3"])
    cfg = resolve_config(args)
    assert cfg.options["which"] == "3.3"  # from file
    assert cfg.options["T"] == 3  # flag wins


def exit_status(args):
    try:
        return main(args)
    except SystemExit as e:  # argparse rejected a flag
        return e.code


@pytest.mark.parametrize(
    "args, config",
    [
        (["symmetry", "--v", "1,a,0,0"], None),
        (["symmetry", "--v", "1,2"], None),
        (["witness-verify", "--N-list", "100,x"], None),
        (["witness-build", "--delta", "1/0"], None),
        (["witness-build", "--delta", "abc"], None),
        (["kolmogorov", "--k", "1", "--n", "32"], None),
        (["kolmogorov", "--N", "0", "--n", "32"], None),
        (["lemma-r", "--resolution", "0"], None),
        (["lh-check"], {"seed": "x"}),
        (["lh-check"], {"n": "abc"}),
        (["lh-check"], {"n": 64.5}),
        (["lh-check"], {"trials": True}),
        (["bracket-eval"], {"fields": 5}),
        (["integral-identity"], {"squares": "no"}),
        (["bch"], {"which": "3.4"}),
        (["bch"], [{"which": "3.2"}]),
        (["witness-build", "--grid-n", "2"], None),
        (["lh-check", "--trials", "-3", "--n", "32"], None),
        (["lh-check"], {"trials": -3}),
        (["rate-scan", "--eps-min", "0"], None),
        (["rate-scan", "--eps-max", "-1"], None),
        (["rate-scan"], {"eps_min": 0}),
        (["rate-scan", "--eps-count", "1"], None),
        (["rate-scan"], {"eps_count": 2}),
        (["lemma-r", "--alpha", "0"], None),
        (["lemma-r"], {"alpha": 0}),
        (["lemma-r", "--gamma", "nan"], None),
        (["lemma-r", "--alpha", "-inf"], None),
        (["lemma-r"], {"bound": float("nan")}),
        (["symmetry", "--element", "scale", "--alpha", "inf", "--n", "32"], None),
        (["symmetry", "--element", "scale", "--n", "32"], {"beta": float("-inf")}),
        (["symmetry", "--v", "nan,1,1,1", "--n", "32"], None),
        (["symmetry", "--v", "1,inf,1,1", "--n", "32"], None),
        (["symmetry", "--n", "32"], {"v": "1,0,0,nan"}),
        (["bch", "--seed", "1"], None),
        (["bch", "--csv", "x.csv"], None),
        (["witness-verify", "--seed", "1"], None),
        (["bch"], {"seed": 0}),
        (["kolmogorov", "--N", "3", "--k", "1", "--m", "1", "--n", "32"], None),
        (["witness-build", "--delta", "1/100"], None),
    ],
    ids=["v-text", "v-length", "N-list-text", "delta-1/0", "delta-text", "k-without-m", "N-0",
         "resolution-0", "cfg-seed", "cfg-n-text", "cfg-n-float", "cfg-trials-bool",
         "cfg-fields-number", "cfg-squares-text", "cfg-which-choice", "cfg-list",
         "witness-build-grid-n", "trials-negative", "cfg-trials-negative", "eps-min-0",
         "eps-max-negative", "cfg-eps-min-0", "eps-count-1", "cfg-eps-count-2", "alpha-0",
         "cfg-alpha-0", "gamma-nan", "alpha-minus-inf", "cfg-bound-nan", "symmetry-alpha-inf",
         "cfg-symmetry-beta-minus-inf", "v-nan", "v-inf", "cfg-v-nan", "bch-seed", "bch-csv",
         "witness-verify-seed", "cfg-bch-seed", "N-with-k-m", "delta-too-small"],
)
def test_malformed_values_exit_2(tmp_path, capsys, args, config):
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        args = args + ["--config", str(cfg_file)]
    assert exit_status(args + ["--out-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / f"{args[0]}.json").exists()


@pytest.mark.parametrize("args, named", [
    (["lh-check", "--trials", "-3"], "--trials"),
    (["rate-scan", "--eps-min", "0"], "--eps-min"),
    (["rate-scan", "--eps-max", "-1"], "--eps-max"),
    (["rate-scan", "--eps-count", "1"], "--eps-count"),
    (["rate-scan", {"eps_count": 2}], "'eps_count'"),
    (["lemma-r", "--alpha", "0"], "--alpha"),
    (["lemma-r", {"alpha": 0}], "'alpha'"),
    (["lemma-r", "--gamma", "nan"], "--gamma"),
    (["symmetry", "--alpha", "inf"], "--alpha"),
    (["symmetry", {"beta": float("-inf")}], "'beta'"),
    (["symmetry", "--v", "nan,1,1,1"], "--v"),
    (["symmetry", {"v": "1,0,0,nan"}], "'v'"),
])
def test_out_of_range_value_names_its_option(tmp_path, capsys, args, named):
    if isinstance(args[-1], dict):  # the contents of a config file
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(args[-1]))
        args = args[:-1] + ["--config", str(cfg_file)]
    assert exit_status(args + ["--out-dir", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def _field_csv(meta="16,%.17g,torus" % (2 * pi / 16), first="0.5", cell="0.5"):
    cells = [first] + [cell] * 255
    body = [",".join(cells[i:i + 16]) for i in range(0, 256, 16)]
    return "\n".join(["n,h,kind", meta, *body]) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        _field_csv(meta="16.5,0.39,torus"),
        "",
        "n,h,kind\n",
        _field_csv(first="abc"),
        _field_csv(meta="16,0.1,rect:0:1"),
        _field_csv(meta="16,0.1,rect:0:1:a:2"),
        _field_csv(first="nan", cell="nan"),
        _field_csv(meta="16,5,torus"),
        _field_csv(meta="16,0.5,rect:0:1:0:1"),
        _field_csv(meta="16,0.5,rect:0:inf:0:1"),
    ],
    ids=["n-not-integer", "empty", "header-only", "cell-text", "rect-two-bounds",
         "rect-bound-text", "all-nan", "torus-h-not-spacing", "rect-h-not-spacing",
         "rect-inf-bound"],
)
def test_malformed_field_csv_exit_2(tmp_path, capsys, text):
    path = tmp_path / "X.csv"
    path.write_text(text)
    assert exit_status(["bracket-eval", "--fields", f"{path},{path}",
                        "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and str(path) in err
    assert [p.name for p in tmp_path.iterdir()] == ["X.csv"]


def test_unwritable_csv_leaves_no_json(tmp_path):
    csv = tmp_path / "missing" / "x.csv"
    assert run_cli(["bracket-eval", "--n", "32", "--csv", str(csv)], tmp_path) == 3
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("args, named", [
    (["integral-identity", "--squares", "--fields", "nonsense"], "--fields"),
    (["integral-identity", "--squares", {"fields": "sin-p,sin-q,zero"}], "--fields"),
    (["integral-identity", {"squares": True, "fields": "zero,zero,zero"}], "--fields"),
    (["symmetry", "--element", "A", "--alpha", "7"], "--alpha"),
    (["symmetry", "--alpha", "7"], "--alpha"),
    (["symmetry", "--element", "B", {"beta": 1.5}], "--beta"),
    (["symmetry", "--element", "C", "--beta", "2"], "--beta"),
    (["lh-check", "--seed", "5"], "--seed"),
    (["lh-check", {"seed": 5, "trials": 0}], "--seed"),
])
def test_an_option_the_run_would_not_read_exits_2(tmp_path, capsys, args, named):
    if isinstance(args[-1], dict):  # the contents of a config file
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(args[-1]))
        args = args[:-1] + ["--config", str(cfg_file)]
    assert exit_status(args + ["--n", "32", "--out-dir", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / f"{args[0]}.json").exists()


@pytest.mark.parametrize("args", [
    ["integral-identity", "--squares", "--fields", "sin-p,sin-q,cos-pq"],
    ["symmetry", "--element", "A", "--alpha", "2", "--beta", "3"],
    ["symmetry", "--element", "scale", "--alpha", "7"],
    ["lh-check", "--seed", "0"],
    ["lh-check", "--seed", "5", "--trials", "1"],
])
def test_an_option_at_its_default_or_read_is_accepted(tmp_path, args):
    assert run_cli(args + ["--n", "32"], tmp_path) == 0


def test_config_values_are_converted_like_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": "64", "alpha": 2, "element": "scale", "out_dir": None}))
    cfg = resolve_config(build_parser().parse_args(["symmetry", "--config", str(cfg_file)]))
    assert (cfg.options["n"], cfg.options["alpha"]) == (64, 2.0)
    assert run_cli(["symmetry", "--config", str(cfg_file)], tmp_path) == 0


def test_unknown_config_key_exit_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"whichh": "3.2"}))
    assert run_cli(["bch", "--config", str(cfg_file)], tmp_path) == 2


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("BRACKETLAB_OUT", str(tmp_path))
    assert main(["bch", "--which", "3.2", "-T", "4"]) == 0
    assert (tmp_path / "bch.json").exists()


def test_reports_byte_stable(tmp_path):
    args = ["symmetry", "--element", "all", "--v", "1,2,0.5,1", "--n", "64"]
    assert run_cli(args, tmp_path) == 0
    first = (tmp_path / "symmetry.json").read_bytes()
    assert run_cli(args, tmp_path) == 0
    assert (tmp_path / "symmetry.json").read_bytes() == first


def test_json_roundtrips_through_generic_parser(tmp_path):
    assert run_cli(["kolmogorov", "--N", "2", "--n", "64"], tmp_path) == 0
    payload = json.loads((tmp_path / "kolmogorov.json").read_text())
    assert payload["report"]["ratio"] == pytest.approx(2.0, abs=1e-6)


def test_integral_identity_command(tmp_path):
    assert run_cli(["integral-identity", "--n", "128"], tmp_path) == 0
    assert run_cli(["integral-identity", "--squares", "--n", "128"], tmp_path) == 0


def test_y_bound_command(tmp_path):
    assert run_cli(["y-bound", "--n", "96", "--steps", "32"], tmp_path) == 0


def test_bracket_eval_csv_schema(tmp_path):
    assert run_cli(["bracket-eval", "--word", "{{F,G},F}", "--n", "32"], tmp_path) == 0
    lines = (tmp_path / "bracket-eval.csv").read_text().splitlines()
    assert lines[0] == "n,h,kind"
    meta = lines[1].split(",")
    assert meta[0] == "32" and meta[2] == "torus"
    assert len(lines) == 2 + 32


def test_lh_check_with_trials(tmp_path):
    assert run_cli(["lh-check", "--trials", "5", "--n", "128"], tmp_path) == 0
    payload = json.loads((tmp_path / "lh-check.json").read_text())
    checks = payload["report"]["checks"]
    assert set(checks) == {"given_pair", "worst_random_pair"}
    assert payload["pass"] is True
    assert payload["report"]["value"] == min(c["margin"] for c in checks.values())


def test_provenance_embedded_everywhere(tmp_path):
    run_cli(["bch", "--which", "3.3"], tmp_path)
    payload = json.loads((tmp_path / "bch.json").read_text())
    assert set(payload) >= {"tool", "version", "config", "pass", "report"}


def test_witness_verify_small(tmp_path):
    code = run_cli(["witness-verify", "--N-list", "100,1000", "--grid-n", "512"], tmp_path)
    assert code == 0
    lines = (tmp_path / "witness-verify.csv").read_text().splitlines()
    assert lines[0] == "N,ratio_max,ratio_min,residual,maxR"
    assert len(lines) == 3
    payload = json.loads((tmp_path / "witness-verify.json").read_text())
    assert payload["pass"] is True


def test_witness_build_artifact(tmp_path):
    assert run_cli(["witness-build"], tmp_path) == 0
    payload = json.loads((tmp_path / "witness-build.json").read_text())
    rep = payload["report"]
    assert "w_prime" in rep and "u_prime" in rep and rep["config"]["kappa"] > 0
    assert "condition_v_reading" in rep["notes"]


def test_rate_scan_cli_small(tmp_path):
    code = run_cli(
        ["rate-scan", "--which", "maxFG", "--n", "96", "--eps-count", "4",
         "--eps-min", "1e-3", "--eps-max", "1e-1", "--budget", "30"],
        tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "rate-scan.csv").read_text().splitlines()
    assert lines[0] == "eps,best_phi,decrease,family,params"
    assert len(lines) == 5
    payload = json.loads((tmp_path / "rate-scan.json").read_text())
    assert payload["report"]["reference_exponents"] == [1 / 3, 0.5, 2 / 3]


def test_csv_field_pair_through_cli(tmp_path):
    import numpy as np

    from bracketlab.domain import Domain2
    from bracketlab.fields import save_field_csv

    dom = Domain2.torus(128)
    P, Q = dom.grid()
    fa = tmp_path / "F.csv"
    fb = tmp_path / "G.csv"
    save_field_csv(np.sin(P), dom, fa)
    save_field_csv(np.sin(Q), dom, fb)
    code = run_cli(["lh-check", "--fields", f"{fa},{fb}"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "lh-check.json").read_text())
    # sampled route reproduces the analytic result to stencil accuracy
    assert abs(payload["report"]["checks"]["given_pair"]["value"] - 1.0) < 1e-5


def test_kolmogorov_iterated_form_cli(tmp_path):
    assert run_cli(["kolmogorov", "--k", "1", "--m", "2", "--n", "64"], tmp_path) == 0
    payload = json.loads((tmp_path / "kolmogorov.json").read_text())
    assert payload["report"]["form"] == "adH^m G"
    assert "value" in payload["report"]
    assert payload["config"]["N"] is None


@pytest.mark.parametrize("args", [
    ["kolmogorov", "--N", "5"],
    ["kolmogorov", "--k", "2", "--m", "3"],
    ["bracket-eval", "--word", "{{{{{F,G},F},F},F},F}"],
], ids=" ".join)
def test_nesting_past_the_jet_order_exits_2(tmp_path, capsys, args):
    assert run_cli(args + ["--n", "32"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "nested too deep" in err and "MAX_JET_ORDER = 4" in err
    assert not (tmp_path / f"{args[0]}.json").exists()


def test_functional_reports_carry_value_grid_checks(tmp_path):
    for args, name in [
        (["lh-check", "--n", "64"], "lh-check"),
        (["integral-identity", "--n", "64"], "integral-identity"),
        (["y-bound", "--n", "96", "--steps", "16"], "y-bound"),
        (["symmetry", "--n", "64"], "symmetry"),
    ]:
        assert run_cli(args, tmp_path) == 0
        rep = json.loads((tmp_path / f"{name}.json").read_text())["report"]
        assert {"functional", "value", "grid", "checks"} <= set(rep)
        assert "tolerances" not in rep  # each record carries its bound and tol


def test_witness_verify_single_N_alias():
    from bracketlab.cli import build_parser, resolve_config

    args = build_parser().parse_args(["witness-verify", "--N", "1000"])
    cfg = resolve_config(args)
    assert cfg.options["N_list"] == "1000"


def test_integral_identity_refuses_rectangle_csvs(tmp_path, capsys):
    dom = Domain2.rect(16, (0.0, 1.0, 0.0, 1.0))
    P, Q = dom.grid()
    names = []
    for name, vals in (("P", np.sin(P)), ("Q", np.sin(Q)), ("R", np.cos(P + Q))):
        save_field_csv(vals, dom, tmp_path / f"{name}.csv")
        names.append(str(tmp_path / f"{name}.csv"))
    assert exit_status(["integral-identity", "--fields", ",".join(names),
                        "--out-dir", str(tmp_path)]) == 2
    assert "torus" in capsys.readouterr().err
    assert not (tmp_path / "integral-identity.json").exists()


def test_a_failing_record_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(functionals, "DEFAULT_TOL_SYMMETRY", -1.0)
    assert run_cli(["symmetry", "--n", "32"], tmp_path) == 1
    payload = json.loads((tmp_path / "symmetry.json").read_text())
    assert payload["pass"] is False
    assert payload["report"]["checks"]["A"]["pass"] is False


# The 17 runs whose artifacts were diffed across refactors, each at sizes where
# it gives the verdict it gives at its defaults: status 0 and pass.  Smaller
# than the defaults: the rate scans (n 64, 4 sizes from 1e-3, budget 20),
# lh-check (n 128) and the other grid commands (n 64).
PINNED_RUNS = [
    ["bch", "--which", "3.2"],
    ["bch", "--which", "3.3"],
    ["lemma-r"],
    ["lemma-r", "--bound", "0.999"],
    ["witness-build"],
    ["witness-verify", "--N-list", "100,1000", "--grid-n", "512"],
    ["lh-check", "--trials", "20", "--n", "128"],
    ["rate-scan", "--which", "maxFG", "--n", "64", "--eps-count", "4", "--eps-min", "1e-3",
     "--budget", "20"],
    ["rate-scan", "--which", "double", "--n", "64", "--eps-count", "4", "--eps-min", "1e-3",
     "--budget", "20"],
    ["bracket-eval", "--n", "64"],
    ["bracket-eval", "--fields", "witness", "--n", "64"],
    ["integral-identity", "--n", "64"],
    ["integral-identity", "--squares", "--n", "64"],
    ["y-bound", "--n", "64", "--steps", "16"],
    ["symmetry", "--element", "all", "--n", "64"],
    ["kolmogorov", "--N", "2", "--n", "64"],
    ["kolmogorov", "--k", "1", "--m", "2", "--n", "64"],
    ["kolmogorov", "--k", "2", "--m", "2", "--n", "64"],
]


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """Each pinned run once: its args -> (exit status, JSON payload, wrote a CSV)."""
    out = {}
    for args in PINNED_RUNS:
        d = tmp_path_factory.mktemp(args[0])
        status = main(args + ["--out-dir", str(d)])
        payload = json.loads((d / f"{args[0]}.json").read_text())
        out[tuple(args)] = status, payload, (d / f"{args[0]}.csv").exists()
    return out


@pytest.mark.parametrize("args", PINNED_RUNS, ids=" ".join)
def test_pinned_run_verdicts(pinned, args):
    status, payload, _ = pinned[tuple(args)]
    assert (status, payload["pass"]) == (0, True)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_check_is_one_record(pinned, command):
    runs = [run for args, run in pinned.items() if args[0] == command]
    assert runs, f"no pinned run of {command}"
    for _, payload, _ in runs:
        checks = payload["report"]["checks"]
        for record in checks.values():
            assert set(record) == {"value", "bound", "sense", "method", "tol", "margin", "pass"}
            assert record["method"] in METHODS
        assert payload["pass"] == all(c["pass"] for c in checks.values())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_declares_only_the_options_it_reads(pinned, command):
    options = COMMANDS[command].options
    wrote_csv = {csv for args, (_, _, csv) in pinned.items() if args[0] == command}
    assert wrote_csv == {"csv" in options}
    assert ("seed" in options) == (command in ("lh-check", "rate-scan"))
