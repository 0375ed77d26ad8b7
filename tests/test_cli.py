import json
import subprocess
import sys

import pytest

from bracketlab.cli import build_parser, main, resolve_config


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
    args = build_parser().parse_args(["bch"])
    assert resolve_config(args).options["seed"] == 0


def test_unknown_command_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "bracketlab.cli", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_bch_32_passes(tmp_path):
    assert run_cli(["bch", "--which", "3.2", "-T", "5"], tmp_path) == 0
    payload = json.loads((tmp_path / "bch.json").read_text())
    assert payload["pass"] is True
    assert payload["report"]["match"] is True
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
    report = json.loads((tmp_path / "lemma-r.json").read_text())["report"]
    assert report["rectangle_scan"]["pass"] is True
    assert report["rectangle_scan"]["max_abs_r"] < report["bound"]


def test_lh_check_zero_fields_exit_2(tmp_path):
    assert run_cli(["lh-check", "--fields", "zero,zero"], tmp_path) == 2


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
    ],
    ids=["v-text", "v-length", "N-list-text", "delta-1/0", "delta-text", "k-without-m", "N-0",
         "resolution-0", "cfg-seed", "cfg-n-text", "cfg-n-float", "cfg-trials-bool",
         "cfg-fields-number", "cfg-squares-text", "cfg-which-choice", "cfg-list"],
)
def test_malformed_values_exit_2(tmp_path, capsys, args, config):
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        args = args + ["--config", str(cfg_file)]
    assert exit_status(args + ["--out-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / f"{args[0]}.json").exists()


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
    assert payload["report"]["n_checked"] == 6
    assert payload["report"]["pass"] is True


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
    assert run_cli(["witness-build", "--grid-n", "512"], tmp_path) == 0
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
    assert abs(payload["report"]["checks"][0]["lhs"] - 1.0) < 1e-5


def test_kolmogorov_iterated_form_cli(tmp_path):
    assert run_cli(["kolmogorov", "--k", "1", "--m", "2", "--n", "64"], tmp_path) == 0
    payload = json.loads((tmp_path / "kolmogorov.json").read_text())
    assert payload["report"]["form"] == "adH^m G"
    assert "value" in payload["report"]


def test_functional_reports_carry_value_grid_tolerances(tmp_path):
    for args, name in [
        (["lh-check", "--n", "64"], "lh-check"),
        (["integral-identity", "--n", "64"], "integral-identity"),
        (["y-bound", "--n", "96", "--steps", "16"], "y-bound"),
        (["symmetry", "--n", "64"], "symmetry"),
    ]:
        assert run_cli(args, tmp_path) == 0
        rep = json.loads((tmp_path / f"{name}.json").read_text())["report"]
        assert {"functional", "value", "grid", "tolerances"} <= set(rep)
