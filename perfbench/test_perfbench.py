"""Checks of the benchmark itself: oracles, seeds, digests and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads
from bracketlab import fields, flows

ALL = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def ran():
    """One real op per workload, with its inputs: (workload, inputs, result)."""
    out = {}
    for name in ALL:
        wl = workloads.WORKLOADS[name](3)
        i = 1  # witness-window op 1 has N >= 1000
        inp = wl.inputs(i)
        out[name] = (wl, inp, wl.run(inp))
    return out


@pytest.mark.parametrize("name", ALL)
def test_oracle_accepts_the_real_result(ran, name):
    wl, inp, result = ran[name]
    assert wl.check(inp, result) == []


def test_lh_oracle_rejects_negative_margin(ran):
    wl, inp, result = ran["lh-sweep"]
    assert wl.check(inp, dict(result, margin=-1.0))
    assert wl.check(inp, dict(result, margin=-2.0 * wl.tol))


def _with_row(result, **changes):
    return dict(result, rows=[dict(result["rows"][0], **changes)])


def test_witness_oracle_rejects_r_and_ratio_violations(ran):
    wl, N, result = ran["witness-window"]
    assert N >= 1000
    assert wl.check(N, _with_row(result, maxR=0.9901))
    assert wl.check(N, _with_row(result, ratio_max=0.9951))
    assert wl.check(N, _with_row(result, ratio_min=0.9951))
    assert wl.check(N + 1, result)  # rows for another N
    # below N = 1000 only the R bound applies
    small = _with_row(result, N=999, ratio_max=0.9951)
    assert wl.check(999, small) == []


def test_rate_oracle_rejects_rise_and_infeasible_member(ran):
    wl, eps, result = ran["rate-scan"]
    risen = dict(result, maxFG=dict(result["maxFG"], best=result["maxFG"]["base"] + 1e-9))
    assert wl.check(eps, risen)

    class Inflated:
        """Claims to be the oscillatory family but leaves the eps-ball."""

        name = "oscillatory"

        def member(self, F, G, eps, x):
            return fields.ScaledField(F, 1.0 + 3.0 * eps), G

    claimed = dict(result["double"], family="oscillatory", params=[0.0, 0.0, 0.0, 1.0])
    assert wl.check(eps, dict(result, double=claimed)) == []
    saved = wl.families
    try:
        wl.families = [*saved, Inflated()]
        assert any("deviates" in p for p in wl.check(eps, dict(result, double=claimed)))
    finally:
        wl.families = saved


def test_symbolic_oracle_rejects_nonzero_loop_and_mismatch(ran):
    wl, word, result = ran["symbolic"]
    nonzero = flows.path_generator(word, 6)
    assert not nonzero.is_zero()
    assert wl.check(word, dict(result, loop=[nonzero] + result["loop"][1:]))

    class Mismatch:
        match = False

    assert wl.check(word, dict(result, conjugated=Mismatch()))
    assert wl.check(word, dict(result, symmetrized=Mismatch()))


@pytest.mark.parametrize("name", ALL)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    from bracketlab.reporting import canonical_json

    def stream(seed):
        wl = workloads.WORKLOADS[name](seed)
        return [canonical_json(wl.describe(wl.inputs(i))) for i in range(4)]

    assert stream(11) == stream(11)
    assert stream(11) != stream(12)
    assert len(set(stream(11))) > 1 or name == "witness-window"


def test_a_raising_op_or_oracle_is_a_failed_op():
    class Broken(workloads.Workload):
        def inputs(self, i):
            return i

        def run(self, i):
            if i == 0:
                raise ValueError("op broke")
            return {}

        def check(self, i, result):
            return result["missing"]

    null = tracer.NullTracer()
    wall, problems, digest = worker.run_op(Broken(), null, 0)
    assert "op broke" in problems[0] and digest is None and wall >= 0.0
    wall, problems, digest = worker.run_op(Broken(), null, 1)
    assert "oracle could not read" in problems[0] and digest is None


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.LAYER_METRICS
    ]


def test_tail_is_highest_percentile_with_ten_beyond():
    walls = [float(i) for i in range(40)]
    assert run.tail(walls) == (29.0, 75.0, 10)
    assert run.tail(walls[:11]) == (0.0, 100.0 / 11, 10)
    assert run.tail(walls[:5]) == (4.0, 100.0, 0)


def test_self_time_subtracts_children_and_hooks():
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0, 0, 0.5],
        ["a", 1.0, 4.0, 0, 0, 0, 0, 0.0],
        ["b", 2.0, 3.0, 1, 0, 0, 0, 0.0],
        ["c", 5.0, 6.0, 0, 0, 0, 0, 0.0],
    ]
    assert tracer.self_times(spans) == [10.0 - 4.0 - 0.5, 2.0, 1.0, 1.0]


def _worker(name, seed, spans=None):
    cmd = [sys.executable, str(run.BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--spawned-at", repr(time.monotonic())]
    if spans:
        cmd += ["--spans", str(spans)]
    out = subprocess.run(cmd, cwd=run.ROOT, env=run.worker_env(), capture_output=True,
                         text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


EXACT_COUNTS = {
    "lh-sweep": "jets.mul.calls",
    "witness-window": "piecewise.derivative.calls",
    "rate-scan": "ratescan.evals",
    "symbolic": "lyndon.rewrite.calls",
}


@pytest.mark.parametrize("name", ALL)
def test_digests_and_counts_repeat_and_tracing_changes_no_result(tmp_path, name):
    plain = _worker(name, 5)
    t1 = _worker(name, 5, tmp_path / "a.jsonl")
    t2 = _worker(name, 5, tmp_path / "b.jsonl")
    k = workloads.WORKLOADS[name].count_ops
    digests = [[op["digest"] for op in rep["ops"][:k]] for rep in (plain, t1, t2)]
    assert digests[0] == digests[1] == digests[2]
    assert all(op["ok"] for rep in (plain, t1, t2) for op in rep["ops"])
    metric = EXACT_COUNTS[name]
    assert t1["layers"][metric] > 0
    counts = [n for n, unit, _ in tracer.LAYER_METRICS if unit in ("1/op", "B/op")]
    assert {m: t1["layers"][m] for m in counts} == {m: t2["layers"][m] for m in counts}
    first = json.loads(Path(tmp_path / "a.jsonl").read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "op", "id"} <= set(first)


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lh-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
