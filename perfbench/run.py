"""bracketlab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement runs perfbench/worker.py
in a fresh interpreter, one process at a time, with BLAS/OpenMP threads set
to 1 in that process's environment.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced for half
the seconds each, prints the per-layer metrics and the tracing overhead,
and writes the traced run's spans as JSON lines under perfbench/out/.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("lh-sweep", "witness-window", "rate-scan", "symbolic")
# op_tail_s needs at least 10 ops beyond the percentile it reports
MIN_OPS = 11
# --trace 0 pools the ops of this many fresh processes, each running an
# interleaved slice of the op indices for an equal share of the seconds.
# With one process per run, the median of one process moved by several
# percent from run to run; pooling averages over it.  set-up time is the
# median over the same processes.
WORKERS = 4
# the whole run, set-up probes included, ends well inside 180 s
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args, deadline: float, extra=()) -> dict:
    """Run one worker to completion and return its report."""
    remaining = deadline - time.monotonic()
    if remaining < 5.0:
        raise WorkerError("out of time before starting a worker")
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--max-seconds", repr(max(1.0, remaining - 15.0)),
        "--spawned-at", repr(spawned_at), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- statistics -------------------------------------------------------------------


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile of op
    wall time with at least 10 samples beyond it."""
    s = sorted(walls)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def ops_per_s(ops: list[dict]) -> float:
    return len(ops) / sum(op["wall_s"] for op in ops)


# -- provenance -------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def provenance(args) -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(f"{d}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{d}/size")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "loadavg_at_start": _read("/proc/loadavg"),
        "worker_threads": {var: "1" for var in THREAD_VARS},
    }


# -- the two kinds of run ------------------------------------------------------------


def end_to_end(args, deadline: float, prov: dict):
    share = repr(args.seconds / WORKERS)
    min_ops = str(-(-MIN_OPS // WORKERS))
    reps = [
        spawn(args, deadline, ["--seconds", share, "--min-ops", min_ops,
                               "--offset", str(j), "--stride", str(WORKERS)])
        for j in range(WORKERS)
    ]
    ops = sorted((op for rep in reps for op in rep["ops"]), key=lambda op: op["op"])
    walls = [op["wall_s"] for op in ops]
    setups = [rep["setup_s"] for rep in reps]
    t_val, t_pct, t_beyond = tail(walls)
    prov.update(
        versions=reps[0]["versions"], setup_samples_s=setups,
        cpu_per_wall=[rep["cpu_per_wall"] for rep in reps],
        op_tail={"percentile": t_pct, "samples": len(walls), "beyond": t_beyond},
    )
    metrics = {
        "ops_per_s": (ops_per_s(ops), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (t_val, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rep["peak_rss_mb"] for rep in reps), "MiB"),
    }
    notes = {
        "op_tail_s": f"p{t_pct:.1f} of {len(walls)} ops, {t_beyond} beyond",
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": f"largest of {len(reps)} processes",
    }
    return metrics, notes, ops


def traced(args, deadline: float, prov: dict):
    half = repr(args.seconds / 2.0)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    plain = spawn(args, deadline, ["--seconds", half])
    rep = spawn(args, deadline, ["--seconds", half, "--spans", str(spans)])
    common = min(len(plain["ops"]), len(rep["ops"]))
    mismatched = [
        i for i in range(common) if plain["ops"][i]["digest"] != rep["ops"][i]["digest"]
    ]
    for i in mismatched:
        print(f"op {i}: traced digest differs from untraced", file=sys.stderr)
    layers = dict(rep["layers"])
    layers["proc.cpu_per_wall"] = rep["cpu_per_wall"]
    layers["trace.overhead_ops_per_s"] = ops_per_s(rep["ops"]) - ops_per_s(plain["ops"])
    prov.update(
        versions=rep["versions"], spans=str(spans.relative_to(ROOT)),
        cpu_per_wall_untraced=plain["cpu_per_wall"], digests_compared=common,
        digests_mismatched=mismatched,
    )
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    metrics = {name: (layers[name], units[name]) for name in units}
    return metrics, {}, plain["ops"] + rep["ops"], not mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if not (SRC / "bracketlab" / "__init__.py").is_file():
        print(f"perfbench: no bracketlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    prov = provenance(args)
    try:
        if args.trace:
            metrics, notes, ops, digests_ok = traced(args, deadline, prov)
        else:
            metrics, notes, ops = end_to_end(args, deadline, prov)
            digests_ok = True
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = sum(not op["ok"] for op in ops)
    for op in ops:
        for problem in op["problems"]:
            print(f"op {op['op']} failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")
    print(f"{'failed_frac':34s} {failed / len(ops):.6g}  ({failed} of {len(ops)} ops)")
    record = {"provenance": prov, "ops": ops, "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0 and digests_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
