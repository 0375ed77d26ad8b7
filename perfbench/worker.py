"""One benchmark process: set up a workload, run its closed loop, report.

run.py starts this file in a fresh interpreter for every measurement, so
import cost and cold memo caches are paid as on a CLI invocation.  It
prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

import numpy
import scipy
from bracketlab.reporting import canonical_json

import tracer as tracing
import workloads


def run_op(wl, tracer, i: int):
    """(wall_s, problems, digest) of op i.  An op that raises, or whose
    result the oracle cannot read, has failed."""
    inp = wl.inputs(i)
    tracer.begin_op(i)
    t0 = time.perf_counter()
    try:
        result = wl.run(inp)
        wall = time.perf_counter() - t0
    except Exception as exc:  # a failed op, not a crashed run
        return time.perf_counter() - t0, [repr(exc)], None
    finally:
        tracer.end_op()
    try:
        tracer.set_op(tracing.CHECK_OP)
        problems = wl.check(inp, result)
        tracer.set_op(i)
        text = tracer.call("reporting.canonical_json", canonical_json, (wl.to_json(inp, result),))
    except Exception as exc:
        return wall, [f"oracle could not read the result: {exc!r}"], None
    finally:
        tracer.set_op(tracing.SETUP_OP)
    return wall, problems, hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--offset", type=int, default=0, help="first op index")
    ap.add_argument("--stride", type=int, default=1, help="step between op indices")
    ap.add_argument("--max-seconds", type=float, default=150.0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    ap.add_argument("--spans", help="trace, and write spans as JSON lines here")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer() if args.spans else tracing.NullTracer()
    if args.spans:
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    min_ops = max(args.min_ops, wl.count_ops)
    ops = []
    cpu0, wall0 = time.process_time(), time.monotonic()
    for i in range(args.offset, 2**62, args.stride):
        elapsed = time.monotonic() - wall0
        if elapsed >= args.max_seconds or (elapsed >= args.seconds and len(ops) >= min_ops):
            break
        wall, problems, digest = run_op(wl, tracer, i)
        ops.append({"op": i, "wall_s": wall, "ok": not problems, "digest": digest,
                    "problems": problems})
    wall_s = time.monotonic() - wall0
    out = {
        "setup_s": setup_s,
        "ops": ops,
        "cpu_per_wall": (time.process_time() - cpu0) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.spans:
        out["layers"] = tracing.layer_metrics(tracer.spans, wl.count_ops)
        tracer.write_jsonl(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
