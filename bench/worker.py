"""One workload in one single-threaded process; started by ``run.py``.

Set-up time runs from this file's first statement to the end of the
workload's set-up: imports, code construction and decoder tables, input
states and files, menus.  The benchmark's own reference computations come
after it and are not counted.  Ops then run in a closed loop, one at a
time, until ``--seconds`` have passed and at least the workload's minimum
number of ops has run.  With ``--trace 1`` each of a fixed number of ops
runs twice, untraced and then traced, and the two outputs must be
identical.  The last line of stdout is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Stop starting ops after this long, so a run always ends well within the
# 180 s a run may take, even on a machine far slower than expected.
LOOP_CAP_S = 140.0


def tail_quantile(min_ops: int) -> float:
    """The highest quantile with at least ten of ``min_ops`` ops beyond it."""
    return 1.0 - 10.0 / min_ops


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _attempt(wl, ctx, inp):
    """Run one op: (seconds inside the op, output or None if it raised)."""
    start = time.perf_counter()
    try:
        out = wl.run(ctx, inp)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, None
    return time.perf_counter() - start, out


def _passes(wl, ctx, inp, out):
    """Whether an op's output passes its check; a check that raises fails."""
    if out is None:
        return False
    try:
        return bool(wl.check(ctx, inp, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def run_timed(wl, ctx, rng, seconds, min_ops):
    q = tail_quantile(wl.min_ops)
    latencies, ok_latencies, digests = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(latencies) >= min_ops):
            break
        inp = wl.make_input(ctx, rng, len(latencies))
        dt, out = _attempt(wl, ctx, inp)
        latencies.append(dt)
        ok = _passes(wl, ctx, inp, out)
        digests.append(wl.digest(out) if out is not None else None)
        if ok:
            ok_latencies.append(dt)
    # Latencies of the ops that passed; of all ops if none did, so that a
    # broken run still prints numbers.
    timed = ok_latencies or latencies
    metrics = {
        "ops_per_s": (len(ok_latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(timed) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(timed, q) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "tail_percentile": round(100 * q, 6),
        "latencies_s": latencies,
        "digests": digests,
    }
    return len(latencies), len(latencies) - len(ok_latencies), metrics, details


def run_traced(wl, ctx, rng, ops, out_stem):
    # Each op runs untraced and then traced, back to back, so that drift in
    # machine speed cancels out of the overhead estimate.
    tracer = tracing.Tracer()
    plain, traced, overheads, failed = [], [], [], 0
    digests, traced_digests = [], []
    for i in range(ops):
        inp = wl.make_input(ctx, rng, i)
        dt, out = _attempt(wl, ctx, inp)
        ok = _passes(wl, ctx, inp, out)
        tracer.op = i
        tracer.install()
        try:
            dt_traced, out_traced = _attempt(wl, ctx, inp)
        finally:
            tracer.uninstall()
        digests.append(wl.digest(out) if out is not None else None)
        traced_digests.append(wl.digest(out_traced) if out_traced is not None else None)
        # An op fails when its check fails or its traced output differs.
        failed += not ok or digests[-1] is None or digests[-1] != traced_digests[-1]
        plain.append(dt)
        traced.append(dt_traced)
        overheads.append(dt_traced / dt - 1.0)
    tracer.write(f"{out_stem}.spans.jsonl")
    values = tracer.layer_metrics(ops)
    values["trace.overhead_pct"] = 100.0 * statistics.median(overheads)
    metrics = {name: (values[name], unit) for name, unit in tracing.metric_units().items()}
    details = {
        "untraced_latencies_s": plain,
        "traced_latencies_s": traced,
        "digests": digests,
        "traced_digests": traced_digests,
        "spans": len(tracer.spans),
    }
    return ops, failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-stem", default=None)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT)
    try:
        ctx = wl.setup(workdir)
        setup_s = time.perf_counter() - T0
        import triortho

        if Path(triortho.__file__).resolve().parent != ROOT / "src" / "triortho":
            sys.stderr.write(f"error: imported triortho from {triortho.__file__}\n")
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        problems = wl.reference(ctx)
        rng = random.Random(f"{wl.name}/{args.seed}")
        if args.trace:
            attempted, failed, metrics, details = run_traced(
                wl, ctx, rng, args.ops or wl.trace_ops, args.out_stem
            )
        else:
            attempted, failed, metrics, details = run_timed(
                wl, ctx, rng, args.seconds, args.ops or wl.min_ops
            )
        problems += wl.finish(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "setup_s": setup_s,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "details": details,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
