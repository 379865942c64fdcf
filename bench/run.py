"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload hadamard --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository; triortho is imported
from its ``src`` directory.  The workload itself runs in a child process
(``worker.py``) with numpy's and BLAS's thread pools pinned to one thread.
An untraced run sets the workload up in ``SETUP_RUNS - 1`` further child
processes first and reports the median set-up time.  The result, with
per-op latencies and output digests, is also written to
``bench/out/result-<workload>-<seed>-trace<0|1>.json``; a traced run writes
its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("hadamard", "sweep", "distill", "cost")
SETUP_RUNS = 5
DEADLINE_S = 175.0


def _child(argv, timeout):
    """Run a worker; its last stdout line parsed as JSON, or None."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: worker {argv} did not finish in {timeout:.0f} s\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"error: worker {argv} exited with {proc.returncode}\n")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="triortho benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="minimum op count (traced: exact op count); default per workload",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "triortho" / "__init__.py").is_file():
        sys.stderr.write(f"error: no triortho sources under {ROOT / 'src'}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            done = _child([*common, "--seconds", "0", "--setup-only"], timeout=60)
            if done is None:
                return 1
            setups.append(done["setup_s"])
    run_argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    run_argv += ["--out-stem", str(stem)]
    if args.ops is not None:
        run_argv += ["--ops", str(args.ops)]
    result = _child(run_argv, timeout=DEADLINE_S - (time.monotonic() - started))
    if result is None:
        return 1
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_runs_s"] = setups
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(result, fh)
    details = result.pop("details")
    del result["setup_runs_s"]
    if args.trace:
        sys.stdout.write(
            f"traced {result['attempted']} ops; overhead "
            f"{result['metrics']['trace.overhead_pct']['value']:.1f}%; "
            f"{details['spans']} spans in {stem}.spans.jsonl\n"
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
