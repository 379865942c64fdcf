"""Self-test of the benchmark; about a minute on two cores.

    python3 bench/selftest.py

Runs every workload briefly, untraced and traced, through ``run.py`` and
checks the printed metrics against ``BENCHMARK.json``; feeds each workload's
check one corrupted output and confirms the op is counted as failed; and
confirms that traced and untraced runs give identical outputs.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402  (also puts the checkout's src on sys.path)
import workloads  # noqa: E402

SEED = 7
OPS = 3


def corrupt_hadamard(out):
    state, report = out
    flipped = type(state)(state.n, dict(state.amps))
    key = next(iter(flipped.amps))
    flipped.amps[key] = -flipped.amps[key]
    return flipped, report


def corrupt_sweep(out):
    return dataclasses.replace(out, counterexamples=out.counterexamples[1:])


def corrupt_distill(out):
    status, text = out
    payload = json.loads(text)
    payload["order2_pair_events"] += 1
    return status, json.dumps(payload)


def corrupt_cost(out):
    first, last = out[0], out[-1]
    return [
        dataclasses.replace(first, jones=last.jones),
        *out[1:-1],
        dataclasses.replace(last, jones=first.jones),
    ]


CORRUPTIONS = {
    "hadamard": corrupt_hadamard,
    "sweep": corrupt_sweep,
    "distill": corrupt_distill,
    "cost": corrupt_cost,
}


class Corrupted:
    """A workload whose every op output passes through ``corrupt``."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt
        self.min_ops = wl.min_ops

    def run(self, ctx, inp):
        return self.corrupt(self.wl.run(ctx, inp))

    def __getattr__(self, name):
        return getattr(self.wl, name)


def run_bench(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--ops", str(OPS),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = BENCH / "out" / f"result-{workload}-{SEED}-trace{trace}"
    with open(f"{stem}.json", encoding="ascii") as fh:
        return printed, json.load(fh)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
            cls.spec = json.load(fh)
        cls.runs = {
            (name, trace): run_bench(name, trace)
            for name in workloads.WORKLOADS
            for trace in (0, 1)
        }

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOADS, tuple(workloads.WORKLOADS))

    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            for name in workloads.WORKLOADS:
                printed, _ = self.runs[(name, trace)]
                with self.subTest(workload=name, trace=trace):
                    self.assertEqual(set(printed), {"correct", "attempted", "failed", "metrics"})
                    units = {k: v["unit"] for k, v in printed["metrics"].items()}
                    self.assertEqual(units, expected)
                    self.assertIs(printed["correct"], True)
                    self.assertEqual(printed["failed"], 0)
                    if trace:
                        self.assertEqual(printed["attempted"], OPS)
                    else:
                        self.assertGreaterEqual(printed["attempted"], OPS)

    def test_end_to_end_metrics_are_positive(self):
        for name in workloads.WORKLOADS:
            printed, _ = self.runs[(name, 0)]
            for metric, value in printed["metrics"].items():
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(value["value"], 0.0)

    def test_traced_outputs_equal_untraced(self):
        for name in workloads.WORKLOADS:
            _, untraced = self.runs[(name, 0)]
            _, traced = self.runs[(name, 1)]
            with self.subTest(workload=name):
                self.assertEqual(traced["details"]["traced_digests"], untraced["details"]["digests"][:OPS])

    def test_corrupted_outputs_count_as_failed(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
                ctx = wl.setup(tmp)
                self.assertEqual(wl.reference(ctx), [])
                bad = Corrupted(wl, CORRUPTIONS[name])
                attempted, failed, _, _ = worker.run_timed(bad, ctx, random.Random(SEED), 0, 1)
                self.assertEqual((attempted, failed), (1, 1))
                attempted, failed, _, _ = worker.run_timed(wl, ctx, random.Random(SEED + 1), 0, 1)
                self.assertEqual((attempted, failed), (1, 0))


if __name__ == "__main__":
    unittest.main()
