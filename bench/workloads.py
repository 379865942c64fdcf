"""The four benchmark workloads.

Each workload makes its op inputs from a seeded ``random.Random``, calls
one public triortho entry point per op (``run``, the only timed part), and
checks every output against ``reference`` computations made apart from the
program or against properties the method must have.  No op's input repeats
another op's input within a run.

triortho is imported inside ``setup`` so that the import counts toward
set-up time; ops look functions up on the module at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from types import SimpleNamespace

import reference as ref

# Matrix rows copied from the repository's test fixtures (tests/conftest.py)
# and from the built-in [[15,1,3]] code, leftmost character = qubit 0.
BUILTIN_15_1_3_ROWS = (
    "000000011111111",
    "000111100001111",
    "011001100110011",
    "101010101010101",
    "111111111111111",
)
SMALL10_ROWS = ("0000110110", "0100011010", "0001110111", "1001100101")
D2_ROWS = (
    "10111001111000",
    "11011110100010",
    "10110100001111",
    "00010110111001",
)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _fresh_permutation(rng: random.Random, n: int, used: set) -> tuple[int, ...]:
    while True:
        perm = tuple(rng.sample(range(n), n))
        if perm not in used:
            used.add(perm)
            return perm


class Workload:
    def finish(self, ctx):
        """Checks that pool the whole run; a list of problems found."""
        return []


class Hadamard(Workload):
    """One fault-free logical Hadamard round on the built-in [[15,1,3]] code."""

    name = "hadamard"
    min_ops = 50
    trace_ops = 12

    def setup(self, workdir):
        from triortho import codes, logical, simulator

        code = codes.build_code(codes.builtin_15_1_3())
        zero = simulator.prepare_logical(code, (0,))
        one = simulator.prepare_logical(code, (1,))
        return SimpleNamespace(
            codes=codes, logical=logical, simulator=simulator, code=code, zero=zero, one=one
        )

    def reference(self, ctx):
        problems = []
        rows = tuple(r.to_string() for r in ctx.code.source.matrix.rows)
        if rows != BUILTIN_15_1_3_ROWS:
            problems.append(f"built-in matrix rows changed: {rows}")
        ctx.matrix_rows = ref.row_ints(BUILTIN_15_1_3_ROWS)
        return problems

    def make_input(self, ctx, rng, index):
        # |alpha| != |beta|, so no logical Pauli maps the output to itself.
        while True:
            a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.hypot(abs(a), abs(b))
            alpha, beta = a / norm, b / norm
            if abs(abs(alpha) - abs(beta)) > 0.1:
                break
        state = ctx.simulator.superpose([(alpha, ctx.zero), (beta, ctx.one)])
        return SimpleNamespace(alpha=alpha, beta=beta, state=state, seed=rng.getrandbits(64))

    def run(self, ctx, inp):
        return ctx.logical.logical_hadamard(inp.state, ctx.code, rng=random.Random(inp.seed))

    def digest(self, out):
        state, report = out
        return _digest(sorted(state.amps.items()), report.to_json_dict())

    def check(self, ctx, inp, out):
        state, report = out
        ideal = ref.encoded_hadamard_image(BUILTIN_15_1_3_ROWS, inp.alpha, inp.beta)
        if state.n != 15 or not ref.equal_up_to_phase(state.amps, ideal, 1e-10):
            return False
        if not report.decode_success or len(ctx.code.gauge_pairs) != 6:
            return False
        for pair in ctx.code.gauge_pairs:
            z = pair.z_part.value
            if any((z & row).bit_count() & 1 for row in ctx.matrix_rows):
                return False
            if any((z & key).bit_count() & 1 for key in state.amps):
                return False
        return True


class Sweep(Workload):
    """A weight-1 fault sweep on a seeded column permutation of a 10-qubit code."""

    name = "sweep"
    min_ops = 40
    trace_ops = 8

    def setup(self, workdir):
        from triortho import codes, gf2, logical

        return SimpleNamespace(codes=codes, gf2=gf2, logical=logical, used=set())

    def _sweep(self, ctx, rows, seed):
        matrix = ctx.codes.TriorthogonalMatrix.from_matrix(ctx.gf2.BitMatrix.from_strings(rows))
        return ctx.logical.fault_tolerance_sweep(ctx.codes.build_code(matrix), 1, seed=seed)

    @staticmethod
    def _counterexamples(report, inverse):
        return sorted(
            (tuple((f.location, f.pauli, inverse[f.qubit]) for f in ce.faults), ce.residual_sites)
            for ce in report.counterexamples
        )

    def reference(self, ctx):
        # The counterexample set of the unpermuted code; every op's set,
        # mapped back through its permutation, must equal it whatever the
        # measurement seed.
        report = self._sweep(ctx, SMALL10_ROWS, seed=0)
        ctx.expected = self._counterexamples(report, list(range(10)))
        ctx.used.add(tuple(range(10)))
        if report.cases_run != 70:
            return [f"identity sweep ran {report.cases_run} cases, not 7n = 70"]
        return []

    def make_input(self, ctx, rng, index):
        perm = _fresh_permutation(rng, 10, ctx.used)
        inverse = [0] * 10
        for j, target in enumerate(perm):
            inverse[target] = j
        return SimpleNamespace(
            rows=ref.permute_rows(SMALL10_ROWS, perm), inverse=inverse, seed=rng.getrandbits(64)
        )

    def run(self, ctx, inp):
        return self._sweep(ctx, inp.rows, inp.seed)

    def digest(self, out):
        return _digest(out.cases_run, out.counterexamples)

    def check(self, ctx, inp, out):
        return out.cases_run == 70 and self._counterexamples(out, inp.inverse) == ctx.expected


class Distill(Workload):
    """One in-process ``triortho distill --format json`` call on a seeded
    column permutation of an 8-fold direct sum of the 14-qubit d2 code."""

    name = "distill"
    min_ops = 50
    trace_ops = 12
    copies = 8
    trials = 1 << 14
    p = 1e-2
    # A z=3 interval fails falsely on about 0.5% of runs for the two rates
    # together; z=4 keeps that below 1e-4 per run.
    z = 4.0

    def setup(self, workdir):
        from triortho import cli

        model = os.path.join(workdir, "model.json")
        with open(model, "w", encoding="ascii") as fh:
            json.dump({"p": self.p, "class_weights": [1.0 / 7.0] * 7}, fh)
        return SimpleNamespace(
            cli=cli,
            workdir=workdir,
            model=model,
            rows=ref.direct_sum(D2_ROWS, self.copies),
            used=set(),
            pooled=[0, 0, 0],
        )

    def reference(self, ctx):
        one = ref.order2_census(D2_ROWS)
        ctx.census = ref.order2_census(ctx.rows)
        problems = []
        if ctx.census != (self.copies * one[0], self.copies * one[1]):
            problems.append(f"direct-sum census {ctx.census} is not {self.copies} x {one}")
        accepted, clean = ref.exact_block_rates(D2_ROWS, self.p)
        ctx.p_accept = accepted**self.copies
        ctx.p_fail = 1.0 - (clean / accepted) ** self.copies
        return problems

    def make_input(self, ctx, rng, index):
        n = len(ctx.rows[0])
        perm = _fresh_permutation(rng, n, ctx.used)
        path = os.path.join(ctx.workdir, f"op{index}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(ref.permute_rows(ctx.rows, perm)) + "\n")
        return SimpleNamespace(path=path, seed=rng.getrandbits(32))

    def run(self, ctx, inp):
        argv = [
            "distill", "--file", inp.path, "--level", "3", "--model", ctx.model,
            "--trials", str(self.trials), "--seed", str(inp.seed), "--format", "json",
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = ctx.cli.main(argv)
        return status, buf.getvalue()

    def digest(self, out):
        return _digest(out)

    def check(self, ctx, inp, out):
        status, text = out
        if status != 0:
            return False
        payload = json.loads(text)
        events, identical = ctx.census
        ok = (
            payload["n"] == len(ctx.rows[0])
            and payload["k"] == self.copies
            and payload["trials"] == self.trials
            and payload["seed"] == inp.seed
            and payload["order2_pair_events"] == events
            and payload["order2_identical_class_events"] == identical
            and math.isclose(payload["order2_coefficient"], events / 49.0, rel_tol=1e-9)
            and 0 <= payload["failures"] <= payload["accepted"] <= self.trials
        )
        if ok:
            ctx.pooled[0] += self.trials
            ctx.pooled[1] += payload["accepted"]
            ctx.pooled[2] += payload["failures"]
        return ok

    def finish(self, ctx):
        trials, accepted, failures = ctx.pooled
        if not trials:
            return []
        problems = []
        lo, hi = ref.wilson(accepted, trials, self.z)
        if not lo <= ctx.p_accept <= hi:
            problems.append(f"acceptance {accepted}/{trials} vs exact {ctx.p_accept:.6g}")
        if accepted:
            lo, hi = ref.wilson(failures, accepted, self.z)
            if not lo <= ctx.p_fail <= hi:
                problems.append(f"failure {failures}/{accepted} vs exact {ctx.p_fail:.6g}")
        return problems


class Cost(Workload):
    """One ``cost_curve`` call on the default menu over two grid targets,
    at a physical T error drawn near the paper's 1e-2."""

    name = "cost"
    min_ops = 40
    trace_ops = 6
    targets = (1e-10, 1e-13)
    paper_p = 1e-2
    paper = {"jones": 540.16, "triortho_k_opt": 428.7}  # T per Toffoli at 1e-13
    columns = ("jones", "triortho_k_opt")
    recompute_every = 8

    def setup(self, workdir):
        from triortho import cost

        return SimpleNamespace(cost=cost, menu=cost.default_menu(), history=[])

    def _values(self, rows):
        return [[getattr(row, col) for col in self.columns] for row in rows]

    def reference(self, ctx):
        rows = ctx.cost.cost_curve(ctx.menu, self.targets, self.paper_p)
        ctx.at_paper_p = self._values(rows)
        problems = []
        headline = rows[self.targets.index(1e-13)]
        for col, value in self.paper.items():
            got = getattr(headline, col)
            if got is None or abs(got / value - 1.0) > 0.15:
                problems.append(f"{col} at 1e-13 is {got}, not within 15% of {value}")
        return problems

    def make_input(self, ctx, rng, index):
        return SimpleNamespace(
            p=self.paper_p * (1.0 + rng.uniform(-0.05, 0.05)),
            recompute=index % self.recompute_every == 0,
            # Which (target, column) cell a recomputing op re-derives.
            cell=divmod((index // self.recompute_every) % 4, 2),
        )

    def run(self, ctx, inp):
        return ctx.cost.cost_curve(ctx.menu, self.targets, inp.p)

    def digest(self, out):
        return _digest(out)

    @staticmethod
    def _no_decrease(lower, upper):
        return all(a <= b for ra, rb in zip(lower, upper) for a, b in zip(ra, rb))

    def _recomputed(self, ctx, inp, values):
        # Re-run one family's optimum, as cost_curve restricts the menu for
        # it, and recount the T cost of its stack from the levels.
        target_index, column = inp.cell
        target = self.targets[target_index]
        family = ("jones", "triortho")[column]
        menu = tuple(
            spec
            for spec in ctx.menu
            if family == "triortho"
            or (spec.input_kind == "T" and spec.output_kind == "T")
            or spec.family == family
        )
        result = ctx.cost.optimize_stack(
            ctx.cost.CostQuery(
                target_error=target,
                physical_t_error=inp.p,
                menu=menu,
                required_final_family=family,
            )
        )
        count = ref.stack_t_count(result.levels, inp.p, target)
        reported = values[target_index][column]
        return (
            count is not None
            and math.isclose(count, reported, rel_tol=1e-12)
            and math.isclose(result.expected_t_count, reported, rel_tol=1e-12)
        )

    def check(self, ctx, inp, out):
        if [row.target_error for row in out] != list(self.targets):
            return False
        values = self._values(out)
        if any(v is None for row in values for v in row):
            return False
        # Each column never decreases as the target tightens ...
        if not self._no_decrease(values[:-1], values[1:]):
            return False
        # ... or as the physical error grows.
        for p, other in [(self.paper_p, ctx.at_paper_p)] + ctx.history:
            if p < inp.p and not self._no_decrease(other, values):
                return False
            if p > inp.p and not self._no_decrease(values, other):
                return False
        ctx.history.append((inp.p, values))
        return not inp.recompute or self._recomputed(ctx, inp, values)


WORKLOADS = {w.name: w for w in (Hadamard(), Sweep(), Distill(), Cost())}
