"""Distillation error analysis: propagation, pair census, Monte Carlo."""

import itertools
import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import D2_ROWS, direct_sum, matrix_from_rows
from triortho.codes import TriorthogonalMatrix
from triortho.distill import (
    MC_CHUNK,
    NUM_CLASSES,
    CoefficientReport,
    ErrorModel,
    MonteCarloStats,
    enumerate_order2,
    monte_carlo,
    propagate,
    wilson_interval,
)
from triortho.gf2 import BitMatrix, BitVector

UNIFORM = ErrorModel.uniform(1e-2)

PURE_CLASS_111 = ErrorModel(p=1e-2, class_weights=(0, 0, 0, 0, 0, 0, 1.0))

SKEWED = ErrorModel(p=3e-2, class_weights=(0.25, 0.05, 0.1, 0.2, 0.1, 0.15, 0.15))

# Three weight-1 outputs beside d2: their 21 singles share the zero
# syndrome, so mixed-class pairs count and the census coefficient's last
# bits depend on the order of summation.
OUTPUTS3_D2_ROWS = tuple(f"{1 << (16 - i):017b}" for i in range(3)) + tuple(
    "000" + row for row in D2_ROWS
)


def permuted(matrix, seed):
    """The matrix with its columns moved by a seeded permutation."""
    n = matrix.n
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return TriorthogonalMatrix.from_matrix(
        BitMatrix(
            [
                BitVector.from_support([perm[q] for q in row.support()], n)
                for row in matrix.matrix.rows
            ]
        )
    )


def _oracle_rows(source):
    even = source.even_matrix().row_values()
    odd = [v.value for v in source.odd_vectors()]
    return even, odd


def _oracle_block_patterns(n, injected):
    patterns = [0, 0, 0]
    for site, cls in injected:
        for b in range(3):
            if (cls >> (2 - b)) & 1:
                patterns[b] ^= 1 << site
    return patterns


def oracle_enumerate_order2(source, model):
    """The census by brute force: every site pair and class pair, with each
    single's syndrome and logical flips read off its block patterns."""
    n = source.n
    even, odd = _oracle_rows(source)
    weights = model.class_weights
    singles = []
    for site in range(n):
        per_site = []
        for cls in range(1, NUM_CLASSES + 1):
            patterns = _oracle_block_patterns(n, [(site, cls)])
            syndrome = tuple((p & row).bit_count() & 1 for p in patterns for row in even)
            logical = tuple((p & f).bit_count() & 1 for p in patterns for f in odd)
            per_site.append((syndrome, logical))
        singles.append(per_site)
    coefficient = 0.0
    pair_events = 0
    identical = 0
    per_class = {}
    for i, j in itertools.combinations(range(n), 2):
        for c1 in range(1, NUM_CLASSES + 1):
            syn1, log1 = singles[i][c1 - 1]
            for c2 in range(1, NUM_CLASSES + 1):
                syn2, log2 = singles[j][c2 - 1]
                if syn1 != syn2 or log1 == log2:
                    continue
                pair_events += 1
                coefficient += weights[c1 - 1] * weights[c2 - 1]
                identical += c1 == c2
                per_class[(c1, c2)] = per_class.get((c1, c2), 0) + 1
    return CoefficientReport(coefficient, pair_events, identical, per_class)


def oracle_monte_carlo(source, model, trials, seed):
    """The sampler with dense per-block parity products: the same random
    draws, then (t, n) @ (n, rows) matrix products for every block."""
    n = source.n
    rng = np.random.default_rng(seed)
    even, odd = (
        np.array([[(r >> i) & 1 for i in range(n)] for r in rows], dtype=np.uint8).reshape(-1, n)
        for rows in _oracle_rows(source)
    )
    cumulative = np.cumsum(np.asarray(model.class_weights, dtype=np.float64))
    flags = np.zeros((trials, 2), dtype=bool)
    done = 0
    while done < trials:
        t = min(MC_CHUNK, trials - done)
        faulty = rng.random((t, n)) < model.p
        draws = rng.random((t, n))
        classes = np.zeros((t, n), dtype=np.uint8)
        classes[faulty] = np.minimum(
            np.searchsorted(cumulative, draws[faulty], side="right"), NUM_CLASSES - 1
        ) + 1
        ok = np.ones(t, dtype=bool)
        bad = np.zeros(t, dtype=bool)
        for b in range(3):
            hit = (classes >> (2 - b)) & 1
            ok &= ~((hit @ even.T) & 1).any(axis=1)
            bad |= ((hit @ odd.T) & 1).any(axis=1)
        flags[done : done + t, 0] = ok
        flags[done : done + t, 1] = ok & bad
        done += t
    return MonteCarloStats(trials, seed, int(flags[:, 0].sum()), int(flags[:, 1].sum()), flags)


@pytest.fixture(scope="module")
def oracle_fixtures(d2_matrix, small10_matrix, small8_matrix, builtin_matrix):
    return {
        "d2": d2_matrix,
        "small10": small10_matrix,
        "small8": small8_matrix,
        "15-1-3": builtin_matrix,
        # 6 copies: 24 rows per block, so block 2's signature straddles
        # the first two uint64 words.
        "d2x6-permuted": permuted(direct_sum(D2_ROWS, 6), 5),
        "d2x8-permuted": permuted(direct_sum(D2_ROWS, 8), 1),
        "outputs3+d2-permuted": permuted(matrix_from_rows(OUTPUTS3_D2_ROWS), 3),
    }


class TestErrorModel:
    def test_uniform_weights(self):
        model = ErrorModel.uniform(0.3)
        assert model.p == 0.3
        assert len(model.class_weights) == 7
        assert abs(sum(model.class_weights) - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(p=-0.1, class_weights=(1.0,) + (0.0,) * 6)
        with pytest.raises(ValueError):
            ErrorModel(p=1.5, class_weights=(1.0,) + (0.0,) * 6)
        with pytest.raises(ValueError):
            ErrorModel(p=0.1, class_weights=(1.0,) * 7)
        with pytest.raises(ValueError):
            ErrorModel(p=0.1, class_weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            ErrorModel(p=0.1, class_weights=(2.0, -1.0, 0, 0, 0, 0, 0))

    def test_nan_weight_rejected(self):
        # NaN passes the sum check, since every comparison with it is false.
        data = json.loads('{"p": 0.01, "class_weights": [NaN, 1, 0, 0, 0, 0, 0]}')
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ErrorModel.from_json_dict(data)

    def test_json_round_trip(self):
        model = ErrorModel(p=0.05, class_weights=(0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1))
        assert ErrorModel.from_json_dict(model.to_json_dict()) == model

    def test_json_missing_keys(self):
        with pytest.raises(ValueError):
            ErrorModel.from_json_dict({"class_probs": [0.1] * 7})
        with pytest.raises(ValueError):
            ErrorModel.from_json_dict({"p": 0.1})


class TestPropagate:
    def test_no_faults(self, d2_matrix):
        out = propagate(d2_matrix, [])
        assert out.accepted
        assert not out.any_logical_error
        assert out.logical_error == ((0,), (0,), (0,))

    def test_every_single_fault_rejected(self, d2_matrix):
        # Distance 2 means every weight-1 Z pattern trips some X check,
        # whichever block subset the class touches.
        for site in range(d2_matrix.n):
            for cls in range(1, 8):
                assert not propagate(d2_matrix, [(site, cls)]).accepted

    def test_harmful_pair(self, d2_matrix):
        out = propagate(d2_matrix, [(0, 1), (3, 1)])
        assert out.accepted
        assert out.any_logical_error
        assert out.logical_error == ((0,), (0,), (1,))
        assert out.fault_sites == ((0, 1), (3, 1))

    def test_site_and_class_validation(self, d2_matrix):
        with pytest.raises(ValueError):
            propagate(d2_matrix, [(99, 1)])
        with pytest.raises(ValueError):
            propagate(d2_matrix, [(0, 0)])
        with pytest.raises(ValueError):
            propagate(d2_matrix, [(0, 8)])

    def test_same_site_same_class_cancels(self, d2_matrix):
        out = propagate(d2_matrix, [(4, 5), (4, 5)])
        assert out.accepted
        assert not out.any_logical_error

    def test_permutation_equivariance(self, d2_matrix):
        n = d2_matrix.n
        perm = list(range(n))
        random.Random(42).shuffle(perm)
        permuted = TriorthogonalMatrix.from_matrix(
            BitMatrix(
                [
                    BitVector.from_support([perm[q] for q in row.support()], n)
                    for row in d2_matrix.matrix.rows
                ]
            )
        )
        rng = random.Random(7)
        for _ in range(200):
            sites = rng.sample(range(n), rng.randint(0, 4))
            faults = [(s, rng.randint(1, 7)) for s in sites]
            base = propagate(d2_matrix, faults)
            moved = propagate(permuted, [(perm[s], c) for s, c in faults])
            assert base.accepted == moved.accepted
            assert base.logical_error == moved.logical_error


class TestEnumerateOrder2:
    def test_d2_census(self, d2_matrix):
        report = enumerate_order2(d2_matrix, UNIFORM)
        assert report.pair_events == 49
        assert report.identical_class_events == 49
        assert report.per_class == {(c, c): 7 for c in range(1, 8)}
        assert report.coefficient == pytest.approx(1.0, abs=1e-12)
        assert report.predicted_failure(1e-2) == pytest.approx(1e-4, rel=1e-12)

    def test_single_class_restriction(self, d2_matrix):
        # Counting ignores weights; the coefficient collapses to the one
        # surviving diagonal cell.
        report = enumerate_order2(d2_matrix, PURE_CLASS_111)
        assert report.pair_events == 49
        assert report.coefficient == 7.0
        uniform = enumerate_order2(d2_matrix, UNIFORM)
        assert report.per_class == uniform.per_class

    def test_distance3_code_has_no_order2_failures(self, builtin_matrix):
        report = enumerate_order2(builtin_matrix, UNIFORM)
        assert report.pair_events == 0
        assert report.coefficient == 0.0
        assert report.per_class == {}

    def test_census_agrees_with_direct_propagation(self, d2_matrix):
        n = d2_matrix.n
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                for c1 in range(1, 8):
                    for c2 in range(1, 8):
                        out = propagate(d2_matrix, [(i, c1), (j, c2)])
                        if out.accepted and out.any_logical_error:
                            count += 1
        assert count == enumerate_order2(d2_matrix, UNIFORM).pair_events

    def test_permutation_invariant_census(self, d2_matrix):
        n = d2_matrix.n
        perm = list(range(n))
        random.Random(42).shuffle(perm)
        permuted = TriorthogonalMatrix.from_matrix(
            BitMatrix(
                [
                    BitVector.from_support([perm[q] for q in row.support()], n)
                    for row in d2_matrix.matrix.rows
                ]
            )
        )
        base = enumerate_order2(d2_matrix, UNIFORM)
        moved = enumerate_order2(permuted, UNIFORM)
        assert moved.pair_events == base.pair_events
        assert moved.identical_class_events == base.identical_class_events
        assert moved.coefficient == base.coefficient


class TestMonteCarlo:
    def test_p_zero(self, d2_matrix):
        stats = monte_carlo(d2_matrix, ErrorModel.uniform(0.0), 1000, seed=1)
        assert stats.accepted == 1000
        assert stats.failures == 0
        assert stats.acceptance_rate == 1.0
        assert stats.conditional_error_rate == 0.0

    def test_determinism(self, d2_matrix):
        a = monte_carlo(d2_matrix, UNIFORM, 50_000, seed=11)
        b = monte_carlo(d2_matrix, UNIFORM, 50_000, seed=11)
        assert (a.accepted, a.failures) == (b.accepted, b.failures)

    def test_frozen_counts(self, d2_matrix):
        stats = monte_carlo(d2_matrix, UNIFORM, 200_000, seed=11)
        assert stats.accepted == 173894
        assert stats.failures == 16

    def test_collect_trials_matches_counters(self, d2_matrix):
        stats = monte_carlo(d2_matrix, UNIFORM, 30_000, seed=2, collect_trials=True)
        assert stats.trial_flags is not None
        assert int(stats.trial_flags[:, 0].sum()) == stats.accepted
        assert int(stats.trial_flags[:, 1].sum()) == stats.failures

    def test_degenerate_p_one_single_class(self, d2_matrix):
        # Every trial draws the same all-sites class-111 fault pattern, so
        # the sampler must reproduce the deterministic propagate verdict.
        model = ErrorModel(p=1.0, class_weights=(0, 0, 0, 0, 0, 0, 1.0))
        deterministic = propagate(d2_matrix, [(s, 7) for s in range(d2_matrix.n)])
        assert deterministic.accepted
        assert deterministic.logical_error == ((1,), (1,), (1,))
        stats = monte_carlo(d2_matrix, model, 500, seed=9)
        assert stats.accepted == 500
        assert stats.failures == 500
        assert stats.acceptance_rate == 1.0
        assert stats.conditional_error_rate == 1.0

    def test_acceptance_lower_bound_small_p(self, d2_matrix):
        model = ErrorModel.uniform(1e-3)
        stats = monte_carlo(d2_matrix, model, 100_000, seed=5)
        assert stats.acceptance_rate >= 1.0 - d2_matrix.n * 1e-3

    def test_agreement_with_enumeration(self, d2_matrix):
        # Conditional failure rate must bracket the order-2 prediction
        # within 3 Wilson sigmas plus an order-3 slack term.
        stats = monte_carlo(d2_matrix, UNIFORM, 200_000, seed=11)
        predicted = enumerate_order2(d2_matrix, UNIFORM).predicted_failure(1e-2)
        lo, hi = stats.conditional_wilson(z=3.0)
        slack = math.comb(d2_matrix.n, 3) * 1e-2**3
        assert lo - slack <= predicted <= hi + slack

    def test_negative_trials_rejected(self, d2_matrix):
        with pytest.raises(ValueError):
            monte_carlo(d2_matrix, UNIFORM, -1, seed=0)

    def test_json_dict(self, d2_matrix):
        stats = monte_carlo(d2_matrix, UNIFORM, 10_000, seed=3)
        data = stats.to_json_dict()
        assert data["trials"] == 10_000
        assert data["seed"] == 3
        assert data["accepted"] == stats.accepted
        assert data["failures"] == stats.failures
        assert data["acceptance_rate"] == stats.acceptance_rate


ORACLE_MODELS = {
    "uniform": UNIFORM,
    "skewed": SKEWED,
    "p0": ErrorModel.uniform(0.0),
    "p1-class111": ErrorModel(p=1.0, class_weights=(0, 0, 0, 0, 0, 0, 1.0)),
}


BLOCK_MODELS = {
    "p0": ErrorModel.uniform(0.0),
    "p1e-2": UNIFORM,
    "p5e-2-skewed": ErrorModel(p=0.05, class_weights=SKEWED.class_weights),
    "p0.3": ErrorModel.uniform(0.3),
    # Every site of every trial fails, so each trial's verdict needs the
    # parts from all of its blocks.
    "p1-class111": ORACLE_MODELS["p1-class111"],
}


class TestMonteCarloOracle:
    # 70,000 trials span two MC_CHUNK chunks.
    @pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize(
        "name", ["d2", "small10", "15-1-3", "d2x6-permuted", "outputs3+d2-permuted"]
    )
    def test_matches_dense_sampler(self, oracle_fixtures, name, model):
        source = oracle_fixtures[name]
        stats = monte_carlo(source, ORACLE_MODELS[model], 70_000, seed=13, collect_trials=True)
        expected = oracle_monte_carlo(source, ORACLE_MODELS[model], 70_000, seed=13)
        assert (stats.accepted, stats.failures) == (expected.accepted, expected.failures)
        assert np.array_equal(stats.trial_flags, expected.trial_flags)

    # A block of 5 cuts most multi-failure trials in two; one of 1009
    # divides neither n = 84 nor a chunk's t * n, so each chunk ends on a
    # partial block.  70,000 trials in blocks of 5 would take about a
    # minute, so that block runs 600.
    @pytest.mark.parametrize("block, trials", [(5, 600), (1009, 70_000)])
    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    def test_trials_split_between_blocks(self, oracle_fixtures, monkeypatch, model, block, trials):
        monkeypatch.setattr("triortho.distill.MC_BLOCK", block)
        source = oracle_fixtures["d2x6-permuted"]
        stats = monte_carlo(source, BLOCK_MODELS[model], trials, seed=4, collect_trials=True)
        expected = oracle_monte_carlo(source, BLOCK_MODELS[model], trials, seed=4)
        assert np.array_equal(stats.trial_flags, expected.trial_flags)

    @pytest.mark.parametrize("p", [1e-2, 0.3])
    def test_memory_bounded_by_blocks(self, oracle_fixtures, p):
        # Two dense (t, n) float64 draws would take 2 * 58.7 MB at n = 112.
        source = oracle_fixtures["d2x8-permuted"]
        tracemalloc.start()
        try:
            monte_carlo(source, ErrorModel.uniform(p), MC_CHUNK, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCensusOracle:
    @pytest.mark.parametrize("model", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
    @pytest.mark.parametrize(
        "name", ["d2", "small10", "small8", "15-1-3", "d2x8-permuted", "outputs3+d2-permuted"]
    )
    def test_matches_all_pairs(self, oracle_fixtures, name, model):
        source = oracle_fixtures[name]
        report = enumerate_order2(source, model)
        expected = oracle_enumerate_order2(source, model)
        assert report == expected
        assert report.coefficient.hex() == expected.coefficient.hex()
        assert list(report.per_class) == list(expected.per_class)

    def test_scales_to_21_copies(self):
        # n = 294, the k = 21 direct sum: 49 harmful pairs per copy.
        source = direct_sum(D2_ROWS, 21)
        start = time.perf_counter()
        report = enumerate_order2(source, SKEWED)
        elapsed = time.perf_counter() - start
        assert source.n == 294
        assert report.pair_events == 21 * 49
        assert report.identical_class_events == 21 * 49
        assert elapsed < 0.5


class TestNoOddRows:
    # Rows 1111 and 0011 are both even: checks but no outputs.
    @pytest.mark.parametrize(
        "entry",
        [
            lambda m: propagate(m, []),
            lambda m: enumerate_order2(m, UNIFORM),
            lambda m: monte_carlo(m, UNIFORM, trials=10, seed=0),
        ],
        ids=["propagate", "enumerate_order2", "monte_carlo"],
    )
    def test_every_entry_point_rejects(self, entry):
        matrix = TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["1111", "0011"]))
        with pytest.raises(ValueError, match="no odd rows, so distillation has no outputs"):
            entry(matrix)


class TestWilsonInterval:
    def test_degenerate_total(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_z_zero_collapses_to_point(self):
        assert wilson_interval(5, 10, z=0.0) == (0.5, 0.5)

    def test_contains_proportion(self):
        for successes, total in ((0, 100), (3, 50), (50, 50), (105, 869232)):
            lo, hi = wilson_interval(successes, total)
            assert 0.0 <= lo <= successes / total <= hi <= 1.0

    def test_wider_with_larger_z(self):
        lo1, hi1 = wilson_interval(10, 100, z=1.0)
        lo3, hi3 = wilson_interval(10, 100, z=3.0)
        assert lo3 < lo1 and hi1 < hi3


class TestDecodeOutputs:
    # logical_error[b][j] flips output j of block b: a Z on the two control
    # blocks, an X on the target block after the final Hadamard.
    def test_clean_run(self, d2_matrix):
        outcome = propagate(d2_matrix, [])
        assert outcome.accepted
        assert outcome.logical_error == ((0,), (0,), (0,))

    def test_harmful_pair_label(self, d2_matrix):
        # Class 1 touches only block 3; the block-3 residual surfaces as an
        # X on the output target after the final Hadamard.
        outcome = propagate(d2_matrix, [(0, 1), (3, 1)])
        assert outcome.accepted
        assert outcome.logical_error == ((0,), (0,), (1,))

    def test_every_harmful_pair_matches_census_class(self, d2_matrix):
        # Cross-check the census against decoded labels: a pair of
        # identical class c must flip exactly the blocks named by c's bits.
        n = d2_matrix.n
        seen = 0
        for i in range(n):
            for j in range(i + 1, n):
                for cls in range(1, 8):
                    outcome = propagate(d2_matrix, [(i, cls), (j, cls)])
                    if not (outcome.accepted and outcome.any_logical_error):
                        continue
                    seen += 1
                    blocks = tuple(((cls >> (2 - b)) & 1,) for b in range(3))
                    assert outcome.logical_error == blocks
        assert seen == 49


BH_MATRIX_FILE = Path(__file__).parent / "data" / "bravyi_haah_matrix.txt"


@pytest.mark.skipif(
    not BH_MATRIX_FILE.exists(),
    reason="no user-supplied [[3k+8,k,2]] matrix file at tests/data/bravyi_haah_matrix.txt",
)
def test_bravyi_haah_coefficient():
    from triortho.gf2 import parse_matrix

    matrix = TriorthogonalMatrix.from_matrix(parse_matrix(BH_MATRIX_FILE.read_text()))
    k = len(matrix.odd_rows)
    assert matrix.n == 3 * k + 8
    report = enumerate_order2(matrix, ErrorModel.uniform(1e-3))
    assert report.pair_events == 7 * (3 * k + 1)
    assert report.identical_class_events == report.pair_events
    assert report.predicted_failure(1e-3) == pytest.approx(
        7 * (3 * k + 1) * (1e-3 / 7) ** 2, rel=1e-9
    )
