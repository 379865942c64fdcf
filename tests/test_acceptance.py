"""End-to-end acceptance checks.

One test per headline claim, each printing a single pass/fail line with its
runtime.  Every test also enforces its own wall-clock budget.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from triortho.codes import build_code, check_orthogonality, distances
from triortho.cost import CostQuery, default_menu, optimize_stack
from triortho.distill import ErrorModel, enumerate_order2, monte_carlo, propagate
from triortho.logical import fault_tolerance_sweep, gauge_parities_of_state, logical_hadamard
from triortho.simulator import (
    apply_gate,
    prepare_logical,
    states_equal_up_to_global_phase,
    superpose,
    transversal_ccz_phase_check,
)

from oracles import tensor


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(text: str) -> None:
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    return _announce


@contextmanager
def criterion(announce, number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        announce(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= limit_seconds:
        announce(
            f"criterion {number} ({description}): FAIL "
            f"(runtime {elapsed:.2f}s, budget {limit_seconds:g}s)"
        )
        pytest.fail(f"criterion {number} exceeded its {limit_seconds:g}s budget")
    announce(f"criterion {number} ({description}): PASS ({elapsed:.2f}s)")


def test_criterion_1_transversal_ccz_phases(announce, builtin_code):
    with criterion(announce, 1, "transversal CCZ phase on all labels", 1.0):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    check = transversal_ccz_phase_check(builtin_code, [(a,), (b,), (c,)])
                    assert check.uniform
                    assert check.terms == 16**3
                    assert check.phase == (-1) ** (a * b * c)
                    assert check.matches


def test_criterion_2_code_parameters(announce, builtin_matrix, builtin_code):
    with criterion(announce, 2, "builtin matrix parameters and distance", 10.0):
        assert check_orthogonality(builtin_matrix.matrix, 3) is None
        assert builtin_code.n == 15
        assert builtin_code.k == 1
        assert builtin_code.x_stabilizers.row_count == 4
        assert builtin_code.z_stabilizers.row_count == 10
        assert len(builtin_code.gauge_pairs) == 6
        d_x, d_z = distances(builtin_code)
        assert min(d_x, d_z) == 3


def test_criterion_3_logical_hadamard(announce, builtin_code):
    def plus(sign):
        return superpose(
            [
                (complex(1.0), prepare_logical(builtin_code, (0,))),
                (complex(sign), prepare_logical(builtin_code, (1,))),
            ]
        )

    zero = prepare_logical(builtin_code, (0,))
    one = prepare_logical(builtin_code, (1,))
    pythagorean = superpose([(complex(3 / 5), zero), (complex(0, 4 / 5), one)])
    cases = [
        (zero, plus(1.0)),
        (one, plus(-1.0)),
        (plus(1.0), zero),
        (plus(-1.0), one),
        (pythagorean, superpose([(complex(3 / 5), plus(1.0)), (complex(0, 4 / 5), plus(-1.0))])),
    ]
    with criterion(announce, 3, "logical Hadamard on 5 inputs x 20 seeds", 30.0):
        for data, ideal in cases:
            for seed in range(20):
                output, report = logical_hadamard(data, builtin_code, rng=random.Random(seed))
                assert report.decode_success
                assert states_equal_up_to_global_phase(output, ideal, tol=1e-10)
                assert gauge_parities_of_state(output, builtin_code) == (0,) * 6


def test_criterion_4_weight_one_fault_sweep(announce, builtin_code):
    with criterion(announce, 4, "weight-1 fault sweep, zero counterexamples", 300.0):
        report = fault_tolerance_sweep(builtin_code, 1)
        assert report.cases_run == 7 * builtin_code.n
        assert report.counterexamples == ()
        assert report.passed


def test_criterion_5_distillation_statistics(announce, d2_matrix):
    model = ErrorModel.uniform(1e-2)
    with criterion(announce, 5, "Monte Carlo vs order-2 enumeration", 120.0):
        d_x, d_z = distances(build_code(d2_matrix))
        assert d_z == 2

        for site in range(d2_matrix.n):
            for cls in range(1, 8):
                assert not propagate(d2_matrix, [(site, cls)]).accepted

        census = enumerate_order2(d2_matrix, model)
        predicted = census.predicted_failure(model.p)
        stats = monte_carlo(d2_matrix, model, trials=1_000_000, seed=11)
        lo, hi = stats.conditional_wilson(z=3.0)
        slack = math.comb(d2_matrix.n, 3) * model.p**3
        assert lo - slack <= predicted <= hi + slack

        bh_file = Path(__file__).parent / "data" / "bravyi_haah_matrix.txt"
        if bh_file.exists():
            from triortho.codes import TriorthogonalMatrix
            from triortho.gf2 import parse_matrix

            matrix = TriorthogonalMatrix.from_matrix(parse_matrix(bh_file.read_text()))
            k = len(matrix.odd_rows)
            assert matrix.n == 3 * k + 8
            report = enumerate_order2(matrix, model)
            assert report.pair_events == 7 * (3 * k + 1)
            assert report.identical_class_events == report.pair_events


def test_criterion_6_cost_headline_numbers(announce):
    with criterion(announce, 6, "T-count headline numbers", 60.0):
        tri = optimize_stack(
            CostQuery(target_error=1e-13, physical_t_error=1e-2, menu=tuple(default_menu()))
        )
        jones = optimize_stack(
            CostQuery(
                target_error=1e-13,
                physical_t_error=1e-2,
                menu=tuple(default_menu()),
                required_final_family="jones",
            )
        )
        ratio = tri.expected_t_count / jones.expected_t_count
        anchor_ratio = 428.7 / 540.16
        # k* equal to the menu's largest k means the optimum sits on the cap.
        max_k = max(spec.param_k for spec in default_menu() if spec.family == "triortho")
        announce(
            "criterion 6 detail: "
            f"jones-only {jones.expected_t_count:.4f} vs 540.16 "
            f"({100 * (jones.expected_t_count / 540.16 - 1):+.2f}%), "
            f"triortho {tri.expected_t_count:.4f} vs 428.7 "
            f"({100 * (tri.expected_t_count / 428.7 - 1):+.2f}%), "
            f"ratio {ratio:.4f} vs {anchor_ratio:.4f} "
            f"({100 * (ratio - anchor_ratio):+.2f}pp), k*={tri.k_star} (menu max k {max_k})"
        )
        assert abs(jones.expected_t_count - 540.16) / 540.16 <= 0.15
        assert abs(tri.expected_t_count - 428.7) / 428.7 <= 0.15
        assert abs(ratio - anchor_ratio) <= 0.08
        assert tri.k_star is not None


def test_criterion_7_classical_reduction_vs_sparse_simulation(announce, small10_matrix):
    # Three encoded blocks, transversal CCZ, injected Z faults.  The X-check
    # eigenvalues of the sparse state must reproduce the classical
    # syndromes, and accepted runs must equal the ideal state up to the
    # classically predicted logical Z content, exactly.
    code = build_code(small10_matrix)
    n = code.n
    even_rows = [row.value for row in small10_matrix.even_matrix().rows]
    odd = small10_matrix.odd_vectors()[0].value

    def x_shift_eigenvalue(state, shift):
        # state must be an eigenstate of the key-relabeling X pattern;
        # returns its +-1 eigenvalue.
        items = iter(state.amps.items())
        key0, amp0 = next(items)
        ratio = state.amps[key0 ^ shift] / amp0
        assert ratio in (1.0 + 0j, -1.0 + 0j) or ratio in (1.0, -1.0)
        for key, amp in state.amps.items():
            assert state.amps[key ^ shift] == ratio * amp
        return 1 if ratio == 1.0 else -1

    with criterion(announce, 7, "propagate vs 3-block sparse simulation", 120.0):
        plus = superpose(
            [
                (complex(1.0), prepare_logical(code, (0,))),
                (complex(1.0), prepare_logical(code, (1,))),
            ]
        )
        ideal = tensor(tensor(plus, plus), plus)
        for i in range(n):
            ideal = apply_gate(ideal, "CCZ", (i, n + i, 2 * n + i))

        rng = random.Random(0xACC7)
        accepted_seen = rejected_seen = harmful_seen = 0
        for _ in range(100):
            sites = rng.sample(range(n), rng.randint(0, 3))
            faults = [(site, rng.randint(1, 7)) for site in sites]
            outcome = propagate(small10_matrix, faults)

            patterns = [0, 0, 0]
            for site, cls in faults:
                for block in range(3):
                    if (cls >> (2 - block)) & 1:
                        patterns[block] ^= 1 << site
            faulty = ideal
            for block, pattern in enumerate(patterns):
                for i in range(n):
                    if (pattern >> i) & 1:
                        faulty = apply_gate(faulty, "Z", (block * n + i,))

            sim_accepted = True
            for block in range(3):
                for row in even_rows:
                    eigen = x_shift_eigenvalue(faulty, row << (block * n))
                    classical = ((patterns[block] & row).bit_count() & 1)
                    assert eigen == (-1) ** classical
                    sim_accepted &= eigen == 1
            assert sim_accepted == outcome.accepted

            if outcome.accepted:
                accepted_seen += 1
                adjusted = ideal
                for block in range(3):
                    if outcome.logical_error[block][0]:
                        harmful_seen += 1
                        for i in range(n):
                            if (odd >> i) & 1:
                                adjusted = apply_gate(adjusted, "Z", (block * n + i,))
                assert faulty.amps == adjusted.amps
            else:
                rejected_seen += 1
        assert accepted_seen and rejected_seen and harmful_seen


def test_criterion_8_property_suites(announce):
    with criterion(announce, 8, "module property suites", 600.0):
        from test_cost import TestOptimizer
        from test_gf2 import test_rank_duality_on_random_matrices
        from test_simulator import TestApplyGate

        test_rank_duality_on_random_matrices()
        TestApplyGate().test_norm_preservation_random_sequences()
        TestOptimizer().test_matches_brute_force_on_random_menus()
