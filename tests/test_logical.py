"""Measurement-based logical Hadamard, Steane correction, fault injection,
and Toffoli-state gate teleportation."""

import itertools
import random

import pytest

from triortho.codes import build_code
from triortho.gf2 import (
    BitVector,
    _eliminate_ints,
    _enumerate_span_ints,
    _particular_ints,
    _xor_rows,
)
from triortho.logical import (
    _PAULI_BY_LOCATION,
    _RESIDUAL_TOL,
    FAULT_LOCATIONS,
    FaultSpec,
    SteaneReport,
    SweepCounterexample,
    SweepReport,
    _fault_universe,
    _apply_pauli,
    _basis_coefficients,
    _generic_logical_state,
    _hadamard_pair,
    _steane_round,
    fault_tolerance_sweep,
    gauge_parities_of_state,
    logical_hadamard,
    pauli_residual,
    steane_x_correct,
)
from triortho.simulator import (
    LogicalBasisLabel,
    SparseState,
    _transversal_h,
    prepare_logical,
    prepare_plus_all,
    states_equal_up_to_global_phase,
    superpose,
)

from conftest import SMALL8_ROWS, direct_sum
from oracles import (
    apply_gate,
    ccz_via_toffoli_state,
    drop_qubits,
    measure_register,
    tensor,
    toffoli_resource_state,
)


def plus_state(code, sign=1.0):
    return superpose(
        [
            (complex(1.0), prepare_logical(code, (0,))),
            (complex(sign), prepare_logical(code, (1,))),
        ]
    )


def hadamard_image_k1(code, state_spec):
    # Ideal transversal-H action for one logical qubit: |0> -> |+>,
    # |1> -> |->, extended linearly.
    terms = []
    for coeff, bit in state_spec:
        terms.append((coeff, plus_state(code, 1.0 if bit == 0 else -1.0)))
    return superpose(terms)


class TestLogicalHadamard:
    def test_zero_maps_to_plus(self, builtin_code):
        data = prepare_logical(builtin_code, (0,))
        ideal = plus_state(builtin_code)
        for seed in (0, 1, 2):
            out, report = logical_hadamard(data, builtin_code, rng=random.Random(seed))
            assert states_equal_up_to_global_phase(out, ideal, tol=1e-10)
            assert report.decode_success
            assert gauge_parities_of_state(out, builtin_code) == (0,) * 6

    def test_plus_minus_interchange(self, builtin_code):
        rng = random.Random(5)
        out, _ = logical_hadamard(plus_state(builtin_code), builtin_code, rng=rng)
        assert states_equal_up_to_global_phase(
            out, prepare_logical(builtin_code, (0,)), tol=1e-10
        )
        out, _ = logical_hadamard(plus_state(builtin_code, -1.0), builtin_code, rng=rng)
        assert states_equal_up_to_global_phase(
            out, prepare_logical(builtin_code, (1,)), tol=1e-10
        )

    def test_pythagorean_superposition(self, builtin_code):
        alpha, beta = complex(3.0 / 5.0), complex(0.0, 4.0 / 5.0)
        data = superpose(
            [
                (alpha, prepare_logical(builtin_code, (0,))),
                (beta, prepare_logical(builtin_code, (1,))),
            ]
        )
        ideal = hadamard_image_k1(builtin_code, [(alpha, 0), (beta, 1)])
        out, _ = logical_hadamard(data, builtin_code, rng=random.Random(9))
        assert states_equal_up_to_global_phase(out, ideal, tol=1e-10)

    def test_post_h_x_faults_corrected(self, builtin_code):
        # A real X after the Hadamard is copied to the ancilla and undone.
        data = prepare_logical(builtin_code, (0,))
        ideal = plus_state(builtin_code)
        for q in (0, 4, 7, 14):
            fault = FaultSpec("data_post_h", "X", q)
            out, report = logical_hadamard(
                data, builtin_code, faults=(fault,), rng=random.Random(q)
            )
            assert report.applied_correction.value == 1 << q
            assert states_equal_up_to_global_phase(out, ideal, tol=1e-10)

    def test_pre_h_x_faults_become_uncorrected_z(self, builtin_code):
        # X before the Hadamard is a Z afterwards: invisible to the X-only
        # round, left on the output as a one-site residual.
        data = prepare_logical(builtin_code, (0,))
        ideal = plus_state(builtin_code)
        for q in (2, 11):
            fault = FaultSpec("data_pre_h", "X", q)
            out, report = logical_hadamard(
                data, builtin_code, faults=(fault,), rng=random.Random(q)
            )
            assert report.applied_correction.value == 0
            residual = pauli_residual(out, ideal)
            assert residual is not None and residual.sites == 1
            assert residual.x_pattern.value == 0
            assert residual.z_pattern.weight == 1

    def test_measurement_flip_causes_spurious_correction(self, builtin_code):
        data = prepare_logical(builtin_code, (0,))
        ideal = plus_state(builtin_code)
        fault = FaultSpec("measurement", "FLIP", 3)
        out, report = logical_hadamard(
            data, builtin_code, faults=(fault,), rng=random.Random(0)
        )
        assert report.applied_correction.value == 1 << 3
        residual = pauli_residual(out, ideal)
        assert residual is not None and residual.sites <= 1

    def test_determinism(self, small8_code):
        data = prepare_logical(small8_code, (1,))
        out_a, rep_a = logical_hadamard(data, small8_code, rng=random.Random(123))
        out_b, rep_b = logical_hadamard(data, small8_code, rng=random.Random(123))
        assert rep_a == rep_b
        assert out_a.amps == out_b.amps

    def test_branch_independence(self, small8_code, small8_matrix):
        from triortho.gf2 import _enumerate_span_ints, _rref_ints

        rows = small8_matrix.matrix.row_values()
        outcomes = list(_enumerate_span_ints(_rref_ints(rows)[0]))
        assert len(outcomes) == 16
        for label in ((0,), (1,)):
            data = prepare_logical(small8_code, label)
            reference = None
            for m in outcomes:
                out, _ = logical_hadamard(data, small8_code, force_outcomes=m)
                if reference is None:
                    reference = out
                else:
                    assert states_equal_up_to_global_phase(out, reference, tol=1e-10)

    def test_gauge_restored_over_100_seeds(self, small8_code):
        data = prepare_logical(small8_code, (0,))
        ideal = plus_state(small8_code)
        for seed in range(100):
            out, _ = logical_hadamard(data, small8_code, rng=random.Random(seed))
            assert gauge_parities_of_state(out, small8_code) == (0,)
            assert states_equal_up_to_global_phase(out, ideal, tol=1e-10)

    def test_fault_validation(self, small8_code):
        data = prepare_logical(small8_code, (0,))
        bad = [
            FaultSpec("nowhere", "X", 0),
            FaultSpec("cnot_data", "Z", 0),
            FaultSpec("data_post_h", "X", 99),
        ]
        for fault in bad:
            with pytest.raises(ValueError):
                logical_hadamard(data, small8_code, faults=(fault,), rng=random.Random(0))

    def test_wrong_block_size_rejected(self, small8_code):
        with pytest.raises(ValueError):
            logical_hadamard(SparseState.basis_state(3, 0), small8_code, rng=random.Random(0))


class TestSteaneXCorrect:
    def test_clean_state_untouched(self, builtin_code):
        data = prepare_logical(builtin_code, (1,))
        out, report = steane_x_correct(data, builtin_code, rng=random.Random(4))
        assert report.x_syndrome == (0,) * 4
        assert report.applied_correction.value == 0
        assert report.decode_success
        assert states_equal_up_to_global_phase(out, data, tol=1e-10)

    def test_every_single_x_corrected(self, builtin_code):
        ideal = prepare_logical(builtin_code, (0,))
        for q in range(builtin_code.n):
            corrupted = apply_gate(ideal, "X", (q,))
            out, report = steane_x_correct(corrupted, builtin_code, rng=random.Random(q))
            assert report.applied_correction.value == 1 << q
            assert states_equal_up_to_global_phase(out, ideal, tol=1e-10)

    def test_weight_two_misdecode_is_flagged_by_state(self, builtin_code):
        # The 16-entry syndrome table is saturated by weight <= 1 patterns,
        # so every two-qubit error aliases a single-qubit one.  The round
        # reports decode_success (the lookup hit) but the output carries a
        # full logical X, visible as a distance-weight residual.
        ideal = prepare_logical(builtin_code, (0,))
        for pair in ((0, 1), (2, 9), (7, 8)):
            corrupted = apply_gate(apply_gate(ideal, "X", (pair[0],)), "X", (pair[1],))
            out, report = steane_x_correct(corrupted, builtin_code, rng=random.Random(0))
            assert report.decode_success
            assert report.applied_correction.weight == 1
            assert not states_equal_up_to_global_phase(out, ideal, tol=1e-10)
            residual = pauli_residual(out, ideal)
            assert residual is not None and residual.sites == 7

    def test_pre_h_location_rejected(self, builtin_code):
        data = prepare_logical(builtin_code, (0,))
        with pytest.raises(ValueError):
            steane_x_correct(
                data,
                builtin_code,
                faults=(FaultSpec("data_pre_h", "X", 0),),
                rng=random.Random(0),
            )


class TestCczViaToffoliState:
    def test_resource_state_support(self):
        resource = toffoli_resource_state()
        assert set(resource.amps) == {0b000, 0b001, 0b010, 0b111}
        for amp in resource.amps.values():
            assert abs(amp - 0.5) < 1e-12

    def test_all_ones_input_all_branches(self):
        inputs = SparseState.basis_state(3, 0b111)
        expected = apply_gate(inputs, "CCZ", (0, 1, 2))
        for branch in range(8):
            out, outcomes = ccz_via_toffoli_state(
                inputs, toffoli_resource_state(), force_outcomes=branch
            )
            assert outcomes == tuple((branch >> i) & 1 for i in range(3))
            assert states_equal_up_to_global_phase(out, expected, tol=1e-10)

    def test_plus_plus_plus_all_branches(self):
        inputs = SparseState.basis_state(3, 0)
        for q in range(3):
            inputs = apply_gate(inputs, "H", (q,))
        expected = apply_gate(inputs, "CCZ", (0, 1, 2))
        for branch in range(8):
            out, _ = ccz_via_toffoli_state(
                inputs, toffoli_resource_state(), force_outcomes=branch
            )
            assert states_equal_up_to_global_phase(out, expected, tol=1e-10)

    def test_zero_control_leaves_state_alone(self):
        inputs = SparseState.basis_state(3, 0)
        inputs = apply_gate(inputs, "H", (1,))
        inputs = apply_gate(inputs, "CNOT", (1, 2))
        for seed in range(4):
            out, _ = ccz_via_toffoli_state(
                inputs, toffoli_resource_state(), rng=random.Random(seed)
            )
            assert states_equal_up_to_global_phase(out, inputs, tol=1e-10)

    def test_malformed_resource_breaks_postcondition(self):
        # Basis inputs only pick up a global phase, so use a superposition
        # where the missing CCZ phase is relative and observable.
        inputs = SparseState.basis_state(3, 0)
        for q in range(3):
            inputs = apply_gate(inputs, "H", (q,))
        expected = apply_gate(inputs, "CCZ", (0, 1, 2))
        mismatched = 0
        for branch in range(8):
            try:
                out, _ = ccz_via_toffoli_state(
                    inputs, SparseState.basis_state(3, 0), force_outcomes=branch
                )
            except ValueError:
                continue
            if not states_equal_up_to_global_phase(out, expected, tol=1e-10):
                mismatched += 1
        assert mismatched > 0

    def test_outcome_reproducibility(self):
        inputs = SparseState.basis_state(3, 0)
        for q in range(3):
            inputs = apply_gate(inputs, "H", (q,))
        _, a = ccz_via_toffoli_state(inputs, toffoli_resource_state(), rng=random.Random(7))
        _, b = ccz_via_toffoli_state(inputs, toffoli_resource_state(), rng=random.Random(7))
        assert a == b

    def test_input_size_validation(self):
        with pytest.raises(ValueError):
            ccz_via_toffoli_state(
                SparseState.basis_state(2, 0), toffoli_resource_state(), force_outcomes=0
            )


class TestPauliResidual:
    def test_identical_states(self):
        st = apply_gate(SparseState.basis_state(2, 0), "H", (0,))
        residual = pauli_residual(st, st)
        assert residual is not None
        assert residual.sites == 0
        assert residual.x_pattern.value == 0 and residual.z_pattern.value == 0

    def test_single_x(self):
        ideal = SparseState.basis_state(2, 0)
        observed = apply_gate(ideal, "X", (1,))
        residual = pauli_residual(observed, ideal)
        assert residual.sites == 1
        assert residual.x_pattern.value == 0b10
        assert residual.z_pattern.value == 0

    def test_single_z(self):
        ideal = apply_gate(SparseState.basis_state(1, 0), "H", (0,))
        observed = apply_gate(ideal, "Z", (0,))
        residual = pauli_residual(observed, ideal)
        assert residual.sites == 1
        assert residual.x_pattern.value == 0
        assert residual.z_pattern.value == 1

    def test_mixed_xz(self):
        # Qubit 0 in a Z eigenstate, qubit 1 in an X eigenstate: the X and
        # the Z each act nontrivially, neither can be minimized away.
        ideal = apply_gate(SparseState.basis_state(2, 0), "H", (1,))
        observed = apply_gate(apply_gate(ideal, "X", (0,)), "Z", (1,))
        residual = pauli_residual(observed, ideal)
        assert residual.sites == 2
        assert residual.x_pattern.value == 0b01
        assert residual.z_pattern.value == 0b10

    def test_unrelated_states_return_none(self):
        ghz = superpose(
            [
                (complex(1.0), SparseState.basis_state(3, 0b000)),
                (complex(1.0), SparseState.basis_state(3, 0b111)),
            ]
        )
        assert pauli_residual(ghz, SparseState.basis_state(3, 0)) is None

    def test_stabilizers_cost_nothing(self, builtin_code):
        ideal = prepare_logical(builtin_code, (0,))
        x_stab = builtin_code.x_stabilizers.rows[0]
        observed = ideal
        for q in x_stab.support():
            observed = apply_gate(observed, "X", (q,))
        residual = pauli_residual(observed, ideal)
        assert residual.sites == 0

        z_stab = builtin_code.z_stabilizers.rows[0]
        observed = ideal
        for q in z_stab.support():
            observed = apply_gate(observed, "Z", (q,))
        residual = pauli_residual(observed, ideal)
        assert residual.sites == 0

    def test_logical_flip_costs_distance_weight(self, builtin_code):
        zero = prepare_logical(builtin_code, (0,))
        one = prepare_logical(builtin_code, (1,))
        residual = pauli_residual(one, zero)
        assert residual is not None
        assert residual.sites == 7

    def test_ties_go_to_smallest_sites_x_z(self):
        # Four-qubit GHZ: ZZ on any pair stabilizes it, so a single Z has
        # four minimum-site representatives.
        def apply_pauli(state, x, z):
            for q in range(4):
                if (z >> q) & 1:
                    state = apply_gate(state, "Z", (q,))
                if (x >> q) & 1:
                    state = apply_gate(state, "X", (q,))
            return state

        ghz = apply_gate(SparseState.basis_state(4, 0), "H", (0,))
        for q in (1, 2, 3):
            ghz = apply_gate(ghz, "CNOT", (0, q))
        paulis = [(0, 0b0100), (0b1000, 0), (0b0010, 0b0010), (0b0110, 0b1001), (0, 0b1111)]
        ties = []
        for x, z in paulis:
            observed = apply_pauli(ghz, x, z)
            explaining = [
                ((bx | bz).bit_count(), bx, bz)
                for bx in range(16)
                for bz in range(16)
                if states_equal_up_to_global_phase(apply_pauli(ghz, bx, bz), observed)
            ]
            residual = pauli_residual(observed, ghz)
            got = (residual.sites, residual.x_pattern.value, residual.z_pattern.value)
            assert got == min(explaining)
            ties.append(sum(e[0] == got[0] for e in explaining))
        assert ties[0] == 4


    def test_null_space_guard_names_rank_and_limit(self):
        # One key on 21 qubits: every Z pattern is a solution.
        state = SparseState.basis_state(21, 0)
        with pytest.raises(
            ValueError, match=r"null space of rank 21 exceeds enumeration guard 2\*\*20"
        ):
            pauli_residual(state, state)


class TestSingleZFaults:
    def test_every_single_z_fault_leaves_at_most_one_site(self, builtin_code):
        # _fault_universe holds no Z faults, so the sweep never injects one;
        # here every Z fault the round accepts runs once on the generic input.
        data, ideal = _generic_logical_state(builtin_code)
        for q in range(builtin_code.n):
            data = apply_gate(data, "H", (q,))
        rng = random.Random(0)
        cases = 0
        for location in ("data_pre_h", "data_post_h", "ancilla"):
            for q in range(builtin_code.n):
                fault = FaultSpec(location, "Z", q)
                output, _ = _steane_round(data, builtin_code, (fault,), rng, None)
                residual = pauli_residual(output, ideal)
                assert residual is not None and residual.sites <= 1, fault
                cases += 1
        assert cases == 45


class TestGaugeParities:
    def test_prepared_states_have_zero_parities(self, builtin_code, small8_code):
        assert gauge_parities_of_state(
            prepare_logical(builtin_code, (0,)), builtin_code
        ) == (0,) * 6
        assert gauge_parities_of_state(
            prepare_logical(small8_code, (1,)), small8_code
        ) == (0,)

    def test_gauge_x_part_flips_its_parity(self, builtin_code):
        state = prepare_logical(builtin_code, (0,))
        for j, pair in enumerate(builtin_code.gauge_pairs):
            moved = state
            for q in pair.x_part.support():
                moved = apply_gate(moved, "X", (q,))
            parities = gauge_parities_of_state(moved, builtin_code)
            assert parities is not None
            assert parities[j] == 1

    def test_mixed_sector_superposition_is_indefinite(self, small8_code):
        state = prepare_logical(small8_code, (0,))
        moved = state
        for q in small8_code.gauge_pairs[0].x_part.support():
            moved = apply_gate(moved, "X", (q,))
        mixed = superpose([(complex(1.0), state), (complex(1.0), moved)])
        assert gauge_parities_of_state(mixed, small8_code) is None


class TestHadamardPair:
    @pytest.fixture(scope="class")
    def k2_code(self):
        # Two blocks of the 8-qubit code: two logical qubits.
        return build_code(direct_sum(SMALL8_ROWS, 2))

    def test_basis_labels_against_sign_pattern(self, k2_code):
        # H on both logical qubits: |x> -> (1/2) sum_y (-1)^(x.y) |y>.
        labels = list(itertools.product((0, 1), repeat=2))
        for x in labels:
            state, image = _hadamard_pair(k2_code, _basis_coefficients(x))
            assert state.amps == prepare_logical(k2_code, x).amps
            expected = superpose(
                [
                    (complex((-1) ** (x[0] * y[0] + x[1] * y[1])), prepare_logical(k2_code, y))
                    for y in labels
                ]
            )
            assert states_equal_up_to_global_phase(image, expected, tol=1e-12)

    def test_image_of_image_is_the_state(self, k2_code):
        coeffs = [1.0, 2j, -0.5, 1 + 1j]
        state, image = _hadamard_pair(k2_code, coeffs)
        walsh = [
            sum(c * (-1) ** (x & y).bit_count() for x, c in enumerate(coeffs))
            for y in range(4)
        ]
        again, back = _hadamard_pair(k2_code, walsh)
        assert states_equal_up_to_global_phase(again, image, tol=1e-12)
        assert states_equal_up_to_global_phase(back, state, tol=1e-12)

    def test_plus_and_minus_map_to_basis_states(self, builtin_code):
        for sign, label in ((1.0, (0,)), (-1.0, (1,))):
            state, image = _hadamard_pair(builtin_code, [1.0, sign])
            assert states_equal_up_to_global_phase(state, plus_state(builtin_code, sign))
            assert image.amps == prepare_logical(builtin_code, label).amps

    def test_gauge_bits_stay_on_the_state_only(self, small8_code):
        label = LogicalBasisLabel.of((1,), (1,))
        state, image = _hadamard_pair(small8_code, _basis_coefficients(label.bits), (1,))
        assert state.amps == prepare_logical(small8_code, label).amps
        assert gauge_parities_of_state(state, small8_code) == (1,)
        assert gauge_parities_of_state(image, small8_code) == (0,)

    def test_coefficient_count_must_match_k(self, builtin_code):
        with pytest.raises(ValueError, match=r"4 coefficients for 2\*\*1 logical labels"):
            _hadamard_pair(builtin_code, _basis_coefficients((1, 0)))


class TestFaultToleranceSweep:
    def test_weight_below_one_rejected(self, small8_code):
        for weight_limit in (0, -3):
            with pytest.raises(ValueError, match=f"at least 1, got {weight_limit}"):
                fault_tolerance_sweep(small8_code, weight_limit)

    def test_weight_one_small_code(self, small8_code):
        report = fault_tolerance_sweep(small8_code, 1)
        assert report.cases_run == 7 * small8_code.n
        assert report.passed
        assert report.counterexamples == ()

    def test_weight_one_basis_label_input(self, small8_code):
        report = fault_tolerance_sweep(small8_code, 1, input_label=(1,))
        assert report.cases_run == 56
        assert report.passed

    def test_weight_two_reports_rather_than_asserts(self, small8_code):
        report = fault_tolerance_sweep(small8_code, 2)
        assert report.cases_run == 56 + 56 * 55 // 2
        assert isinstance(report.counterexamples, tuple)

    def test_determinism(self, small8_code):
        a = fault_tolerance_sweep(small8_code, 1, seed=3)
        b = fault_tolerance_sweep(small8_code, 1, seed=3)
        assert a == b

    def test_builtin_weight_two_pair_is_a_visible_counterexample(self, builtin_code):
        # Two data X errors alias a single-site syndrome and decode into a
        # logical X.  The sweep's default input is a superposition with no
        # logical eigenoperators, so the full weight-2 sweep would report
        # this pair; running just the pair keeps the test fast.
        coeffs = (complex(1.0), complex(0.0, 2.0))
        data = superpose(
            [
                (coeffs[0], prepare_logical(builtin_code, (0,))),
                (coeffs[1], prepare_logical(builtin_code, (1,))),
            ]
        )
        ideal = superpose(
            [
                (coeffs[0], plus_state(builtin_code, 1.0)),
                (coeffs[1], plus_state(builtin_code, -1.0)),
            ]
        )
        faults = (FaultSpec("data_post_h", "X", 0), FaultSpec("data_post_h", "X", 1))
        out, _ = logical_hadamard(data, builtin_code, faults=faults, rng=random.Random(0))
        residual = pauli_residual(out, ideal)
        assert residual is not None
        assert residual.sites == 7 > 2


class TestCnotSiteFaults:
    def _run(self, code, faults):
        data = superpose(
            [
                (complex(1.0), prepare_logical(code, (0,))),
                (complex(0.0, 2.0), prepare_logical(code, (1,))),
            ]
        )
        return logical_hadamard(data, code, faults=faults, rng=random.Random(7))

    def test_both_legs_equal_data_plus_ancilla(self, small8_code):
        for q in range(small8_code.n):
            both = self._run(small8_code, (FaultSpec("cnot_both", "X", q),))
            legs = self._run(
                small8_code,
                (FaultSpec("cnot_data", "X", q), FaultSpec("cnot_ancilla", "X", q)),
            )
            assert list(both[0].amps.items()) == list(legs[0].amps.items())
            assert both[1] == legs[1]

    def test_repeated_fault_cancels(self, small8_code):
        clean = self._run(small8_code, ())
        for q in range(small8_code.n):
            twice = self._run(
                small8_code, (FaultSpec("cnot_data", "X", q), FaultSpec("cnot_data", "X", q))
            )
            assert list(twice[0].amps.items()) == list(clean[0].amps.items())
            assert twice[1] == clean[1]


class TestPreHFaultsAfterH:
    # HX = ZH and HZ = XH: a Pauli before the transversal H is the swapped
    # Pauli after it, on every branch and in every report.
    def test_pre_h_equals_swapped_post_h(self, small8_code):
        data, _ = _generic_logical_state(small8_code)
        for q in range(small8_code.n):
            for pre, post in (("X", "Z"), ("Z", "X")):
                a = logical_hadamard(
                    data, small8_code, faults=(FaultSpec("data_pre_h", pre, q),),
                    rng=random.Random(q),
                )
                b = logical_hadamard(
                    data, small8_code, faults=(FaultSpec("data_post_h", post, q),),
                    rng=random.Random(q),
                )
                assert sorted(a[0].amps.items()) == sorted(b[0].amps.items())
                assert a[1] == b[1]


class TestSweepAgainstRounds:
    def test_sweep_equals_case_by_case_hadamard(self, small8_code):
        data, ideal = _generic_logical_state(small8_code)
        rng = random.Random(4)
        counterexamples = []
        universe = _fault_universe(small8_code.n)
        for fault in universe:
            out, _ = logical_hadamard(data, small8_code, faults=(fault,), rng=rng)
            residual = pauli_residual(out, ideal)
            if residual is None or residual.sites > 1:
                sites = None if residual is None else residual.sites
                counterexamples.append(SweepCounterexample((fault,), sites))
        expected = SweepReport(1, len(universe), tuple(counterexamples))
        assert fault_tolerance_sweep(small8_code, 1, seed=4) == expected

    @pytest.mark.parametrize("label", [1, LogicalBasisLabel.of((1,))])
    def test_every_label_form_accepted(self, small8_code, label):
        expected = fault_tolerance_sweep(small8_code, 1, input_label=(1,), seed=2)
        assert fault_tolerance_sweep(small8_code, 1, input_label=label, seed=2) == expected


def joint_state_round(state, code, faults, rng, force_outcomes):
    """Reference for ``_steane_round`` through the full 2n-qubit state:
    tensor with the ancilla, the transversal CNOT and the X faults after it
    as one key relabeling, measure the ancilla register, drop it."""
    n = code.n
    x = dict.fromkeys(FAULT_LOCATIONS, 0)
    z = dict.fromkeys(FAULT_LOCATIONS, 0)
    for f in faults:
        f.validate(n)
        (z if f.pauli == "Z" else x)[f.location] ^= 1 << f.qubit
    data = _apply_pauli(
        state, x["data_post_h"] ^ z["data_pre_h"], z["data_post_h"] ^ x["data_pre_h"]
    )
    ancilla = _apply_pauli(prepare_plus_all(code), x["ancilla"], z["ancilla"])
    flip = (x["cnot_data"] ^ x["cnot_both"]) | (x["cnot_ancilla"] ^ x["cnot_both"]) << n
    joint = tensor(data, ancilla)
    data_mask = (1 << n) - 1
    joint = SparseState(
        2 * n, {k ^ ((k & data_mask) << n) ^ flip: a for k, a in joint.amps.items()}
    )
    outcome, collapsed = measure_register(
        joint, range(n, 2 * n), rng=rng, force=force_outcomes
    )
    data = drop_qubits(collapsed, range(n, 2 * n))

    recorded = outcome ^ x["measurement"]
    syndrome = code.x_syndrome_of(recorded)
    correction = code.decode_x(syndrome)
    corrected = recorded ^ correction.value
    gauge = tuple(
        (pair.z_part.value & corrected).bit_count() & 1 for pair in code.gauge_pairs
    )
    total = correction.value
    for bit, pair in zip(gauge, code.gauge_pairs):
        if bit:
            total ^= pair.x_part.value
    return _apply_pauli(data, total, 0), SteaneReport(
        raw_outcomes=BitVector(recorded, n),
        x_syndrome=tuple((syndrome >> j) & 1 for j in range(code.g0_basis.row_count)),
        gauge_parities=gauge,
        applied_correction=correction,
        decode_success=True,
    )


def _oracle_faults(n):
    # The sweep's fault universe plus every Z fault the round accepts.
    z_faults = [
        FaultSpec(location, "Z", q)
        for location in ("data_pre_h", "data_post_h", "ancilla")
        for q in range(n)
    ]
    return _fault_universe(n) + z_faults


class TestRoundAgainstJointState:
    FIXTURES = ("builtin_code", "d2_code", "small10_code", "small8_code")

    @staticmethod
    def _inputs(code):
        # Generic and basis inputs, each as prepared (the X-correction
        # round) and after transversal H (the Hadamard round).
        generic, _ = _generic_logical_state(code)
        basis = prepare_logical(code, (1,))
        return {
            "generic": generic,
            "basis": basis,
            "generic_h": _transversal_h(generic),
            "basis_h": _transversal_h(basis),
        }

    @staticmethod
    def _assert_agree(data, code, faults, seed):
        # The sampled branch, then a forced branch picked by another seed.
        got = _steane_round(data, code, faults, random.Random(seed), None)
        want = joint_state_round(data, code, faults, random.Random(seed), None)
        assert list(got[0].amps.items()) == list(want[0].amps.items()), faults
        assert got[1] == want[1], faults
        flips = 0
        for f in faults:
            if f.location == "measurement":
                flips ^= 1 << f.qubit
        _, other = _steane_round(data, code, faults, random.Random(seed + 1), None)
        force = other.raw_outcomes.value ^ flips
        got = _steane_round(data, code, faults, None, force)
        want = joint_state_round(data, code, faults, None, force)
        assert list(got[0].amps.items()) == list(want[0].amps.items()), faults
        assert got[1] == want[1], faults

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_every_single_fault(self, fixture, request):
        # The 2n-qubit reference costs |data| * |ancilla| keys; after H on
        # the two larger codes that is 32768 to 65536, so those inputs take
        # every tenth fault.
        code = request.getfixturevalue(fixture)
        faults = _oracle_faults(code.n)
        for name, data in self._inputs(code).items():
            stride = 10 if name.endswith("_h") and code.n >= 14 else 1
            for i, fault in enumerate(faults[::stride]):
                self._assert_agree(data, code, (fault,), seed=i)
            self._assert_agree(data, code, (), seed=len(faults))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_seeded_weight_two_pairs(self, fixture, request):
        code = request.getfixturevalue(fixture)
        pairs = list(itertools.combinations(_oracle_faults(code.n), 2))
        rng = random.Random(code.n)
        inputs = self._inputs(code)
        names = ["generic", "basis"] if code.n >= 14 else list(inputs)
        for i, pair in enumerate(rng.sample(pairs, 60)):
            self._assert_agree(inputs[names[i % len(names)]], code, pair, seed=i)

    def test_negligible_forced_outcome_raises(self, builtin_code):
        # A weight-one register value lies outside the matrix row space.
        data = prepare_logical(builtin_code, (0,))
        with pytest.raises(ValueError, match="negligible probability"):
            _steane_round(data, builtin_code, (), None, 1)

    @pytest.mark.parametrize("fixture", ("d2_code", "small10_code", "small8_code"))
    def test_sparse_supports_partly_fill_cosets(self, fixture, request):
        # Code states, before or after H, meet each coset of the ancilla's
        # row span S in all of it or in a whole half.  These supports meet
        # a few cosets in a random proper subset each, with random complex
        # amplitudes, under the faults that move the register or its
        # signs: ancilla X and Z, CNOT legs, flips.
        code = request.getfixturevalue(fixture)
        span = code.g0_basis.row_values() + [v.value for v in code.logical_x]
        locations = ("ancilla", "cnot_data", "cnot_ancilla", "cnot_both", "measurement")
        faults = [
            FaultSpec(location, pauli, q)
            for location in locations
            for pauli in _PAULI_BY_LOCATION[location]
            for q in range(code.n)
        ]
        rng = random.Random(code.n)
        for i in range(60):
            data = _random_sparse_state(code.n, span, rng)
            self._assert_agree(data, code, tuple(rng.sample(faults, i % 3)), seed=i)


def _random_sparse_state(n, basis, rng, cosets=4):
    # Up to ``cosets`` cosets of span(basis), each met in fewer keys than it
    # holds, with random complex amplitudes.
    keys = set()
    for _ in range(rng.randint(1, cosets)):
        rep = rng.getrandbits(n)
        for _ in range(rng.randint(1, (1 << len(basis)) - 1)):
            keys.add(rep ^ _xor_rows(basis, rng.getrandbits(len(basis))))
    amps = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in sorted(keys)}
    return SparseState(n, amps).normalize()


def exhaustive_pauli_residual(observed, ideal):
    """``pauli_residual`` without its lightest-shift stop: every X shift
    that maps the ideal support onto the observed one is walked over its
    whole null space.  Returns ``(sites, x, z)`` or None."""
    if observed.n != ideal.n:
        return None
    if len(observed.amps) != len(ideal.amps) or not ideal.amps:
        return None
    obs_keys = set(observed.amps)
    ideal_keys = sorted(ideal.amps)
    k_out = min(obs_keys)
    k0 = ideal_keys[0]
    rows, checks, null_basis = _eliminate_ints([k ^ k0 for k in ideal_keys[1:]], ideal.n)
    best = None
    for k_id in ideal_keys:
        r = k_out ^ k_id
        if any((k ^ r) not in obs_keys for k in ideal_keys):
            continue
        rho0 = observed.amps[k0 ^ r] / ideal.amps[k0]
        if abs(abs(rho0) - 1.0) > _RESIDUAL_TOL:
            continue
        rhs = 0
        for i, k in enumerate(ideal_keys[1:]):
            s = observed.amps[k ^ r] / ideal.amps[k] / rho0
            if abs(s + 1.0) <= _RESIDUAL_TOL:
                rhs |= 1 << i
            elif abs(s - 1.0) > _RESIDUAL_TOL:
                break
        else:
            t0 = _particular_ints(rows, checks, rhs)
            if t0 is None:
                continue
            for t in _enumerate_span_ints(null_basis, t0):
                sites = (r | t).bit_count()
                if best is None or sites <= best[0] and (sites, r, t) < best:
                    best = (sites, r, t)
    return best


def _residual_triple(observed, ideal):
    residual = pauli_residual(observed, ideal)
    if residual is None:
        return None
    return residual.sites, residual.x_pattern.value, residual.z_pattern.value


class TestResidualAgainstExhaustiveWalk:
    @pytest.mark.parametrize("fixture", TestRoundAgainstJointState.FIXTURES)
    def test_sweep_outputs(self, fixture, request):
        # Every weight-1 case of the sweep and 200 sampled weight-2 cases.
        code = request.getfixturevalue(fixture)
        data, ideal = _generic_logical_state(code)
        data = _transversal_h(data)
        universe = _fault_universe(code.n)
        rng = random.Random(code.n)
        cases = [(f,) for f in universe]
        cases += rng.sample(list(itertools.combinations(universe, 2)), 200)
        for faults in cases:
            out, _ = _steane_round(data, code, faults, rng, None)
            assert _residual_triple(out, ideal) == exhaustive_pauli_residual(out, ideal), faults

    def test_random_paulis_on_sparse_states(self):
        # Half the states carry X symmetries, so several shifts pass and
        # the stop decides between them; a phase of i on one amplitude
        # makes the pair unrelated.
        rng = random.Random(11)
        unrelated = 0
        for i in range(400):
            n = rng.randint(3, 8)
            basis = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
            if i % 2:
                ideal = _random_sparse_state(n, basis, rng, cosets=2)
            else:
                ideal = _x_symmetric_state(n, basis, rng)
            observed = _apply_pauli(ideal, rng.getrandbits(n), rng.getrandbits(n))
            if rng.random() < 0.2:
                key = rng.choice(list(observed.amps))
                observed = SparseState(n, {**observed.amps, key: observed.amps[key] * 1j})
            want = exhaustive_pauli_residual(observed, ideal)
            unrelated += want is None
            assert _residual_triple(observed, ideal) == want
        assert unrelated > 0


def _x_symmetric_state(n, basis, rng):
    # A few whole cosets of span(basis), each with one random amplitude
    # times the signs (-1)^(z.k) of one random z: X on any span element
    # multiplies the state by a sign.
    z = rng.getrandbits(n)
    amps = {}
    for _ in range(rng.randint(1, 3)):
        a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        for k in _enumerate_span_ints(basis, rng.getrandbits(n)):
            amps[k] = -a if (k & z).bit_count() & 1 else a
    return SparseState(n, amps).normalize()
