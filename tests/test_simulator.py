"""Sparse statevector engine and coset phase checks."""

import math
import random

import pytest

from triortho.codes import TriorthogonalMatrix, build_code
from triortho.gf2 import (
    BitMatrix,
    BitVector,
    _enumerate_span_ints,
    _rref_ints,
    orthogonal_complement,
)
from triortho.simulator import (
    LogicalBasisLabel,
    SparseState,
    _transversal_h,
    prepare_logical,
    prepare_plus_all,
    states_equal_up_to_global_phase,
    superpose,
    transversal_ccz_phase_check,
    transversal_multi_cz_phase_check,
)

from conftest import D2_ROWS, direct_sum
from oracles import apply_gate, drop_qubits, measure_register, tensor


class TestPrepareLogical:
    def test_builtin_zero_label_uniform_over_g0(self, builtin_code):
        state = prepare_logical(builtin_code, (0,))
        assert state.support_size() == 16
        for amp in state.amps.values():
            assert abs(amp - 0.25) < 1e-12
        assert abs(state.amplitude(0) - 0.25) < 1e-12
        g0_values = set(_enumerate_span_ints(builtin_code.g0_basis.row_values()))
        assert set(state.amps) == g0_values

    def test_builtin_one_label_supported_on_shifted_coset(self, builtin_code):
        state = prepare_logical(builtin_code, (1,))
        ones = builtin_code.logical_x[0].value
        coset = set(_enumerate_span_ints(builtin_code.g0_basis.row_values(), ones))
        assert set(state.amps) == coset

    def test_norm(self, builtin_code, small8_code):
        for code, label in ((builtin_code, (1,)), (small8_code, (0,))):
            assert abs(prepare_logical(code, label).norm_sq() - 1.0) < 1e-12


class TestApplyGate:
    def test_ccz_phases(self):
        st110 = SparseState.basis_state(3, 0b011)
        out = apply_gate(st110, "CCZ", (0, 1, 2))
        assert out.amplitude(0b011) == 1.0 + 0.0j

        st111 = SparseState.basis_state(3, 0b111)
        out = apply_gate(st111, "CCZ", (0, 1, 2))
        assert out.amplitude(0b111) == -1.0 + 0.0j

    def test_h_squared_is_identity(self):
        st = SparseState.basis_state(1, 0)
        out = apply_gate(apply_gate(st, "H", (0,)), "H", (0,))
        assert out.support_size() == 1
        assert abs(out.amplitude(0) - 1.0) < 1e-12

    def test_cnot_control_is_first(self):
        st = SparseState.basis_state(2, 0b01)
        out = apply_gate(st, "CNOT", (0, 1))
        assert out.amplitude(0b11) == 1.0 + 0.0j

    def test_index_validation(self):
        st = SparseState.basis_state(2, 0)
        with pytest.raises(ValueError):
            apply_gate(st, "H", (2,))
        with pytest.raises(ValueError):
            apply_gate(st, "CZ", (0, 0))
        with pytest.raises(ValueError):
            apply_gate(st, "CCZ", (0, 1))
        with pytest.raises(ValueError):
            apply_gate(st, "SWAP", (0, 1))

    def test_norm_preservation_random_sequences(self):
        # 10^4 random gates; the norm must stay pinned after each one.
        rng = random.Random(0x10AD)
        n = 6
        state = SparseState.basis_state(n, 0)
        gates = ("X", "Z", "H", "CNOT", "CZ", "CCZ")
        for _ in range(10_000):
            gate = gates[rng.randrange(len(gates))]
            arity = {"X": 1, "Z": 1, "H": 1, "CNOT": 2, "CZ": 2, "CCZ": 3}[gate]
            qubits = rng.sample(range(n), arity)
            state = apply_gate(state, gate, qubits)
            assert abs(state.norm_sq() - 1.0) < 1e-12

    def test_diagonal_gates_commute(self):
        rng = random.Random(0xD1A6)
        n = 6
        base = SparseState.basis_state(n, 0)
        for q in range(n):
            base = apply_gate(base, "H", (q,))
        ops = []
        for _ in range(12):
            kind = rng.choice(("Z", "CZ", "CCZ"))
            arity = {"Z": 1, "CZ": 2, "CCZ": 3}[kind]
            ops.append((kind, tuple(rng.sample(range(n), arity))))
        forward = base.copy()
        for kind, qs in ops:
            forward = apply_gate(forward, kind, qs)
        backward = base.copy()
        for kind, qs in reversed(ops):
            backward = apply_gate(backward, kind, qs)
        assert set(forward.amps) == set(backward.amps)
        for k, a in forward.amps.items():
            assert abs(a - backward.amps[k]) < 1e-12


class TestMeasurement:
    def test_measure_zero_state(self):
        st = SparseState.basis_state(1, 0)
        outcome, post = measure_register(st, (0,), rng=random.Random(1))
        assert outcome == 0
        assert abs(post.amplitude(0) - 1.0) < 1e-12

    def test_bell_forced_branch(self):
        bell = superpose(
            [
                (complex(1.0), SparseState.basis_state(2, 0b00)),
                (complex(1.0), SparseState.basis_state(2, 0b11)),
            ]
        )
        outcome, post = measure_register(bell, (0,), force=1)
        assert outcome == 1
        assert set(post.amps) == {0b11}
        assert abs(post.amplitude(0b11) - 1.0) < 1e-12

    def test_forcing_impossible_outcome_raises(self):
        st = SparseState.basis_state(2, 0b00)
        with pytest.raises(ValueError):
            measure_register(st, (0,), force=1)

    def test_missing_rng_raises(self):
        bell = superpose(
            [
                (complex(1.0), SparseState.basis_state(2, 0b00)),
                (complex(1.0), SparseState.basis_state(2, 0b11)),
            ]
        )
        with pytest.raises(ValueError):
            measure_register(bell, (0,))

    def test_transversal_measurement_lands_in_g0(self, builtin_code):
        state = prepare_logical(builtin_code, (0,))
        for seed in range(10):
            outcome, _ = measure_register(
                state, range(builtin_code.n), rng=random.Random(seed)
            )
            g0 = builtin_code.g0_basis
            rows = g0.rows + (BitVector(outcome, builtin_code.n),)
            assert BitMatrix(rows, builtin_code.n).rank == g0.rank

    def test_register_outcome_reproducible(self):
        bell = superpose(
            [
                (complex(1.0), SparseState.basis_state(2, 0b00)),
                (complex(1.0), SparseState.basis_state(2, 0b11)),
            ]
        )
        a, _ = measure_register(bell, (0, 1), rng=random.Random(42))
        b, _ = measure_register(bell, (0, 1), rng=random.Random(42))
        assert a == b


class TestPhaseChecks:
    def test_builtin_ccz_all_labels(self, builtin_code):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    check = transversal_ccz_phase_check(builtin_code, [(a,), (b,), (c,)])
                    assert check.uniform
                    assert check.terms == 16**3
                    assert check.phase == (-1 if a and b and c else 1)
                    assert check.matches

    def test_multi_cz_level_two(self):
        # A single odd row is vacuously level 2: transversal CZ across two
        # blocks realizes the logical CZ.
        m = TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["111"]))
        code = build_code(m)
        check = transversal_multi_cz_phase_check(code, [(1,), (1,)])
        assert check.uniform and check.phase == -1 and check.matches
        check = transversal_multi_cz_phase_check(code, [(0,), (1,)])
        assert check.uniform and check.phase == 1 and check.matches

    def test_multi_cz_h3_matches_ccz(self, builtin_code):
        labels = [(1,), (1,), (1,)]
        a = transversal_multi_cz_phase_check(builtin_code, labels)
        b = transversal_ccz_phase_check(builtin_code, labels)
        assert (a.phase, a.uniform, a.terms) == (b.phase, b.uniform, b.terms)

    def test_gauge_bits_are_checked_as_given(self, builtin_code):
        # A nonzero gauge sector on block 0 breaks the common phase; an
        # all-zero gauge label is the plain label.
        gauged = LogicalBasisLabel((1,), (1, 0, 0, 0, 0, 0))
        check = transversal_ccz_phase_check(builtin_code, [gauged, (1,), (1,)])
        assert check.uniform is False
        assert check.matches is False
        zero = LogicalBasisLabel((1,), (0,) * 6)
        check = transversal_ccz_phase_check(builtin_code, [zero, (1,), (1,)])
        assert check == transversal_ccz_phase_check(builtin_code, [(1,), (1,), (1,)])
        assert check.terms == 16**3

    def test_mismatch_stops_at_first_differing_term(self):
        # A level-2 matrix (k = 2) declared level 3 without verification:
        # the fifth joint term's parity differs from the first.
        m = TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["11100", "11010", "10111"]))
        assert m.level == 2
        forced = TriorthogonalMatrix(m.matrix, m.even_rows, m.odd_rows, level=3)
        check = transversal_multi_cz_phase_check(build_code(forced), [(0, 0), (0, 1), (1, 0)])
        assert (check.uniform, check.phase, check.terms) == (False, 1, 5)
        assert not check.matches

    def test_h_above_level_rejected(self):
        m = TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["111"]))
        code = build_code(m)
        with pytest.raises(ValueError):
            transversal_multi_cz_phase_check(code, [(1,), (1,), (1,)])

    def test_enumeration_guards_name_rank_and_limit(self):
        # 7 copies of D2 (n=98): even rows of rank 21, full row space of rank 28.
        code = build_code(direct_sum(D2_ROWS, 7))
        guard = r"exceeds enumeration guard 2\*\*25"
        with pytest.raises(ValueError, match="coset of rank 28 " + guard):
            prepare_plus_all(code)
        with pytest.raises(ValueError, match="phase check of rank 42 " + guard):
            transversal_multi_cz_phase_check(code, [(0,) * 7, (1,) * 7])

    @pytest.mark.parametrize("labels", [[(), (0,), (1,)], [(0, 1), (0,), (1,)]])
    def test_wrong_label_length_rejected(self, builtin_code, labels):
        with pytest.raises(ValueError, match="label has"):
            transversal_ccz_phase_check(builtin_code, labels)

    def test_ccz_check_agrees_with_sparse_simulation(self, small8_code):
        # Three encoded blocks, one CCZ per site: the joint state must pick
        # up exactly the phase the coset check reports.
        n = small8_code.n
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    blocks = tensor(
                        tensor(
                            prepare_logical(small8_code, (a,)),
                            prepare_logical(small8_code, (b,)),
                        ),
                        prepare_logical(small8_code, (c,)),
                    )
                    after = blocks.copy()
                    for i in range(n):
                        after = apply_gate(after, "CCZ", (i, n + i, 2 * n + i))
                    check = transversal_ccz_phase_check(small8_code, [(a,), (b,), (c,)])
                    assert check.uniform
                    assert set(after.amps) == set(blocks.amps)
                    for key, amp in blocks.amps.items():
                        assert abs(after.amps[key] - check.phase * amp) < 1e-12


class TestSupportBounds:
    def test_prepared_support_is_g0_size(self, builtin_code):
        state = prepare_logical(builtin_code, (0,))
        assert state.support_size() == 2**4

    def test_transversal_h_maps_to_dual_coset(self, builtin_code):
        state = prepare_logical(builtin_code, (0,))
        for q in range(builtin_code.n):
            state = apply_gate(state, "H", (q,))
        dual = orthogonal_complement(builtin_code.g0_basis)
        assert state.support_size() == 2 ** (builtin_code.n - builtin_code.g0_basis.rank)
        assert state.support_size() == 2**dual.rank
        dual_values = set(_enumerate_span_ints(dual.row_values()))
        assert set(state.amps) == dual_values

    def test_plus_all_uniform_over_full_row_space(self, builtin_code):
        state = prepare_plus_all(builtin_code)
        source = builtin_code.source.matrix
        assert state.support_size() == 2**source.rank
        expected = set(_enumerate_span_ints(_rref_ints(source.row_values())[0]))
        assert set(state.amps) == expected


def _per_qubit_h(state):
    for q in range(state.n):
        state = apply_gate(state, "H", (q,))
    return state


def _random_state(rng, n, keys):
    amps = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in keys}
    return SparseState(n, amps).normalize()


class TestTransversalH:
    def _assert_matches_per_qubit(self, state):
        got, want = _transversal_h(state), _per_qubit_h(state)
        assert got.n == want.n
        assert set(got.amps) == set(want.amps)
        for k, a in want.amps.items():
            assert abs(got.amps[k] - a) < 1e-12

    def test_random_sparse_states(self):
        # Random key sets are mostly not affine subspaces, so the span is
        # larger than the support and most transform coefficients are used.
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 8)
            size = rng.randint(1, min(12, 1 << n))
            self._assert_matches_per_qubit(_random_state(rng, n, rng.sample(range(1 << n), size)))

    def test_single_key_and_full_rank_supports(self):
        rng = random.Random(7)
        for n in (1, 4, 8):
            self._assert_matches_per_qubit(SparseState.basis_state(n, rng.getrandbits(n)))
            self._assert_matches_per_qubit(_random_state(rng, n, range(1 << n)))
            # Rank n with only n + 1 keys.
            self._assert_matches_per_qubit(_random_state(rng, n, [0] + [1 << q for q in range(n)]))

    def test_image_cancels_to_a_smaller_support(self, small8_code):
        # H^n of a signed uniform coset is one basis state; an encoded
        # basis state's image is its dual coset.
        for key in (0b1011, 0b11111111):
            state = _per_qubit_h(SparseState.basis_state(8, key))
            image = _transversal_h(state)
            assert list(image.amps) == [key]
            assert abs(image.amps[key] - 1.0) < 1e-12
        self._assert_matches_per_qubit(prepare_logical(small8_code, (1,)))
        self._assert_matches_per_qubit(_per_qubit_h(prepare_logical(small8_code, (0,))))

    def test_empty_state(self):
        assert _transversal_h(SparseState(3)).amps == {}

    def test_guards_name_rank_and_limit(self):
        guard = r"exceeds enumeration guard 2\*\*25"
        wide = SparseState(26, {0: 1.0, **{1 << q: 1.0 for q in range(26)}})
        with pytest.raises(ValueError, match="support span of rank 26 " + guard):
            _transversal_h(wide)
        with pytest.raises(ValueError, match="dual coset of rank 26 " + guard):
            _transversal_h(SparseState.basis_state(26, 5))


class TestStateHelpers:
    def test_equal_up_to_phase(self):
        st = superpose(
            [
                (complex(1.0), SparseState.basis_state(1, 0)),
                (complex(1.0), SparseState.basis_state(1, 1)),
            ]
        )
        negated = SparseState(1, {k: -a for k, a in st.amps.items()})
        assert states_equal_up_to_global_phase(st, negated)
        assert not states_equal_up_to_global_phase(
            SparseState.basis_state(1, 0), SparseState.basis_state(1, 1)
        )
        h0 = apply_gate(SparseState.basis_state(1, 0), "H", (0,))
        assert states_equal_up_to_global_phase(h0, st, tol=1e-12)

    def test_tensor_places_second_factor_high(self):
        joint = tensor(SparseState.basis_state(2, 0b01), SparseState.basis_state(1, 1))
        assert set(joint.amps) == {0b101}
        assert joint.n == 3

    def test_drop_qubits(self):
        joint = tensor(SparseState.basis_state(1, 1), SparseState.basis_state(1, 0))
        dropped = drop_qubits(joint, (1,))
        assert dropped.n == 1
        assert set(dropped.amps) == {1}
        bell = superpose(
            [
                (complex(1.0), SparseState.basis_state(2, 0b00)),
                (complex(1.0), SparseState.basis_state(2, 0b11)),
            ]
        )
        with pytest.raises(ValueError):
            drop_qubits(bell, (0,))

    def test_superpose_normalizes(self):
        st = superpose(
            [
                (complex(3.0), SparseState.basis_state(1, 0)),
                (complex(4.0), SparseState.basis_state(1, 1)),
            ]
        )
        assert abs(st.norm_sq() - 1.0) < 1e-12
        assert abs(abs(st.amplitude(0)) - 0.6) < 1e-12

    def test_basis_state_key_range(self):
        with pytest.raises(ValueError):
            SparseState.basis_state(2, 4)


def _reference_register(key, qubits):
    # Per-bit reference: outcome bit i is the key's bit at qubits[i].
    value = 0
    for i, q in enumerate(qubits):
        value |= ((key >> q) & 1) << i
    return value


def _reference_probs(state, qubits):
    probs = {}
    for k, a in state.amps.items():
        o = _reference_register(k, qubits)
        probs[o] = probs.get(o, 0.0) + abs(a) ** 2
    return probs


def _five_qubit_state():
    rng = random.Random(11)
    terms = [
        (complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)), SparseState.basis_state(5, k))
        for k in range(32)
    ]
    return superpose(terms)


class TestScatteredRegisters:
    REGISTERS = ((3, 1), (0, 2, 4), (4, 3), (4, 0, 1), (1, 2, 3), (2,), ())

    @pytest.mark.parametrize("qubits", REGISTERS)
    def test_forced_branches_match_per_bit_reference(self, qubits):
        state = _five_qubit_state()
        probs = _reference_probs(state, qubits)
        assert sorted(probs) == list(range(1 << len(qubits)))
        for o, p in probs.items():
            outcome, post = measure_register(state, qubits, force=o)
            assert outcome == o
            expected = [k for k in state.amps if _reference_register(k, qubits) == o]
            assert list(post.amps) == expected
            for k in expected:
                assert abs(post.amps[k] - state.amps[k] / math.sqrt(p)) < 1e-12

    @pytest.mark.parametrize("qubits", REGISTERS)
    def test_sampled_outcome_walks_sorted_reference(self, qubits):
        state = _five_qubit_state()
        probs = _reference_probs(state, qubits)
        for seed in range(20):
            r = random.Random(seed).random()
            acc, expected = 0.0, max(probs)
            for o in sorted(probs):
                acc += probs[o]
                if r < acc:
                    expected = o
                    break
            outcome, post = measure_register(state, qubits, rng=random.Random(seed))
            assert outcome == expected
            assert all(_reference_register(k, qubits) == outcome for k in post.amps)

    def test_measure_z_matches_reference(self):
        state = _five_qubit_state()
        for q in range(5):
            p1 = sum(abs(a) ** 2 for k, a in state.amps.items() if (k >> q) & 1)
            outcome, post = measure_register(state, (q,), force=1)
            assert outcome == 1
            assert list(post.amps) == [k for k in state.amps if (k >> q) & 1]
            assert abs(post.norm_sq() - 1.0) < 1e-12
            for k, a in post.amps.items():
                assert abs(a - state.amps[k] / math.sqrt(p1)) < 1e-12

    def test_drop_middle_qubit(self):
        state = _five_qubit_state()
        _, post = measure_register(state, (2,), force=1)
        dropped = drop_qubits(post, (2,))
        assert dropped.n == 4
        keep = (0, 1, 3, 4)
        assert list(dropped.amps) == [_reference_register(k, keep) for k in post.amps]
        assert list(dropped.amps.values()) == list(post.amps.values())

    def test_drop_scattered_out_of_order_register(self):
        state = _five_qubit_state()
        _, post = measure_register(state, (3, 1), force=0b10)
        dropped = drop_qubits(post, (3, 1))
        assert dropped.n == 3
        assert list(dropped.amps) == [_reference_register(k, (0, 2, 4)) for k in post.amps]
        assert list(dropped.amps.values()) == list(post.amps.values())
        with pytest.raises(ValueError, match="vary"):
            drop_qubits(post, (3, 0))


class TestLabelBits:
    @pytest.mark.parametrize("bits", [(2,), (-1,), (3,)])
    def test_invalid_logical_bit_rejected(self, builtin_code, bits):
        with pytest.raises(ValueError, match=f"label bit {bits[0]} "):
            prepare_logical(builtin_code, bits)

    def test_invalid_gauge_bit_rejected(self):
        with pytest.raises(ValueError, match="label bit 2 "):
            LogicalBasisLabel.of((1,), (0, 2))

    def test_valid_bits_kept(self):
        label = LogicalBasisLabel.of(1, (0, True))
        assert label.bits == (1,)
        assert label.gauge_bits == (0, 1)
