"""Bit-packed GF(2) linear algebra."""

import random

import pytest

from triortho.gf2 import (
    BitMatrix,
    BitVector,
    _check_rank,
    _echelon_step,
    _eliminate_ints,
    _enumerate_span_ints,
    _kernel_ints,
    _parities,
    _particular_ints,
    _rref_ints,
    _transpose_ints,
    _xor_rows,
    format_matrix,
    orthogonal_complement,
    parse_matrix,
    read_matrix,
    write_matrix,
)

from oracles import rref_by_column_scan

X_STAB_ROW_1 = "000000011111111"
X_STAB_ROW_2 = "000111100001111"


def test_from_string_bit_order():
    v = BitVector.from_string("0110")
    assert v.value == 0b0110 == 6
    assert v.bit(0) == 0 and v.bit(1) == 1 and v.bit(2) == 1 and v.bit(3) == 0
    assert v.to_string() == "0110"


def test_weight_examples():
    assert BitVector.from_string(X_STAB_ROW_1).weight == 8
    assert BitVector(0, 15).weight == 0
    assert BitVector.from_string("1" * 15).weight == 15


def test_pointwise_product_of_stabilizer_rows():
    u = BitVector.from_string(X_STAB_ROW_1)
    v = BitVector.from_string(X_STAB_ROW_2)
    prod = u & v
    assert prod.to_string() == "000000000001111"
    assert prod.weight == 4


def test_pointwise_product_identity_and_annihilator():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 33)
        v = BitVector(rng.getrandbits(n), n)
        ones = BitVector((1 << n) - 1, n)
        zero = BitVector(0, n)
        assert v & ones == v
        assert v & zero == zero


def test_pointwise_product_length_checked():
    with pytest.raises(ValueError):
        BitVector(1, 3) & BitVector(1, 4)


def test_rref_rank_of_builtin_x_rows():
    rows = [
        X_STAB_ROW_1,
        X_STAB_ROW_2,
        "011001100110011",
        "101010101010101",
    ]
    reduced, pivots = _rref_ints(BitMatrix.from_strings(rows).row_values())
    assert len(reduced) == 4
    assert len(pivots) == 4


def test_rref_identity_and_duplicates():
    ident = BitMatrix.from_strings(["100", "010", "001"])
    assert _rref_ints(ident.row_values()) == (ident.row_values(), [0, 1, 2])

    dup = BitMatrix.from_strings(["1011", "1011"])
    reduced, pivots = _rref_ints(dup.row_values())
    assert pivots == [0]
    assert BitMatrix.from_ints(reduced, 4) == BitMatrix.from_strings(["1011"])


def test_orthogonal_complement_builtin_dimension(builtin_matrix):
    comp = orthogonal_complement(builtin_matrix.matrix)
    assert comp.row_count == 10
    for r in comp.rows:
        for g in builtin_matrix.matrix.rows:
            assert (r & g).weight % 2 == 0


def test_orthogonal_complement_degenerate_cases():
    empty = BitMatrix([], n=6)
    assert orthogonal_complement(empty).row_count == 6
    ident = BitMatrix.from_strings(["100", "010", "001"])
    assert orthogonal_complement(ident).row_count == 0


def test_span_contains_g0_cases(builtin_code):
    # v lies in the row space of m exactly when appending it keeps the rank.
    g0 = builtin_code.g0_basis
    two_rows = g0.rows[0] ^ g0.rows[1]
    assert BitMatrix(g0.rows + (two_rows,), 15).rank == g0.rank
    assert BitMatrix(g0.rows + (BitVector.from_string("1" * 15),), 15).rank == g0.rank + 1
    assert BitMatrix(g0.rows + (BitVector(0, 15),), 15).rank == g0.rank


def test_enumerate_span_builtin_cosets(builtin_code):
    g0 = builtin_code.g0_basis.row_values()
    zero_coset = list(_enumerate_span_ints(g0))
    assert len(zero_coset) == 16
    assert len(set(zero_coset)) == 16
    assert 0 in zero_coset

    ones = (1 << 15) - 1
    odd_coset = list(_enumerate_span_ints(g0, shift=ones))
    assert len(odd_coset) == 16
    assert all(v.bit_count() % 2 == 1 for v in odd_coset)


def test_enumerate_span_empty_basis_is_singleton():
    shift = BitVector.from_string("10110").value
    assert list(_enumerate_span_ints([], shift=shift)) == [shift]


def test_rank_duality_on_random_matrices():
    # rank(M) + rank(complement(M)) = columns, 500 seeded random matrices.
    rng = random.Random(0xD0A1)
    for _ in range(500):
        n = rng.randrange(1, 33)
        m = rng.randrange(0, n + 2)
        mat = BitMatrix.from_ints([rng.getrandbits(n) for _ in range(m)], n)
        comp = orthogonal_complement(mat)
        assert mat.rank + comp.rank == n


def test_double_complement_preserves_row_space():
    rng = random.Random(0xD0A2)
    for _ in range(50):
        n = rng.randrange(1, 25)
        m = rng.randrange(1, n + 2)
        mat = BitMatrix.from_ints([rng.getrandbits(n) for _ in range(m)], n)
        back = orthogonal_complement(orthogonal_complement(mat))
        assert all(BitMatrix(mat.rows + (r,), n).rank == mat.rank for r in back.rows)
        assert all(BitMatrix(back.rows + (r,), n).rank == back.rank for r in mat.rows)


def test_enumerate_span_cardinality_random():
    rng = random.Random(0xD0A3)
    for _ in range(30):
        n = rng.randrange(1, 16)
        m = rng.randrange(0, 6)
        mat = BitMatrix.from_ints([rng.getrandbits(n) for _ in range(m)], n)
        values = set(_enumerate_span_ints(_rref_ints(mat.row_values())[0]))
        assert len(values) == 1 << mat.rank


def test_product_and_weight_identities():
    rng = random.Random(0xD0A4)
    for _ in range(100):
        n = rng.randrange(1, 33)
        u = BitVector(rng.getrandbits(n), n)
        v = BitVector(rng.getrandbits(n), n)
        w = BitVector(rng.getrandbits(n), n)
        assert u & v == v & u
        assert (u & v) & w == u & (v & w)
        assert (u ^ v).weight == u.weight + v.weight - 2 * (u & v).weight


def test_matrix_text_round_trip(tmp_path):
    mat = BitMatrix.from_strings(["10110", "01101"])
    path = tmp_path / "m.txt"
    write_matrix(path, mat, comments=["searched", "seed=1"])
    text = path.read_text(encoding="ascii")
    assert text.startswith("# searched\n# seed=1\n")
    assert read_matrix(path) == mat


def test_parse_matrix_skips_comments_and_blanks():
    mat = parse_matrix("# header\n\n101\n 011 \n# trailer\n")
    assert mat.row_count == 2
    assert mat.rows[0].to_string() == "101"


def test_parse_matrix_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        parse_matrix("101\n01\n")
    with pytest.raises(ValueError):
        parse_matrix("# only comments\n")


def test_format_matrix_leftmost_is_coordinate_zero():
    mat = BitMatrix.from_ints([0b001], 3)
    assert format_matrix(mat) == "100\n"


def test_eliminate_ints_matches_brute_force():
    rng = random.Random(11)
    systems = [([], [], 0), ([], [], 5), ([0, 0], [0, 0], 3), ([0], [1], 3)]
    for _ in range(300):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, 2 * n + 2)
        masks = [rng.getrandbits(n) if rng.random() > 0.2 else 0 for _ in range(m)]
        if m and rng.random() < 0.3:
            # Force a dependent row so that both consistent and inconsistent
            # right-hand sides come up often.
            masks[-1] = masks[0] ^ masks[rng.randrange(m)]
        systems.append((masks, [rng.getrandbits(1) for _ in range(m)], n))
    outcomes = set()
    for masks, rhs, n in systems:
        exact = {
            x
            for x in range(1 << n)
            if all((mask & x).bit_count() % 2 == b for mask, b in zip(masks, rhs))
        }
        rows, checks, kernel = _eliminate_ints(masks, n)
        particular = _particular_ints(rows, checks, sum(b << i for i, b in enumerate(rhs)))
        outcomes.add(particular is None)
        if not exact:
            assert particular is None
            continue
        assert particular is not None
        assert len(_rref_ints(kernel)[0]) == len(kernel)
        assert set(_enumerate_span_ints(kernel, particular)) == exact
    assert outcomes == {True, False}


def _random_rows(rng, count, n):
    return [rng.getrandbits(n) for _ in range(count)]


def test_transpose_ints_reads_bit_by_bit():
    rng = random.Random(21)
    for _ in range(200):
        n, m = rng.randrange(0, 12), rng.randrange(0, 12)
        rows = _random_rows(rng, m, n)
        columns = _transpose_ints(rows, n)
        assert len(columns) == n
        for i, row in enumerate(rows):
            for j in range(n):
                assert (columns[j] >> i) & 1 == (row >> j) & 1
        assert all(column >> m == 0 for column in columns)
        assert _transpose_ints(columns, m) == rows


def test_parities_match_row_dot_products():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randrange(1, 16)
        rows = _random_rows(rng, rng.randrange(0, 10), n)
        v = rng.getrandbits(n)
        expected = sum(
            BitVector(row, n).dot(BitVector(v, n)) << j for j, row in enumerate(rows)
        )
        assert _parities(rows, v) == expected


def test_xor_rows_matches_loop():
    rng = random.Random(23)
    for _ in range(200):
        rows = _random_rows(rng, rng.randrange(0, 10), 16)
        mask = rng.getrandbits(len(rows))
        expected = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                expected ^= row
        assert _xor_rows(rows, mask) == expected


def test_echelon_step_tracks_rref_rank():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randrange(1, 10)
        m = rng.randrange(0, 12)
        rows = [rng.getrandbits(n) if rng.random() > 0.2 else 0 for _ in range(m)]
        echelon: dict[int, int] = {}
        for i, row in enumerate(rows):
            before = len(_rref_ints(rows[:i])[0])
            after = len(_rref_ints(rows[: i + 1])[0])
            reduced = _echelon_step(echelon, row)
            assert bool(reduced) == (after > before)
            assert len(echelon) == after
            # The reduced row differs from the row by a member of the span.
            span = set(_enumerate_span_ints(_rref_ints(rows[:i])[0]))
            assert row ^ reduced in span
        assert all(key == row & -row for key, row in echelon.items())


def test_check_rank_names_rank_and_guard():
    _check_rank("coset", 25)
    with pytest.raises(ValueError) as excinfo:
        _check_rank("coset", 26)
    assert str(excinfo.value) == "coset of rank 26 exceeds enumeration guard 2**25"
    _check_rank("coset", 20, 20)
    with pytest.raises(ValueError) as excinfo:
        _check_rank("coset", 21, 20)
    assert str(excinfo.value) == "coset of rank 21 exceeds enumeration guard 2**20"


def _random_row_lists(seed, count):
    # Row lists over n = 1..20 with up to 24 rows, zero and duplicate rows included.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 21)
        rows = [rng.getrandbits(n) if rng.random() > 0.15 else 0 for _ in range(rng.randrange(23))]
        for _ in range(rng.randrange(3) if rows else 0):
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
        yield rows, n


def test_rref_ints_matches_column_scan():
    for rows, n in _random_row_lists(31, 600):
        assert _rref_ints(rows) == rref_by_column_scan(rows, n)


def test_kernel_ints_spans_the_null_space_by_free_column():
    for rows, n in _random_row_lists(32, 600):
        basis, pivots = _rref_ints(rows)
        kernel = _kernel_ints(pivots, basis, n)
        assert len(kernel) == n - len(basis)
        free = [c for c in range(n) if c not in pivots]
        assert [v.bit_length() - 1 for v in kernel] == free
        assert all(_parities(basis, v) == 0 for v in kernel)
        units = [1 << p for p in pivots]
        columns = _transpose_ints(basis, n)
        assert kernel == [1 << c | _xor_rows(units, columns[c]) for c in free]
