"""Orthogonality checking, code construction, distances, and search."""

import dataclasses
import itertools
import random

import pytest

from triortho import codes as codes_mod
from triortho.codes import (
    TriorthogonalMatrix,
    build_code,
    builtin_15_1_3,
    check_orthogonality,
    distances,
    search_triorthogonal,
)
from triortho.gf2 import BitMatrix, BitVector, _rref_ints

from conftest import (
    D2_ROWS,
    D2_SEARCH,
    SMALL8_ROWS,
    SMALL8_SEARCH,
    SMALL10_ROWS,
    SMALL10_SEARCH,
    direct_sum,
)
from oracles import _build_decoder


# Three block-diagonal copies of rows 111 and 110: orthogonal at every
# level up to the row count.
_BLOCKS_3 = tuple(
    "000" * c + row + "000" * (2 - c) for c in range(3) for row in ("111", "110")
)


def _rank_growth_reps(code):
    # The complement rows build_code kept before its one-pass extension:
    # each one that grows the rank of the even rows plus those kept so far.
    span = code.g0_basis.row_values()
    reps = []
    for row in code.z_stabilizers.row_values():
        if len(_rref_ints(span + [row])[0]) > len(span):
            span = span + [row]
            reps.append(row)
    return reps


class TestCheckOrthogonality:
    def test_builtin_passes_level_3(self, builtin_matrix):
        assert check_orthogonality(builtin_matrix.matrix, 3) is None

    def test_odd_pair_overlap_reports_first_tuple(self):
        mat = BitMatrix.from_strings(["110", "011"])
        assert check_orthogonality(mat, 2) == (0, 1)

    def test_single_row_passes_any_level(self):
        mat = BitMatrix.from_strings(["1110101"])
        for h in (2, 3, 4):
            assert check_orthogonality(mat, h) is None

    def test_pass_at_level_implies_lower_levels(self, builtin_matrix, d2_matrix):
        # The check covers every tuple size from 2 up to h, so a level-3
        # pass contains the level-2 pass.
        for mat in (builtin_matrix.matrix, d2_matrix.matrix):
            assert check_orthogonality(mat, 3) is None
            assert check_orthogonality(mat, 2) is None

    def test_level_below_two_rejected(self, builtin_matrix):
        with pytest.raises(ValueError):
            check_orthogonality(builtin_matrix.matrix, 1)

    def test_first_violation_matches_all_tuples(self):
        # Oracle: every tuple, smallest size first, lexicographic within.
        # Sparse rows exercise the skipped zero partial products.
        def first_odd_tuple(rows, level):
            for j in range(2, level + 1):
                for combo in itertools.combinations(range(len(rows)), j):
                    product = -1
                    for i in combo:
                        product &= rows[i]
                    if product.bit_count() & 1:
                        return combo
            return None

        rng = random.Random(7)
        for _ in range(1500):
            n = rng.randint(1, 12)
            density = rng.random()
            rows = [
                "".join("1" if rng.random() < density else "0" for _ in range(n))
                for _ in range(rng.randint(1, 9))
            ]
            matrix = BitMatrix.from_strings(rows)
            level = rng.randint(2, len(rows) + 1)
            expected = first_odd_tuple(matrix.row_values(), level)
            assert check_orthogonality(matrix, level) == expected


class TestBuiltinMatrix:
    def test_row_weights(self, builtin_matrix):
        weights = tuple(r.weight for r in builtin_matrix.matrix.rows)
        assert weights == (8, 8, 8, 8, 15)

    def test_rank(self, builtin_matrix):
        assert builtin_matrix.matrix.rank == 5

    def test_row_classification(self, builtin_matrix):
        assert builtin_matrix.even_rows == (0, 1, 2, 3)
        assert builtin_matrix.odd_rows == (4,)

    def test_probed_level_is_three(self, builtin_matrix):
        assert builtin_matrix.level == 3

    def test_level_four_fails(self, builtin_matrix):
        # The four even rows overlap in a single coordinate.
        with pytest.raises(ValueError):
            TriorthogonalMatrix.from_matrix(builtin_matrix.matrix, level=4)


class TestFromMatrix:
    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["000", "111"]))

    def test_rejects_level_violation(self):
        with pytest.raises(ValueError):
            TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["110", "011"]))

    def test_single_even_row_probes_level_two(self):
        m = TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["1111"]))
        assert m.level == 2
        assert m.even_rows == (0,) and m.odd_rows == ()

    def test_fixtures_keep_their_probed_levels(
        self, builtin_matrix, d2_matrix, small10_matrix, small8_matrix
    ):
        levels = [m.level for m in (builtin_matrix, d2_matrix, small10_matrix, small8_matrix)]
        assert levels == [3, 3, 4, 4]

    @pytest.mark.parametrize("rows", [_BLOCKS_3, D2_ROWS, SMALL10_ROWS, SMALL8_ROWS])
    def test_probe_is_highest_passing_level(self, rows):
        matrix = BitMatrix.from_strings(rows)
        passing = [h for h in range(2, len(rows) + 1) if check_orthogonality(matrix, h) is None]
        assert TriorthogonalMatrix.from_matrix(matrix).level == max(passing)

    def test_probe_guard_names_limit_and_suggests_level(self, monkeypatch):
        # Six rows have 15 pairs and 20 triples, over a guard of 2**4 = 16
        # tuples; a probe and an explicit level share the guard.
        monkeypatch.setattr(codes_mod, "ENUMERATION_GUARD", 4)
        matrix = BitMatrix.from_strings(_BLOCKS_3)
        message = r"more than 2\*\*4 row tuples .* by level 3; give a --level below 3"
        with pytest.raises(ValueError, match=message):
            TriorthogonalMatrix.from_matrix(matrix)
        with pytest.raises(ValueError, match=message):
            TriorthogonalMatrix.from_matrix(matrix, level=6)
        with pytest.raises(ValueError, match=message):
            check_orthogonality(matrix, 6)
        assert TriorthogonalMatrix.from_matrix(matrix, level=2).level == 2


class TestBuildCode:
    def test_builtin_parameters(self, builtin_code):
        assert builtin_code.n == 15
        assert builtin_code.k == 1
        assert builtin_code.x_stabilizers.row_count == 4
        assert builtin_code.z_stabilizers.row_count == 10
        assert len(builtin_code.gauge_pairs) == 6
        assert builtin_code.g0_basis.rank == 4

    def test_builtin_qubit_bookkeeping(self, builtin_code):
        stabs = builtin_code.x_stabilizers.row_count + builtin_code.z_stabilizers.row_count
        assert stabs + builtin_code.k == 15

    def test_no_odd_rows_is_an_error(self):
        m = TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(["1111"]))
        with pytest.raises(ValueError):
            build_code(m)

    def test_commutation_invariants(self, builtin_code, d2_code, small10_code, small8_code):
        for code in (builtin_code, d2_code, small10_code, small8_code):
            for x in code.x_stabilizers.rows:
                for z in code.z_stabilizers.rows:
                    assert x.dot(z) == 0
            for i, lx in enumerate(code.logical_x):
                for j, lz in enumerate(code.logical_z):
                    assert lx.dot(lz) == (1 if i == j else 0)
                for z in code.z_stabilizers.rows:
                    assert lx.dot(z) == 0
                for x in code.x_stabilizers.rows:
                    assert code.logical_z[i].dot(x) == 0

    def test_gauge_pair_symplectic_structure(self, builtin_code, d2_code):
        for code in (builtin_code, d2_code):
            pairs = code.gauge_pairs
            for i, a in enumerate(pairs):
                for j, b in enumerate(pairs):
                    assert a.x_part.dot(b.z_part) == (1 if i == j else 0)
                for lx in code.logical_x:
                    assert lx.dot(a.z_part) == 0
                    assert a.x_part.dot(lx) == 0
                for x in code.x_stabilizers.rows:
                    assert x.dot(a.z_part) == 0

    def test_g0_inside_complement(self, builtin_code, d2_code, small10_code):
        for code in (builtin_code, d2_code, small10_code):
            for g in code.g0_basis.rows:
                rows = code.z_stabilizers.rows + (g,)
                assert BitMatrix(rows, code.n).rank == code.z_stabilizers.rank

    def test_gauge_z_parts_complete_the_complement(self, builtin_code, d2_code):
        # g0 plus the gauge z parts together span the full complement.
        for code in (builtin_code, d2_code):
            combined = BitMatrix(
                list(code.g0_basis.rows) + [p.z_part for p in code.gauge_pairs],
                code.n,
            )
            assert combined.rank == code.z_stabilizers.rank
            for z in code.z_stabilizers.rows:
                assert BitMatrix(combined.rows + (z,), code.n).rank == combined.rank

    def test_quotient_reps_match_rank_growth_choice(
        self, builtin_code, d2_code, small10_code, small8_code
    ):
        # Each [[15,1,3]] column three times over is still triorthogonal.
        repeated = [
            "".join(c * 3 for c in row.to_string()) for row in builtin_15_1_3().matrix.rows
        ]
        wide = build_code(TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(repeated)))
        assert wide.n == 45
        for code in (builtin_code, d2_code, small10_code, small8_code, wide):
            reps = [pair.z_part.value for pair in code.gauge_pairs]
            assert reps == _rank_growth_reps(code)

    def test_k2_search_hit_builds_cleanly(self):
        m = search_triorthogonal(n=12, k=2, m_even=2, budget=20000, seed=0)
        assert m is not None
        code = build_code(m)
        assert code.k == 2
        for i, lx in enumerate(code.logical_x):
            for j, lz in enumerate(code.logical_z):
                assert lx.dot(lz) == (1 if i == j else 0)


class TestDistances:
    def test_builtin_exact(self, builtin_code):
        d_x, d_z = distances(builtin_code)
        assert (d_x, d_z) == (7, 3)
        assert min(d_x, d_z) == 3
        assert d_z <= d_x

    def test_searched_codes_exact(self, d2_code, small10_code, small8_code):
        assert distances(d2_code) == (7, 2)
        assert distances(small10_code) == (3, 1)
        assert distances(small8_code) == (1, 1)

    def test_enumeration_guards_name_rank_and_limit(self):
        # 7 copies of D2 (n=98): row space of rank 21 + 7.  3 copies (n=42)
        # have a stabilizer complement of rank 33, but d_z = 2 is found by
        # weight long before that complement would need enumerating.
        guard = r"exceeds enumeration guard 2\*\*25"
        with pytest.raises(ValueError, match="row space of rank 28 " + guard):
            distances(build_code(direct_sum(D2_ROWS, 7)))
        assert distances(build_code(direct_sum(D2_ROWS, 3))) == (7, 2)

    def test_weight_search_guard_names_weight_and_count(self, builtin_matrix, monkeypatch):
        # [[15,1,3]] needs weight 3 (455 supports), over a guard of 2**8.
        monkeypatch.setattr(codes_mod, "ENUMERATION_GUARD", 8)
        with pytest.raises(
            ValueError,
            match=r"weight-3 search over 15 qubits has 455 candidates, "
            r"exceeding enumeration guard 2\*\*8",
        ):
            distances(build_code(builtin_matrix))

    def test_column_permutation_preserves_parameters(self, builtin_matrix):
        base = build_code(builtin_matrix)
        base_d = distances(base)
        perm = [14, 3, 7, 0, 11, 1, 9, 5, 13, 2, 8, 6, 12, 4, 10]
        permuted_rows = []
        for row in builtin_matrix.matrix.rows:
            permuted_rows.append(
                BitVector.from_support(
                    [perm[i] for i in row.support()], builtin_matrix.n
                )
            )
        shuffled = TriorthogonalMatrix.from_matrix(BitMatrix(permuted_rows, builtin_matrix.n))
        code = build_code(shuffled)
        assert (code.n, code.k) == (base.n, base.k)
        assert len(code.gauge_pairs) == len(base.gauge_pairs)
        assert distances(code) == base_d


class TestSearch:
    def test_reproduces_frozen_d2_fixture(self):
        m = search_triorthogonal(**D2_SEARCH)
        assert m is not None
        assert tuple(r.to_string() for r in m.matrix.rows) == D2_ROWS

    def test_reproduces_frozen_small_fixtures(self):
        m10 = search_triorthogonal(**SMALL10_SEARCH)
        assert tuple(r.to_string() for r in m10.matrix.rows) == SMALL10_ROWS
        m8 = search_triorthogonal(**SMALL8_SEARCH)
        assert tuple(r.to_string() for r in m8.matrix.rows) == SMALL8_ROWS

    def test_determinism(self):
        a = search_triorthogonal(n=14, k=2, m_even=2, budget=30000, seed=1)
        b = search_triorthogonal(n=14, k=2, m_even=2, budget=30000, seed=1)
        if a is None:
            assert b is None
        else:
            assert tuple(r.to_string() for r in a.matrix.rows) == tuple(
                r.to_string() for r in b.matrix.rows
            )

    def test_hit_satisfies_requested_profile(self, d2_matrix):
        m = search_triorthogonal(n=15, k=1, m_even=4, budget=30000, seed=0)
        assert m is not None
        assert check_orthogonality(m.matrix, 3) is None
        assert len(m.even_rows) == 4 and len(m.odd_rows) == 1
        assert m.matrix.rank == 5
        assert len(d2_matrix.even_rows) == 3 and len(d2_matrix.odd_rows) == 1

    def test_disjoint_odd_rows_profile(self):
        m = search_triorthogonal(n=3, k=3, m_even=0, budget=10000, seed=0)
        assert m is not None
        assert sorted(r.to_string() for r in m.matrix.rows) == ["001", "010", "100"]
        assert check_orthogonality(m.matrix, 3) is None

    def test_infeasible_profile_exhausts_budget(self):
        # Five independent rows cannot fit in four columns.
        assert search_triorthogonal(n=4, k=2, m_even=3, budget=300, seed=0) is None

    def test_zero_budget_finds_nothing(self):
        assert search_triorthogonal(n=14, k=1, m_even=3, budget=0, seed=0) is None

    def test_column_count_guard(self):
        with pytest.raises(ValueError):
            search_triorthogonal(n=33, k=1, m_even=3, budget=10, seed=0)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            search_triorthogonal(n=5, k=0, m_even=0, budget=10, seed=0)


class TestCodeEquality:
    def test_caches_are_not_compared(self):
        # A code that has decoded and had its distances computed still
        # equals a fresh one.
        used, fresh = build_code(builtin_15_1_3()), build_code(builtin_15_1_3())
        assert used == fresh
        used.decode_x(0)
        assert distances(used) == (7, 3)
        assert used == fresh and fresh == used

    def test_frozen_record_hashes_and_refuses_assignment(self):
        a, b = build_code(builtin_15_1_3()), build_code(builtin_15_1_3())
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.k = 2


def _random_basis(rng, n, r):
    # r random independent rows of n bits, in RREF.
    while True:
        rows, _ = _rref_ints([rng.getrandbits(n) for _ in range(r)])
        if len(rows) == r:
            return rows


class TestDecoder:
    def test_entries_have_brute_force_minimum_weight(
        self, builtin_code, d2_code, small10_code, small8_code
    ):
        for code in (builtin_code, d2_code, small10_code, small8_code):
            r = code.g0_basis.row_count
            best = {}
            for pattern in range(1 << code.n):
                s = code.x_syndrome_of(pattern)
                best[s] = min(best.get(s, code.n), pattern.bit_count())
            assert len(best) == 1 << r
            for s in range(1 << r):
                pattern = code.decode_x(s)
                assert code.x_syndrome_of(pattern.value) == s
                assert pattern.weight == best[s]
            for outside in (1 << r, -1):
                with pytest.raises(ValueError, match=rf"outside range\(2\*\*{r}\)"):
                    code.decode_x(outside)

    def test_matches_breadth_first_table(
        self, builtin_code, d2_code, small10_code, small8_code
    ):
        # The search returns the pattern the breadth-first table stored:
        # the lexicographically first support of the lightest weight.
        # decode_x reads only n and g0_basis, so a random basis stands in
        # for the stabilizers of a replaced code.
        codes = [builtin_code, d2_code, small10_code, small8_code]
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randint(4, 12)
            basis = _random_basis(rng, n, rng.randint(1, min(7, n)))
            g0_basis = BitMatrix.from_ints(basis, n)
            codes.append(dataclasses.replace(builtin_code, n=n, g0_basis=g0_basis))
        for code in codes:
            table = _build_decoder(code.g0_basis.row_values(), code.n)
            assert len(table) == 1 << code.g0_basis.row_count
            for s, pattern in table.items():
                assert code.decode_x(s).value == pattern

    def test_wide_code_decodes_by_weight_up_to_the_guard(self):
        # 13 copies of D2 (n=182, r=39): no table of 2**39 syndromes, but
        # one flip in each of three blocks decodes at weight 3.  One in
        # each of four needs weight 4, past the enumeration guard.
        code = build_code(direct_sum(D2_ROWS, 13))
        assert (code.n, code.g0_basis.row_count) == (182, 39)
        three = code.x_syndrome_of(sum(1 << 14 * b for b in range(3)))
        pattern = code.decode_x(three)
        assert pattern.weight == 3 and code.x_syndrome_of(pattern.value) == three
        four = code.x_syndrome_of(sum(1 << 14 * b for b in range(4)))
        with pytest.raises(
            ValueError,
            match=r"weight-4 search over 182 qubits has 44224635 candidates, "
            r"exceeding enumeration guard 2\*\*25",
        ):
            code.decode_x(four)
