"""Triorthogonal matrices and the stabilizer codes built from them.

A binary matrix is orthogonal at level ``h`` when every product of ``j``
distinct rows, for ``2 <= j <= h``, has even weight.  Level 3 is the
triorthogonality condition.  Rows of odd weight become logical operators of
the derived code; rows of even weight become X stabilizers.  Z stabilizers
are a basis of the orthogonal complement of the whole matrix, and the
leftover directions of that complement pair up into gauge degrees of
freedom.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Optional

from .gf2 import (
    ENUMERATION_GUARD,
    BitMatrix,
    BitVector,
    _check_rank,
    _echelon_step,
    _eliminate_ints,
    _enumerate_span_ints,
    _parities,
    _particular_ints,
    _rref_ints,
    _transpose_ints,
    _xor_rows,
    orthogonal_complement,
)

__all__ = [
    "check_orthogonality",
    "TriorthogonalMatrix",
    "builtin_15_1_3",
    "GaugePair",
    "TriorthogonalCode",
    "build_code",
    "distances",
    "search_triorthogonal",
]

def _check_orthogonality_ints(rows: list[int], level: int) -> Optional[tuple[int, ...]]:
    # Level by level; before enumerating level j, refuse when levels 2..j
    # hold more than 2**ENUMERATION_GUARD row tuples.  Levels past the row
    # count hold no tuple, so the walk stops there.
    def first_odd(j: int, start: int, product: int) -> Optional[tuple[int, ...]]:
        # The lexicographically first j-tuple of rows from ``start`` on whose
        # product with ``product`` has odd weight; a zero product stays zero.
        if j == 0:
            return () if product.bit_count() & 1 else None
        for i in range(start, len(rows) - j + 1):
            partial = product & rows[i]
            rest = first_odd(j - 1, i + 1, partial) if partial else None
            if rest is not None:
                return (i, *rest)
        return None

    for j in range(2, min(level, len(rows)) + 1):
        if sum(math.comb(len(rows), i) for i in range(2, j + 1)) > 1 << ENUMERATION_GUARD:
            raise ValueError(
                f"orthogonality check needs more than 2**{ENUMERATION_GUARD} row tuples "
                f"(enumeration guard) by level {j}; give a --level below {j}"
            )
        violation = first_odd(j, 0, -1)
        if violation is not None:
            return violation
    return None


def check_orthogonality(matrix: BitMatrix, level: int) -> Optional[tuple[int, ...]]:
    """Check all j-fold row products for 2 <= j <= level.

    Returns None when every product has even weight, otherwise the first
    violating tuple of row indices (smallest j first, lexicographic within).
    Refuses past the enumeration guard as ``TriorthogonalMatrix.from_matrix`` does.
    """
    if level < 2:
        raise ValueError(f"level must be at least 2, got {level}")
    return _check_orthogonality_ints(matrix.row_values(), level)


@dataclass(frozen=True)
class TriorthogonalMatrix:
    """A matrix verified orthogonal up to ``level``, rows split by parity.

    ``even_rows`` and ``odd_rows`` are row indices into ``matrix``.  Level 3
    is required for transversal CCZ; level 2 already yields a valid CSS
    code and suffices for transversal CZ.
    """

    matrix: BitMatrix
    even_rows: tuple[int, ...]
    odd_rows: tuple[int, ...]
    level: int

    @classmethod
    def from_matrix(cls, matrix: BitMatrix, level: Optional[int] = None) -> "TriorthogonalMatrix":
        """Verify a matrix and classify its rows.

        With ``level=None`` the highest passing level is probed, up to the
        row count (beyond which the conditions are vacuous); an explicit
        level is verified exactly.  Either check refuses before enumerating
        a level j once levels 2..j hold more than 2**ENUMERATION_GUARD row
        tuples, naming j.  Raises ValueError on violation, naming the
        offending row tuple.
        """
        rows = matrix.row_values()
        if any(r == 0 for r in rows):
            raise ValueError("zero rows are not allowed")
        probe = level is None
        level = max(matrix.row_count, 2) if probe else level
        violation = check_orthogonality(matrix, level)
        if probe and violation is not None and len(violation) > 2:
            # Violations come smallest tuple first, so the first one sits
            # one level above the highest passing level.
            level, violation = len(violation) - 1, None
        if violation is not None:
            raise ValueError(f"rows {violation} have odd product weight at level {len(violation)}")
        even = tuple(i for i, r in enumerate(rows) if r.bit_count() % 2 == 0)
        odd = tuple(i for i, r in enumerate(rows) if r.bit_count() % 2 == 1)
        return cls(matrix=matrix, even_rows=even, odd_rows=odd, level=level)

    @property
    def n(self) -> int:
        return self.matrix.n

    def even_matrix(self) -> BitMatrix:
        return BitMatrix([self.matrix.rows[i] for i in self.even_rows], self.matrix.n)

    def odd_vectors(self) -> tuple[BitVector, ...]:
        return tuple(self.matrix.rows[i] for i in self.odd_rows)


_BUILTIN_15_1_3_ROWS = (
    "000000011111111",
    "000111100001111",
    "011001100110011",
    "101010101010101",
    "111111111111111",
)


def builtin_15_1_3() -> TriorthogonalMatrix:
    """The 15-qubit, one-logical-qubit triorthogonal matrix.

    Four even rows of weight 8 and one odd row of weight 15.  The derived
    code has distance 3 and a transversal CCZ across three blocks.
    """
    return TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(_BUILTIN_15_1_3_ROWS))


@dataclass(frozen=True)
class GaugePair:
    """An anticommuting X/Z pair acting only on gauge degrees of freedom."""

    x_part: BitVector
    z_part: BitVector


@dataclass(frozen=True)
class TriorthogonalCode:
    """A CSS code with explicit logical and gauge structure.

    X stabilizers are the even rows as given.  Z stabilizers are a canonical
    basis of the orthogonal complement of the full matrix.  Each odd row
    serves as both the X and Z support of one logical qubit.  Gauge pairs
    are X/Z supports inside the complement that anticommute within a pair
    and commute with everything else.
    """

    source: TriorthogonalMatrix
    n: int
    k: int
    x_stabilizers: BitMatrix
    z_stabilizers: BitMatrix
    logical_x: tuple[BitVector, ...]
    logical_z: tuple[BitVector, ...]
    gauge_pairs: tuple[GaugePair, ...]
    g0_basis: BitMatrix

    def x_syndrome_of(self, pattern: int) -> int:
        """Syndrome of an X error pattern: bit j is the parity against
        X-stabilizer basis row j."""
        return _parities(self.g0_basis.row_values(), pattern)

    def decode_x(self, syndrome: int) -> BitVector:
        """The lexicographically first minimum-weight X pattern with the
        given syndrome; ValueError for a syndrome outside ``range(2**r)``,
        r the number of X-stabilizer rows, or past ``_lightest_support``'s guard."""
        r = self.g0_basis.row_count
        if not 0 <= syndrome < 1 << r:
            raise ValueError(f"syndrome {syndrome} outside range(2**{r})")
        columns = _transpose_ints(self.g0_basis.row_values(), self.n)
        return BitVector.from_support(_lightest_support(columns, syndrome.__eq__), self.n)


def _lightest_support(columns: list[int], accept) -> tuple[int, ...]:
    """The first support, by weight and then lexicographically, whose columns
    XOR to a value ``accept`` takes; ValueError, naming the weight and its
    count, before enumerating a weight of more than 2**ENUMERATION_GUARD supports."""
    n = len(columns)
    for weight in range(n + 1):
        candidates = math.comb(n, weight)
        if candidates > 1 << ENUMERATION_GUARD:
            raise ValueError(
                f"weight-{weight} search over {n} qubits has {candidates} candidates, "
                f"exceeding enumeration guard 2**{ENUMERATION_GUARD}"
            )
        values = (
            functools.reduce(operator.xor, s, 0) for s in itertools.combinations(columns, weight)
        )
        hits = itertools.compress(itertools.combinations(range(n), weight), map(accept, values))
        for support in hits:
            return support
    raise ValueError(f"no support of {n} columns is accepted")


def build_code(source: TriorthogonalMatrix) -> TriorthogonalCode:
    """Derive the full code structure from a verified matrix.

    Raises ValueError when there are no odd rows (no logical qubits) or when
    the odd rows are dependent modulo the even-row span (duplicate
    logicals).
    """
    matrix = source.matrix
    n = matrix.n
    k = len(source.odd_rows)
    if k == 0:
        raise ValueError("matrix has no odd rows, so the code has no logical qubits")

    even = source.even_matrix()
    g0_reduced, _ = _rref_ints(even.row_values())
    g0_basis = BitMatrix.from_ints(g0_reduced, n)

    # The matrix has rank n minus the rank of its orthogonal complement.
    complement = orthogonal_complement(matrix)
    if n - complement.row_count != len(g0_reduced) + k:
        raise ValueError(
            "odd rows are dependent modulo the even rows; logical operators collide"
        )

    # Extend the even-row basis to a basis of the complement.  The new
    # directions represent the quotient carrying the gauge structure.  One
    # running echelon, keyed by lowest bit (the even-row pivots), keeps each
    # complement row that does not reduce to zero.
    echelon = {row & -row: row for row in g0_reduced}
    quotient_reps = [row for row in complement.row_values() if _echelon_step(echelon, row)]
    g = len(quotient_reps)
    assert len(g0_reduced) + g == complement.row_count

    # The overlap-parity form is nondegenerate on the quotient, so the Gram
    # matrix of the representatives inverts; its inverse mixes the
    # representatives into a dual basis, giving pairwise symplectic pairs.
    gauge_pairs: tuple[GaugePair, ...] = ()
    if g:
        gram = [_parities(quotient_reps, rep) for rep in quotient_reps]
        # Row-reduce [gram | I]: gram inverts exactly when its columns are
        # the first g pivots, and then the right half is the inverse.
        augmented = [row | 1 << (g + i) for i, row in enumerate(gram)]
        reduced, pivots = _rref_ints(augmented)
        if pivots[:g] != list(range(g)):
            raise ValueError("gauge pairing is degenerate; matrix is not self-consistent")
        x_parts = [_xor_rows(quotient_reps, row >> g) for row in reduced]
        for i, x in enumerate(x_parts):
            assert _parities(quotient_reps, x) == 1 << i
        gauge_pairs = tuple(
            GaugePair(x_part=BitVector(x, n), z_part=BitVector(z, n))
            for x, z in zip(x_parts, quotient_reps)
        )

    logicals = source.odd_vectors()
    odd = [v.value for v in logicals]
    for i, u in enumerate(odd):
        assert _parities(odd, u) == 1 << i

    code = TriorthogonalCode(
        source=source,
        n=n,
        k=k,
        x_stabilizers=even,
        z_stabilizers=complement,
        logical_x=logicals,
        logical_z=logicals,
        gauge_pairs=gauge_pairs,
        g0_basis=g0_basis,
    )
    return code


def distances(code: TriorthogonalCode) -> tuple[int, int]:
    """Exact X and Z distances.

    d_x is the minimum weight over the matrix row space excluding the
    even-row span, found by enumerating that space.  d_z is the minimum
    weight over vectors orthogonal to all even rows but not to every odd
    row, the weight of ``_lightest_support``; the odd rows themselves
    qualify, so the search stops by their weight.  Both respect the
    guard: the row space by its rank, the search by the candidate count
    of its next weight.
    """
    n = code.n
    g0 = code.g0_basis.row_values()
    odd = [v.value for v in code.logical_x]

    _check_rank("row space", len(g0) + len(odd))
    d_x = n
    for shift in _enumerate_span_ints(odd):
        if shift == 0:
            continue
        for v in _enumerate_span_ints(g0, shift):
            w = v.bit_count()
            if w < d_x:
                d_x = w

    # Bit i of columns[j]: whether row i of g0 + odd covers column j, so a
    # support's parities against every row are the XOR of its columns.  It
    # qualifies when every even-row bit is clear and some odd-row bit set.
    columns = _transpose_ints(g0 + odd, n)
    even_mask = (1 << len(g0)) - 1
    d_z = len(_lightest_support(columns, lambda p: p and not p & even_mask))
    return d_x, d_z


def search_triorthogonal(
    n: int,
    k: int,
    m_even: int,
    budget: int,
    seed: int,
) -> Optional[TriorthogonalMatrix]:
    """Seeded randomized search for a full-rank level-3 matrix with
    ``m_even`` even-weight and ``k`` odd-weight rows.

    Rows are grown one at a time.  Every pair and triple parity constraint
    on the next row is linear in it, so candidates are sampled uniformly
    from the affine solution space and kept when they extend the rank, so
    a full matrix is level 3 by construction (``from_matrix`` still
    verifies it).  A stalled or inconsistent partial matrix is thrown away
    and the search restarts.  The budget counts candidate rows drawn.
    Deterministic for a given seed; returns None when the budget is
    exhausted.

    Profile guidance for distance-2 targets: the even rows must jointly
    touch every column, yet inclusion-exclusion mod 2 makes their union's
    size even whenever m_even <= 3, and with m_even <= 2 an odd row's own
    parity contradicts a covering union outright.  Full coverage therefore
    needs m_even >= 3 and, at m_even = 3, an even n.
    """
    if n < 1 or k < 0 or m_even < 0 or k + m_even < 1:
        raise ValueError("need a positive number of rows and columns")
    if n > 32:
        raise ValueError(f"search supports up to 32 columns, got {n}")
    rng = random.Random(seed)
    all_ones = (1 << n) - 1
    # Even rows first, then odd, matching the emitted row order.
    parities = [0] * m_even + [1] * k

    kept: list[int] = []
    echelon: dict[int, int] = {}  # kept, keyed by lowest bit, to test rank growth
    stall = 0
    spent = 0
    while spent < budget:
        # The row's weight parity, then even overlaps with every kept row
        # and every kept pair: only the first right-hand side can be 1.
        masks = [all_ones] + kept + [a & b for a, b in itertools.combinations(kept, 2)]
        rows, checks, kernel = _eliminate_ints(masks, n)
        particular = _particular_ints(rows, checks, parities[len(kept)])
        extended = False
        if particular is not None:
            while spent < budget:
                spent += 1
                r = particular ^ _xor_rows(kernel, rng.getrandbits(len(kernel)))
                if _echelon_step(echelon, r):
                    kept.append(r)
                    extended = True
                    break
                stall += 1
                # A kernel of dimension d only holds 2^d candidates; give up
                # on the slot once repeats become likely.
                if not kernel or stall >= min(50, 2 ** len(kernel)):
                    break
        if not extended:
            kept, echelon = [], {}
            stall = 0
            if particular is None:
                spent += 1
            continue
        stall = 0
        if len(kept) == m_even + k:
            return TriorthogonalMatrix.from_matrix(BitMatrix.from_ints(kept, n), level=3)
    return None
