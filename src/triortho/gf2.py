"""GF(2) linear algebra on bit-packed vectors and matrices.

Vectors over GF(2) are stored as Python integers, one bit per coordinate,
with bit ``i`` holding coordinate ``i``.  The text form of a vector is a
string of ``0``/``1`` characters whose leftmost character is coordinate 0,
so ``BitVector.from_string("0110").value == 0b0110 == 6``.

All operations that combine two vectors are length checked.  Callers that
enumerate a span refuse ranks above ``ENUMERATION_GUARD``.

Private kernels on raw integer rows do every GF(2) row operation in the
package.  Two eliminations remain because each pins a pivot convention
that printed results depend on: ``_rref_ints`` (lowest-bit pivots) gives
the canonical bases behind printed syndromes and gauge pairs, and
``_eliminate_ints`` (highest-bit pivots) reduces a system once so that
``_particular_ints`` solves it per right-hand side, which fixes the rows a
seeded search draws.  ``_echelon_step`` grows a lowest-bit-keyed echelon;
``_transpose_ints``, ``_parities``, ``_xor_rows``, ``_check_rank`` and
``_enumerate_span_ints`` transpose rows, take a vector's overlap parities,
XOR the rows a mask selects, guard a rank, and walk a span or coset.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "ENUMERATION_GUARD",
    "BitVector",
    "BitMatrix",
    "orthogonal_complement",
    "parse_matrix",
    "format_matrix",
    "read_matrix",
    "write_matrix",
]

# Spans of rank above this are refused rather than enumerated.
ENUMERATION_GUARD = 25


class BitVector:
    """An immutable vector over GF(2) of fixed length ``n``.

    The integer ``value`` packs the coordinates, bit ``i`` = coordinate ``i``.
    Length is fixed at creation and every binary operation checks it.
    """

    __slots__ = ("value", "n")

    def __init__(self, value: int, n: int) -> None:
        if n < 0:
            raise ValueError(f"length must be nonnegative, got {n}")
        if value < 0 or value >> n:
            raise ValueError(f"value 0x{value:x} does not fit in {n} bits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("BitVector is immutable")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a 0/1 string whose leftmost character is coordinate 0."""
        value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                value |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid character {ch!r} in bit string")
        return cls(value, len(text))

    @classmethod
    def from_support(cls, support: Iterable[int], n: int) -> "BitVector":
        value = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError(f"support index {i} out of range for length {n}")
            value |= 1 << i
        return cls(value, n)

    def to_string(self) -> str:
        return "".join("1" if (self.value >> i) & 1 else "0" for i in range(self.n))

    @property
    def weight(self) -> int:
        """Hamming weight."""
        return self.value.bit_count()

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for length {self.n}")
        return (self.value >> i) & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.value >> i) & 1)

    def _check_length(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_length(other)
        return BitVector(self.value ^ other.value, self.n)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_length(other)
        return BitVector(self.value & other.value, self.n)

    def dot(self, other: "BitVector") -> int:
        """Inner product over GF(2): parity of the overlap."""
        self._check_length(other)
        return (self.value & other.value).bit_count() & 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.value == other.value and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.value, self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVector({self.to_string()!r})"


class BitMatrix:
    """An immutable matrix over GF(2), stored as a tuple of BitVector rows."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[BitVector], n: Optional[int] = None) -> None:
        rows = tuple(rows)
        if n is None:
            if not rows:
                raise ValueError("column count required for an empty matrix")
            n = rows[0].n
        for r in rows:
            if r.n != n:
                raise ValueError(f"row length {r.n} does not match column count {n}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BitMatrix":
        return cls([BitVector.from_string(line) for line in lines])

    @classmethod
    def from_ints(cls, values: Iterable[int], n: int) -> "BitMatrix":
        return cls([BitVector(v, n) for v in values], n)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def col_count(self) -> int:
        return self.n

    def row_values(self) -> list[int]:
        return [r.value for r in self.rows]

    @property
    def rank(self) -> int:
        return len(_rref_ints(self.row_values(), self.n)[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows, self.n))

    def __repr__(self) -> str:
        return f"BitMatrix({[r.to_string() for r in self.rows]!r})"


def _rref_ints(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form on raw integer rows.

    Returns (nonzero rows in pivot order, pivot columns).  Each returned row
    has a leading 1 in its pivot column and that column is cleared in every
    other row, so the output is a canonical basis of the row space.
    """
    work = list(rows)
    out: list[int] = []
    pivots: list[int] = []
    for col in range(n):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(work):
            if r & mask:
                pivot_row = work.pop(idx)
                break
        if pivot_row is None:
            continue
        out = [r ^ pivot_row if r & mask else r for r in out]
        work = [r ^ pivot_row if r & mask else r for r in work]
        out.append(pivot_row)
        pivots.append(col)
        if not any(work):
            break
    return out, pivots


def _eliminate_ints(
    masks: list[int], n: int
) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """Reduce the system ``masks[i] . x = b_i`` once, for any right-hand side.

    Returns (rows, checks, kernel): rows are (pivot, reduced mask,
    combination), bit ``i`` of a combination marking ``masks[i]`` as a
    term; checks are combinations that sum to zero, on which a consistent
    ``b`` has even parity; ``kernel`` has one vector per free column, in
    ascending column order, so the solutions are the particular solution
    plus its span.  Each pivot is the highest bit of its reduced row, and a
    particular solution is zero on every free column.
    """
    echelon: list[tuple[int, int, int]] = []
    checks: list[int] = []
    for i, mask in enumerate(masks):
        combo = 1 << i
        for pivot, row, row_combo in echelon:
            if (mask >> pivot) & 1:
                mask ^= row
                combo ^= row_combo
        if mask == 0:
            checks.append(combo)
            continue
        echelon.append((mask.bit_length() - 1, mask, combo))
    # Back-substitution: clear every pivot from the other rows.
    for i, (pivot, row, combo) in enumerate(echelon):
        for j, (p, r, c) in enumerate(echelon):
            if j != i and (r >> pivot) & 1:
                echelon[j] = (p, r ^ row, c ^ combo)
    pivots = {pivot for pivot, _, _ in echelon}
    kernel = []
    for col in range(n):
        if col in pivots:
            continue
        vec = 1 << col
        for pivot, row, _ in echelon:
            if (row >> col) & 1:
                vec |= 1 << pivot
        kernel.append(vec)
    return echelon, checks, kernel


def _particular_ints(
    rows: list[tuple[int, int, int]], checks: list[int], rhs: int
) -> Optional[int]:
    """The particular solution of an ``_eliminate_ints`` system for the
    right-hand side with bit ``i`` = ``b_i``, or None when inconsistent."""
    if any((c & rhs).bit_count() & 1 for c in checks):
        return None
    return sum(((combo & rhs).bit_count() & 1) << pivot for pivot, _, combo in rows)


def _echelon_step(echelon: dict[int, int], row: int) -> int:
    """Reduce ``row`` against an echelon whose rows are keyed by their
    lowest bit, and return the result.  A nonzero result is outside the
    echelon's span and joins it under its own lowest bit."""
    while row & -row in echelon:
        row ^= echelon[row & -row]
    if row:
        echelon[row & -row] = row
    return row


def _transpose_ints(rows: Sequence[int], n: int) -> list[int]:
    """The ``n`` columns of ``rows``: bit ``i`` of column ``j`` is bit ``j``
    of row ``i``."""
    columns = [0] * n
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << i
            row ^= low
    return columns


def _parities(rows: Sequence[int], v: int) -> int:
    """Bit ``j`` is the overlap parity of ``v`` with ``rows[j]``."""
    return sum(((row & v).bit_count() & 1) << j for j, row in enumerate(rows))


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """The XOR of every ``rows[i]`` whose bit ``i`` is set in ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _check_rank(what: str, rank: int, limit: int = ENUMERATION_GUARD) -> None:
    """Refuse to enumerate a span of rank above ``limit``."""
    if rank > limit:
        raise ValueError(f"{what} of rank {rank} exceeds enumeration guard 2**{limit}")


def orthogonal_complement(matrix: BitMatrix) -> BitMatrix:
    """Canonical basis of the space of vectors orthogonal to every row.

    The kernel of the matrix (as a bilinear form), returned in reduced row
    echelon form.  Its rank is ``n - rank(matrix)``.
    """
    _, _, kernel = _eliminate_ints(matrix.row_values(), matrix.n)
    canonical, _ = _rref_ints(kernel, matrix.n)
    return BitMatrix.from_ints(canonical, matrix.n)


def _enumerate_span_ints(basis: list[int], shift: int = 0) -> Iterator[int]:
    """Yield every element of shift + span(basis) exactly once, Gray ordered.

    ``basis`` must already be linearly independent.
    """
    current = shift
    yield current
    for i in range(1, 1 << len(basis)):
        current ^= basis[(i & -i).bit_length() - 1]
        yield current


def parse_matrix(text: str) -> BitMatrix:
    """Parse the matrix text format.

    One row per line as 0/1 characters, coordinate 0 leftmost.  Blank lines
    and lines starting with ``#`` are ignored.  All rows must have equal
    length.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise ValueError("no matrix rows found")
    return BitMatrix.from_strings(lines)


def format_matrix(matrix: BitMatrix, comments: Sequence[str] = ()) -> str:
    """Render a matrix in the text format, with optional leading comments."""
    out = [f"# {c}" for c in comments]
    out.extend(r.to_string() for r in matrix.rows)
    return "\n".join(out) + "\n"


def read_matrix(path: str | os.PathLike) -> BitMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def write_matrix(path: str | os.PathLike, matrix: BitMatrix, comments: Sequence[str] = ()) -> None:
    """Write a matrix file atomically."""
    _atomic_write_text(path, format_matrix(matrix, comments))


def _atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    # ``text`` is a string or an iterable of pieces, written one at a time.
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        # mkstemp creates mode 0600; give the mode open() gives a new file.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
