"""Sparse state-vector simulator keyed on computational basis strings.

States are dictionaries mapping basis keys (integers, bit ``i`` = qubit
``i``) to complex amplitudes.  Encoded states of a triorthogonal code are
uniform superpositions over cosets of the even-row span, so supports stay
small.  The module holds what the package runs on them: logical-state
preparation, superposition and comparison up to a global phase, one-pass
transversal Hadamard, and the transversal controlled-Z phase checks.

Measurement randomness always comes from an explicit caller-supplied
source (anything with a ``random()`` method, such as ``random.Random`` or
``numpy.random.Generator``); there is no ambient seeding.  Deterministic
branches can be forced instead of sampled.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .codes import TriorthogonalCode
from .gf2 import _check_rank, _enumerate_span_ints, _kernel_ints, _parities, _rref_ints, _xor_rows

__all__ = [
    "PRUNE_EPS",
    "NORM_TOL",
    "SparseState",
    "superpose",
    "states_equal_up_to_global_phase",
    "LogicalBasisLabel",
    "prepare_logical",
    "prepare_plus_all",
    "PhaseCheckResult",
    "transversal_ccz_phase_check",
    "transversal_multi_cz_phase_check",
]

PRUNE_EPS = 1e-14
NORM_TOL = 1e-12


class SparseState:
    """A normalized sparse state on ``n`` qubits."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: Optional[dict[int, complex]] = None) -> None:
        if n < 0:
            raise ValueError("qubit count must be nonnegative")
        self.n = n
        self.amps = {} if amps is None else amps

    @classmethod
    def basis_state(cls, n: int, key: int = 0) -> "SparseState":
        if key < 0 or key >> n:
            raise ValueError(f"key 0x{key:x} does not fit in {n} qubits")
        return cls(n, {key: 1.0 + 0.0j})

    def copy(self) -> "SparseState":
        return SparseState(self.n, dict(self.amps))

    def norm_sq(self) -> float:
        return sum((a * a.conjugate()).real for a in self.amps.values())

    def amplitude(self, key: int) -> complex:
        return self.amps.get(key, 0.0 + 0.0j)

    def prune(self) -> "SparseState":
        self.amps = {k: a for k, a in self.amps.items() if abs(a) > PRUNE_EPS}
        return self

    def normalize(self) -> "SparseState":
        norm = math.sqrt(self.norm_sq())
        if norm == 0.0:
            raise ValueError("cannot normalize a zero state")
        scale = 1.0 / norm
        self.amps = {k: a * scale for k, a in self.amps.items()}
        return self

    def support_size(self) -> int:
        return len(self.amps)

    def __repr__(self) -> str:
        return f"SparseState(n={self.n}, support={len(self.amps)})"


def _walsh_hadamard(coeffs: list) -> list:
    """The unnormalised Walsh-Hadamard transform, in place: entry y becomes
    the sum over x of (-1)^(x.y) coeffs[x].  The length is a power of two."""
    half = 1
    while half < len(coeffs):
        for start in range(0, len(coeffs), 2 * half):
            for i in range(start, start + half):
                u, v = coeffs[i], coeffs[i + half]
                coeffs[i], coeffs[i + half] = u + v, u - v
        half *= 2
    return coeffs


def _transversal_h(state: SparseState) -> SparseState:
    """H on every qubit in one pass, exact for any sparse state.

    With the support inside k0 + span(B), B a reduced basis of rank r,
    each amplitude sits at its span coordinate c (the pivot bits of
    k ^ k0).  The image amplitude at j is 2^(-n/2) (-1)^(k0.j) W(y), where
    W is the length-2^r Walsh-Hadamard transform of the coordinates and
    y_i = B_i.j; so each nonzero W(y) fills the coset {j : B.j = y} of
    the span's dual: y_i at pivot i, plus one vector per free column.
    """
    n = state.n
    if not state.amps:
        return SparseState(n)
    k0 = next(iter(state.amps))
    diffs = [k ^ k0 for k in state.amps]
    basis, pivots = _rref_ints(diffs)
    _check_rank("support span", len(basis))
    _check_rank("dual coset", n - len(basis))
    units = [1 << p for p in pivots]
    coeffs = [0j] * (1 << len(basis))
    for d, a in zip(diffs, state.amps.values()):
        coeffs[_parities(units, d)] = a
    _walsh_hadamard(coeffs)
    scale = 2.0 ** (-n / 2)
    kernel = _kernel_ints(pivots, basis, n)
    out: dict[int, complex] = {}
    for y, w in enumerate(coeffs):
        amp = w * scale
        if abs(amp) <= PRUNE_EPS:
            continue
        for j in _enumerate_span_ints(kernel, _xor_rows(units, y)):
            out[j] = -amp if (k0 & j).bit_count() & 1 else amp
    return SparseState(n, out)


def superpose(terms: Sequence[tuple[complex, SparseState]]) -> SparseState:
    """Linear combination of same-width states, normalized."""
    if not terms:
        raise ValueError("need at least one term")
    n = terms[0][1].n
    out: dict[int, complex] = {}
    for coeff, st in terms:
        if st.n != n:
            raise ValueError("states have mismatched qubit counts")
        for k, a in st.amps.items():
            out[k] = out.get(k, 0.0) + coeff * a
    return SparseState(n, out).prune().normalize()


def _sample_outcome(probs: dict[int, float], rng, force: Optional[int]) -> int:
    """Pick an outcome of an unnormalized distribution.

    The walk goes over the outcomes in sorted order, so a given rng stream
    always selects the same branch.  ``force`` selects a branch explicitly
    and raises if its probability is negligible.
    """
    if force is not None:
        if probs.get(force, 0.0) <= NORM_TOL:
            raise ValueError(f"forced outcome {force:#x} has negligible probability")
        return force
    if rng is None:
        raise ValueError("measurement needs an rng (or a forced outcome)")
    r = rng.random()
    acc = 0.0
    for key in sorted(probs):
        acc += probs[key]
        if r < acc:
            return key
    return max(probs)


def states_equal_up_to_global_phase(a: SparseState, b: SparseState, tol: float = NORM_TOL) -> bool:
    """Whether two states agree up to one overall complex phase."""
    if a.n != b.n:
        return False
    ref_key = None
    ref_mag = tol
    for k, amp in a.amps.items():
        mag = abs(amp)
        if mag > ref_mag:
            ref_key, ref_mag = k, mag
    if ref_key is None:
        return all(abs(amp) <= tol for amp in b.amps.values())
    phase = b.amplitude(ref_key) / a.amplitude(ref_key)
    if abs(abs(phase) - 1.0) > tol:
        return False
    for k in a.amps.keys() | b.amps.keys():
        if abs(b.amplitude(k) - phase * a.amplitude(k)) > tol:
            return False
    return True


LabelLike = Union[int, Sequence[int], "LogicalBasisLabel"]


@dataclass(frozen=True)
class LogicalBasisLabel:
    """Which logical basis state to prepare: one bit per logical qubit,
    plus optional gauge bits selecting a gauge-space coset."""

    bits: tuple[int, ...]
    gauge_bits: tuple[int, ...] = ()

    @classmethod
    def of(cls, bits: LabelLike, gauge_bits: Sequence[int] = ()) -> "LogicalBasisLabel":
        if isinstance(bits, LogicalBasisLabel):
            return bits
        if isinstance(bits, int):
            bits = (bits,)
        bits, gauge_bits = tuple(int(b) for b in bits), tuple(int(b) for b in gauge_bits)
        for b in bits + gauge_bits:
            if b not in (0, 1):
                raise ValueError(f"label bit {b} is not 0 or 1")
        return cls(bits, gauge_bits)


def prepare_logical(code: TriorthogonalCode, label: LabelLike) -> SparseState:
    """Uniform superposition over the coset selecting the given logical
    (and gauge) basis state."""
    lab = LogicalBasisLabel.of(label)
    if len(lab.bits) != code.k:
        raise ValueError(f"label has {len(lab.bits)} bits for a code with k={code.k}")
    if lab.gauge_bits and len(lab.gauge_bits) != len(code.gauge_pairs):
        raise ValueError(
            f"label has {len(lab.gauge_bits)} gauge bits for {len(code.gauge_pairs)} pairs"
        )
    # Logical rows then gauge X parts, selected by the label and gauge bits.
    rows = [v.value for v in code.logical_x] + [pair.x_part.value for pair in code.gauge_pairs]
    shift = _xor_rows(rows, sum(b << i for i, b in enumerate(lab.bits + lab.gauge_bits)))
    return _uniform_coset(code.n, code.g0_basis.row_values(), shift)


def prepare_plus_all(code: TriorthogonalCode) -> SparseState:
    """Encoded |+> on every logical qubit, gauge bits zero: the uniform
    superposition over the full matrix row space."""
    basis = code.g0_basis.row_values() + [v.value for v in code.logical_x]
    return _uniform_coset(code.n, basis, 0)


def _uniform_coset(n: int, basis: list[int], shift: int) -> SparseState:
    _check_rank("coset", len(basis))
    amp = complex(2.0 ** (-len(basis) / 2.0))
    return SparseState(n, {v: amp for v in _enumerate_span_ints(basis, shift)})


@dataclass(frozen=True)
class PhaseCheckResult:
    """Outcome of a transversal diagonal-gate phase check.

    ``phase`` is the common sign picked up by every basis term (only
    meaningful when ``uniform``), ``expected`` the sign demanded by the
    corresponding logical gate, and ``terms`` the number of basis-triple
    combinations inspected.
    """

    phase: int
    expected: int
    uniform: bool
    terms: int

    @property
    def matches(self) -> bool:
        return self.uniform and self.phase == self.expected


def transversal_multi_cz_phase_check(
    code: TriorthogonalCode, labels: Sequence[LabelLike]
) -> PhaseCheckResult:
    """Verify that h-qubit controlled-Z applied on every site across h code
    blocks acts as the logical h-qubit controlled-Z on basis states.

    Each block is prepared in a logical basis state; the transversal gate
    multiplies each joint basis term by the parity of the common support of
    the h coset representatives.  The check passes when that parity is the
    same for every term and equals the logical phase, the product of the
    label bits summed across logical qubits.  A label's gauge bits select
    its block's gauge sector, and a nonzero sector is checked as given:
    there the transversal gate need not act as the logical one.
    """
    h = len(labels)
    if h < 2:
        raise ValueError("need at least two blocks")
    if code.source.level < h:
        raise ValueError(f"code has level {code.source.level}, below h={h}")
    rank0 = code.g0_basis.row_count
    _check_rank("phase check", h * rank0)

    labs = [LogicalBasisLabel.of(lab) for lab in labels]
    # Preparing the cosets first rejects a label of the wrong length.
    cosets = [list(prepare_logical(code, lab).amps) for lab in labs]
    expected_parity = 0
    for i in range(code.k):
        product = 1
        for lab in labs:
            product &= lab.bits[i]
        expected_parity ^= product
    expected = -1 if expected_parity else 1

    # Each joint term picks up the parity of the blocks' common support;
    # the walk ANDs each prefix of the first h - 1 blocks once, runs over
    # the last block, and stops at the first term whose parity differs
    # from the first.
    *head, last = cosets
    prefixes = (functools.reduce(operator.and_, term) for term in itertools.product(*head))
    parities = ((prefix & v).bit_count() & 1 for prefix in prefixes for v in last)
    first = next(parities)
    terms, uniform = 1, True
    for parity in parities:
        terms += 1
        if parity != first:
            uniform = False
            break
    phase = -1 if first else 1
    return PhaseCheckResult(phase=phase, expected=expected, uniform=uniform, terms=terms)


def transversal_ccz_phase_check(
    code: TriorthogonalCode, labels: Sequence[LabelLike]
) -> PhaseCheckResult:
    """Specialization of the multi-CZ check to three blocks under CCZ."""
    if len(labels) != 3:
        raise ValueError("CCZ check takes exactly three labels")
    return transversal_multi_cz_phase_check(code, labels)
