"""Logical-level procedures: measurement-based Hadamard, Steane-style X
correction, and a fault-injection sweep over X faults and measurement
flips.

The Hadamard procedure applies transversal H to the data block, entangles
it into a freshly encoded all-plus ancilla block with transversal CNOT,
measures every ancilla qubit in Z, and classically decodes the outcome
string: an X-stabilizer syndrome fixes X errors, and the remaining parity
information restores the gauge configuration to the all-zero reference.
Gauge parities are read from the corrected outcome string; reading them
from the raw string would let a single measurement flip corrupt the
restored gauge.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import TriorthogonalCode
from .gf2 import (
    BitVector,
    _check_rank,
    _eliminate_ints,
    _enumerate_span_ints,
    _parities,
    _particular_ints,
    _rref_ints,
    _xor_rows,
)
from .simulator import (
    LabelLike,
    LogicalBasisLabel,
    SparseState,
    _sample_outcome,
    _transversal_h,
    _walsh_hadamard,
    prepare_logical,
    prepare_plus_all,
    superpose,
)

__all__ = [
    "FAULT_LOCATIONS",
    "FaultSpec",
    "SteaneReport",
    "logical_hadamard",
    "steane_x_correct",
    "PauliResidual",
    "pauli_residual",
    "gauge_parities_of_state",
    "SweepCounterexample",
    "SweepReport",
    "fault_tolerance_sweep",
]

FAULT_LOCATIONS = (
    "data_pre_h",
    "data_post_h",
    "ancilla",
    "cnot_data",
    "cnot_ancilla",
    "cnot_both",
    "measurement",
)

_PAULI_BY_LOCATION = {
    "data_pre_h": ("X", "Z"),
    "data_post_h": ("X", "Z"),
    "ancilla": ("X", "Z"),
    "cnot_data": ("X",),
    "cnot_ancilla": ("X",),
    "cnot_both": ("X",),
    "measurement": ("FLIP",),
}

_RESIDUAL_TOL = 1e-9  # pauli_residual's tolerance on |amplitude ratio| = 1 and on signs
# Below ENUMERATION_GUARD: the null space is walked once for each X shift that passes.
_RESIDUAL_GUARD = 20


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault at a named circuit site.

    CNOT sites place an X on the data leg, the ancilla leg, or both, after
    the gate.  Measurement faults flip the recorded classical bit.
    """

    location: str
    pauli: str
    qubit: int

    def validate(self, n: int) -> None:
        if self.location not in FAULT_LOCATIONS:
            raise ValueError(f"unknown fault location {self.location!r}")
        if self.pauli not in _PAULI_BY_LOCATION[self.location]:
            raise ValueError(f"pauli {self.pauli!r} not valid at {self.location!r}")
        if not 0 <= self.qubit < n:
            raise ValueError(f"fault qubit {self.qubit} out of range for {n} qubits")


@dataclass(frozen=True)
class SteaneReport:
    """Classical record of one measurement-based correction round.

    ``applied_correction`` is the minimum-weight X pattern consistent with
    ``x_syndrome``; when gauge parities are nonzero the corresponding gauge
    X supports are applied to the data in addition to it.
    ``decode_success`` is always true: ``decode_x`` returns a pattern or
    raises.  The field stays for the report format.
    """

    raw_outcomes: BitVector
    x_syndrome: tuple[int, ...]
    gauge_parities: tuple[int, ...]
    applied_correction: BitVector
    decode_success: bool

    def to_json_dict(self) -> dict:
        return {
            "raw_outcomes": self.raw_outcomes.to_string(),
            "x_syndrome": list(self.x_syndrome),
            "gauge_parities": list(self.gauge_parities),
            "applied_correction": self.applied_correction.to_string(),
            "decode_success": self.decode_success,
        }


def _apply_pauli(state: SparseState, x: int, z: int) -> SparseState:
    # X on the bits of ``x`` after Z on the bits of ``z``, in one pass.
    if not x and not z:
        return state
    return SparseState(
        state.n,
        {k ^ x: -a if (k & z).bit_count() & 1 else a for k, a in state.amps.items()},
    )


def _steane_round(
    state: SparseState,
    code: TriorthogonalCode,
    faults: Sequence[FaultSpec],
    rng,
    force_outcomes: Optional[int],
) -> tuple[SparseState, SteaneReport]:
    # One correction round on the data block as it stands after any
    # transversal H.  Faults fold into one X and one Z mask per location, a
    # measurement FLIP counting as X; a data_pre_h Pauli enters as the
    # swapped Pauli after the H (HX = ZH, HZ = XH).
    n = code.n
    if state.n != n:
        raise ValueError(f"state has {state.n} qubits, code has {n}")
    x = dict.fromkeys(FAULT_LOCATIONS, 0)
    z = dict.fromkeys(FAULT_LOCATIONS, 0)
    for f in faults:
        f.validate(n)
        (z if f.pauli == "Z" else x)[f.location] ^= 1 << f.qubit

    data = _apply_pauli(
        state, x["data_post_h"] ^ z["data_pre_h"], z["data_post_h"] ^ x["data_pre_h"]
    )
    ancilla = _apply_pauli(prepare_plus_all(code), x["ancilla"], z["ancilla"])
    # Transversal CNOT, data controlling ancilla, then the X faults after
    # it: the register reads m = a ^ d ^ flip_a and the data d ^ flip_d.
    # The ancilla is uniform in magnitude over x_anc + S, S its row span,
    # so an outcome's probability is |a|^2 times the data weight on the
    # outcome's coset of S.  The weights sum in data order, so a seeded
    # draw picks a joint-state measurement's branch unless it lands within
    # a few ulps of a cumulative boundary.
    flip_d = x["cnot_data"] ^ x["cnot_both"]
    flip_a = x["cnot_ancilla"] ^ x["cnot_both"]
    span, pivots = _rref_ints(code.g0_basis.row_values() + [v.value for v in code.logical_x], n)
    weights: dict[int, float] = {}
    for kd, ad in data.amps.items():
        rep = kd ^ x["ancilla"] ^ flip_a
        for row, pivot in zip(span, pivots):
            if rep >> pivot & 1:
                rep ^= row
        weights[rep] = weights.get(rep, 0.0) + (ad * ad.conjugate()).real
    a0 = next(iter(ancilla.amps.values()))
    a_sq = (a0 * a0.conjugate()).real
    probs = {m: w * a_sq for rep, w in weights.items() for m in _enumerate_span_ints(span, rep)}
    outcome = _sample_outcome(probs, rng, force_outcomes)
    # Each ancilla key meets at most one data key on the measured branch.
    # Its norm sums again in the product state's order (ancilla keys
    # outer), so the kept amplitudes match a joint-state measurement's bit
    # for bit.
    kept = {}
    norm_sq = 0.0
    for ka, aa in ancilla.amps.items():
        kd = outcome ^ ka ^ flip_a
        ad = data.amps.get(kd)
        if ad is not None:
            p = ad * aa
            norm_sq += (p * p.conjugate()).real
            kept[kd ^ flip_d] = p
    scale = 1.0 / math.sqrt(norm_sq)
    data = SparseState(n, {k: p * scale for k, p in kept.items()})

    recorded = outcome ^ x["measurement"]
    syndrome_int = code.x_syndrome_of(recorded)
    correction = code.decode_x(syndrome_int)
    corrected = recorded ^ correction.value

    # Gauge parities of the corrected string; each odd one applies its X part.
    pairs = code.gauge_pairs
    gauge = _parities([pair.z_part.value for pair in pairs], corrected)
    x_parts = [pair.x_part.value for pair in pairs]
    data = _apply_pauli(data, correction.value ^ _xor_rows(x_parts, gauge), 0)

    return data, SteaneReport(
        raw_outcomes=BitVector(recorded, n),
        x_syndrome=tuple((syndrome_int >> j) & 1 for j in range(code.g0_basis.row_count)),
        gauge_parities=tuple((gauge >> i) & 1 for i in range(len(pairs))),
        applied_correction=correction,
        decode_success=True,
    )


def logical_hadamard(
    state: SparseState,
    code: TriorthogonalCode,
    faults: Sequence[FaultSpec] = (),
    rng=None,
    force_outcomes: Optional[int] = None,
) -> tuple[SparseState, SteaneReport]:
    """Apply the logical Hadamard to every logical qubit of a data block.

    Transversal H, then one Steane-style measurement round against a fresh
    all-plus ancilla block.  The returned state lives on a fresh code block
    with gauge parities restored to zero; up to the injected faults it
    equals the logical Hadamard image of the input on every measurement
    branch.
    """
    if state.n != code.n:
        raise ValueError(f"state has {state.n} qubits, code has {code.n}")
    return _steane_round(_transversal_h(state), code, faults, rng, force_outcomes)


def steane_x_correct(
    state: SparseState,
    code: TriorthogonalCode,
    faults: Sequence[FaultSpec] = (),
    rng=None,
    force_outcomes: Optional[int] = None,
) -> tuple[SparseState, SteaneReport]:
    """One X-error correction round: the Hadamard procedure without the
    initial transversal H.  Logical amplitudes are untouched."""
    if any(f.location == "data_pre_h" for f in faults):
        raise ValueError("data_pre_h faults only exist in the Hadamard procedure")
    return _steane_round(state, code, faults, rng, force_outcomes)


@dataclass(frozen=True)
class PauliResidual:
    """The cheapest Pauli explaining observed-vs-ideal, up to stabilizers.

    ``sites`` counts qubits touched by the X and/or Z parts after
    minimizing over all equivalent stabilizer representatives."""

    sites: int
    x_pattern: BitVector
    z_pattern: BitVector


def pauli_residual(observed: SparseState, ideal: SparseState) -> Optional[PauliResidual]:
    """Find the minimum-site Pauli P with observed = P * ideal, up to a
    global phase.  Returns None when no Pauli relates the two states.

    X shifts mapping the ideal support onto the observed support are tried
    lightest first, until a shift alone touches more sites than the best
    Pauli found.  For each, the sign pattern is solved as a linear system
    whose full solution space (particular solution plus null space of the
    support differences) is enumerated to minimize the touched-site count.
    Ties go to the smallest ``(sites, x, z)`` with the patterns compared as
    integers, so the representative does not depend on the null-space
    basis.
    """
    if observed.n != ideal.n:
        return None
    if len(observed.amps) != len(ideal.amps) or not ideal.amps:
        return None
    n = ideal.n
    obs_keys = set(observed.amps)
    ideal_keys = sorted(ideal.amps)
    k_out = min(obs_keys)
    k0 = ideal_keys[0]
    # The constraint rows t . (k ^ k0) are the same for every X shift, so
    # they are reduced once and each shift only supplies a right-hand side.
    rows, checks, null_basis = _eliminate_ints([k ^ k0 for k in ideal_keys[1:]], n)
    best: Optional[tuple[int, int, int]] = None

    # Every candidate from shift r touches at least |r| sites, so shifts go
    # lightest first and the search stops past the best site count.
    for r in sorted((k_out ^ k for k in ideal_keys), key=lambda v: (v.bit_count(), v)):
        if best is not None and r.bit_count() > best[0]:
            break
        if any((k ^ r) not in obs_keys for k in ideal_keys):
            continue
        rho0 = observed.amps[k0 ^ r] / ideal.amps[k0]
        if abs(abs(rho0) - 1.0) > _RESIDUAL_TOL:
            continue
        # Bit i of rhs: the sign of the i-th constraint over GF(2).
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
            _check_rank("residual null space", len(null_basis), _RESIDUAL_GUARD)
            for t in _enumerate_span_ints(null_basis, t0):
                sites = (r | t).bit_count()
                if best is None or sites <= best[0] and (sites, r, t) < best:
                    best = (sites, r, t)
    if best is None:
        return None
    return PauliResidual(
        sites=best[0],
        x_pattern=BitVector(best[1], n),
        z_pattern=BitVector(best[2], n),
    )


def gauge_parities_of_state(
    state: SparseState, code: TriorthogonalCode
) -> Optional[tuple[int, ...]]:
    """Gauge parities of a state supported on X-stabilizer cosets.

    Each gauge Z support must have constant overlap parity across the whole
    support; returns None when some parity is indefinite."""
    z_parts = [pair.z_part.value for pair in code.gauge_pairs]
    seen = {_parities(z_parts, k) for k in state.amps} or {0}
    if len(seen) > 1:
        return None
    parities = seen.pop()
    return tuple((parities >> i) & 1 for i in range(len(z_parts)))


@dataclass(frozen=True)
class SweepCounterexample:
    faults: tuple[FaultSpec, ...]
    residual_sites: Optional[int]


@dataclass(frozen=True)
class SweepReport:
    weight_limit: int
    cases_run: int
    counterexamples: tuple[SweepCounterexample, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _label_bits(index: int, k: int) -> tuple[int, ...]:
    return tuple((index >> i) & 1 for i in range(k))


def _basis_coefficients(bits: Sequence[int]) -> list[complex]:
    """The coefficient vector of one logical basis label."""
    index = sum(b << i for i, b in enumerate(bits))
    return [complex(x == index) for x in range(1 << len(bits))]


def _hadamard_pair(
    code: TriorthogonalCode, coeffs: Sequence[complex], gauge_bits: Sequence[int] = ()
) -> tuple[SparseState, SparseState]:
    """A data state and its ideal logical Hadamard image.

    ``coeffs[x]`` is the amplitude of logical label x, bit i of x the value
    of logical qubit i.  The state is the normalised sum of c_x |x>, on the
    gauge sector ``gauge_bits``; with one nonzero coefficient it is that
    label's ``prepare_logical`` state, up to a global phase.  The image is
    the normalised sum over y of (sum_x c_x (-1)^(x.y)) |y>, on gauge zero,
    the sector a correction round restores.
    """
    if len(coeffs) != 1 << code.k:
        raise ValueError(f"{len(coeffs)} coefficients for 2**{code.k} logical labels")
    walsh = _walsh_hadamard(list(coeffs))
    pair = []
    for amps, gauge in ((coeffs, gauge_bits), (walsh, ())):
        terms = [
            (c, prepare_logical(code, LogicalBasisLabel.of(_label_bits(x, code.k), gauge)))
            for x, c in enumerate(amps)
            if c
        ]
        pair.append(terms[0][1] if len(terms) == 1 else superpose(terms))
    return pair[0], pair[1]


def _generic_logical_state(code: TriorthogonalCode) -> tuple[SparseState, SparseState]:
    """A fixed superposition over all logical labels and its Hadamard image.

    Amplitudes (j+1) * i^j give every label a distinct magnitude and phase,
    so no logical Pauli leaves the state invariant.  An eigenstate input
    would hide its own eigenoperator: |+...+> absorbs any logical X, making
    weight-2 logical damage look like a clean round.
    """
    return _hadamard_pair(code, [complex(j + 1) * (1j**j) for j in range(1 << code.k)])


def _fault_universe(n: int) -> list[FaultSpec]:
    # Each location's first Pauli (X, or a measurement FLIP), qubit by qubit.
    return [
        FaultSpec(loc, _PAULI_BY_LOCATION[loc][0], q) for q in range(n) for loc in FAULT_LOCATIONS
    ]


def fault_tolerance_sweep(
    code: TriorthogonalCode,
    weight_limit: int,
    input_label: Optional[LabelLike] = None,
    seed: int = 0,
) -> SweepReport:
    """Inject every set of up to ``weight_limit`` faults from
    ``_fault_universe`` into the Hadamard procedure and compare each output
    against the ideal image.  That universe holds X faults and measurement
    flips, 7n faults, but no Z fault; ``TestSingleZFaults`` in
    ``tests/test_logical.py`` checks single Z faults.

    A case passes when the output equals the ideal up to a Pauli touching
    at most as many sites as there were injected faults.  With the default
    input (a fixed generic superposition, no logical eigenoperators) a pass
    also certifies that no logical damage occurred; an explicit basis
    ``input_label`` checks that one state but cannot see its own
    eigenoperators.  Single faults must always pass for a distance-3 code;
    at weight two, counterexamples are reported rather than asserted away.
    """
    if weight_limit < 1:
        raise ValueError(f"weight_limit must be at least 1, got {weight_limit}")
    if input_label is None:
        data, ideal = _generic_logical_state(code)
    else:
        label = LogicalBasisLabel.of(input_label)
        data, ideal = _hadamard_pair(code, _basis_coefficients(label.bits), label.gauge_bits)
    data = _transversal_h(data)
    rng = random.Random(seed)
    universe = _fault_universe(code.n)
    counterexamples = []
    cases = 0
    for w in range(1, weight_limit + 1):
        for combo in itertools.combinations(universe, w):
            cases += 1
            output, _report = _steane_round(data, code, combo, rng, None)
            residual = pauli_residual(output, ideal)
            if residual is None:
                counterexamples.append(SweepCounterexample(tuple(combo), None))
            elif residual.sites > w:
                counterexamples.append(SweepCounterexample(tuple(combo), residual.sites))
    return SweepReport(
        weight_limit=weight_limit,
        cases_run=cases,
        counterexamples=tuple(counterexamples),
    )
