"""Reference implementations kept only as test oracles.

``apply_gate`` applies one gate from {X, Z, H, CNOT, CZ, CCZ} at a time:
it is the gate-by-gate reference for the package's one-pass
``_transversal_h`` and for the transversal CCZ phase check.  The
joint-state helpers (``tensor``, ``measure_register``, ``drop_qubits``)
build, measure and relabel a full multi-register state, reading registers
through ``_gather``; the package's Steane round works from the data
support instead, and the tests compare it against a round through these.
``toffoli_resource_state`` and ``ccz_via_toffoli_state`` teleport CCZ
through a Toffoli state, the injection route the package does not take
(its CCZ is transversal).
``_build_decoder`` is the breadth-first syndrome table that
``TriorthogonalCode.decode_x`` once read; the package now searches one
syndrome's lightest support instead, and the tests compare the two.
``rref_by_column_scan`` is the column-by-column RREF that ``_rref_ints``
once ran; the package now builds it on the lowest-bit echelon, and the
tests compare the two.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from triortho.gf2 import _transpose_ints
from triortho.simulator import SparseState, _sample_outcome

GATE_ARITY = {"X": 1, "Z": 1, "H": 1, "CNOT": 2, "CZ": 2, "CCZ": 3}

_SQRT_HALF = math.sqrt(0.5)

_DECODER_LIMIT = 20  # the decoder table holds at most 2**_DECODER_LIMIT syndromes


def _check_qubits(state: SparseState, qubits: Sequence[int]) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubits must be distinct, got {tuple(qubits)}")
    for q in qubits:
        if not 0 <= q < state.n:
            raise ValueError(f"qubit {q} out of range for {state.n} qubits")


def apply_gate(state: SparseState, gate: str, qubits: Sequence[int]) -> SparseState:
    """Apply one gate from {X, Z, H, CNOT, CZ, CCZ}, returning a new state.

    CNOT's first qubit is the control.  Diagonal gates never change the
    support; X and CNOT permute it; H at most doubles it.
    """
    arity = GATE_ARITY.get(gate)
    if arity is None:
        raise ValueError(f"unknown gate {gate!r}")
    if len(qubits) != arity:
        raise ValueError(f"{gate} takes {arity} qubit(s), got {len(qubits)}")
    _check_qubits(state, qubits)
    amps = state.amps
    if gate == "H":
        mask = 1 << qubits[0]
        out: dict[int, complex] = {}
        for k, a in amps.items():
            lo = k & ~mask
            hi = k | mask
            contrib = a * _SQRT_HALF
            out[lo] = out.get(lo, 0.0) + contrib
            out[hi] = out.get(hi, 0.0) + (-contrib if k & mask else contrib)
        return SparseState(state.n, out).prune()
    if gate in ("X", "CNOT"):
        # Flip the last listed qubit where every earlier one is set.
        controls = sum(1 << q for q in qubits[:-1])
        target = 1 << qubits[-1]
        flipped = {(k ^ target if (k & controls) == controls else k): a for k, a in amps.items()}
        return SparseState(state.n, flipped)
    # Z, CZ, CCZ: negate where every listed qubit is set.
    mask = sum(1 << q for q in qubits)
    return SparseState(state.n, {k: -a if (k & mask) == mask else a for k, a in amps.items()})


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Tensor product; ``b``'s qubits are placed above ``a``'s."""
    shift = a.n
    out: dict[int, complex] = {}
    for kb, ab in b.amps.items():
        high = kb << shift
        for ka, aa in a.amps.items():
            out[high | ka] = aa * ab
    return SparseState(a.n + b.n, out)


def _gather(keys: Sequence[int], qubits: Sequence[int]) -> list[int]:
    """Bit ``i`` of each result is the key's bit at ``qubits[i]``.

    Each maximal run of consecutive qubits is read with one shift and mask,
    so a contiguous register costs one shift and mask per key.
    """
    values = [0] * len(keys)
    start = 0
    for i in range(1, len(qubits) + 1):
        if i == len(qubits) or qubits[i] != qubits[i - 1] + 1:
            low, mask = qubits[start], (1 << (i - start)) - 1
            values = [v | ((k >> low) & mask) << start for v, k in zip(values, keys)]
            start = i
    return values


def drop_qubits(state: SparseState, qubits: Sequence[int]) -> SparseState:
    """Remove qubits whose value is constant across the support.

    This is a relabeling, not a measurement; it raises if the dropped
    qubits actually vary.
    """
    _check_qubits(state, qubits)
    drop = set(qubits)
    keys = list(state.amps)
    if len(set(_gather(keys, sorted(drop)))) > 1:
        raise ValueError("dropped qubits vary across the support")
    keep = [q for q in range(state.n) if q not in drop]
    return SparseState(len(keep), dict(zip(_gather(keys, keep), state.amps.values())))


def measure_register(
    state: SparseState,
    qubits: Sequence[int],
    rng=None,
    force: Optional[int] = None,
) -> tuple[int, SparseState]:
    """Jointly measure several qubits in the Z basis; outcome bit ``i`` is
    the value of ``qubits[i]``.

    Sampling walks the outcome distribution in sorted key order so a given
    rng stream always selects the same branch.  ``force`` selects a branch
    explicitly and raises if its probability is negligible.
    """
    _check_qubits(state, qubits)
    values = _gather(list(state.amps), qubits)
    probs: dict[int, float] = {}
    for value, a in zip(values, state.amps.values()):
        probs[value] = probs.get(value, 0.0) + (a * a.conjugate()).real
    outcome = _sample_outcome(probs, rng, force)
    scale = 1.0 / math.sqrt(probs[outcome])
    out = {
        k: a * scale
        for (k, a), value in zip(state.amps.items(), values)
        if value == outcome
    }
    return outcome, SparseState(state.n, out)


def toffoli_resource_state() -> SparseState:
    """The three-qubit resource state for gate teleportation: a Toffoli
    applied to |+,+,0>, with qubit 2 the target."""
    state = SparseState.basis_state(3, 0)
    for q in (0, 1, 2):
        state = apply_gate(state, "H", (q,))
    state = apply_gate(state, "CCZ", (0, 1, 2))
    state = apply_gate(state, "H", (2,))
    return state


def ccz_via_toffoli_state(
    inputs: SparseState,
    resource: SparseState,
    rng=None,
    force_outcomes: Optional[int] = None,
) -> tuple[SparseState, tuple[int, int, int]]:
    """Perform CCZ on a three-qubit input by consuming a Toffoli state.

    Hadamard on the resource target turns it into the CCZ magic state; each
    resource qubit then controls a CNOT into the matching input qubit, the
    inputs are measured out, and the outcome-dependent X, CZ, and Z
    corrections are applied.  Returns the output state (on the resource
    qubits) and the three measurement outcomes.
    """
    if inputs.n != 3 or resource.n != 3:
        raise ValueError("inputs and resource must each be three qubits")
    joint = tensor(inputs, resource)
    joint = apply_gate(joint, "H", (5,))
    for i in range(3):
        joint = apply_gate(joint, "CNOT", (3 + i, i))
    outcome, collapsed = measure_register(joint, (0, 1, 2), rng=rng, force=force_outcomes)
    out = drop_qubits(collapsed, (0, 1, 2))
    s = tuple((outcome >> i) & 1 for i in range(3))
    for i in range(3):
        if s[i]:
            out = apply_gate(out, "X", (i,))
    others = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        if s[i]:
            out = apply_gate(out, "CZ", others[i])
    for i, j, target in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if s[i] and s[j]:
            out = apply_gate(out, "Z", (target,))
    return out, (s[0], s[1], s[2])


def _build_decoder(g0_rows: list[int], n: int) -> dict[int, int]:
    """Map every syndrome to a minimum-weight X pattern.

    Breadth-first from syndrome 0, flipping one qubit per step in ascending
    order, so the first pattern reaching a syndrome has minimum weight.  The
    rows are independent, so all ``2**len(g0_rows)`` syndromes are reached.
    """
    if len(g0_rows) > _DECODER_LIMIT:
        raise ValueError(
            f"decoder table needs 2**{len(g0_rows)} syndromes, above the limit "
            f"2**{_DECODER_LIMIT}"
        )
    columns = _transpose_ints(g0_rows, n)
    table = {0: 0}
    queue = [0]
    for syndrome in queue:
        pattern = table[syndrome]
        for q, column in enumerate(columns):
            if syndrome ^ column not in table:
                table[syndrome ^ column] = pattern ^ 1 << q
                queue.append(syndrome ^ column)
    return table


def rref_by_column_scan(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form by scanning the ``n`` columns in order.

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
