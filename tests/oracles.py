"""Reference implementations kept only as test oracles.

The joint-state helpers (``tensor``, ``measure_register``,
``drop_qubits``) build, measure and relabel a full multi-register state;
the package's Steane round works from the data support instead, and the
tests compare it against a round through these.  ``toffoli_resource_state``
and ``ccz_via_toffoli_state`` teleport CCZ through a Toffoli state, the
injection route the package does not take (its CCZ is transversal).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from triortho.simulator import (
    SparseState,
    _check_qubits,
    _gather,
    _sample_outcome,
    apply_gate,
)


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Tensor product; ``b``'s qubits are placed above ``a``'s."""
    shift = a.n
    out: dict[int, complex] = {}
    for kb, ab in b.amps.items():
        high = kb << shift
        for ka, aa in a.amps.items():
            out[high | ka] = aa * ab
    return SparseState(a.n + b.n, out)


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
