"""Reference computations made apart from triortho.

Everything here works from matrix row strings (leftmost character is qubit
0) with its own GF(2) arithmetic and its own probability model, so the
checks in ``workloads`` do not trust the code they measure.  Only the
standard library and numpy are used.
"""

from __future__ import annotations

import math

import numpy as np


def row_ints(rows):
    """Row strings to ints, bit ``i`` holding column ``i``."""
    return [sum(1 << i for i, ch in enumerate(row) if ch == "1") for row in rows]


def permute_rows(rows, perm):
    """Move column ``j`` of every row string to column ``perm[j]``."""
    out = []
    for row in rows:
        cols = ["0"] * len(row)
        for j, ch in enumerate(row):
            cols[perm[j]] = ch
        out.append("".join(cols))
    return out


def direct_sum(rows, copies):
    """Block-diagonal sum of ``copies`` copies of a row-string matrix."""
    n = len(rows[0])
    width = n * copies
    return [
        "0" * (n * b) + row + "0" * (width - n * (b + 1))
        for b in range(copies)
        for row in rows
    ]


def split_parity(rows):
    ints = row_ints(rows)
    even = [r for r in ints if r.bit_count() % 2 == 0]
    odd = [r for r in ints if r.bit_count() % 2 == 1]
    return even, odd


def span(rows):
    """Every element of the GF(2) span of ``rows`` (any rows, dependent or not)."""
    elements = {0}
    for r in rows:
        elements |= {e ^ r for e in elements}
    return elements


# --- Hadamard -------------------------------------------------------------


def encoded_hadamard_image(rows, alpha, beta):
    """The encoded (a+b)/sqrt2 |0> + (a-b)/sqrt2 |1> of a one-logical-qubit
    code: |0> is the uniform superposition over the even-row span and |1>
    its shift by the odd row.  ``alpha`` and ``beta`` must be normalized."""
    even, odd = split_parity(rows)
    if len(odd) != 1:
        raise ValueError("the Hadamard reference needs exactly one odd row")
    zero = span(even)
    scale = 1.0 / math.sqrt(len(zero))
    a0 = (alpha + beta) / math.sqrt(2.0) * scale
    a1 = (alpha - beta) / math.sqrt(2.0) * scale
    state = {x: complex(a0) for x in zero}
    state.update({x ^ odd[0]: complex(a1) for x in zero})
    return state


def equal_up_to_phase(observed: dict, ideal: dict, tol: float) -> bool:
    """Whether two key->amplitude maps agree up to one global phase."""
    ref = max(ideal, key=lambda k: abs(ideal[k]))
    if ref not in observed:
        return False
    phase = observed[ref] / ideal[ref]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return all(
        abs(observed.get(k, 0.0) - phase * ideal.get(k, 0.0)) <= tol
        for k in observed.keys() | ideal.keys()
    )


# --- distillation -----------------------------------------------------------

CLASSES = range(1, 8)


def _hit_blocks(cls):
    # Which of the three CCZ blocks a nonempty class touches.  Any fixed
    # labelling gives the same counts, because the blocks are alike.
    return [b for b in range(3) if (cls >> b) & 1]


def _site_signatures(even, odd, n):
    """Per (site, class): (syndrome bits, logical bits) over the 3 blocks."""
    r_even, r_odd = len(even), len(odd)
    table = []
    for site in range(n):
        col_even = sum(((row >> site) & 1) << j for j, row in enumerate(even))
        col_odd = sum(((row >> site) & 1) << j for j, row in enumerate(odd))
        per_class = []
        for cls in CLASSES:
            syn = log = 0
            for b in _hit_blocks(cls):
                syn |= col_even << (b * r_even)
                log |= col_odd << (b * r_odd)
            per_class.append((syn, log))
        table.append(per_class)
    return table


def order2_census(rows):
    """Brute-force count of accepted, harmful two-fault events.

    Returns (pair_events, identical_class_events): every unordered site
    pair and every class on each site, kept when the two faults leave no
    syndrome in any block and flip at least one logical output."""
    even, odd = split_parity(rows)
    n = len(rows[0])
    table = _site_signatures(even, odd, n)
    events = identical = 0
    for i in range(n):
        for j in range(i + 1, n):
            for c1, (syn1, log1) in enumerate(table[i]):
                for c2, (syn2, log2) in enumerate(table[j]):
                    if syn1 == syn2 and log1 != log2:
                        events += 1
                        identical += c1 == c2
    return events, identical


def exact_block_rates(rows, p):
    """Exact per-copy probabilities for one block-diagonal summand.

    A dynamic program over sites tracks, for each of the three CCZ blocks,
    the syndrome against every even row and the parity against every odd
    row.  Returns (P(accepted), P(accepted and no logical flip)) for this
    summand alone, each site failing with probability ``p`` into one of
    the seven classes uniformly."""
    even, odd = split_parity(rows)
    n = len(rows[0])
    width = len(even) + len(odd)
    size = 1 << (3 * width)
    index = np.arange(size)
    dist = np.zeros(size)
    dist[0] = 1.0
    for site in range(n):
        col = sum(((row >> site) & 1) << j for j, row in enumerate(even + odd))
        new = (1.0 - p) * dist
        for cls in CLASSES:
            mask = 0
            for b in _hit_blocks(cls):
                mask |= col << (b * width)
            new += (p / 7.0) * dist[index ^ mask]
        dist = new
    syndrome_mask = 0
    for b in range(3):
        syndrome_mask |= ((1 << len(even)) - 1) << (b * width)
    accepted = float(dist[(index & syndrome_mask) == 0].sum())
    clean = float(dist[0])
    return accepted, clean


def wilson(successes, total, z):
    """Wilson score interval for a binomial proportion."""
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z / denom * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
    return center - half, center + half


# --- cost -------------------------------------------------------------------


def poly(terms, p):
    return sum(coeff * p**degree for coeff, degree in terms)


def stack_t_count(levels, physical, target):
    """Recompute a stack's expected T count from its levels.

    Checks that the error chain starts at the physical error, that each
    level's output error follows from its polynomial, and that the last one
    meets the target; returns None when any of that fails."""
    error = physical
    count = 1.0
    for level in levels:
        spec = level.spec
        if not math.isclose(level.input_error, error, rel_tol=1e-12):
            return None
        success = poly(spec.success_poly, error)
        if success <= 0.0:
            return None
        count *= spec.inputs_per_output / success
        error = poly(spec.error_poly, error)
    if not levels or error > target:
        return None
    return count
