"""Toffoli-state distillation analysis for triorthogonal codes.

Distillation runs the transversal CCZ across three code blocks.  A faulty
CCZ site leaves one of seven nontrivial Z-error classes behind, one class
per nonempty subset of the three blocks; class ``c`` in 1..7 touches block
``b`` (0-indexed) when bit ``2 - b`` of ``c`` is set, so class 0b001 hits
block 3 only.  Per block, the Z patterns of all faulty sites accumulate by
XOR.  A run is accepted when every block's pattern commutes with every X
stabilizer, and an accepted pattern flips logical output ``j`` of a block
exactly when its overlap with odd row ``j`` is odd.

Both tests are parities, so they are linear in the fault set: each
(site, class) fault has one signature, its even-row parities (syndrome
bits) and odd-row parities (logical bits) in every block the class hits,
and a fault set's signature is the XOR of its members'.  ``propagate``,
``enumerate_order2`` and ``monte_carlo`` all read that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .codes import TriorthogonalMatrix
from .gf2 import _transpose_ints

__all__ = [
    "NUM_CLASSES",
    "ErrorModel",
    "DistillOutcome",
    "propagate",
    "CoefficientReport",
    "enumerate_order2",
    "wilson_interval",
    "MonteCarloStats",
    "monte_carlo",
]

NUM_CLASSES = 7

# Trials per monte_carlo chunk; this fixes the layout of the seeded stream.
MC_CHUNK = 1 << 16
# Doubles drawn at once by monte_carlo, which bounds its working memory.
MC_BLOCK = 1 << 16


@dataclass(frozen=True)
class ErrorModel:
    """Independent per-site CCZ failures.

    Each site fails with probability ``p``; a failing site draws one of the
    seven error classes with the given weights (index ``c - 1`` holds the
    weight of class ``c``).
    """

    p: float
    class_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if len(self.class_weights) != NUM_CLASSES:
            raise ValueError(f"need {NUM_CLASSES} class weights")
        if not all(0.0 <= w < math.inf for w in self.class_weights):
            raise ValueError("class weights must be finite and nonnegative")
        total = sum(self.class_weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class weights must sum to 1, got {total}")

    @classmethod
    def uniform(cls, p: float) -> "ErrorModel":
        return cls(p=p, class_weights=(1.0 / NUM_CLASSES,) * NUM_CLASSES)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "class_weights": list(self.class_weights)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ErrorModel":
        try:
            return cls(p=float(data["p"]), class_weights=tuple(float(w) for w in data["class_weights"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"error model needs 'p' and 'class_weights': {exc!r}") from exc


@dataclass(frozen=True)
class DistillOutcome:
    """Accept/reject decision and per-block logical flips for one fault set."""

    accepted: bool
    logical_error: tuple[tuple[int, ...], ...]
    fault_sites: tuple[tuple[int, int], ...]

    @property
    def any_logical_error(self) -> bool:
        return any(any(bits) for bits in self.logical_error)


class _Signatures(NamedTuple):
    # One int per site: its even-row parities (the syndrome part) in the low
    # ``width - k`` bits, then its k odd-row parities (the logical part).
    # Class c's signature at a site is that int times spread[c], which
    # copies it into bits [b * width, (b + 1) * width) for each block b the
    # class hits; ``syndrome`` and ``logical`` mask the two parts in all
    # three blocks.
    site: list[int]
    width: int
    k: int
    spread: tuple[int, ...]
    syndrome: int
    logical: int


def _signatures(source: TriorthogonalMatrix) -> _Signatures:
    even = source.even_matrix().row_values()
    odd = [v.value for v in source.odd_vectors()]
    if not odd:
        raise ValueError("matrix has no odd rows, so distillation has no outputs")
    site = _transpose_ints(even + odd, source.n)
    width = len(even) + len(odd)
    spread = tuple(
        sum(1 << (b * width) for b in range(3) if (cls >> (2 - b)) & 1)
        for cls in range(NUM_CLASSES + 1)
    )
    every_block = ((1 << width) - 1) * spread[NUM_CLASSES]
    syndrome = ((1 << len(even)) - 1) * spread[NUM_CLASSES]
    return _Signatures(site, width, len(odd), spread, syndrome, every_block ^ syndrome)


def propagate(source: TriorthogonalMatrix, injected: Sequence[tuple[int, int]]) -> DistillOutcome:
    """Propagate a set of (site, class) faults through one distillation run."""
    table = _signatures(source)
    total = 0
    for site, cls in injected:
        if not 0 <= site < source.n:
            raise ValueError(f"site {site} out of range for {source.n} sites")
        if not 1 <= cls <= NUM_CLASSES:
            raise ValueError(f"class must be 1..7, got {cls}")
        total ^= table.site[site] * table.spread[cls]
    offset = table.width - table.k
    logical = tuple(
        tuple((total >> (b * table.width + offset + j)) & 1 for j in range(table.k))
        for b in range(3)
    )
    return DistillOutcome(
        accepted=not (total & table.syndrome), logical_error=logical, fault_sites=tuple(injected)
    )


@dataclass
class CoefficientReport:
    """Exhaustive census of the order-2 fault events that slip through.

    ``coefficient`` multiplies p^2 in the leading-order failure
    probability: the sum of class-weight products over every accepted,
    harmful (unordered site pair, per-site class) combination.
    """

    coefficient: float
    pair_events: int
    identical_class_events: int
    per_class: dict[tuple[int, int], int] = field(default_factory=dict)

    def predicted_failure(self, p: float) -> float:
        return self.coefficient * p * p


def enumerate_order2(source: TriorthogonalMatrix, model: ErrorModel) -> CoefficientReport:
    """Count every two-fault combination that is accepted yet flips a
    logical output, weighting each by its class probabilities.

    A pair is accepted exactly when its two (site, class) signatures have
    equal syndrome parts, and harmful when their logical parts differ.  So
    the 7n singles are bucketed by syndrome part and paired only within a
    bucket.  The events are then summed in (i, j, c1, c2) order, which fixes
    the float ``coefficient`` and the insertion order of ``per_class``.
    """
    table = _signatures(source)
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for i, sig in enumerate(table.site):
        for cls in range(1, NUM_CLASSES + 1):
            full = sig * table.spread[cls]
            buckets.setdefault(full & table.syndrome, []).append((i, cls, full & table.logical))
    # Each bucket lists its singles by (site, class), so a later entry at
    # another site has the larger site index.
    events = sorted(
        (i, j, c1, c2)
        for entries in buckets.values()
        for a, (i, c1, log1) in enumerate(entries)
        for j, c2, log2 in entries[a + 1 :]
        if j != i and log1 != log2
    )
    weights = model.class_weights
    coefficient = 0.0
    per_class: dict[tuple[int, int], int] = {}
    for _i, _j, c1, c2 in events:
        coefficient += weights[c1 - 1] * weights[c2 - 1]
        per_class[(c1, c2)] = per_class.get((c1, c2), 0) + 1
    return CoefficientReport(
        coefficient=coefficient,
        pair_events=len(events),
        identical_class_events=sum(c1 == c2 for _i, _j, c1, c2 in events),
        per_class=per_class,
    )


def wilson_interval(successes: int, total: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class MonteCarloStats:
    """Aggregate counts from sampled distillation runs."""

    trials: int
    seed: int
    accepted: int
    failures: int
    trial_flags: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials if self.trials else 0.0

    @property
    def conditional_error_rate(self) -> float:
        return self.failures / self.accepted if self.accepted else 0.0

    def conditional_wilson(self, z: float = 3.0) -> tuple[float, float]:
        return wilson_interval(self.failures, self.accepted, z)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "accepted": self.accepted,
            "failures": self.failures,
            "acceptance_rate": self.acceptance_rate,
            "conditional_error_rate": self.conditional_error_rate,
        }


def monte_carlo(
    source: TriorthogonalMatrix,
    model: ErrorModel,
    trials: int,
    seed: int,
    collect_trials: bool = False,
) -> MonteCarloStats:
    """Sample distillation runs under the error model.

    Each chunk of up to ``MC_CHUNK`` trials reads two segments of the
    seeded stream, t * n doubles each: the first decides which sites fail,
    the second holds a class draw per site, of which only the failed
    sites' are used.  A trial's signature is the XOR of its failed sites'
    (site, class) signatures, held as uint64 words, so the work grows with
    the number of failures rather than with n.

    Both segments are read in blocks of ``MC_BLOCK`` doubles, which leaves
    the stream unchanged.  The first pass keeps only each block's failure
    offsets (2 bytes per failed site); the second redraws block by block
    and XORs that block's failures into the trials' accumulators, so a
    trial split between blocks gets both parts.  Memory is therefore one
    block of draws, the chunk's failure offsets and its accumulators, and
    never a dense (t, n) array.  A given (seed, trials) pair always
    produces the same counts.  With ``collect_trials`` the per-trial
    (accepted, logical-failure) flags are kept for logging.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    n = source.n
    table = _signatures(source)
    n_words = -(-3 * table.width // 64)

    def words(value: int) -> list[int]:
        return [(value >> (64 * w)) & (2**64 - 1) for w in range(n_words)]

    # signature[site, cls - 1] holds class cls's words at that site.
    signature = np.array(
        [[words(sig * spread) for spread in table.spread[1:]] for sig in table.site],
        dtype=np.uint64,
    )
    syndrome = np.array(words(table.syndrome), dtype=np.uint64)
    logical = np.array(words(table.logical), dtype=np.uint64)
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(np.asarray(model.class_weights, dtype=np.float64))
    block = np.empty(MC_BLOCK, dtype=np.float64)
    offset_type = np.min_scalar_type(MC_BLOCK - 1)

    accepted_total = 0
    failure_total = 0
    flags = np.zeros((trials, 2), dtype=bool) if collect_trials else None
    done = 0
    while done < trials:
        t = min(MC_CHUNK, trials - done)
        bounds = [(lo, min(lo + MC_BLOCK, t * n)) for lo in range(0, t * n, MC_BLOCK)]
        failed = [
            np.flatnonzero(rng.random(out=block[: hi - lo]) < model.p).astype(offset_type)
            for lo, hi in bounds
        ]
        acc = np.zeros((t, n_words), dtype=np.uint64)
        for (lo, hi), offsets in zip(bounds, failed):
            draws = rng.random(out=block[: hi - lo])
            if not offsets.size:
                continue
            trial, site = np.divmod(offsets.astype(np.intp) + lo, n)
            cls = np.minimum(
                np.searchsorted(cumulative, draws[offsets], side="right"), NUM_CLASSES - 1
            )
            # One run of failures per trial; each run XORs into its trial.
            starts = np.flatnonzero(np.concatenate(([True], trial[1:] != trial[:-1])))
            acc[trial[starts]] ^= np.bitwise_xor.reduceat(signature[site, cls], starts, axis=0)
        ok = ~(acc & syndrome).any(axis=1)
        fail = ok & (acc & logical).any(axis=1)
        accepted_total += int(ok.sum())
        failure_total += int(fail.sum())
        if flags is not None:
            flags[done : done + t, 0] = ok
            flags[done : done + t, 1] = fail
        done += t
    return MonteCarloStats(
        trials=trials,
        seed=seed,
        accepted=accepted_total,
        failures=failure_total,
        trial_flags=flags,
    )
