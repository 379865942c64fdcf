"""Toffoli-state distillation analysis for triorthogonal codes.

Distillation runs the transversal CCZ across three code blocks.  A faulty
CCZ site leaves one of seven nontrivial Z-error classes behind, one class
per nonempty subset of the three blocks; class ``c`` in 1..7 touches block
``b`` (0-indexed) when bit ``2 - b`` of ``c`` is set, so class 0b001 hits
block 3 only.  Per block, the Z patterns of all faulty sites accumulate by
XOR.  A run is accepted when every block's pattern commutes with every X
stabilizer, and an accepted pattern flips logical output ``j`` of a block
exactly when its overlap with odd row ``j`` is odd.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .codes import TriorthogonalMatrix

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

MC_CHUNK = 1 << 16


def _class_hits_block(cls: int, block: int) -> bool:
    return bool((cls >> (2 - block)) & 1)


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
        if any(w < 0 for w in self.class_weights):
            raise ValueError("class weights must be nonnegative")
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


def _block_patterns(n: int, injected: Sequence[tuple[int, int]]) -> list[int]:
    patterns = [0, 0, 0]
    for site, cls in injected:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} sites")
        if not 1 <= cls <= NUM_CLASSES:
            raise ValueError(f"class must be 1..7, got {cls}")
        for b in range(3):
            if _class_hits_block(cls, b):
                patterns[b] ^= 1 << site
    return patterns


def _row_ints(source: TriorthogonalMatrix) -> tuple[list[int], list[int]]:
    # The even (check) and odd (output) rows as ints.
    odd = [v.value for v in source.odd_vectors()]
    if not odd:
        raise ValueError("matrix has no odd rows, so distillation has no outputs")
    return source.even_matrix().row_values(), odd


def propagate(source: TriorthogonalMatrix, injected: Sequence[tuple[int, int]]) -> DistillOutcome:
    """Propagate a set of (site, class) faults through one distillation run."""
    even, odd = _row_ints(source)
    patterns = _block_patterns(source.n, injected)
    accepted = all(
        ((pattern & row).bit_count() & 1) == 0 for pattern in patterns for row in even
    )
    logical = tuple(
        tuple((pattern & f).bit_count() & 1 for f in odd) for pattern in patterns
    )
    return DistillOutcome(
        accepted=accepted, logical_error=logical, fault_sites=tuple(injected)
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
    logical output, weighting each by its class probabilities."""
    n = source.n
    even, odd = _row_ints(source)
    weights = model.class_weights

    singles: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    for site in range(n):
        per_site = []
        for cls in range(1, NUM_CLASSES + 1):
            patterns = _block_patterns(n, [(site, cls)])
            syndrome = tuple(
                (pattern & row).bit_count() & 1 for pattern in patterns for row in even
            )
            logical = tuple(
                (pattern & f).bit_count() & 1 for pattern in patterns for f in odd
            )
            per_site.append((syndrome, logical))
        singles.append(per_site)

    coefficient = 0.0
    pair_events = 0
    identical = 0
    per_class: dict[tuple[int, int], int] = {}
    for i, j in itertools.combinations(range(n), 2):
        for c1 in range(1, NUM_CLASSES + 1):
            syn1, log1 = singles[i][c1 - 1]
            for c2 in range(1, NUM_CLASSES + 1):
                syn2, log2 = singles[j][c2 - 1]
                if syn1 != syn2:
                    continue
                if not any(a ^ b for a, b in zip(log1, log2)):
                    continue
                pair_events += 1
                coefficient += weights[c1 - 1] * weights[c2 - 1]
                if c1 == c2:
                    identical += 1
                per_class[(c1, c2)] = per_class.get((c1, c2), 0) + 1
    return CoefficientReport(
        coefficient=coefficient,
        pair_events=pair_events,
        identical_class_events=identical,
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

    Vectorized over fixed-size chunks; a given (seed, trials) pair always
    produces the same counts.  With ``collect_trials`` the per-trial
    (accepted, logical-failure) flags are kept for logging.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    n = source.n
    rng = np.random.default_rng(seed)
    # Shape (rows, n); with no even rows (0, n), which accepts every trial.
    even, odd = (
        np.array([[(r >> i) & 1 for i in range(n)] for r in rows], dtype=np.uint8).reshape(-1, n)
        for rows in _row_ints(source)
    )
    cumulative = np.cumsum(np.asarray(model.class_weights, dtype=np.float64))

    accepted_total = 0
    failure_total = 0
    flags = np.zeros((trials, 2), dtype=bool) if collect_trials else None
    done = 0
    while done < trials:
        t = min(MC_CHUNK, trials - done)
        faulty = rng.random((t, n)) < model.p
        draws = rng.random((t, n))
        # Class 0 marks a site that did not fail; only failed sites get a class.
        classes = np.zeros((t, n), dtype=np.uint8)
        classes[faulty] = np.minimum(
            np.searchsorted(cumulative, draws[faulty], side="right"), NUM_CLASSES - 1
        ) + 1
        ok = np.ones(t, dtype=bool)
        bad = np.zeros(t, dtype=bool)
        for b in range(3):
            hit = (classes >> (2 - b)) & 1
            syndrome = (hit @ even.T) & 1
            ok &= ~syndrome.any(axis=1)
            logical = (hit @ odd.T) & 1
            bad |= logical.any(axis=1)
        fail = ok & bad
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
