"""Expected physical-T cost of stacked magic-state distillation protocols.

A protocol consumes ``inputs_per_output`` states of ``input_kind`` at error
``p`` and produces one ``output_kind`` state at error ``error_poly(p)``,
succeeding with probability ``success_poly(p)``.  Stacks chain protocols
whose kinds match, starting from physical T states; the expected T count
multiplies the input counts and divides by every success probability along
the way.  The search expands every kind-consistent stack up to a depth
bound, pruning states that another state of their kind beats on both error
and cost (all menu polynomials are monotone on [0, 1], so dominated states
stay dominated), and skips protocols whose output kind cannot reach a
deliverable kind in the levels left.  At each depth it evaluates each usable
protocol once, on the float64 array of fresh errors of its input kind.
Every power is Python's float ``**`` (libm ``pow``), never numpy's
``power``, which differs in the last bit for some inputs, so the arrays
reproduce one-stack-at-a-time arithmetic bit for bit.  The target error only
selects among the expanded stacks, so ``cost_curve`` runs one search per
call.  Its two columns are the paper's: the cheapest stack over the whole
menu ending in the eight-T Toffoli (family ``jones``) and the cheapest
ending in a triorthogonal Toffoli level (``triortho``).

Kinds encode error structure, not just state type: the Toffoli-level
triorthogonal formula assumes input error spread uniformly over the seven
nontrivial classes, which its own outputs violate, so they are labeled
``toffoli_distilled`` and cannot feed it again.  Both Toffoli kinds are
deliverables.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "DELIVERABLE_KINDS",
    "ProtocolSpec",
    "fifteen_to_one",
    "triorthogonal_t_level",
    "jones_toffoli",
    "triorthogonal_top_level",
    "default_menu",
    "CostQuery",
    "StackLevel",
    "CostResult",
    "InfeasibleTargetError",
    "optimize_stack",
    "CurveRow",
    "cost_curve",
    "render_cost_curve_csv",
    "CSV_HEADER",
    "menu_to_json",
    "menu_from_json",
]

Poly = tuple[tuple[float, int], ...]

# Kinds whose states are usable Toffoli outputs.
DELIVERABLE_KINDS = frozenset({"toffoli", "toffoli_distilled"})


def _eval_poly(poly: Poly, p: float | np.ndarray, name: str) -> float | np.ndarray:
    # Summed left to right from 0.0, powers by Python's float ** (libm pow):
    # an array gives its elements' scalar values bit for bit.
    array = isinstance(p, np.ndarray)
    total = np.zeros(p.shape) if array else 0.0
    for coeff, degree in poly:
        try:
            if degree <= 1:
                power = p if degree else 1.0
            else:
                power = np.array([x**degree for x in p.tolist()]) if array else p**degree
        except OverflowError:  # |x|**d grows with |x|: the largest input overflows
            worst = float(np.max(np.abs(p)))
            raise ValueError(f"{name}: float overflow at input error {worst!r}") from None
        total = total + coeff * power
    return total


@dataclass(frozen=True)
class ProtocolSpec:
    """One distillation protocol as polynomial input/output behavior."""

    name: str
    inputs_per_output: float
    error_poly: Poly
    success_poly: Poly
    input_kind: str
    output_kind: str
    family: str = ""
    param_k: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.inputs_per_output < math.inf:
            raise ValueError(f"{self.name}: inputs_per_output must be positive and finite")
        for coeff, degree in self.error_poly + self.success_poly:
            if not (math.isfinite(coeff) and degree >= 0 and degree % 1 == 0):
                raise ValueError(f"{self.name}: bad polynomial term {coeff!r} p^{degree!r}")
        if self.param_k is not None and not isinstance(self.param_k, int):
            raise ValueError(f"{self.name}: k must be an integer, got {self.param_k!r}")
        if self.output_error(0.0) != 0.0:
            raise ValueError(f"{self.name}: perfect inputs must give perfect outputs")
        if self.success_prob(0.0) != 1.0:
            raise ValueError(f"{self.name}: perfect inputs must always succeed")

    # Each takes one input error or a float64 array of them.
    def output_error(self, p: float | np.ndarray) -> float | np.ndarray:
        return _eval_poly(self.error_poly, p, self.name)

    def success_prob(self, p: float | np.ndarray) -> float | np.ndarray:
        return _eval_poly(self.success_poly, p, self.name)


def _check_k(k: int) -> None:
    if k % 2 != 0 or not 2 <= k <= 100:
        raise ValueError(f"k must be an even integer in [2, 100], got {k}")


def fifteen_to_one() -> ProtocolSpec:
    """Classic 15-to-1 T distillation: error 35 p^3."""
    return ProtocolSpec(
        name="fifteen-to-one",
        inputs_per_output=15.0,
        error_poly=((35.0, 3),),
        success_poly=((1.0, 0), (-15.0, 1)),
        input_kind="T",
        output_kind="T",
        family="t",
    )


def triorthogonal_t_level(k: int) -> ProtocolSpec:
    """T distillation on the k-output triorthogonal family: 3k+8 inputs for
    k outputs, error (3k+1) p^2 per output."""
    _check_k(k)
    return ProtocolSpec(
        name=f"tri-t-k{k}",
        inputs_per_output=(3 * k + 8) / k,
        error_poly=((3.0 * k + 1.0, 2),),
        success_poly=((1.0, 0), (-(3.0 * k + 8.0), 1)),
        input_kind="T",
        output_kind="T",
        family="t",
        param_k=k,
    )


def jones_toffoli() -> ProtocolSpec:
    """Toffoli-state preparation from eight T states, error 28 p^2."""
    return ProtocolSpec(
        name="jones-toffoli",
        inputs_per_output=8.0,
        error_poly=((28.0, 2),),
        success_poly=((1.0, 0), (-8.0, 1)),
        input_kind="T",
        output_kind="toffoli",
        family="jones",
    )


def triorthogonal_top_level(k: int) -> ProtocolSpec:
    """Toffoli-to-Toffoli distillation through the k-output triorthogonal
    code: 3k+8 input states for k outputs, each input error p split evenly
    over the seven error classes, giving 7 (3k+1) (p/7)^2 per output.

    The even split is an assumption about the inputs, valid for Toffoli
    states built from independently failing T states but not for this
    protocol's own outputs (the surviving second-order events land on a few
    specific classes).  The distinct output kind keeps such outputs from
    being fed back in.
    """
    _check_k(k)
    return ProtocolSpec(
        name=f"tri-toffoli-k{k}",
        inputs_per_output=(3 * k + 8) / k,
        error_poly=(((3.0 * k + 1.0) / 7.0, 2),),
        success_poly=((1.0, 0), (-(3.0 * k + 8.0), 1)),
        input_kind="toffoli",
        output_kind="toffoli_distilled",
        family="triortho",
        param_k=k,
    )


def default_menu() -> list[ProtocolSpec]:
    """The built-in menu: 15-to-1, the T-level triorthogonal family, the
    eight-T Toffoli protocol, and the Toffoli-level family.  For the
    Jones-only optimum, require the ``jones`` family last."""
    menu = [fifteen_to_one()]
    menu.extend(triorthogonal_t_level(k) for k in range(2, 101, 2))
    menu.append(jones_toffoli())
    menu.extend(triorthogonal_top_level(k) for k in range(2, 101, 2))
    return menu


@dataclass(frozen=True)
class CostQuery:
    """What to optimize: reach ``target_error`` per output Toffoli state
    starting from physical T states at ``physical_t_error``.
    """

    target_error: float
    physical_t_error: float
    menu: tuple[ProtocolSpec, ...]
    max_depth: int = 4
    required_final_family: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.physical_t_error < 1.0:
            raise ValueError("physical_t_error must be in (0, 1)")
        if not 0.0 < self.target_error <= self.physical_t_error:
            raise ValueError("target_error must be in (0, physical_t_error]")
        if not self.menu:
            raise ValueError("menu is empty")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


@dataclass(frozen=True)
class StackLevel:
    spec: ProtocolSpec
    input_error: float
    output_error: float
    success_prob: float


@dataclass(frozen=True)
class CostResult:
    expected_t_count: float
    achieved_error: float
    levels: tuple[StackLevel, ...]

    @property
    def k_star(self) -> Optional[int]:
        return self.levels[-1].spec.param_k if self.levels else None

    def describe(self) -> str:
        chain = " -> ".join(level.spec.name for level in self.levels)
        return f"{chain}: {self.expected_t_count:.4f} T, error {self.achieved_error:.3e}"


class InfeasibleTargetError(Exception):
    """No stack within the depth bound reaches the target error."""

    def __init__(self, message: str, best_error: Optional[float] = None) -> None:
        super().__init__(message)
        self.best_error = best_error


class _Layer(NamedTuple):
    # The stacks of one depth that end in one kind.  Rows starts[i] to
    # starts[i + 1] are specs[i] applied to fresh stacks of the depth before;
    # ``parent`` indexes that depth's layer of the spec's input kind.
    specs: list[ProtocolSpec]
    starts: list[int]
    error: np.ndarray
    cost: np.ndarray
    success: np.ndarray
    parent: np.ndarray


def _levels(layers: dict, depth: int, kind: str, row: int) -> tuple[StackLevel, ...]:
    # The levels of one stack, first level first.
    levels = []
    while depth:
        layer = layers[depth, kind]
        spec = layer.specs[np.searchsorted(layer.starts, row, "right") - 1]
        parent = int(layer.parent[row])
        input_error = float(layers[depth - 1, spec.input_kind].error[parent])
        outputs = float(layer.error[row]), float(layer.success[row])
        levels.append(StackLevel(spec, input_error, *outputs))
        depth, kind, row = depth - 1, spec.input_kind, parent
    return tuple(reversed(levels))


def _names(layers: dict, depth: int, kind: str, row: int) -> tuple[str, ...]:
    return tuple(level.spec.name for level in _levels(layers, depth, kind, row))


def _prune(layers: dict, depth: int, kind: str, frontier: np.ndarray) -> tuple:
    # Merge the new layer into the kind's Pareto frontier in (error, cost),
    # given and returned as rows error, cost, depth: in that order a stack
    # stays if it is cheaper than every stack before it.  Also returns the
    # layer rows that stay.  Of stacks equal in (error, cost, depth), all in
    # this layer, the one with the smallest name chain stays.
    layer = layers[depth, kind]
    new = np.stack((layer.error, layer.cost, np.full(len(layer.error), float(depth))))
    merged = np.concatenate((frontier, new), axis=1)
    order = np.lexsort(merged[::-1])
    merged = merged[:, order]
    keep = merged[1] < np.fmin.accumulate(np.concatenate(([math.inf], merged[1, :-1])))
    rows = order - frontier.shape[1]
    tied = (merged[:, 1:] == merged[:, :-1]).all(axis=0)
    run = np.cumsum(np.concatenate(([True], ~tied)))
    for head in np.flatnonzero(keep[:-1] & tied).tolist():
        ties = rows[run == run[head]].tolist()
        rows[head] = min(ties, key=lambda row: _names(layers, depth, kind, row))
    return merged[:, keep], rows[keep & (rows >= 0)]


@np.errstate(over="ignore", invalid="ignore")  # silent, as in Python float arithmetic
def _expand(menu: Sequence[ProtocolSpec], physical: float, max_depth: int) -> dict:
    # Every stack the pruned search reaches, as layers keyed by (depth, kind);
    # depth 0 holds the physical T state.  need[kind]: fewest levels
    # (< max_depth) to a deliverable kind.  A stack that cannot deliver in the
    # levels left is never built: it could only prune later stacks of its
    # kind, which are just as hopeless.
    need = dict.fromkeys(DELIVERABLE_KINDS, 0)
    for levels in range(1, max_depth):
        for spec in menu:
            if need.get(spec.output_kind, levels) < levels:
                need.setdefault(spec.input_kind, levels)
    layers = {(0, "T"): _Layer([], [0, 1], np.array([physical], float), np.ones(1), None, None)}
    frontier = {"T": np.array([[physical], [1.0], [0.0]])}
    fresh, empty = {"T": np.zeros(1, np.intp)}, np.empty((3, 0))
    for depth in range(1, max_depth + 1):
        usable: dict[str, list[ProtocolSpec]] = {}
        for spec in menu:
            if need.get(spec.output_kind, max_depth) <= max_depth - depth:
                usable.setdefault(spec.input_kind, []).append(spec)
        chunks: dict[str, list[tuple]] = {}
        for kind, rows in fresh.items():
            below = layers[depth - 1, kind]
            errors, costs = below.error[rows], below.cost[rows]
            for spec in usable.get(kind, ()) if len(rows) else ():
                success = spec.success_prob(errors)
                live = ~(success <= 0.0)  # a NaN success keeps its stack
                success = success[live]
                cost = costs[live] * spec.inputs_per_output / success
                chunk = (spec, spec.output_error(errors[live]), cost, success, rows[live])
                chunks.setdefault(spec.output_kind, []).append(chunk)
        fresh = {}
        for kind, parts in chunks.items():
            specs, *columns = zip(*parts)
            starts = np.cumsum([0, *map(len, columns[0])]).tolist()
            layers[depth, kind] = _Layer(list(specs), starts, *map(np.concatenate, columns))
            frontier[kind], fresh[kind] = _prune(layers, depth, kind, frontier.get(kind, empty))
    return layers


def _family_masks(layers: dict, family: Optional[str]) -> dict:
    # Per deliverable layer, the rows whose last level is of ``family``
    # (every row when it is None).
    masks = {}
    for (depth, kind), layer in layers.items():
        if kind in DELIVERABLE_KINDS:
            picks = [family in (None, spec.family) for spec in layer.specs]
            masks[depth, kind] = np.repeat(picks, np.diff(layer.starts))
    return masks


def _select(layers: dict, mine: dict, query: CostQuery) -> CostResult:
    # The cheapest deliverable stack meeting the query, by (cost, depth,
    # names): a masked minimum per layer, names only on an exact tie.
    # ``mine`` holds the candidate rows per layer, from ``_family_masks``.
    feasible, costs = {}, []
    for (depth, kind), rows in mine.items():
        layer = layers[depth, kind]
        ok = feasible[depth, kind] = rows & (layer.error <= query.target_error)
        if ok.any():
            costs.append((float(layer.cost[ok].min()), depth))
    if not costs:
        errors = [float(layers[key].error[rows].min()) for key, rows in mine.items() if rows.any()]
        best_error = min(errors, default=None)
        raise InfeasibleTargetError(
            f"no stack of depth <= {query.max_depth} reaches {query.target_error:g}"
            + (f" (best achieved {best_error:g})" if best_error is not None else ""),
            best_error=best_error,
        )
    cost, depth = min(costs)
    ties = [
        (kind, row)
        for (d, kind), ok in feasible.items()
        if d == depth
        for row in np.flatnonzero(ok & (layers[d, kind].cost == cost)).tolist()
    ]
    kind, row = ties[0]
    if len(ties) > 1:
        kind, row = min(ties, key=lambda tie: _names(layers, depth, *tie))
    error = float(layers[depth, kind].error[row])
    return CostResult(cost, error, _levels(layers, depth, kind, row))


def optimize_stack(query: CostQuery) -> CostResult:
    """Cheapest kind-consistent stack producing Toffoli states at or below
    the target error.

    Expected cost multiplies input counts and divides by success
    probabilities level by level; branches whose success probability is not
    positive are discarded.  Raises InfeasibleTargetError when nothing
    within the depth bound reaches the target.
    """
    layers = _expand(query.menu, query.physical_t_error, query.max_depth)
    return _select(layers, _family_masks(layers, query.required_final_family), query)


@dataclass(frozen=True)
class CurveRow:
    target_error: float
    jones: Optional[float]
    triortho_k_opt: Optional[float]
    k_star: Optional[int]


CSV_HEADER = ",".join(f.name for f in fields(CurveRow))


def cost_curve(
    menu: Sequence[ProtocolSpec],
    targets: Sequence[float],
    physical_t_error: float,
    max_depth: int = 4,
) -> list[CurveRow]:
    """Per-family optimum cost at each target error.

    Each cell is ``optimize_stack`` on the whole menu with that family
    (``jones`` or ``triortho``, whose k is reported) required last; a menu
    entry of any other family fills no column, and a missing family or an
    infeasible target leaves a blank cell.  Every target is checked as a
    ``CostQuery`` first.  The stack search ignores the target, so it runs
    once per call, each family's row masks are built once, and each cell
    only selects among its stacks.  ``python3 bench/run.py --workload cost
    --seed 1 --seconds 20`` times a default-menu call at 1e-10 and 1e-13.
    """
    menu = tuple(menu)
    queries = [CostQuery(target, physical_t_error, menu, max_depth) for target in targets]
    families = ("jones", "triortho")
    searched = any(spec.family in families for spec in menu)
    layers = _expand(menu, physical_t_error, max_depth) if searched else {}
    masks = {family: _family_masks(layers, family) for family in families}

    def cell(query: CostQuery, family: str) -> Optional[CostResult]:
        try:
            return _select(layers, masks[family], query)
        except InfeasibleTargetError:
            return None

    rows = []
    for query in queries:
        jones, tri = (cell(query, family) for family in families)
        costs = (result and result.expected_t_count for result in (jones, tri))
        rows.append(CurveRow(query.target_error, *costs, tri and tri.k_star))
    return rows


def render_cost_curve_csv(rows: Sequence[CurveRow]) -> str:
    """One CSV line per row under ``CSV_HEADER``; a missing value is an empty cell."""
    lines = [CSV_HEADER]
    for row in rows:
        cells = ("" if value is None else repr(value) for value in astuple(row))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def menu_to_json(menu: Sequence[ProtocolSpec]) -> list[dict]:
    out = []
    for spec in menu:
        entry = {
            "name": spec.name,
            "inputs_per_output": spec.inputs_per_output,
            "error_poly": [[c, d] for c, d in spec.error_poly],
            "success_poly": [[c, d] for c, d in spec.success_poly],
            "kind": f"{spec.input_kind}->{spec.output_kind}",
        }
        if spec.family:
            entry["family"] = spec.family
        if spec.param_k is not None:
            entry["k"] = spec.param_k
        out.append(entry)
    return out


def _whole(value: object) -> object:
    # JSON may write 2 as 2.0; other values go to ProtocolSpec, which rejects them.
    return int(value) if isinstance(value, float) and value.is_integer() else value


def menu_from_json(data: Sequence[dict]) -> list[ProtocolSpec]:
    menu = []
    for entry in data:
        try:
            name = str(entry["name"])
            kind = entry["kind"]
            if "->" not in kind:
                raise ValueError(f"{name}: kind must look like 'T->toffoli', got {kind!r}")
            input_kind, output_kind = kind.split("->", 1)
            menu.append(
                ProtocolSpec(
                    name=name,
                    inputs_per_output=float(entry["inputs_per_output"]),
                    error_poly=tuple((float(c), _whole(d)) for c, d in entry["error_poly"]),
                    success_poly=tuple((float(c), _whole(d)) for c, d in entry["success_poly"]),
                    input_kind=input_kind,
                    output_kind=output_kind,
                    family=str(entry.get("family", "")),
                    param_k=_whole(entry["k"]) if "k" in entry else None,
                )
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed menu entry: {exc!r}") from exc
    return menu
