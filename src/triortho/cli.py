"""Command-line interface.

Subcommands: check-matrix, build-code, search, verify-ccz,
simulate-hadamard, inject-faults, distill, cost-curve.  Every subcommand
takes ``--format text|json``; randomized ones print their effective seed in
the output header.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  Identical invocations with identical seeds produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import random
import sys
from typing import Iterator, Optional, Sequence

from . import codes as codes_mod
from . import cost as cost_mod
from . import distill as distill_mod
from .codes import TriorthogonalMatrix, build_code, builtin_15_1_3, distances
from .gf2 import _atomic_write_text, read_matrix, write_matrix
from .logical import (
    FaultSpec,
    SteaneReport,
    _basis_coefficients,
    _hadamard_pair,
    _label_bits,
    gauge_parities_of_state,
    logical_hadamard,
    pauli_residual,
)
from .simulator import states_equal_up_to_global_phase, transversal_ccz_phase_check

DEFAULT_SEED = 0x5EED

BUILTINS = {"15-1-3": builtin_15_1_3}


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _result(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    # A subcommand's one result: a sorted-key JSON line naming the command,
    # or its text lines.
    if args.format == "json":
        sys.stdout.write(_json_line({**payload, "command": args.command}))
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


def _load_source(args: argparse.Namespace) -> TriorthogonalMatrix:
    # A built-in matrix is verified again, so --level holds for it as it
    # does for a file.
    matrix = BUILTINS[args.builtin]().matrix if args.builtin else read_matrix(args.file)
    return TriorthogonalMatrix.from_matrix(matrix, level=args.level)


def _load_ccz_source(args: argparse.Namespace) -> TriorthogonalMatrix:
    # The transversal CCZ needs level 3 whatever --level asked for, so a
    # source below it is verified again; below three rows it holds vacuously.
    source = _load_source(args)
    if source.level < 3:
        source = TriorthogonalMatrix.from_matrix(source.matrix, level=3)
    return source


# A --fault value lists FaultSpec's fields in order, joined by colons.
_FAULT_SYNTAX = ":".join(f.name for f in dataclasses.fields(FaultSpec))


def _parse_fault(text: str) -> FaultSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"fault must look like {_FAULT_SYNTAX}, got {text!r}")
    return FaultSpec(location=parts[0], pauli=parts[1].upper(), qubit=int(parts[2]))


def _fault_text(fault: FaultSpec) -> str:
    return ":".join(str(value) for value in dataclasses.astuple(fault))


def _input_coefficients(text: str, k: int) -> list[complex]:
    # --input as logical amplitudes: '+' and '-' on one logical qubit, or
    # a basis label with one bit per logical qubit.
    if text in ("+", "-"):
        if k != 1:
            raise ValueError(f"input {text!r} needs a single logical qubit")
        return [complex(1.0), complex(float(text + "1"))]
    bits = tuple(int(c) for c in text)
    if len(bits) != k or any(b not in (0, 1) for b in bits):
        raise ValueError(f"input label {text!r} does not fit k={k}")
    return _basis_coefficients(bits)


def _label_text(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def _report_text(report: SteaneReport) -> str:
    return (
        f"outcomes={report.raw_outcomes.to_string()} "
        f"syndrome={_label_text(report.x_syndrome)} "
        f"gauge={_label_text(report.gauge_parities)} "
        f"correction={report.applied_correction.to_string()}"
    )


def cmd_check_matrix(args: argparse.Namespace) -> int:
    matrix = read_matrix(args.file)
    violation = codes_mod.check_orthogonality(matrix, args.level)
    payload = {
        "file": args.file,
        "level": args.level,
        "rows": matrix.row_count,
        "cols": matrix.col_count,
        "pass": violation is None,
        "violation": list(violation) if violation else None,
    }
    if violation is None:
        line = f"PASS level={args.level} rows={matrix.row_count} cols={matrix.col_count}"
    else:
        line = f"FAIL level={len(violation)} rows={violation}"
    _result(args, payload, [line])
    return 0 if violation is None else 1


def cmd_build_code(args: argparse.Namespace) -> int:
    source = _load_source(args)
    code = build_code(source)
    payload = {
        "n": code.n,
        "k": code.k,
        "level": source.level,
        "x_stabilizers": code.x_stabilizers.row_count,
        "z_stabilizers": code.z_stabilizers.row_count,
        "gauge_pairs": len(code.gauge_pairs),
    }
    lines = [" ".join(f"{key}={value}" for key, value in payload.items())]
    d_x = d_z = None
    if args.distances:
        d_x, d_z = distances(code)
        lines.append(f"d_x={d_x} d_z={d_z} distance={min(d_x, d_z)}")
    _result(args, {**payload, "d_x": d_x, "d_z": d_z}, lines)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    found = codes_mod.search_triorthogonal(
        n=args.n, k=args.k, m_even=args.m_even, budget=args.budget, seed=args.seed
    )
    payload = {
        "seed": args.seed,
        "budget": args.budget,
        "n": args.n,
        "k": args.k,
        "m_even": args.m_even,
        "found": found is not None,
        "rows": [r.to_string() for r in found.matrix.rows] if found else None,
        "out": args.out if found else None,
    }
    lines = [f"# seed={args.seed} budget={args.budget}", "found" if found else "not found"]
    _result(args, payload, lines)
    if found is None:
        return 1
    if args.out:
        comments = [
            "triorthogonal matrix found by seeded search",
            f"seed={args.seed} budget={args.budget} n={args.n} k={args.k} m_even={args.m_even}",
        ]
        write_matrix(args.out, found.matrix, comments)
    return 0


def cmd_verify_ccz(args: argparse.Namespace) -> int:
    code = build_code(_load_ccz_source(args))
    basis = [_label_bits(x, code.k) for x in range(1 << code.k)]
    checks = []
    for labels in itertools.product(basis, repeat=3):
        check = transversal_ccz_phase_check(code, labels)
        checks.append(
            {
                "labels": [_label_text(lab) for lab in labels],
                "phase": check.phase,
                "expected": check.expected,
                "uniform": check.uniform,
                "ok": check.matches,
            }
        )
    all_ok = all(c["ok"] for c in checks)
    lines = [
        f"({','.join(c['labels'])}) -> {c['phase']:+d}{'' if c['ok'] else ' MISMATCH'}"
        for c in checks
    ]
    payload = {"n": code.n, "k": code.k, "all_ok": all_ok, "checks": checks}
    _result(args, payload, lines + ["PASS" if all_ok else "FAIL"])
    return 0 if all_ok else 1


def cmd_simulate_hadamard(args: argparse.Namespace) -> int:
    code = build_code(_load_source(args))
    state, ideal = _hadamard_pair(code, _input_coefficients(args.input, code.k))
    header = {
        "input": args.input,
        "n": code.n,
        "k": code.k,
        "seed": args.seed,
        "rounds": args.seeds,
    }
    _result(args, header, [f"# seed={args.seed} rounds={args.seeds} input={args.input}"])
    all_ok = True
    # One line per round, written as the round finishes.
    for seed in range(args.seed, args.seed + args.seeds):
        output, report = logical_hadamard(state, code, rng=random.Random(seed))
        matches = states_equal_up_to_global_phase(output, ideal, tol=1e-10)
        gauge = gauge_parities_of_state(output, code)
        gauge_zero = gauge is not None and not any(gauge)
        all_ok &= matches and gauge_zero
        if args.format == "json":
            round_payload = {"matches_ideal": matches, "gauge_restored": gauge_zero, "seed": seed}
            sys.stdout.write(_json_line({**report.to_json_dict(), **round_payload}))
        else:
            sys.stdout.write(f"seed={seed} {_report_text(report)} ok={matches and gauge_zero}\n")
    if args.format == "text":
        sys.stdout.write("PASS\n" if all_ok else "FAIL\n")
    return 0 if all_ok else 1


def cmd_inject_faults(args: argparse.Namespace) -> int:
    code = build_code(_load_source(args))
    faults = tuple(_parse_fault(f) for f in args.fault)
    state, ideal = _hadamard_pair(code, _input_coefficients(args.input, code.k))
    output, report = logical_hadamard(state, code, faults=faults, rng=random.Random(args.seed))
    residual = pauli_residual(output, ideal)
    sites = None if residual is None else residual.sites
    tolerated = sites is not None and sites <= len(faults)
    payload = {
        **report.to_json_dict(),
        "seed": args.seed,
        "faults": [_fault_text(f) for f in faults],
        "residual_sites": sites,
        "tolerated": tolerated,
    }
    lines = [
        f"# seed={args.seed} faults={len(faults)}",
        *(f"fault {text}" for text in payload["faults"]),
        _report_text(report),
        f"residual_sites={'none' if sites is None else sites} tolerated={tolerated}",
    ]
    _result(args, payload, lines)
    return 0 if tolerated else 1


def cmd_distill(args: argparse.Namespace) -> int:
    source = _load_ccz_source(args)
    with open(args.model, "r", encoding="ascii") as fh:
        model = distill_mod.ErrorModel.from_json_dict(json.load(fh))
    report = distill_mod.enumerate_order2(source, model)
    stats = distill_mod.monte_carlo(
        source, model, trials=args.trials, seed=args.seed, collect_trials=bool(args.per_trial)
    )
    predicted = report.predicted_failure(model.p)
    # The --out file is this payload, so it names its command itself.
    payload = {
        **stats.to_json_dict(),
        "command": "distill",
        "n": source.n,
        "k": len(source.odd_rows),
        "p": model.p,
        "order2_coefficient": report.coefficient,
        "order2_pair_events": report.pair_events,
        "order2_identical_class_events": report.identical_class_events,
        "predicted_failure": predicted,
    }
    lines = [
        f"# seed={args.seed} trials={args.trials} p={model.p!r}",
        f"accepted={stats.accepted} failures={stats.failures} "
        f"acceptance_rate={stats.acceptance_rate!r} "
        f"conditional_error_rate={stats.conditional_error_rate!r}",
        f"order2_coefficient={report.coefficient!r} predicted_failure={predicted!r}",
    ]
    _result(args, payload, lines)
    if args.out:
        _atomic_write_text(args.out, _json_line(payload))
    if args.per_trial:
        _atomic_write_text(args.per_trial, _per_trial_csv(stats.trial_flags))
    return 0


def _per_trial_csv(flags) -> Iterator[str]:
    # Row by row from one chunk of flags at a time: the text is never whole.
    yield "trial,accepted,logical_failure\n"
    for start in range(0, len(flags), distill_mod.MC_CHUNK):
        accepted, failed = flags[start : start + distill_mod.MC_CHUNK].T.astype(int).tolist()
        yield from map("{},{},{}\n".format, itertools.count(start), accepted, failed)


def cmd_cost_curve(args: argparse.Namespace) -> int:
    if args.menu:
        with open(args.menu, "r", encoding="ascii") as fh:
            menu = cost_mod.menu_from_json(json.load(fh))
    else:
        menu = cost_mod.default_menu()
    if args.targets:
        targets = [float(t) for t in args.targets.split(",")]
    else:
        targets = [10.0**-e for e in range(6, 21)]
    rows = cost_mod.cost_curve(
        menu, targets, physical_t_error=args.physical_t_error, max_depth=args.max_depth
    )
    csv_text = cost_mod.render_cost_curve_csv(rows)
    if args.out:
        _atomic_write_text(args.out, csv_text)
    payload = {
        "physical_t_error": args.physical_t_error,
        "rows": [dataclasses.asdict(row) for row in rows],
        "out": args.out,
    }
    _result(args, payload, [f"wrote {args.out}"] if args.out else csv_text.splitlines())
    return 0


def _int_at_least(low: int):
    # An argparse type: a bad value is a usage error naming the limit.
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
# Orthogonality levels start at 2, the pairwise overlaps.
_level = _int_at_least(2)


def build_parser() -> argparse.ArgumentParser:
    # Parent parsers: the options that several subcommands share.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="matrix text file")
    group.add_argument("--builtin", choices=sorted(BUILTINS), help="built-in matrix")
    source.add_argument("--level", type=_level, default=None, help="orthogonality level to verify")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)

    parser = argparse.ArgumentParser(
        prog="triortho",
        description="Triorthogonal code construction, simulation, and cost analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, fmt])
        p.set_defaults(func=func)
        return p

    p = command("check-matrix", cmd_check_matrix, "verify row-product parities of a matrix file")
    p.add_argument("--file", required=True)
    p.add_argument("--level", type=_level, default=3)

    p = command("build-code", cmd_build_code, "derive code parameters from a matrix", source)
    p.add_argument("--distances", action="store_true", help="also compute exact distances")

    p = command("search", cmd_search, "randomized search for a triorthogonal matrix", seed)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-even", type=int, required=True, dest="m_even")
    p.add_argument("--budget", type=_positive_int, default=100000)
    p.add_argument("--out", help="write the found matrix here")

    command("verify-ccz", cmd_verify_ccz, "check the transversal CCZ phase on all labels", source)

    p = command(
        "simulate-hadamard", cmd_simulate_hadamard,
        "run the measurement-based logical Hadamard", source, seed,
    )
    p.add_argument("--input", default="0", help="logical input: bits, '+', or '-'")
    p.add_argument("--seeds", type=_positive_int, default=1, help="number of seeded rounds")

    p = command(
        "inject-faults", cmd_inject_faults,
        "run the Hadamard procedure with chosen faults", source, seed,
    )
    p.add_argument(
        "--fault",
        action="append",
        default=[],
        help=f"{_FAULT_SYNTAX}, e.g. cnot_data:X:7 (repeatable)",
    )
    p.add_argument("--input", default="0")

    p = command("distill", cmd_distill, "distillation census and Monte Carlo", source, seed)
    p.add_argument("--model", required=True, help="error model JSON file")
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--out", help="write the stats JSON here")
    p.add_argument("--per-trial", dest="per_trial", help="write per-trial CSV here")

    p = command("cost-curve", cmd_cost_curve, "per-family cost table over target errors")
    p.add_argument("--targets", help="comma-separated target errors")
    p.add_argument(
        "--physical-t-error", type=float, default=1e-2, dest="physical_t_error"
    )
    p.add_argument("--menu", help="protocol menu JSON file")
    p.add_argument("--max-depth", type=_positive_int, default=4, dest="max_depth")
    p.add_argument("--out", help="write the CSV here")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
