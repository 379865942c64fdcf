"""Distillation stack cost model and optimizer."""

import collections
import dataclasses
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from triortho import cost as cost_mod
from triortho.cost import (
    CSV_HEADER,
    DELIVERABLE_KINDS,
    CostQuery,
    CurveRow,
    InfeasibleTargetError,
    ProtocolSpec,
    cost_curve,
    default_menu,
    fifteen_to_one,
    jones_toffoli,
    menu_from_json,
    menu_to_json,
    optimize_stack,
    render_cost_curve_csv,
    triorthogonal_t_level,
    triorthogonal_top_level,
)


FAMILIES = ("jones", "triortho")


def brute_force(query):
    """Exhaustive stack enumeration: ((cost, depth, names), error) of the
    best feasible stack or None, and the best deliverable error or None."""
    best = None
    best_error = None
    for depth in range(1, query.max_depth + 1):
        for combo in itertools.product(query.menu, repeat=depth):
            kind, error, cost = "T", query.physical_t_error, 1.0
            names = []
            feasible_chain = True
            for spec in combo:
                if spec.input_kind != kind:
                    feasible_chain = False
                    break
                success = spec.success_prob(error)
                if success <= 0.0:
                    feasible_chain = False
                    break
                cost = cost * spec.inputs_per_output / success
                error = spec.output_error(error)
                kind = spec.output_kind
                names.append(spec.name)
            if not feasible_chain or kind not in DELIVERABLE_KINDS:
                continue
            family = query.required_final_family
            if family is not None and combo[-1].family != family:
                continue
            if best_error is None or error < best_error:
                best_error = error
            if error > query.target_error:
                continue
            key = (cost, len(combo), tuple(names))
            if best is None or key < best[0]:
                best = (key, error)
    return best, best_error


OUTPUT_KINDS = ("T", "toffoli", "toffoli", "toffoli_distilled", "A", "dead")


def random_menu(rng, tag):
    """Up to four random specs plus, sometimes, a renamed twin.

    "A" reaches a deliverable only through another level, "dead" never
    does (no spec reads it), and no spec reads toffoli_distilled, so a
    twin with that output ties its original only in the final selection,
    where the name chain breaks the tie.
    """
    menu = []
    for i in range(rng.randint(1, 4)):
        menu.append(
            ProtocolSpec(
                name=f"{tag}-{i}",
                inputs_per_output=rng.uniform(1.5, 16.0),
                error_poly=((rng.uniform(0.5, 40.0), rng.choice([2, 3])),),
                success_poly=((1.0, 0), (-rng.uniform(0.0, 20.0), 1)),
                input_kind=rng.choice(["T", "T", "T", "toffoli", "A"]),
                output_kind=rng.choice(OUTPUT_KINDS),
                family=rng.choice(["t", "jones", "jones_double", "triortho", ""]),
            )
        )
    finals = [spec for spec in menu if spec.output_kind == "toffoli_distilled"]
    if finals and rng.random() < 0.5:
        original = rng.choice(finals)
        twin = dataclasses.replace(original, name=f"{tag}-twin")
        menu.insert(rng.randint(0, len(menu)), twin)
    return menu


def assert_matches_oracle(query, expected, expected_best, got):
    """``got`` is optimize_stack's result or its InfeasibleTargetError."""
    if isinstance(got, InfeasibleTargetError):
        assert expected is None
        assert got.best_error == expected_best
        message = f"no stack of depth <= {query.max_depth} reaches {query.target_error:g}"
        if expected_best is not None:
            message += f" (best achieved {expected_best:g})"
        assert str(got) == message
    else:
        assert expected is not None
        (cost, depth, names), error = expected
        assert got.expected_t_count == cost
        assert got.achieved_error == error
        assert tuple(lv.spec.name for lv in got.levels) == names


def search(query):
    try:
        return optimize_stack(query)
    except InfeasibleTargetError as err:
        return err


class TestProtocolSpec:
    def test_polynomial_evaluation(self):
        spec = fifteen_to_one()
        assert spec.output_error(1e-2) == pytest.approx(35e-6, rel=1e-12)
        assert spec.success_prob(1e-2) == pytest.approx(0.85, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolSpec("bad", 0.0, ((1.0, 2),), ((1.0, 0),), "T", "T")
        with pytest.raises(ValueError):
            # Constant term in the error polynomial: imperfect at p = 0.
            ProtocolSpec("bad", 2.0, ((1.0, 0),), ((1.0, 0),), "T", "T")
        with pytest.raises(ValueError):
            ProtocolSpec("bad", 2.0, ((1.0, 2),), ((0.5, 0),), "T", "T")


class TestFactories:
    def test_fifteen_to_one(self):
        spec = fifteen_to_one()
        assert spec.inputs_per_output == 15.0
        assert (spec.input_kind, spec.output_kind) == ("T", "T")

    def test_t_level_family(self):
        spec = triorthogonal_t_level(14)
        assert spec.inputs_per_output == pytest.approx(50 / 14)
        assert spec.output_error(1e-3) == pytest.approx(43e-6, rel=1e-12)
        assert spec.param_k == 14

    def test_jones_toffoli(self):
        spec = jones_toffoli()
        assert spec.inputs_per_output == 8.0
        assert spec.output_error(1e-2) == pytest.approx(28e-4, rel=1e-12)
        assert spec.output_kind == "toffoli"
        assert spec.family == "jones"

    def test_top_level_k100(self):
        spec = triorthogonal_top_level(100)
        assert spec.inputs_per_output == pytest.approx(3.08)
        assert spec.output_error(1e-3) == pytest.approx(2107 * (1e-3 / 7) ** 2, rel=1e-12)
        assert spec.input_kind == "toffoli"
        assert spec.output_kind == "toffoli_distilled"
        assert spec.output_kind in DELIVERABLE_KINDS

    def test_top_level_k2_collapses_to_p_squared(self):
        spec = triorthogonal_top_level(2)
        assert spec.output_error(1e-3) == pytest.approx(1e-6, rel=1e-12)

    def test_zero_input_error(self):
        for spec in (fifteen_to_one(), jones_toffoli(), triorthogonal_top_level(10)):
            assert spec.output_error(0.0) == 0.0
            assert spec.success_prob(0.0) == 1.0

    def test_k_validation(self):
        for bad in (1, 0, -2, 3, 101, 102):
            with pytest.raises(ValueError):
                triorthogonal_top_level(bad)
            with pytest.raises(ValueError):
                triorthogonal_t_level(bad)

    def test_default_menu_composition(self):
        menu = default_menu()
        assert len(menu) == 102
        families = {spec.family for spec in menu}
        assert families == {"t", "jones", "triortho"}

    @pytest.mark.parametrize("physical", [5e-3, 1e-2, 2e-2])
    def test_jones_only_optimum_is_the_jones_column(self, physical):
        # The Jones-only comparison needs no second menu: requiring the
        # jones family last on the full menu gives the jones column.  On the
        # default menu only T-level specs feed jones-toffoli, so the T->T
        # specs plus jones give the same cell.
        menu = tuple(default_menu())
        sub_menu = tuple(
            spec
            for spec in menu
            if (spec.input_kind, spec.output_kind) == ("T", "T") or spec.family == "jones"
        )
        grid = [10.0**-e for e in range(6, 21)]
        rows = cost_curve(menu, grid, physical)
        for target, row in zip(grid, rows):
            for chosen in (menu, sub_menu):
                query = CostQuery(target, physical, chosen, required_final_family="jones")
                try:
                    cost = optimize_stack(query).expected_t_count
                except InfeasibleTargetError:
                    cost = None
                assert cost == row.jones
        assert any(row.jones is not None for row in rows)


class TestCostQuery:
    def test_validation(self):
        menu = (jones_toffoli(),)
        with pytest.raises(ValueError):
            CostQuery(target_error=1e-13, physical_t_error=0.0, menu=menu)
        with pytest.raises(ValueError):
            CostQuery(target_error=1e-13, physical_t_error=1.0, menu=menu)
        with pytest.raises(ValueError):
            CostQuery(target_error=2e-2, physical_t_error=1e-2, menu=menu)
        with pytest.raises(ValueError):
            CostQuery(target_error=0.0, physical_t_error=1e-2, menu=menu)
        with pytest.raises(ValueError):
            CostQuery(target_error=1e-13, physical_t_error=1e-2, menu=())
        with pytest.raises(ValueError):
            CostQuery(target_error=1e-13, physical_t_error=1e-2, menu=menu, max_depth=0)

    def test_boundary_target_equal_physical_allowed(self):
        CostQuery(target_error=1e-2, physical_t_error=1e-2, menu=(jones_toffoli(),))


class TestOptimizer:
    def test_full_menu_headline(self):
        result = optimize_stack(
            CostQuery(target_error=1e-13, physical_t_error=1e-2, menu=tuple(default_menu()))
        )
        assert result.expected_t_count == pytest.approx(434.9499090845322, rel=1e-12)
        assert result.k_star == 100
        assert [lv.spec.name for lv in result.levels] == [
            "fifteen-to-one",
            "jones-toffoli",
            "tri-toffoli-k100",
        ]
        assert result.achieved_error <= 1e-13

    def test_jones_only_headline(self):
        result = optimize_stack(
            CostQuery(
                target_error=1e-13,
                physical_t_error=1e-2,
                menu=tuple(default_menu()),
                required_final_family="jones",
            )
        )
        assert result.expected_t_count == pytest.approx(505.08579328118884, rel=1e-12)
        assert result.k_star is None
        assert result.levels[-1].spec.name == "jones-toffoli"

    def test_boundary_target_single_level(self):
        # Loosest sensible target: one Jones level already qualifies; the
        # cost is its 8 inputs divided by the 0.92 success probability.
        result = optimize_stack(
            CostQuery(
                target_error=1e-2,
                physical_t_error=1e-2,
                menu=tuple(default_menu()),
                required_final_family="jones",
            )
        )
        assert len(result.levels) == 1
        assert result.levels[0].spec.name == "jones-toffoli"
        assert result.expected_t_count == pytest.approx(8 / 0.92, rel=1e-12)
        assert result.achieved_error == pytest.approx(28e-4, rel=1e-12)

    def test_infeasible_target_reports_best(self):
        with pytest.raises(InfeasibleTargetError) as excinfo:
            optimize_stack(
                CostQuery(target_error=1e-40, physical_t_error=1e-2, menu=(jones_toffoli(),))
            )
        assert excinfo.value.best_error == pytest.approx(28e-4, rel=1e-12)

    def test_k_range_restriction(self):
        result = optimize_stack(
            CostQuery(
                target_error=1e-13,
                physical_t_error=1e-2,
                menu=tuple(
                    spec for spec in default_menu() if spec.param_k is None or spec.param_k <= 50
                ),
            )
        )
        assert result.k_star == 50
        assert result.expected_t_count == pytest.approx(446.24501336564487, rel=1e-12)

    def test_error_budget_soundness(self):
        # Forward-composing the chosen stack reproduces the claimed error
        # and cost exactly, not approximately.
        result = optimize_stack(
            CostQuery(target_error=1e-13, physical_t_error=1e-2, menu=tuple(default_menu()))
        )
        error = 1e-2
        cost = 1.0
        for level in result.levels:
            assert level.input_error == error
            assert level.success_prob == level.spec.success_prob(error)
            cost = cost * level.spec.inputs_per_output / level.success_prob
            error = level.spec.output_error(error)
            assert level.output_error == error
        assert error == result.achieved_error
        assert cost == result.expected_t_count

    def test_dominance(self):
        # A larger menu never costs more.
        base = optimize_stack(
            CostQuery(
                target_error=1e-13,
                physical_t_error=1e-2,
                menu=tuple(default_menu()),
                required_final_family="jones",
            )
        )
        extended = optimize_stack(
            CostQuery(target_error=1e-13, physical_t_error=1e-2, menu=tuple(default_menu()))
        )
        assert extended.expected_t_count <= base.expected_t_count

    def test_perfect_success_lowers_cost(self):
        def flat(spec):
            return ProtocolSpec(
                spec.name,
                spec.inputs_per_output,
                spec.error_poly,
                ((1.0, 0),),
                spec.input_kind,
                spec.output_kind,
                spec.family,
                spec.param_k,
            )

        query = CostQuery(
            target_error=1e-13, physical_t_error=1e-2, menu=tuple(default_menu())
        )
        ideal = optimize_stack(
            CostQuery(
                target_error=1e-13,
                physical_t_error=1e-2,
                menu=tuple(flat(s) for s in default_menu()),
            )
        )
        assert ideal.expected_t_count <= optimize_stack(query).expected_t_count

    def test_matches_brute_force_on_random_menus(self):
        # Exhaustive stack enumeration is the oracle; neither the Pareto
        # pruning nor the lookahead may change the answer or, for an
        # infeasible target, the message and best error.
        rng = random.Random(0xC057)
        for trial in range(120):
            menu = random_menu(rng, f"m{trial}")
            query = CostQuery(
                target_error=10.0 ** rng.uniform(-12, -2),
                physical_t_error=1e-2,
                menu=tuple(menu),
                max_depth=rng.randint(1, 5),
                required_final_family=rng.choice([None, None, "jones", "triortho"]),
            )
            expected, expected_best = brute_force(query)
            assert_matches_oracle(query, expected, expected_best, search(query))

    def test_equal_cost_goes_to_smaller_name_chain(self):
        b = ProtocolSpec("b", 8.0, ((28.0, 2),), ((1.0, 0), (-8.0, 1)), "T", "toffoli")
        a = dataclasses.replace(b, name="a")
        result = optimize_stack(CostQuery(1e-2, 1e-2, (b, a), max_depth=1))
        assert [lv.spec.name for lv in result.levels] == ["a"]

    def test_intermediate_tie_goes_to_smaller_name_chain(self):
        # Twin T -> T levels tie exactly in (error, cost, depth) before the
        # Toffoli level; menu order must not pick the survivor.
        b = dataclasses.replace(fifteen_to_one(), name="b")
        a = dataclasses.replace(b, name="a")
        for menu in ((b, a, jones_toffoli()), (a, b, jones_toffoli())):
            query = CostQuery(1e-6, 1e-2, menu, max_depth=2)
            result = optimize_stack(query)
            assert [lv.spec.name for lv in result.levels] == ["a", "jones-toffoli"]
            (key, _error), _best = brute_force(query)
            assert key == (result.expected_t_count, 2, ("a", "jones-toffoli"))

    def test_lookahead_skips_specs_that_cannot_deliver(self):
        calls = []

        class Spy(ProtocolSpec):
            def success_prob(self, p):
                calls.append(self.name)
                return super().success_prob(p)

        t_level = Spy("t-level", 2.0, ((1.0, 2),), ((1.0, 0),), "T", "T")
        dead_end = Spy("dead-end", 2.0, ((1.0, 2),), ((1.0, 0),), "T", "dead")
        dead_loop = Spy("dead-loop", 2.0, ((1.0, 2),), ((1.0, 0),), "dead", "dead")
        calls.clear()
        menu = (t_level, dead_end, dead_loop, jones_toffoli())
        optimize_stack(CostQuery(1e-3, 1e-2, menu, max_depth=3))
        assert "dead-end" not in calls and "dead-loop" not in calls
        # Levels 1 and 2 each expand one T state; at level 3 a T output
        # could no longer become a Toffoli.
        assert calls.count("t-level") == 2


class TestCostCurve:
    def test_monotone_in_target(self):
        rows = cost_curve(default_menu(), [1e-20, 1e-13, 1e-6], 1e-2)
        jones = [row.jones for row in rows]
        tri = [row.triortho_k_opt for row in rows]
        assert jones == sorted(jones, reverse=True)
        assert tri == sorted(tri, reverse=True)

    def test_triortho_wins_at_tight_targets(self):
        rows = cost_curve(default_menu(), [1e-13, 1e-14], 1e-2)
        for row in rows:
            assert row.triortho_k_opt is not None and row.jones is not None
            assert row.triortho_k_opt <= row.jones

    def test_loose_target_converges_to_bare_jones(self):
        rows = cost_curve(default_menu(), [28e-4], 1e-2)
        assert rows[0].jones == pytest.approx(8 / 0.92, rel=1e-12)
        # The triorthogonal family always pays for its final level, so it
        # stays above the undistilled Jones cost at loose targets.
        assert rows[0].triortho_k_opt > rows[0].jones

    def test_missing_family_leaves_blank_cells(self):
        jones_menu = [spec for spec in default_menu() if spec.family != "triortho"]
        rows = cost_curve(jones_menu, [1e-13], 1e-2)
        assert rows[0].jones == pytest.approx(505.08579328118884, rel=1e-12)
        assert rows[0].triortho_k_opt is None
        assert rows[0].k_star is None

    def test_infeasible_cells_are_blank(self):
        rows = cost_curve(default_menu(), [1e-9], 1e-2, max_depth=1)
        assert rows[0].jones is None
        assert rows[0].triortho_k_opt is None
        assert rows[0].k_star is None

    def test_csv_rendering(self):
        rows = cost_curve(default_menu(), [1e-13], 1e-2)
        text = render_cost_curve_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == "target_error,jones,triortho_k_opt,k_star"
        assert lines[1] == "1e-13,505.08579328118884,434.9499090845322,100"

    def test_cells_match_per_cell_search_and_brute_force(self):
        # Each cell equals optimize_stack on the whole menu with its family
        # required last, and the exhaustive oracle agrees.
        rng = random.Random(0xC0C0)
        checked = 0
        for trial in range(60):
            menu = random_menu(rng, f"c{trial}")
            if trial % 3 == 0:
                # A second eight-T-style Toffoli source in the jones column.
                menu.append(
                    ProtocolSpec(
                        name=f"c{trial}-toffoli",
                        inputs_per_output=12.0,
                        error_poly=((9.0, 2),),
                        success_poly=((1.0, 0), (-12.0, 1)),
                        input_kind="T",
                        output_kind="toffoli",
                        family="jones",
                    )
                )
            targets = sorted(10.0 ** rng.uniform(-14, -3) for _ in range(3))
            depth = rng.randint(1, 5)
            rows = cost_curve(menu, targets, 1e-2, max_depth=depth)
            for target, row in zip(targets, rows):
                assert row.target_error == target
                cells = {"jones": row.jones, "triortho": row.triortho_k_opt}
                for family in FAMILIES:
                    if not any(spec.family == family for spec in menu):
                        assert cells[family] is None
                        continue
                    query = CostQuery(target, 1e-2, tuple(menu), depth, family)
                    got = search(query)
                    assert_matches_oracle(query, *brute_force(query), got)
                    if isinstance(got, InfeasibleTargetError):
                        assert cells[family] is None
                    else:
                        checked += 1
                        assert cells[family] == got.expected_t_count
                        if family == "triortho":
                            assert row.k_star == got.k_star
        assert checked > 20

    def test_expands_once_per_call(self, monkeypatch):
        menus = []
        expand = cost_mod._expand

        def counting(menu, physical, max_depth):
            menus.append(menu)
            return expand(menu, physical, max_depth)

        monkeypatch.setattr(cost_mod, "_expand", counting)
        grid = [10.0**-e for e in range(6, 21)]
        # Both columns select from one search of the whole menu.
        cost_curve(default_menu(), grid, 1e-2)
        assert menus == [tuple(default_menu())]
        # A triortho entry that outputs T still means one search, though
        # no deliverable stack ends in it.
        menus.clear()
        t_level = dataclasses.replace(triorthogonal_t_level(4), family="triortho")
        rows = cost_curve([fifteen_to_one(), jones_toffoli(), t_level], grid, 1e-2)
        assert len(menus) == 1
        assert all(row.jones is not None and row.triortho_k_opt is None for row in rows[:3])
        # No family has an entry: nothing is expanded.
        menus.clear()
        rows = cost_curve([fifteen_to_one()], grid, 1e-2)
        assert menus == []
        assert rows == [CurveRow(target, None, None, None) for target in grid]

    def test_cell_queries_still_validate(self):
        with pytest.raises(ValueError, match="target_error"):
            cost_curve(default_menu(), [1e-13, 2e-2], 1e-2)
        with pytest.raises(ValueError, match="physical_t_error"):
            cost_curve(default_menu(), [1e-13], 0.0)
        with pytest.raises(ValueError, match="max_depth"):
            cost_curve(default_menu(), [1e-13], 1e-2, max_depth=0)
        # Targets are checked even when no cell is filled.
        with pytest.raises(ValueError, match="target_error"):
            cost_curve([fifteen_to_one()], [2e-2], 1e-2)

    def test_csv_blank_row(self):
        rows = cost_curve(default_menu(), [1e-9], 1e-2, max_depth=1)
        assert render_cost_curve_csv(rows).splitlines()[1] == "1e-09,,,"


class TestMenuJson:
    def test_round_trip(self):
        menu = default_menu()
        assert menu_from_json(menu_to_json(menu)) == menu

    def test_bad_kind_rejected(self):
        entry = menu_to_json([jones_toffoli()])[0]
        entry["kind"] = "toffoli"
        with pytest.raises(ValueError):
            menu_from_json([entry])

    def test_missing_keys_rejected(self):
        entry = menu_to_json([jones_toffoli()])[0]
        del entry["error_poly"]
        with pytest.raises(ValueError):
            menu_from_json([entry])
        with pytest.raises(ValueError):
            menu_from_json([{"name": "stub"}])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("error_poly", [[28.0, -1]]),
            ("error_poly", [[28.0, 2.7]]),
            ("error_poly", [[math.inf, 2]]),
            ("success_poly", [[1.0, 0], [math.nan, 1]]),
            ("inputs_per_output", math.inf),
            ("inputs_per_output", math.nan),
            ("k", 3.9),
        ],
    )
    def test_bad_numbers_rejected_naming_entry(self, field, value):
        entry = menu_to_json([jones_toffoli()])[0]
        entry[field] = value
        # Through JSON text, as the command line reads it.
        with pytest.raises(ValueError, match="jones-toffoli"):
            menu_from_json(json.loads(json.dumps([entry])))

    def test_integral_floats_accepted(self):
        entry = menu_to_json([triorthogonal_top_level(4)])[0]
        entry["error_poly"] = [[c, float(d)] for c, d in entry["error_poly"]]
        entry["k"] = 4.0
        (spec,) = menu_from_json([entry])
        assert spec == triorthogonal_top_level(4)
        assert repr(spec) == repr(triorthogonal_top_level(4))

    def test_custom_entry(self):
        # A menu entry joins its family's column; any other family fills none.
        data = [
            {
                "name": "cheap-toffoli",
                "inputs_per_output": 4.0,
                "error_poly": [[9.0, 2]],
                "success_poly": [[1.0, 0], [-4.0, 1]],
                "kind": "T->toffoli",
                "family": "jones",
            }
        ]
        (spec,) = menu_from_json(data)
        assert spec.family == "jones"
        assert spec.param_k is None
        (base,) = cost_curve(default_menu(), [1e-6], 1e-2)
        (row,) = cost_curve(default_menu() + [spec], [1e-6], 1e-2)
        assert row.jones < base.jones
        other = dataclasses.replace(spec, family="jones_double")
        (row,) = cost_curve(default_menu() + [other], [1e-6], 1e-2)
        assert row.jones == base.jones


def dense_menu(rng, tag):
    """Five to eight random specs, the first three T -> T, plus one or two
    renamed twins of specs that feed another level.  Success polynomials are
    steep enough to go negative on part of a level's fresh errors."""
    menu = []
    for i in range(rng.randint(5, 8)):
        terms = [(1.0, 0), (-(10.0 ** rng.uniform(0.5, 3.5)), 1)]
        if rng.random() < 0.3:
            terms.append((rng.uniform(-2e4, 2e4), 2))
        input_kind, output_kind = "T", "T"
        if i >= 3:
            input_kind = rng.choice(["T", "T", "T", "toffoli", "A"])
            output_kind = rng.choice(OUTPUT_KINDS)
        menu.append(
            ProtocolSpec(
                name=f"{tag}-{i}",
                inputs_per_output=rng.uniform(1.5, 16.0),
                error_poly=((rng.uniform(0.5, 40.0), rng.choice([2, 3])),),
                success_poly=tuple(terms),
                input_kind=input_kind,
                output_kind=output_kind,
                family=rng.choice(["t", "jones", "triortho", ""]),
            )
        )
    feeders = [spec for spec in menu if spec.output_kind in ("T", "toffoli", "A")]
    for j in range(rng.randint(1, 2)):
        # The digit puts the twin's name before or after its original's.
        twin = dataclasses.replace(rng.choice(feeders), name=f"{tag}-{rng.randint(0, 9)}twin{j}")
        menu.insert(rng.randint(0, len(menu)), twin)
    return menu


class TestArrayEvaluation:
    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    def test_arrays_match_scalars_bit_for_bit(self):
        # numpy's own power differs from Python's float ** in the last bit
        # for some inputs; the array path must not.
        rng = np.random.default_rng(0xA77A)
        p = 10.0 ** rng.uniform(-300.0, 5.0, 100_000)
        polys = [((rng.uniform(-50.0, 50.0), degree),) for degree in range(6)]
        polys.append(tuple((rng.uniform(-50.0, 50.0), degree) for degree in (3, 0, 5, 1, 2, 4)))
        scalars = p.tolist()
        for poly in polys:
            got = cost_mod._eval_poly(poly, p, "poly")
            want = [cost_mod._eval_poly(poly, x, "poly") for x in scalars]
            assert got.dtype == np.float64 and got.shape == p.shape
            assert np.array_equal(self.bits(got), self.bits(want)), poly
        error_poly = tuple(term for term in polys[-1] if term[1] > 0)
        success_poly = ((1.0, 0), (-2.5, 1), (0.75, 3))
        spec = ProtocolSpec("mixed", 3.0, error_poly, success_poly, "T", "T")
        for method in (spec.output_error, spec.success_prob):
            want = [method(x) for x in scalars]
            assert all(type(value) is float for value in want)
            assert np.array_equal(self.bits(method(p)), self.bits(want))

    def test_constant_polynomial_fills_the_array(self):
        spec = ProtocolSpec("flat", 2.0, ((1.0, 2),), ((1.0, 0),), "T", "T")
        got = spec.success_prob(np.array([0.5, 0.25, 0.0]))
        assert got.dtype == np.float64 and got.tolist() == [1.0, 1.0, 1.0]
        assert spec.success_prob(np.empty(0)).shape == (0,)


class TestOverflow:
    BOOM = ProtocolSpec("boom", 0.5, ((1e200, 1),), ((1.0, 0),), "T", "T")
    SQ = ProtocolSpec("sq", 2.0, ((1.0, 2),), ((1.0, 0),), "T", "T")
    MESSAGE = re.escape("sq: float overflow at input error 1e+198")

    def test_overflow_names_the_entry_and_input(self):
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            self.SQ.output_error(1e198)
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            self.SQ.output_error(np.array([1e-4, 1e198, 1e150]))
        menu = (self.BOOM, self.SQ, jones_toffoli())
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            cost_curve(menu, [1e-13], 1e-2)
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            optimize_stack(CostQuery(1e-13, 1e-2, menu))

    def test_a_discarded_branch_is_not_evaluated(self):
        # jones-toffoli's p^2 would overflow on boom's output too, but its
        # success probability there is negative, so the stack is dropped
        # before its error is computed.
        result = optimize_stack(CostQuery(1e-2, 1e-2, (self.BOOM, jones_toffoli()), 2))
        assert [lv.spec.name for lv in result.levels] == ["jones-toffoli"]


class TestReturnedTypes:
    def test_every_reported_number_is_a_builtin_float(self):
        menu = tuple(default_menu())
        rows = cost_curve(menu, [10.0**-e for e in range(6, 21)], 1e-2)
        for row in rows:
            for value in (row.target_error, row.jones, row.triortho_k_opt):
                assert value is None or type(value) is float
            assert row.k_star is None or type(row.k_star) is int
        assert "np.float64(" not in render_cost_curve_csv(rows)
        assert "np." not in repr(rows)
        result = optimize_stack(CostQuery(1e-13, 1e-2, menu))
        assert type(result.expected_t_count) is float
        assert type(result.achieved_error) is float
        for level in result.levels:
            for value in (level.input_error, level.output_error, level.success_prob):
                assert type(value) is float
        with pytest.raises(InfeasibleTargetError) as excinfo:
            optimize_stack(CostQuery(1e-40, 1e-2, menu, max_depth=2))
        assert type(excinfo.value.best_error) is float


class TestDenseOracle:
    def test_matches_brute_force_on_dense_menus(self):
        # Larger random menus than test_matches_brute_force_on_random_menus:
        # several specs per kind, twins that tie in (error, cost, depth)
        # before the last level, and success polynomials that drop part of
        # an array of fresh errors.
        partial = []

        class Recording(ProtocolSpec):
            def success_prob(self, p):
                success = super().success_prob(p)
                if isinstance(p, np.ndarray) and 0 < np.count_nonzero(success <= 0.0) < len(p):
                    partial.append(self.name)
                return success

        rng = random.Random(0xDE45E)
        ties = 0
        for trial in range(300):
            specs = dense_menu(rng, f"d{trial}")
            menu = tuple(Recording(*dataclasses.astuple(spec)) for spec in specs)
            physical = 10.0 ** rng.uniform(-2, -1.3)
            query = CostQuery(
                target_error=physical * 10.0 ** rng.uniform(-12, 0),
                physical_t_error=physical,
                menu=menu,
                max_depth=rng.randint(1, 4),
                required_final_family=rng.choice([None, "jones", "triortho"]),
            )
            got = search(query)
            expected, expected_best = brute_force(query)
            assert_matches_oracle(query, expected, expected_best, got)
            # A stack through one of a pair of twins tied one through the other.
            shapes = collections.Counter(dataclasses.astuple(spec)[1:] for spec in menu)
            if not isinstance(got, InfeasibleTargetError):
                levels = got.levels[:-1]
                ties += any(shapes[dataclasses.astuple(lv.spec)[1:]] > 1 for lv in levels)
        assert len(partial) >= 10
        assert ties >= 10
