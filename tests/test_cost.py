"""Distillation stack cost model and optimizer."""

import itertools
import random

import pytest

from triortho.cost import (
    CSV_HEADER,
    DELIVERABLE_KINDS,
    CostQuery,
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
        assert len(default_menu(include_triorthogonal=False)) == 52
        families = {spec.family for spec in menu}
        assert families == {"t", "jones", "triortho"}


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
                menu=tuple(default_menu(include_triorthogonal=False)),
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
                menu=tuple(default_menu(include_triorthogonal=False)),
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
                menu=tuple(default_menu(include_triorthogonal=False)),
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
        # Exhaustive stack enumeration is the oracle; the optimizer's
        # Pareto pruning must never change the answer.
        def brute_force(query):
            menu = query.menu
            best = None
            best_error = None
            for depth in range(1, query.max_depth + 1):
                for combo in itertools.product(menu, repeat=depth):
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
                    if best_error is None or error < best_error:
                        best_error = error
                    if error > query.target_error:
                        continue
                    key = (cost, len(combo), tuple(names))
                    if best is None or key < best[0]:
                        best = (key, error)
            return best, best_error

        rng = random.Random(0xC057)
        kinds_pool = ["T", "toffoli", "toffoli_distilled"]
        for trial in range(50):
            menu = []
            for i in range(rng.randint(1, 3)):
                menu.append(
                    ProtocolSpec(
                        name=f"m{trial}-{i}",
                        inputs_per_output=rng.uniform(1.5, 16.0),
                        error_poly=((rng.uniform(0.5, 40.0), rng.choice([2, 3])),),
                        success_poly=((1.0, 0), (-rng.uniform(0.0, 20.0), 1)),
                        input_kind=rng.choice(["T", "T", "toffoli"]),
                        output_kind=rng.choice(kinds_pool),
                    )
                )
            query = CostQuery(
                target_error=10.0 ** rng.uniform(-14, -3),
                physical_t_error=1e-2,
                menu=tuple(menu),
                max_depth=rng.randint(1, 3),
            )
            expected, expected_best = brute_force(query)
            try:
                got = optimize_stack(query)
            except InfeasibleTargetError as err:
                assert expected is None
                assert err.best_error == expected_best
            else:
                assert expected is not None
                (cost, depth, names), error = expected
                assert got.expected_t_count == cost
                assert got.achieved_error == error
                assert tuple(lv.spec.name for lv in got.levels) == names


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
        rows = cost_curve(default_menu(), [1e-13], 1e-2)
        assert rows[0].jones_double is None

    def test_infeasible_cells_are_blank(self):
        rows = cost_curve(default_menu(), [1e-9], 1e-2, max_depth=1)
        assert rows[0].jones is None
        assert rows[0].triortho_k_opt is None
        assert rows[0].k_star is None

    def test_csv_rendering(self):
        rows = cost_curve(default_menu(), [1e-13], 1e-2)
        text = render_cost_curve_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == "target_error,jones,jones_double,triortho_k_opt,k_star"
        assert lines[1] == "1e-13,505.08579328118884,,434.9499090845322,100"

    def test_csv_blank_row(self):
        rows = cost_curve(default_menu(), [1e-9], 1e-2, max_depth=1)
        assert render_cost_curve_csv(rows).splitlines()[1] == "1e-09,,,,"


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

    def test_custom_entry(self):
        data = [
            {
                "name": "double-check",
                "inputs_per_output": 12.0,
                "error_poly": [[9.0, 2]],
                "success_poly": [[1.0, 0], [-12.0, 1]],
                "kind": "T->toffoli",
                "family": "jones_double",
            }
        ]
        (spec,) = menu_from_json(data)
        assert spec.family == "jones_double"
        assert spec.param_k is None
        rows = cost_curve(default_menu() + [spec], [1e-6], 1e-2)
        assert rows[0].jones_double is not None
