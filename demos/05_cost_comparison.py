"""Compare expected T-state costs of Toffoli distillation stacks.

Two optima over the default menu: the cheapest stack ending in the
eight-T Toffoli construction (family ``jones`` required last), and the
cheapest stack overall, which ends in a Toffoli-to-Toffoli triorthogonal
level with an optimally chosen k.
"""

from triortho.cost import (
    CostQuery,
    cost_curve,
    default_menu,
    optimize_stack,
    render_cost_curve_csv,
)

TARGET = 1e-13
PHYSICAL = 1e-2

jones = optimize_stack(
    CostQuery(
        target_error=TARGET,
        physical_t_error=PHYSICAL,
        menu=tuple(default_menu()),
        required_final_family="jones",
    )
)
tri = optimize_stack(
    CostQuery(target_error=TARGET, physical_t_error=PHYSICAL, menu=tuple(default_menu()))
)

print(f"target {TARGET:g}, physical T error {PHYSICAL:g}")
print("without top-level triorthogonal distillation:")
print(" ", jones.describe())
print("with it:")
print(" ", tri.describe())
print(f"  k* = {tri.k_star}")

ratio = tri.expected_t_count / jones.expected_t_count
print(f"\ncost ratio: {ratio:.4f} (saving {100 * (1 - ratio):.1f}%)")

# Reference points for this target are 540.16 and 428.7; the exact values
# depend on which T-level sub-protocols the menu contains, so we print the
# discrepancy rather than hiding it.
print(f"jones-only vs 540.16: {100 * (jones.expected_t_count / 540.16 - 1):+.2f}%")
print(f"triortho   vs 428.70: {100 * (tri.expected_t_count / 428.7 - 1):+.2f}%")

print("\ncost curve over a target grid:")
rows = cost_curve(default_menu(), [10.0**-e for e in range(6, 21, 2)], PHYSICAL)
print(render_cost_curve_csv(rows), end="")
