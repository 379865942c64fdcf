"""Walk through code construction: orthogonality checks, stabilizer
extraction, distances, and a small randomized search."""

from triortho.codes import (
    build_code,
    builtin_15_1_3,
    check_orthogonality,
    distances,
    search_triorthogonal,
)

source = builtin_15_1_3()
print("built-in matrix, rows as bit strings (leftmost = qubit 0):")
for row in source.matrix.rows:
    print(" ", row.to_string())

violation = check_orthogonality(source.matrix, 3)
print("\nlevel-3 orthogonality:", "ok" if violation is None else f"violated at {violation}")

code = build_code(source)
print(f"\nn = {code.n}, k = {code.k}")
print(f"X stabilizers: {code.g0_basis.row_count}")
print(f"Z stabilizers: {code.z_stabilizers.row_count}")
print(f"gauge qubit pairs: {len(code.gauge_pairs)}")

d_x, d_z = distances(code)
print(f"distances: d_x = {d_x}, d_z = {d_z}, code distance = {min(d_x, d_z)}")

# The X distance is larger than the Z distance here; the X logical operator
# has the weight of the all-ones row.
print("\nlogical X support size:", code.logical_x[0].weight)

# A seeded search for a smaller specimen.  Three even rows and one odd row
# over eight qubits is enough for the simulator demos.
found = search_triorthogonal(n=8, k=1, m_even=3, budget=50000, seed=0)
print("\nsearched 8-qubit matrix (seed 0):")
for row in found.matrix.rows:
    print(" ", row.to_string())
small = build_code(found)
print("parameters:", small.n, small.k, "distances:", distances(small))
