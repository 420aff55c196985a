"""The region cut out by an exponent matrix.

The same matrix nu that describes a split order also cuts out a compact
region in the coordinates (x_1, ..., x_n), x_1 = 0: the difference
constraints x_i - x_j <= nu[i][j].  Integer points of that region are
the maximal orders containing the split order.
"""

from splitorders import (
    ExponentMatrix,
    difference_range,
    enumerate_lattice_points,
    is_reduced,
    max_difference,
)

nu = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])

print("bounds on x_2:      ", difference_range(nu, 1, 0))
print("bounds on x_3:      ", difference_range(nu, 2, 0))
print("bounds on x_3 - x_2:", difference_range(nu, 2, 1))

points = enumerate_lattice_points(nu)
print(f"\n{len(points)} integer points:")
for p in points:
    print(" ", p.m)

# the sharpest achievable difference is a shortest-path value, not the
# declared entry; for a reduced matrix the two always agree
print("\nmax of x_2 over the region:", max_difference(nu, 1, 0))
print("is_reduced(nu):", is_reduced(nu))

nu_prime = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
print("\nnu' declares x_3 >= -2 but the region stops at -1:")
print("max of x_1 - x_3:", max_difference(nu_prime, 0, 2), "(declared:", nu_prime.entries[0][2], ")")
print("is_reduced(nu'):", is_reduced(nu_prime))
print("same points as nu:", [p.m for p in enumerate_lattice_points(nu_prime)] == [p.m for p in points])
