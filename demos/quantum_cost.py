"""Exact query counts and cycle lower bounds of the Chebyshev-based solver.

Everything is integer-exact: ceilings are decided in escalating-precision
decimal arithmetic, never by floating point. The tomography readout of a
d-dimensional solution multiplies the solver bracket by 8 (d - 1) / eps^2,
which is what ultimately dominates the bound.
"""

from qipm_bounds.qcost import (duration_grid, hermitian_dilation_params,
                               qlsa_query_count, total_quantum_cycles)

print("query count Q(s=1, kappa=1, eps=0.1):", qlsa_query_count(1, 1, 0.1))
print("cycle bound (d=2, gamma=1, eps=0.1): ", total_quantum_cycles(2, 1, 0.1))
print()

print(f"{'gamma':>8} {'d':>6} {'queries':>12} {'cycles':>16} {'at 800 ps':>12}")
for gamma, d in [(2, 4), (10, 20), (100, 200), (1000, 2000), (10**6, 10**4)]:
    q = qlsa_query_count(1, gamma, 0.1)
    cycles = total_quantum_cycles(d, gamma, 0.1)
    print(f"{gamma:>8} {d:>6} {q:>12} {cycles:>16} {cycles * 8e-10:>11.3g}s")

print()
d2, s2, k2 = hermitian_dilation_params(d=50, s=7, kappa=3.5, is_hermitian=False)
print(f"OSS-style system (d=50): Hermitian dilation solves a {d2}-dimensional "
      f"system with unchanged s = {s2}, kappa = {k2}")

grid = duration_grid(points=13)
print(f"duration grid: {len(grid)} points from {grid[0]:.0e}s to "
      f"{grid[-1]:.0e}s, reference 8e-10s included: {8e-10 in grid}")
