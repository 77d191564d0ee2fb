"""From a messy LP to min c'x, Ax = b, x >= 0 with full row rank.

The raw instance contains a scaled duplicate row and an equality row that is
the sum of two others; presolve merges the former and rank repair drops the
latter, so the final constraint matrix is genuinely full rank.
"""

import numpy as np

from qipm_bounds import parse_mps
from qipm_bounds.corpus import corpus_dir
from qipm_bounds.standardize import ensure_full_row_rank, presolve, to_standard_form

lp = parse_mps((corpus_dir() / "raw" / "rankdef_dup.mps").read_text())
print(f"raw instance: {lp.n_rows} rows, {lp.n_cols} columns")

reduced = presolve(lp)
print(f"after presolve: {reduced.n_rows} rows, {reduced.n_cols} columns")
for event in reduced.transform_log:
    print("  presolve:", event)

std = to_standard_form(reduced)
print(f"standard form: m = {std.m}, n = {std.n}, of which "
      f"{std.n - reduced.n_cols} added (slacks, free splits, bound slacks)")

full = ensure_full_row_rank(std)
print(f"after rank repair: m = {full.m} "
      f"(dense rank = {np.linalg.matrix_rank(full.A.to_dense())})")
for event in full.transform_log:
    if "dependent" in event:
        print("  rank repair:", event)

print("A =")
print(full.A.to_dense())
print("b =", full.b)
print("c =", full.c)
