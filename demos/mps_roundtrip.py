"""Read an MPS file, inspect the model, write it back, and check round-trip."""

import numpy as np

from qipm_bounds import emit_mps, parse_mps
from qipm_bounds.corpus import corpus_dir

path = corpus_dir() / "tiny" / "bounds_mix.mps"
lp = parse_mps(path.read_text())

print(f"{lp.name}: {lp.n_rows} constraint rows, {lp.n_cols} columns")
for name, sense, lo, hi in zip(lp.row_names, lp.sense.tolist(),
                               *(a.tolist() for a in lp.intervals())):
    print(f"  row {name:<4} sense {sense:<2} interval [{lo}, {hi}]")
for name, lo, up in zip(lp.col_names, lp.lower.tolist(), lp.upper.tolist()):
    print(f"  col {name:<4} bounds [{lo}, {up}]")
for w in lp.warnings:
    print(f"  warning: {w}")

text = emit_mps(lp)
again = parse_mps(text)
same = all(np.array_equal(a, b) for a, b in zip(
    (*again.intervals(), again.lower, again.upper),
    (*lp.intervals(), lp.lower, lp.upper)))
print("round-trip preserves rows and bounds:", same)
print()
print(text)
