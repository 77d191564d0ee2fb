"""Certified one-sided condition-number estimates vs dense truth.

sigma_max is estimated from below (Rayleigh quotients cannot exceed it),
sigma_min from above (the forward Rayleigh quotient at the top Ritz vector of
a Lanczos iteration on the inverse Gram operator, which one sparse
factorization applies, wherever that iteration stops; or, with a zero
timeout, the minimum of ||op w|| over random unit vectors). The inverse only
chooses the vector, so its accuracy never affects the bound. At the all-ones
iterate the OSS bound is composed from A and the coupling F that MNES bounds:
the singular values of O are those of A together with sqrt(1 + sigma_i(F)^2),
and 1 when n - m > m, so no iteration runs on the n x n operator. Both
directions push the estimated condition number below the true one, so
gamma = s * kappa is a certified lower bound on the difficulty entering the
quantum cost formulas.
"""

import numpy as np

from qipm_bounds import parse_mps, standardize
from qipm_bounds.corpus import corpus_dir
from qipm_bounds.newton import build_fbar, build_oss, canonical_iterate, select_basis
from qipm_bounds.spectral import (kappa_lower_mnes, kappa_lower_oss,
                                  sparsity_mnes, sparsity_oss)

for name in ("cover/cover_pairs.mps", "flow/flow_grid.mps"):
    std = standardize(parse_mps((corpus_dir() / name).read_text()))
    m, n = std.m, std.n
    it = canonical_iterate(m, n)
    basis = select_basis(std.A)

    fbar = build_fbar(basis, std.A, it)
    kb = kappa_lower_mnes(fbar, m, n, timeout=10.0, n_samples=2000, seed=0)
    f = np.column_stack([fbar.apply(np.eye(n - m)[:, j]) for j in range(n - m)])
    sv = np.linalg.svd(f, compute_uv=False)
    lam_min = sv[-1] ** 2 if n - m >= m else 0.0
    true_kappa = (1 + sv[0] ** 2) / (1 + lam_min)
    print(f"{name}  m={m} n={n}")
    print(f"  MNES: s = {sparsity_mnes(m):>3}  kappa_lb = {kb.kappa_lower:10.4f}"
          f"  (true {true_kappa:10.4f})  sigma_min via {kb.sigma_min_method}")

    oss = build_oss(std, it, basis, 0.5)
    kb = kappa_lower_oss(oss, timeout=10.0, n_samples=2000, seed=0)
    o = np.column_stack([oss.apply(np.eye(n)[:, j]) for j in range(n)])
    sv = np.linalg.svd(o, compute_uv=False)
    print(f"  OSS:  s = {sparsity_oss(std.A, m, n, basis):>3}"
          f"  kappa_lb = {kb.kappa_lower:10.4f}"
          f"  (true {sv[0] / sv[-1]:10.4f})  sigma_min via {kb.sigma_min_method}")

# a zero timeout replaces the Lanczos iteration by random sampling
std = standardize(parse_mps((corpus_dir() / "flow" / "flow_grid.mps").read_text()))
basis = select_basis(std.A)
oss = build_oss(std, canonical_iterate(std.m, std.n), basis, 0.5)
kb = kappa_lower_oss(oss, timeout=0.0, n_samples=5000, seed=0)
print(f"sampling on flow_grid OSS: kappa_lb = {kb.kappa_lower:.4f} "
      f"via {kb.sigma_min_method} (looser, still a lower bound)")
