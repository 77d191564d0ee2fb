"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else:
  1. formula exactness  -- integer equality vs a >= 50-digit reference, < 10 s
  2. kappa soundness    -- kappa_lb <= kappa_true + 1e-9, sigma bounds
                           one-sided (1e-12 relative floating-point grace),
                           500 seeded operators, < 2 min
  3. operator fidelity  -- 1e-10 relative, column-wise, 100 random LPs, < 1 min
  4. feasibility preservation -- 1e-9 on the exact rows, 200 trials each
  5. pipeline soundness -- structural sparsity == dense pattern count,
                           gamma <= dense-oracle s * kappa
  6. reference-duration exclusion -- cycles * 8e-10 s > internal IPM time
                           on bundled instances with m >= 10; curve 0 at
                           the marker
  7. standard-form equivalence -- relative 1e-6 on 100 random instances
  8. determinism        -- identical CSV numeric content across two runs
                           (measured wall-clock columns excluded; they cannot
                           reproduce by nature)
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (dense_fbar, dense_mnes, dense_nes, dense_nullspace,
                      dense_oss, newton_residuals, op_from_dense,
                      random_iterate, random_standard_lp, rng_for)
from test_qcost import oracle_bracket
from test_spectral import oss_pattern_oracle
from test_standardize import (random_general_lp, solve_general_oracle,
                              solve_standard_oracle)
from qipm_bounds.corpus import corpus_files
from qipm_bounds.harness import AnalysisConfig, analyze_instance, exclusion_curve
from qipm_bounds.newton import (build_fbar, build_mnes, build_nes, build_oss,
                                canonical_iterate, null_space_matrix,
                                recover_updates_mnes, recover_updates_nes,
                                recover_updates_oss, select_basis)
from qipm_bounds.qcost import (qlsa_query_count, to_fraction,
                               total_quantum_cycles)
from qipm_bounds.report import TIMING_COLUMNS, records_csv
from qipm_bounds.spectral import (kappa_lower_mnes, kappa_lower_oss,
                                  sigma_max_lower, sigma_min_upper,
                                  sparsity_mnes, sparsity_oss)
from qipm_bounds.standardize import standardize
from qipm_bounds.classical import solve_internal_ipm
from qipm_bounds.lp_model import parse_mps


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {state}" + (f" ({detail})" if detail
                                                    else ""))
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_formula_exactness():
    t0 = time.perf_counter()
    assert qlsa_query_count(1, 1, 0.1) == 48
    assert total_quantum_cycles(2, 1, 0.1) == 4800
    rng = rng_for(0xACCE)
    eps_values = [0.5, 0.1, 0.01]
    mismatches = 0
    for k in range(1000):
        s = int(rng.integers(1, 10 ** 4 + 1))
        kappa = float(10 ** rng.uniform(0.0, 8.0))
        eps = eps_values[k % 3]
        gamma = s * to_fraction(kappa)
        expected = 8 * oracle_bracket(gamma, to_fraction(eps))
        if qlsa_query_count(s, kappa, eps) != expected:
            mismatches += 1
        d = int(rng.integers(2, 10 ** 4))
        want = (Fraction(8 * (d - 1)) / to_fraction(eps) ** 2) * (expected // 8)
        import math
        if total_quantum_cycles(d, gamma, eps) != math.ceil(want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, "formula exactness", mismatches == 0 and elapsed < 10.0,
             f"1000-point grid, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_2_kappa_soundness():
    t0 = time.perf_counter()
    rng = rng_for(0xCAFE)
    sigma_violations = kappa_violations = 0
    trials = 0
    for k in range(500):
        if k % 5 == 4:
            dim = int(rng.integers(80, 201))  # a slice of larger operators
        else:
            dim = int(rng.integers(3, 60))
        if k % 3 == 0:
            # rectangular coupling block with n - m < m: exact zero path
            m = dim
            nm = int(rng.integers(1, m)) if m > 1 else 1
            mat = rng.normal(size=(m, min(nm, m - 1) or 1))
            op = op_from_dense(mat, kind="fbar")
            kb = kappa_lower_mnes(op, m, m + op.shape[1], timeout=1.0,
                                  n_samples=200, seed=k)
            svals = np.linalg.svd(mat, compute_uv=False)
            kappa_true = (1 + svals[0] ** 2) / 1.0  # lambda_min(M_hat) = 1
            if kb.sigma_max_lb > svals[0] * (1 + 1e-12):
                sigma_violations += 1
            if kb.sigma_min_ub != 0.0:
                sigma_violations += 1
            if kb.kappa_lower > kappa_true + 1e-9:
                kappa_violations += 1
        else:
            mat = rng.normal(size=(dim, dim))
            if k % 7 == 0:  # occasionally ill-conditioned
                u, s, vt = np.linalg.svd(mat)
                s[-1] *= 1e-6
                mat = (u * s) @ vt
            op = op_from_dense(mat, kind="oss")
            forced = k % 3 == 1  # force the random-sampling fallback
            timeout = 0.0 if forced else 5.0
            svals = np.linalg.svd(mat, compute_uv=False)
            smax = sigma_max_lower(op, seed=k)
            smin, method = sigma_min_upper(op, timeout=timeout, n_samples=400,
                                           seed=k, sigma_max_hint=smax)
            if forced and method != "random_sampling":
                sigma_violations += 1
            if smax > svals[0] * (1 + 1e-12):
                sigma_violations += 1
            if smin < svals[-1] * (1 - 1e-12):
                sigma_violations += 1
            kb = kappa_lower_oss(op, timeout=timeout, n_samples=400, seed=k)
            kappa_true = svals[0] / svals[-1]
            if kb.kappa_lower > kappa_true + 1e-9:
                kappa_violations += 1
        trials += 1
    elapsed = time.perf_counter() - t0
    ok = sigma_violations == 0 and kappa_violations == 0 and elapsed < 120.0
    _verdict(2, "kappa soundness", ok,
             f"{trials} operators, {sigma_violations} sigma / "
             f"{kappa_violations} kappa violations, {elapsed:.1f}s")


def test_criterion_3_operator_fidelity():
    t0 = time.perf_counter()
    rng = rng_for(0xF1DE)
    worst = 0.0
    for k in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(m, 41))
        std = random_standard_lp(10_000 + k, m, n)
        it = random_iterate(rng, m, n) if k % 2 else canonical_iterate(m, n)
        basis = select_basis(std.A)
        beta_mu = 0.5
        a = std.A.to_dense()
        pairs = [
            (build_nes(std, it, beta_mu), dense_nes(a, it)),
            (build_mnes(std, it, basis, beta_mu),
             dense_mnes(a, basis.basic, it)),
            (build_fbar(basis, std.A, it),
             dense_fbar(a, basis.basic, basis.nonbasic, it)),
            (null_space_matrix(basis, std.A),
             dense_nullspace(a, basis.basic, basis.nonbasic)),
            (build_oss(std, it, basis, beta_mu),
             dense_oss(a, basis.basic, basis.nonbasic, it)),
        ]
        for op, oracle in pairs:
            scale = max(np.abs(oracle).max() if oracle.size else 0.0, 1.0)
            for j in range(op.shape[1]):
                col = op.apply(np.eye(op.shape[1])[:, j])
                err = np.abs(col - oracle[:, j]).max() / scale
                worst = max(worst, err)
        # MNES structure at the canonical iterate
        it0 = canonical_iterate(m, n)
        f = dense_fbar(a, basis.basic, basis.nonbasic, it0)
        mhat_cols = build_mnes(std, it0, basis, beta_mu)
        dense_mhat = np.stack(
            [mhat_cols.apply(np.eye(m)[:, j]) for j in range(m)], axis=1)
        fft = f @ f.T if f.size else np.zeros((m, m))
        err = np.abs(dense_mhat - (np.eye(m) + fft)).max() / \
            max(1.0, np.abs(f).max() ** 2 if f.size else 0.0)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(3, "operator fidelity", ok,
             f"worst column error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_feasibility_preservation():
    rng = rng_for(0xFEA5)
    failures = []
    for k in range(200):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(m + 1, m + 12))
        std = random_standard_lp(20_000 + k, m, n)
        it = random_iterate(rng, m, n)
        basis = select_basis(std.A)
        beta_mu = float(rng.uniform(0.1, 1.0))
        a = std.A.to_dense()

        w = rng.normal(size=n)
        step = recover_updates_oss(std, it, basis, w)
        if np.linalg.norm(a @ step.dx) > 1e-9:
            failures.append(("oss-null", k))
        if not np.array_equal(step.ds, -(std.A.tocsr().T @ step.dy)):
            failures.append(("oss-rowspace", k))

        z = rng.normal(size=m)
        mnes = build_mnes(std, it, basis, beta_mu)
        r_hat = mnes.rhs - mnes.apply(z)
        step = recover_updates_mnes(std, it, basis, beta_mu, z, r_hat)
        rp, rd, _ = newton_residuals(std, it, beta_mu, step)
        if np.linalg.norm(rp) > 1e-9 or np.linalg.norm(rd) > 1e-9:
            failures.append(("mnes", k))

        dy = rng.normal(size=m)
        step = recover_updates_nes(std, it, beta_mu, dy)
        _, rd, rc = newton_residuals(std, it, beta_mu, step)
        if np.linalg.norm(rd) > 1e-9 or np.linalg.norm(rc) > 1e-9:
            failures.append(("nes", k))
    _verdict(4, "feasibility preservation", not failures,
             f"200 trials each; failures: {failures[:5]}")


def test_criterion_5_pipeline_soundness():
    bad = []
    cfg = AnalysisConfig(sigma_min_timeout=20.0, sigma_min_samples=2000)
    for path in corpus_files():
        std = standardize(parse_mps(path.read_text()))
        basis = select_basis(std.A)
        it = canonical_iterate(std.m, std.n)
        a = std.A.to_dense()

        # structural sparsity equals the dense pattern's max row/col count
        pat = oss_pattern_oracle(a, basis.basic, basis.nonbasic)
        oss_oracle = int(max(pat.sum(axis=0).max(), pat.sum(axis=1).max()))
        if sparsity_oss(std.A, std.m, std.n, basis) != oss_oracle:
            bad.append((path.stem, "oss sparsity"))
        # MNES: the dense-block convention makes the pattern fully dense
        if sparsity_mnes(std.m) != std.m:
            bad.append((path.stem, "mnes sparsity"))

        # gamma lower-bounds the dense-oracle difficulty s * kappa
        fbar = build_fbar(basis, std.A, it)
        kb = kappa_lower_mnes(fbar, std.m, std.n,
                              timeout=cfg.sigma_min_timeout,
                              n_samples=cfg.sigma_min_samples, seed=1)
        f = dense_fbar(a, basis.basic, basis.nonbasic, it)
        svals = np.linalg.svd(f, compute_uv=False) if f.size else np.zeros(1)
        lam_min = svals[-1] ** 2 if std.n - std.m >= std.m else 0.0
        kappa_true = (1 + svals[0] ** 2) / (1 + lam_min) if f.size else 1.0
        if sparsity_mnes(std.m) * kb.kappa_lower > \
                sparsity_mnes(std.m) * kappa_true + 1e-9:
            bad.append((path.stem, "mnes gamma"))

        oss = build_oss(std, it, basis, 0.5)
        kb = kappa_lower_oss(oss, timeout=cfg.sigma_min_timeout,
                             n_samples=cfg.sigma_min_samples, seed=1)
        o = dense_oss(a, basis.basic, basis.nonbasic, it)
        svals = np.linalg.svd(o, compute_uv=False)
        kappa_true = svals[0] / svals[-1]
        s_oss = sparsity_oss(std.A, std.m, std.n, basis)
        if s_oss * kb.kappa_lower > s_oss * kappa_true + 1e-9:
            bad.append((path.stem, "oss gamma"))
    _verdict(5, "pipeline soundness", not bad, f"violations: {bad}")


def test_criterion_6_exclusion_at_reference_duration():
    cfg = AnalysisConfig(sigma_min_timeout=30.0, sigma_min_samples=2000)
    records = []
    for path in corpus_files():
        rec = analyze_instance(path, cfg, family=path.parent.name)
        assert rec.status == "ok", rec.error
        if rec.m >= 10:
            records.append(rec)
    assert records, "corpus must bundle instances with m >= 10"
    details = []
    ok = True
    for rec in records:
        for name, f in rec.formulations.items():
            assert f.ok, f.failure
            quantum = f.total_cycles * 8e-10
            classical = rec.classical.wall_time
            details.append(f"{rec.name}/{name}: {quantum:.3g}s vs "
                           f"{classical:.3g}s")
            if quantum <= classical:
                ok = False
    curves, _, _ = exclusion_curve(records, [8e-10])
    for fam, by_form in curves.items():
        for series in by_form.values():
            if series != [0.0]:
                ok = False
                details.append(f"curve at marker nonzero for {fam}")
    _verdict(6, "exclusion at the 800 ps reference", ok, "; ".join(details))


def test_criterion_7_standard_form_equivalence():
    mismatches = []
    for seed in range(100):
        lp = random_general_lp(seed)
        status, val_orig = solve_general_oracle(lp)
        assert status == 0, f"oracle rejected instance {seed}"
        std = standardize(lp)
        out = solve_internal_ipm(std)
        if out.status != "optimal":
            mismatches.append((seed, out.status))
            continue
        val_ipm = std.original_objective(out.objective)
        if val_ipm != pytest.approx(val_orig, rel=1e-6, abs=1e-6):
            mismatches.append((seed, val_ipm, val_orig))
        # external solver cross-check (HiGHS, installed with scipy)
        _, val_ext = solve_standard_oracle(std)
        if val_ext != pytest.approx(val_orig, rel=1e-6, abs=1e-6):
            mismatches.append((seed, "external", val_ext, val_orig))
    _verdict(7, "standard-form equivalence", not mismatches,
             f"100 instances; mismatches: {mismatches[:5]}")


def test_criterion_8_determinism(tmp_path):
    from qipm_bounds.harness import run_suite
    from qipm_bounds.corpus import corpus_dir
    import csv as csvmod
    import io
    import shutil

    data = tmp_path / "data"
    shutil.copytree(corpus_dir(), data)
    cfg = AnalysisConfig(seed=7, sigma_min_timeout=10.0,
                         sigma_min_samples=1000)
    r1 = run_suite(data, cfg)
    r2 = run_suite(data, cfg)

    def stable_rows(report):
        rows = list(csvmod.DictReader(io.StringIO(records_csv(report))))
        return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in rows]

    same = stable_rows(r1) == stable_rows(r2)
    _verdict(8, "determinism", same,
             "CSV numeric content identical across runs "
             "(measured wall-clock columns excluded)")
