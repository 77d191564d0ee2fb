"""Sparsity rules and one-sided singular value / condition number bounds."""

import dataclasses
import importlib
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from conftest import (dense_fbar, dense_oss, op_from_dense, random_iterate,
                      random_standard_lp, rng_for)
from qipm_bounds import newton, spectral
from qipm_bounds.corpus import corpus_files
from qipm_bounds.lp_model import SparseMatrix, StandardLP, parse_mps
from qipm_bounds.newton import (Iterate, NewtonOperator, build_fbar,
                                build_oss, canonical_iterate, select_basis)
from qipm_bounds.spectral import (_FP_PAD, _FP_SHAVE, NumericalError,
                                  kappa_lower_mnes, kappa_lower_oss,
                                  sigma_max_lower, sigma_min_upper,
                                  sparsity_mnes, sparsity_oss)
from qipm_bounds.standardize import standardize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generators  # noqa: E402

standardize_module = importlib.import_module("qipm_bounds.standardize")

# relative slack a kappa lower bound may show above a dense SVD's kappa,
# for the SVD's own rounding
KAPPA_RTOL = 1e-10


def oss_pattern_oracle(a: np.ndarray, basic, nonbasic) -> np.ndarray:
    """Structural pattern of O assembled directly (dense-block convention)."""
    m, n = a.shape
    pat = np.zeros((n, n), dtype=bool)
    pat[:, :m] = a.T != 0.0
    if n > m:
        pat[basic, m:] = True
        pat[nonbasic, m:] = np.eye(n - m, dtype=bool)
    return pat


class TestSparsityRules:
    def test_mnes_is_m(self):
        assert sparsity_mnes(7) == 7
        assert sparsity_mnes(1) == 1

    def test_mnes_rejects_zero(self):
        with pytest.raises(ValueError):
            sparsity_mnes(0)

    def test_one_by_two(self):
        a = SparseMatrix.from_dense([[1.0, 1.0]])
        assert sparsity_oss(a, 1, 2, select_basis(a)) == 2

    def test_identity_square(self):
        a = SparseMatrix.from_dense(np.eye(5))
        assert sparsity_oss(a, 5, 5, select_basis(a)) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_structural_pattern_oracle(self, seed):
        rng = rng_for(900 + seed)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m, m + 12))
        std = random_standard_lp(900 + seed, m, n)
        basis = select_basis(std.A)
        pat = oss_pattern_oracle(std.A.to_dense(), basis.basic, basis.nonbasic)
        oracle = max(pat.sum(axis=0).max(), pat.sum(axis=1).max())
        assert sparsity_oss(std.A, m, n, basis) == oracle


class TestSigmaMaxLower:
    def test_identity_exact_after_one_iteration(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITERS", 1)
        op = op_from_dense(np.eye(17))
        assert sigma_max_lower(op) == 1.0

    def test_diagonal_converges_to_top(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITERS", 50)
        op = op_from_dense(np.diag([1.0, 2.0, 4.0]))
        val = sigma_max_lower(op)
        assert 4.0 - 1e-6 < val <= 4.0

    @pytest.mark.parametrize("seed", range(100))
    def test_never_above_dense_oracle(self, seed):
        rng = rng_for(2000 + seed)
        mat = rng.normal(size=(30, 30))
        val = sigma_max_lower(op_from_dense(mat), seed=seed)
        smax = np.linalg.svd(mat, compute_uv=False)[0]
        assert val <= smax * (1.0 + 1e-12)

    def test_nonfinite_matvec_raises(self):
        bad = op_from_dense(np.eye(3))
        bad._matvec = lambda v: v * np.nan
        with pytest.raises(NumericalError):
            sigma_max_lower(bad)


class TestRitzValues:
    def test_values_equal_eigh_tridiagonal_bit_for_bit(self):
        # the per-step values come from dsterf; eigh_tridiagonal's default
        # routine gives the reference, on 2,900 seeded Lanczos tridiagonals
        rng = rng_for(3400)
        for size in range(2, 60):
            for scale in np.repeat([1e-3, 1.0, 1e3], [17, 16, 17]):
                alphas = scale * rng.normal(size=size)
                betas = scale * np.abs(rng.normal(size=size - 1))
                got = spectral._ritz_values(list(alphas), list(betas),
                                            vectors=False)
                want = eigh_tridiagonal(alphas, betas, eigvals_only=True)
                assert np.array_equal(got, want)


class TestSigmaMinUpper:
    def test_identity(self):
        val, method = sigma_min_upper(op_from_dense(np.eye(9)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_iterative_path(self):
        val, method = sigma_min_upper(op_from_dense(np.diag([1.0, 2.0, 4.0])))
        assert method == "iterative"
        assert 1.0 - 1e-12 <= val <= 1.0 + 1e-6

    def test_forced_sampling_is_upper_bound(self):
        for seed in range(100):
            rng = rng_for(3000 + seed)
            mat = rng.normal(size=(50, 50))
            val, method = sigma_min_upper(op_from_dense(mat), timeout=0.0,
                                          n_samples=200, seed=seed)
            assert method == "random_sampling"
            smin = np.linalg.svd(mat, compute_uv=False)[-1]
            assert val >= smin * (1.0 - 1e-12)

    def test_unconverged_lanczos_value_is_kept(self, monkeypatch):
        # 10 steps on a 60 x 60 Gaussian operator stop far from convergence
        # (about 100x the true sigma_min), yet the Rayleigh quotient at the
        # Ritz vector is still a certified bound, and tighter than 10000
        # random samples
        mat = rng_for(11).normal(size=(60, 60))
        op = op_from_dense(mat)
        smin = np.linalg.svd(mat, compute_uv=False)[-1]
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITERS", 10)
        val, method = sigma_min_upper(op, seed=11)
        sampled, _ = sigma_min_upper(op, timeout=0.0, seed=11)
        assert method == "iterative"
        assert val >= smin * (1.0 - 1e-12)
        assert val <= sampled

    def test_expired_timeout_keeps_first_lanczos_step(self):
        mat = rng_for(11).normal(size=(60, 60))
        val, method = sigma_min_upper(op_from_dense(mat), timeout=1e-9,
                                      seed=11)
        assert method == "iterative"
        assert val >= np.linalg.svd(mat, compute_uv=False)[-1]

    def test_uniform_scaling_does_not_move_breakdown(self):
        # breakdown is judged against the Gram values seen so far, so at
        # 1e-8 the Gram entries (about 1e-14) do not stop Lanczos after one
        # step, and on the inverse path at 1e8 neither does its tiny top
        mat = rng_for(11).normal(size=(60, 60))
        svals = np.linalg.svd(mat, compute_uv=False)
        for scale, inverse in ((1.0, False), (1e-6, False), (1e-8, False),
                               (1e-10, False), (1.0, True), (1e-8, True),
                               (1e8, True), (1e10, True)):
            op = op_from_dense(scale * mat)
            if inverse:
                gram = op.apply(op.apply_transpose(np.eye(60)))
                op = dataclasses.replace(
                    op, inverse_gram=lambda v, g=gram: np.linalg.solve(g, v))
            val, method = sigma_min_upper(op, seed=11)
            assert method == "iterative"
            assert svals[-1] * (1.0 - 1e-12) <= val / scale \
                <= svals[-1] * (1.0 + 1e-6), (scale, inverse)
            assert sigma_max_lower(op, seed=11) / scale == \
                pytest.approx(svals[0], rel=1e-9), (scale, inverse)

    def test_zero_timeout_zero_samples_fails_loudly(self):
        with pytest.raises(NumericalError):
            sigma_min_upper(op_from_dense(np.eye(4)), timeout=0.0, n_samples=0)

    def test_determinism_bit_for_bit(self):
        rng = rng_for(77)
        mat = rng.normal(size=(25, 25))
        op = op_from_dense(mat)
        a1 = sigma_min_upper(op, timeout=0.0, n_samples=500, seed=5)
        a2 = sigma_min_upper(op, timeout=0.0, n_samples=500, seed=5)
        assert a1 == a2
        b1 = sigma_max_lower(op, seed=5)
        b2 = sigma_max_lower(op, seed=5)
        assert b1 == b2


def _newton_case(seed: int, kind: str, canonical: bool):
    """(operator, its dense oracle) of a random LP with n - m >= m.

    For "oss" the operator is O's A-block x A, the one OSS part with an
    inverse Gram. build_oss attaches it at a constant iterate only, so the
    non-canonical case takes a constant iterate with x != s.
    """
    rng = rng_for(7000 + seed)
    m = int(rng.integers(2, 10))
    n = int(rng.integers(2 * m, 2 * m + 10))
    std = random_standard_lp(7000 + seed, m, n)
    basis = select_basis(std.A)
    it = canonical_iterate(m, n) if canonical else random_iterate(rng, m, n)
    a = std.A.to_dense()
    if kind == "oss":
        if not canonical:
            x, s = rng.uniform(0.3, 3.0, size=2)
            it = Iterate(np.full(n, x), np.zeros(m), np.full(n, s))
        return build_oss(std, it, basis, 0.5).a_block, it.x[0] * a
    return (build_fbar(basis, std.A, it),
            dense_fbar(a, basis.basic, basis.nonbasic, it))


class TestInverseKrylov:
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("kind", ["oss", "fbar"])
    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_and_matches_dense_sigma_min(self, seed, kind, canonical):
        op, dense = _newton_case(seed, kind, canonical)
        calls = []

        def counted(v):
            calls.append(1)
            return op.inverse_gram(v)

        svals = np.linalg.svd(dense, compute_uv=False)
        smin = svals[min(dense.shape) - 1]
        val, method = sigma_min_upper(
            dataclasses.replace(op, inverse_gram=counted), seed=seed)
        assert method == "iterative" and calls
        assert val >= smin * (1.0 - 1e-12)
        if smin > 1e-6 * svals[0]:
            assert val <= smin * (1.0 + 1e-6)

    @pytest.mark.parametrize("kind", ["oss", "fbar"])
    def test_inverse_gram_inverts_the_operator(self, kind):
        checked = 0
        for seed in range(10):
            op, dense = _newton_case(seed, kind, canonical=True)
            gram = dense @ dense.T
            if np.linalg.cond(gram) > 1e6:
                continue  # F F' of a rank-deficient A_N has no inverse
            rows = dense.shape[0]
            inv = np.column_stack([op.inverse_gram(e) for e in np.eye(rows)])
            np.testing.assert_allclose(inv @ gram, np.eye(rows), rtol=0.0,
                                       atol=1e-10)
            checked += 1
        assert checked >= 8

    def test_singular_coupling_gives_the_pad(self):
        # A = [I_4 | e1 ... e1]: F = A_N has rank one, so sigma_min(F) = 0
        # and A_N A_N' is exactly singular
        m, k = 4, 5
        a_n = np.zeros((m, k))
        a_n[0] = 1.0
        a = SparseMatrix.from_dense(np.hstack([np.eye(m), a_n]))
        basis = select_basis(a)
        fbar = build_fbar(basis, a, canonical_iterate(m, m + k))
        smax = sigma_max_lower(fbar)
        val, method = sigma_min_upper(fbar, sigma_max_hint=smax)
        # the Rayleigh quotient at the chosen vector is at rounding level,
        # far below the floating-point pad added to it
        pad = _FP_PAD * (m + 10) * smax
        assert method == "iterative"
        assert pad <= val <= pad * (1.0 + 1e-3)
        kb = kappa_lower_mnes(fbar, m, m + k)
        assert kb.kappa_lower == pytest.approx(1.0 + k, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_deficient_coupling_gives_the_pad(self, seed):
        # A = [I | A_N] with rank(A_N) = m - 1 and small A_N, so the basis is
        # I and sigma_min(F) = 0; A_N D_N^2 A_N' is singular only up to
        # rounding, and its factor may turn the null direction's huge
        # inverse eigenvalue negative
        rng = rng_for(8000 + seed)
        m, k = 5, 7
        a_n = rng.normal(size=(m, k))
        a_n[1] = 0.3 * a_n[0] + 0.7 * a_n[2]
        a_n *= 0.1 / np.abs(a_n).max()
        a = SparseMatrix.from_dense(np.hstack([np.eye(m), a_n]))
        fbar = build_fbar(select_basis(a), a, random_iterate(rng, m, m + k))
        smax = sigma_max_lower(fbar)
        val, _ = sigma_min_upper(fbar, sigma_max_hint=smax)
        assert val <= 2.0 * _FP_PAD * (m + 10) * smax

    @pytest.mark.parametrize("kind", ["oss", "fbar"])
    def test_failed_factorization_falls_back_bit_for_bit(self, kind,
                                                         monkeypatch):
        op, _ = _newton_case(3, kind, canonical=False)
        forward = sigma_min_upper(
            dataclasses.replace(op, inverse_gram=None), seed=4,
            sigma_max_hint=2.0)

        def broken(A, d2):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(newton, "factor_nes", broken)
        assert sigma_min_upper(op, seed=4, sigma_max_hint=2.0) == forward

    def test_sampling_never_factors(self, monkeypatch):
        op, _ = _newton_case(1, "fbar", canonical=True)
        assert op.inverse_gram is not None

        def unexpected(A, d2):
            raise AssertionError("sampling must not factor")

        monkeypatch.setattr(newton, "factor_nes", unexpected)
        _, method = sigma_min_upper(op, timeout=0.0, n_samples=50)
        assert method == "random_sampling"


class TestKappaMnes:
    def test_zero_coupling_gives_one(self):
        a = np.hstack([np.eye(3), np.zeros((3, 0))])
        std_a = SparseMatrix.from_dense(a)
        basis = select_basis(std_a)
        fbar = build_fbar(basis, std_a, canonical_iterate(3, 3))
        kb = kappa_lower_mnes(fbar, 3, 3)
        assert kb.kappa_lower == 1.0

    def test_diagonal_coupling(self):
        # F = diag(1, 2) as the m x (n - m) block with m = 2, n = 4
        op = op_from_dense(np.diag([1.0, 2.0]), kind="fbar")
        kb = kappa_lower_mnes(op, 2, 4)
        assert kb.kappa_lower == pytest.approx(2.5, rel=1e-9)
        assert kb.sigma_max_lb == pytest.approx(2.0, rel=1e-9)
        assert kb.sigma_min_ub == pytest.approx(1.0, rel=1e-9)

    def test_rank_deficiency_path(self):
        rng = rng_for(8)
        op = op_from_dense(rng.normal(size=(3, 1)), kind="fbar")
        kb = kappa_lower_mnes(op, 3, 4)
        assert kb.sigma_min_method == "rank_deficiency_exact"
        assert kb.sigma_min_ub == 0.0
        assert kb.kappa_lower == pytest.approx(1.0 + kb.sigma_max_lb ** 2)


class TestKappaOss:
    def test_rotation_like_operator(self):
        # O from A = [1 1] at the all-ones iterate: both singular values
        # sqrt(2), so kappa = 1 up to estimator tolerance
        o = np.array([[-1.0, 1.0], [-1.0, -1.0]])
        kb = kappa_lower_oss(op_from_dense(o, kind="oss"))
        assert kb.kappa_lower == pytest.approx(1.0, abs=1e-9)
        assert kb.kappa_lower >= 1.0

    def test_orthogonal_matrix(self):
        rng = rng_for(9)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        kb = kappa_lower_oss(op_from_dense(q, kind="oss"))
        assert kb.kappa_lower == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(100))
    def test_never_above_dense_oracle(self, seed):
        rng = rng_for(4000 + seed)
        mat = rng.normal(size=(40, 40))
        kb = kappa_lower_oss(op_from_dense(mat, kind="oss"), timeout=1.0,
                             n_samples=300, seed=seed)
        svals = np.linalg.svd(mat, compute_uv=False)
        kappa_true = svals[0] / svals[-1]
        assert kb.kappa_lower <= kappa_true + 1e-9


class TestDifficulty:
    def test_gamma_invariant_under_centering_parameter(self):
        # beta_mu enters the right-hand sides only, never the system
        # matrices, so neither kappa nor gamma = s * kappa can depend on it
        std = random_standard_lp(55, 5, 9)
        basis = select_basis(std.A)
        it = canonical_iterate(5, 9)
        kappas = set()
        for beta_mu in (0.1, 0.5, 1.0):
            oss = build_oss(std, it, basis, beta_mu)
            kb = kappa_lower_oss(oss, timeout=5.0, n_samples=200, seed=3)
            kappas.add(kb.kappa_lower)
        assert len(kappas) == 1


def slack_style_lp(seed: int, m: int, k: int) -> StandardLP:
    """A = [R | diag(p)]: every row owns a private column with entry p_i."""
    rng = rng_for(seed)
    r = rng.normal(size=(m, k)) * (rng.random((m, k)) < 0.5)
    p = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.5, 4.0, size=m)
    a = np.hstack([r, np.diag(p)])
    return StandardLP(
        A=SparseMatrix(sparse.csr_matrix(a)), b=a @ np.ones(m + k),
        c=np.ones(m + k), name=f"slack_{seed}")


def _canonical_oss(std: StandardLP):
    basis = select_basis(std.A)
    it = canonical_iterate(std.m, std.n)
    dense = dense_oss(std.A.to_dense(), basis.basic, basis.nonbasic, it)
    return build_oss(std, it, basis, 0.5), dense


def _corpus_forms() -> list[StandardLP]:
    return [standardize(parse_mps(p.read_text())) for p in corpus_files()]


def _composed_forms() -> list[StandardLP]:
    """The corpus forms and 200 random ones, half of them slack-style."""
    forms = _corpus_forms()
    for seed in range(200):
        rng = rng_for(9000 + seed)
        m = int(rng.integers(2, 10))
        if seed % 2:
            n = int(rng.integers(m, 3 * m + 1))
            forms.append(random_standard_lp(9000 + seed, m, n))
        else:
            forms.append(slack_style_lp(9000 + seed, m,
                                        int(rng.integers(1, 2 * m + 1))))
    return forms


def _edge_form(a: np.ndarray) -> StandardLP:
    m, n = a.shape
    return StandardLP(
        A=SparseMatrix(sparse.csr_matrix(a)), b=np.zeros(m), c=np.ones(n),
        name="edge")


class TestComposedOss:
    """kappa_lower_oss on the parts build_oss attaches at a constant
    iterate: sigma(O) = x sigma(A) u s sqrt(1 + sigma(F)^2), plus s when
    n - m > m."""

    def test_one_sided_against_dense_svd_on_every_route(self, monkeypatch):
        routes = {"oss_a": 0, "fbar": 0, "exact": 0}
        real = spectral.sigma_min_upper

        def counted(op, **kwargs):
            routes[op.kind] += 1
            return real(op, **kwargs)

        monkeypatch.setattr(spectral, "sigma_min_upper", counted)
        for seed, std in enumerate(_composed_forms()):
            oss, dense = _canonical_oss(std)
            assert oss.fbar is not None
            kb = kappa_lower_oss(oss, seed=seed)
            svals = np.linalg.svd(dense, compute_uv=False)
            assert kb.kappa_lower <= svals[0] / svals[-1] * (1.0 + KAPPA_RTOL)
            assert kb.sigma_max_lb <= svals[0] * (1.0 + KAPPA_RTOL)
            assert kb.sigma_min_ub >= svals[-1] * (1.0 - KAPPA_RTOL)
            if kb.sigma_min_method == "rank_deficiency_exact":
                # the exact s = 1, a singular value because n - m > m
                assert kb.sigma_min_ub == 1.0 and std.n - std.m > std.m
                routes["exact"] += 1
        assert min(routes.values()) >= 1, routes

    def test_matches_the_operator_path_on_the_corpus(self):
        for seed, std in enumerate(_corpus_forms()):
            oss, _ = _canonical_oss(std)
            composed = kappa_lower_oss(oss, seed=seed)
            whole = kappa_lower_oss(
                dataclasses.replace(oss, a_block=None, fbar=None), seed=seed)
            assert composed.kappa_lower == pytest.approx(whole.kappa_lower,
                                                         rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_general_iterate_keeps_the_direct_estimate(self, seed):
        rng = rng_for(9500 + seed)
        std = random_standard_lp(9500 + seed, 4, 9)
        basis = select_basis(std.A)
        oss = build_oss(std, random_iterate(rng, 4, 9), basis, 0.5)
        assert oss.a_block is None and oss.fbar is None
        smax = sigma_max_lower(oss, seed=seed)
        smin, method = sigma_min_upper(oss, timeout=5.0, seed=seed,
                                       sigma_max_hint=smax)
        kb = kappa_lower_oss(oss, timeout=5.0, seed=seed)
        assert (kb.kappa_lower, kb.sigma_max_lb, kb.sigma_min_ub,
                kb.sigma_min_method) == (
            max(smax * (1.0 - _FP_SHAVE) / smin, 1.0), smax, smin, method)

    # the survey seed-2 slack_ladder_13 form and the slack seed-3 slack_600
    # form: the top two singular values of O lie about 1e-6 apart, one in
    # each block, where one Lanczos on O stopped between them
    @pytest.mark.parametrize("args", [(13, 17, 2), (600, 800, 3)])
    def test_near_double_top_singular_value(self, args):
        std = standardize(parse_mps(generators.slack_ladder(*args)))
        oss, dense = _canonical_oss(std)
        top = np.linalg.svd(dense, compute_uv=False)[0]
        for seed in range(3):
            kb = kappa_lower_oss(oss, seed=seed)
            assert kb.sigma_max_lb == pytest.approx(top, rel=1e-9)
            assert kb.sigma_max_lb <= top * (1.0 + KAPPA_RTOL)

    def test_composes_from_f_without_the_null_space(self, monkeypatch):
        # sigma(sV) is lifted from F, the operator MNES bounds, so no
        # matvec reaches the null-space operator, and at the same seed
        # sigma_max(O) is at least the lift of MNES's sigma_max(F). That
        # value is bit for bit the one OSS computes, so handing it over
        # (as the harness does) changes no field of the OSS bound
        applied, shapes = [], set()
        for name in ("apply", "apply_transpose"):
            def counted(op, v, real=getattr(NewtonOperator, name)):
                if op.kind == "nullspace":
                    applied.append(op.shape)
                return real(op, v)

            monkeypatch.setattr(NewtonOperator, name, counted)
        for seed, std in enumerate(_composed_forms()):
            oss, dense = _canonical_oss(std)
            kb = kappa_lower_oss(oss, seed=seed)
            fbar = build_fbar(select_basis(std.A), std.A,
                              canonical_iterate(std.m, std.n))
            mnes = kappa_lower_mnes(fbar, std.m, std.n, seed=seed)
            if std.n > std.m:
                assert kb.sigma_max_lb >= math.sqrt(
                    1.0 + mnes.sigma_max_lb ** 2) * (1.0 - 1e-15)
            top = np.linalg.svd(dense, compute_uv=False)[0]
            assert kb.sigma_max_lb <= top * (1.0 + KAPPA_RTOL)
            fmax = sigma_max_lower(oss.fbar, seed=seed)
            assert repr(mnes.sigma_max_lb) == repr(fmax)
            handed = kappa_lower_oss(oss, seed=seed, fbar_sigma_max=fmax)
            assert list(map(repr, dataclasses.astuple(handed))) == \
                list(map(repr, dataclasses.astuple(kb)))
            k = std.n - std.m
            shapes.add("n - m > m" if k > std.m else "n = m" if k == 0
                       else "0 < n - m <= m")
        assert applied == []
        assert shapes == {"n - m > m", "0 < n - m <= m", "n = m"}

    @pytest.mark.parametrize("a, expected", [
        # n = m: O = -xA', F is m x 0 and adds nothing
        (np.array([[2.0, 1.0], [0.0, 3.0]]),
         (1.7675918792339058, 3.25661653798294, 1.8424029756185223,
          "iterative")),
        # m = 0: O = sV = -sI, only the exact s
        (np.zeros((0, 3)), (1.0, 1.0, 1.0, "rank_deficiency_exact")),
    ])
    def test_edge_forms_bit_for_bit(self, a, expected):
        oss, _ = _canonical_oss(_edge_form(a))
        kb = kappa_lower_oss(oss)
        assert (kb.kappa_lower, kb.sigma_max_lb, kb.sigma_min_ub,
                kb.sigma_min_method) == expected

    def test_a_floor_comes_from_the_basis(self, monkeypatch):
        # A_B of a slack-style form is diag(p), so the floor is min |p|;
        # a random form's A_B has more than m entries and the floor is 0.
        # Neither build runs the core QR again, even when its cache misses
        def unexpected(*args):
            raise AssertionError("build_oss reran the core basis")

        forms = [(slack_style_lp(9100, 6, 4), True),
                 (random_standard_lp(9101, 5, 9), False)]
        bases = [select_basis(std.A) for std, _ in forms]
        monkeypatch.setattr(newton, "core_basis", unexpected)
        monkeypatch.setattr(standardize_module, "_pivoted_qr", unexpected)
        for (std, covered), basis in zip(forms, bases):
            oss = build_oss(std, canonical_iterate(std.m, std.n), basis, 0.5)
            kb = kappa_lower_oss(oss, seed=1)
            p = std.A.to_dense()[:, -std.m:].diagonal()
            assert oss.a_block.floor == (np.abs(p).min() if covered else 0.0)
            svals = np.linalg.svd(std.A.to_dense(), compute_uv=False)
            assert oss.a_block.floor <= svals[-1]
            assert kb.sigma_min_ub > 0.0

    @pytest.mark.parametrize("timeout, pause, calls",
                             [(2.0, 0.2, 2), (0.1, 0.2, 1)])
    def test_both_blocks_share_one_deadline(self, monkeypatch, timeout,
                                            pause, calls):
        # the A-block's floor is 0 and n - m = 3 <= m = 5, so both parts
        # may run: sigma_min(10 A') lies far above s = 1, which F can reach
        rng = rng_for(12)
        a_block = op_from_dense(10.0 * rng.normal(size=(5, 8)), kind="oss_a")
        fbar = op_from_dense(rng.normal(size=(5, 3)), kind="fbar")
        oss = dataclasses.replace(op_from_dense(np.eye(8), kind="oss"),
                                  a_block=a_block, fbar=fbar, s=1.0)
        seen = []
        real = spectral.sigma_min_upper

        def slow(op, timeout, **kwargs):
            start = time.monotonic()
            time.sleep(pause)
            out = real(op, timeout=timeout, **kwargs)
            seen.append((op.kind, timeout, time.monotonic() - start))
            return out

        monkeypatch.setattr(spectral, "sigma_min_upper", slow)
        kb = kappa_lower_oss(oss, timeout=timeout)
        assert len(seen) == calls and seen[0][:2] == ("oss_a", timeout)
        if calls == 2:
            # F gets what the A-block left of the deadline
            (_, _, first), (kind, left, _) = seen
            assert kind == "fbar" and 0.0 < left <= timeout - first
        else:
            # past the deadline, the A-block's value stands
            assert kb.sigma_min_ub == real(a_block, timeout=timeout,
                                           sigma_max_hint=kb.sigma_max_lb)[0]
