"""Matrix-free Newton operators against dense assembly oracles."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import (dense_fbar, dense_mnes, dense_nes, dense_nullspace,
                      dense_oss, newton_residuals, random_full_rank,
                      random_iterate, random_standard_lp, rng_for)
from qipm_bounds import newton
from qipm_bounds.corpus import corpus_dir
from qipm_bounds.lp_model import SparseMatrix, StandardLP, parse_mps
from qipm_bounds.newton import (Iterate, RankDeficiencyError, build_fbar,
                                build_mnes, build_nes, build_oss,
                                canonical_iterate, null_space_matrix,
                                recover_updates_mnes, recover_updates_nes,
                                recover_updates_oss, select_basis)
from qipm_bounds.spectral import kappa_lower_mnes, kappa_lower_oss
from qipm_bounds.standardize import core_basis, standardize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generators  # noqa: E402

# the package re-exports the function `standardize` under the module's name
standardize_module = importlib.import_module("qipm_bounds.standardize")


def std_from_dense(a, b=None, c=None):
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    return StandardLP(
        A=SparseMatrix(sparse.csr_matrix(a)),
        b=np.zeros(m) if b is None else np.asarray(b, dtype=float),
        c=np.zeros(n) if c is None else np.asarray(c, dtype=float))


def op_columns(op):
    """Operator applied to the identity, one column at a time."""
    cols = [op.apply(np.eye(op.shape[1])[:, j]) for j in range(op.shape[1])]
    return np.stack(cols, axis=1) if cols else np.zeros(op.shape)


class TestSelectBasis:
    def test_identity_block_is_valid(self):
        rng = rng_for(0)
        a = np.hstack([np.eye(4), rng.normal(size=(4, 6))])
        basis = select_basis(SparseMatrix.from_dense(a))
        a_b = a[:, basis.basic]
        rhs = rng.normal(size=4)
        sol = basis.solve(rhs)
        assert np.linalg.norm(a_b @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_one_by_two(self):
        basis = select_basis(SparseMatrix.from_dense([[1.0, 1.0]]))
        assert sorted(basis.basic.tolist() + basis.nonbasic.tolist()) == [0, 1]
        assert len(basis.basic) == 1

    def test_random_sparse_solve_residual(self):
        rng = rng_for(5)
        from conftest import random_full_rank
        a = random_full_rank(rng, 20, 50)
        basis = select_basis(SparseMatrix.from_dense(a))
        a_b = a[:, basis.basic]
        assert np.isfinite(np.linalg.cond(a_b))
        for _ in range(5):
            v = rng.normal(size=20)
            assert np.linalg.norm(a_b @ basis.solve(v) - v) <= \
                1e-10 * np.linalg.norm(v)
            assert np.linalg.norm(a_b.T @ basis.solve_t(v) - v) <= \
                1e-10 * np.linalg.norm(v)

    def test_zero_rows(self):
        basis = select_basis(SparseMatrix(sparse.csr_matrix((0, 3))))
        assert basis.basic.size == 0 and basis.nonbasic.tolist() == [0, 1, 2]
        assert basis.solve(np.zeros(0)).shape == (0,)
        assert basis.solve_t(np.zeros((0, 2))).shape == (0, 2)

    def test_scaled_permutation_basis_builds_no_factor(self, monkeypatch):
        # slack columns of both signs and magnitudes 1e-3..1e3, shuffled
        # among dense structural columns: the crash picks them, A_B has m
        # entries, and the solves equal SuperLU's bit for bit
        rng = rng_for(34)
        m, k = 40, 30
        scaled = (rng.choice([-1.0, 1.0], m)
                  * 10.0 ** rng.uniform(-3.0, 3.0, m))
        a = np.hstack([rng.normal(size=(m, k)), np.diag(scaled)])
        a = a[:, rng.permutation(m + k)]
        splu = newton.splinalg.splu

        def no_splu(*args, **kwargs):
            raise AssertionError("select_basis built a SuperLU factor")

        monkeypatch.setattr(newton.splinalg, "splu", no_splu)
        basis = select_basis(SparseMatrix.from_dense(a))
        monkeypatch.undo()
        assert basis.lu is None and basis.a_b.nnz == m
        # a scaled permutation that is not diagonal, solved the same way
        perm = rng.permutation(m)
        shuffled = newton.BasisSelection(
            basic=basis.basic, nonbasic=basis.nonbasic,
            a_b=SparseMatrix.from_entries(
                m, m, np.column_stack([np.arange(m), perm, scaled])),
            a_n=basis.a_n, lu=None)
        for b in (basis, shuffled):
            lu = splu(b.a_b.tocsc())
            for v in (rng.normal(size=m), rng.normal(size=(m, 3)),
                      np.asfortranarray(rng.normal(size=(m, 2)))):
                for got, want in ((b.solve(v), lu.solve(v)),
                                  (b.solve_t(v), lu.solve(v, "T"))):
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)
                    assert got.flags.f_contiguous

    def test_rank_deficiency_reports_count(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(RankDeficiencyError) as err:
            select_basis(SparseMatrix.from_dense(a))
        assert err.value.deficient_rows == 1

    def test_slack_crash_runs_no_qr(self, monkeypatch):
        # every slack_ladder row owns its slack, so the crash alone gives
        # the basis: one private column per row, in row order
        def no_qr(a):
            raise AssertionError("select_basis ran the core QR")

        std = standardize(parse_mps(generators.slack_ladder(60, 80, 1)))
        monkeypatch.setattr(standardize_module, "_pivoted_qr", no_qr)
        core_basis.cache_clear()
        basis = select_basis(std.A)
        a = std.A.to_dense()
        assert basis.m == std.m == 60
        rows = [int(np.flatnonzero(a[:, j])[0]) for j in basis.basic]
        assert rows == list(range(60))
        assert all(np.count_nonzero(a[:, j]) == 1 for j in basis.basic)

    def test_basis_slices_its_blocks_once(self, monkeypatch):
        # n >= 2m, so build_fbar also carries the inverse Gram, which reads
        # A_B; F and V read the blocks select_basis sliced
        std = standardize(parse_mps(generators.slack_ladder(60, 80, 1)))
        assert std.n >= 2 * std.m
        calls = []
        columns = SparseMatrix.columns

        def counting_columns(self, idx):
            calls.append(len(idx))
            return columns(self, idx)

        monkeypatch.setattr(SparseMatrix, "columns", counting_columns)
        basis = select_basis(std.A)
        build_fbar(basis, std.A, canonical_iterate(std.m, std.n))
        null_space_matrix(basis, std.A)
        assert calls == [std.m, std.n - std.m]
        a = std.A.to_dense()
        assert np.array_equal(basis.a_b.to_dense(), a[:, basis.basic])
        assert np.array_equal(basis.a_n.to_dense(), a[:, basis.nonbasic])

    def test_one_factorization_per_instance(self, monkeypatch):
        # rank repair and the basis share one core decision (a core_basis
        # cache miss); a dependent row adds the repaired matrix's decision.
        # rankdef_dup's rank-deficient core takes the QR and rank repair
        # its row pick; the repaired core and flow's incidence rows are
        # covered by the triangular crash, with no QR
        calls = []
        qr = standardize_module._pivoted_qr

        def counting_qr(a):
            calls.append(a.shape)
            return qr(a)

        monkeypatch.setattr(standardize_module, "_pivoted_qr", counting_qr)
        core_basis.cache_clear()  # an earlier test may have left a hit
        rankdef = (corpus_dir() / "raw" / "rankdef_dup.mps").read_text()
        for text, decisions, shapes in [
                (generators.slack_ladder(60, 80, 1), 1, []),
                (rankdef, 2, [(3, 4), (4, 3)]),
                (generators.flow_grid(8, 8, 1), 1, [])]:
            calls.clear()
            misses = core_basis.cache_info().misses
            std = standardize(parse_mps(text))
            select_basis(std.A)
            assert core_basis.cache_info().misses - misses == decisions
            assert calls == shapes
        # the flow form: the cached pick is read-only, and an equal matrix
        # built apart gives the same pick without a decision of its own
        covered, rest, basic, rank = core_basis(std.A)
        assert rank == rest.size > 0
        for arr in (covered, rest, basic):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        info = core_basis.cache_info()
        copy = SparseMatrix(std.A.tocsr().copy())
        assert copy is not std.A and copy == std.A
        assert hash(copy) == hash(std.A)
        again = core_basis(copy)
        assert core_basis.cache_info().hits == info.hits + 1
        assert core_basis.cache_info().misses == info.misses
        assert again[3] == rank
        for a, b in zip(again[:3], (covered, rest, basic)):
            assert np.array_equal(a, b)
        # same shape and pattern, one value changed in a core row: no stale
        # hit, the matrix gets its own decision
        csr = std.A.tocsr().copy()
        csr.data[csr.indptr[rest[0]]] *= 2.0
        changed = SparseMatrix(csr)
        assert changed != std.A
        core_basis(changed)
        assert core_basis.cache_info().misses == info.misses + 1
        assert calls == []

    @pytest.mark.parametrize("seed", range(40))
    def test_basis_is_nonsingular_with_and_without_slacks(self, seed):
        rng = rng_for(9100 + seed)
        m = int(rng.integers(2, 16))
        a = random_full_rank(rng, m, m + int(rng.integers(0, 20)))
        if seed % 2:  # slack columns on a random subset of the rows
            rows = np.flatnonzero(rng.random(m) < 0.6)
            a = np.hstack([a, np.eye(m)[:, rows]])
        basis = select_basis(SparseMatrix.from_dense(a))
        assert sorted(np.concatenate([basis.basic, basis.nonbasic])) == \
            list(range(a.shape[1]))
        a_b = a[:, basis.basic]
        for _ in range(3):
            v = rng.normal(size=m)
            tol = 1e-10 * np.linalg.norm(v)
            assert np.linalg.norm(a_b @ basis.solve(v) - v) <= tol
            assert np.linalg.norm(a_b.T @ basis.solve_t(v) - v) <= tol

    def test_kappa_bounds_hold_under_the_basis(self):
        # kappa_lower <= kappa_true against a dense SVD, on 200 random
        # full-row-rank LPs with n <= 60, half of them with slack columns
        violations = []
        for seed in range(200):
            rng = rng_for(9300 + seed)
            m = int(rng.integers(2, 16))
            a = random_full_rank(rng, m, m + int(rng.integers(1, 30)))
            if seed % 2:
                rows = np.flatnonzero(rng.random(m) < 0.6)
                a = np.hstack([a, np.eye(m)[:, rows]])
            std = std_from_dense(a)
            n = std.n
            assert n <= 60
            basis = select_basis(std.A)
            it = canonical_iterate(m, n) if seed % 4 < 2 else \
                random_iterate(rng, m, n)
            f = dense_fbar(a, basis.basic, basis.nonbasic, it)
            sf = np.linalg.svd(f, compute_uv=False)
            smin_f = sf[m - 1] if n - m >= m else 0.0
            o = np.linalg.svd(dense_oss(a, basis.basic, basis.nonbasic, it),
                              compute_uv=False)
            truth = {"mnes": (1.0 + sf[0] ** 2) / (1.0 + smin_f ** 2),
                     "oss": o[0] / o[-1]}
            kb = {"mnes": kappa_lower_mnes(build_fbar(basis, std.A, it), m, n,
                                           timeout=5.0, n_samples=200,
                                           seed=seed),
                  "oss": kappa_lower_oss(build_oss(std, it, basis, 0.5),
                                         timeout=5.0, n_samples=200,
                                         seed=seed)}
            for f_name, bound in kb.items():
                if bound.kappa_lower > truth[f_name] * (1.0 + 1e-10):
                    violations.append((seed, f_name, bound.kappa_lower,
                                       truth[f_name]))
        assert violations == []


class TestTriangularCrash:
    @staticmethod
    def _no_qr(monkeypatch):
        def no_qr(a):
            raise AssertionError("the core QR ran")
        monkeypatch.setattr(standardize_module, "_pivoted_qr", no_qr)
        core_basis.cache_clear()

    @pytest.mark.parametrize("k", [8, 12, 20])
    def test_flow_core_is_covered_without_a_qr(self, k, monkeypatch):
        # the node-arc incidence rows are all of the core; the crash covers
        # each with one arc column, and no dense block is built
        std = standardize(parse_mps(generators.flow_grid(k, k, 1)))
        self._no_qr(monkeypatch)
        covered, rest, basic, rank = core_basis(std.A)
        assert rest.size == k * k and rank == rest.size
        core = standardize_module._triangular_crash(std.A, rest)
        assert core.size == rest.size
        assert np.array_equal(basic, np.concatenate([basic[:covered.size],
                                                     core]))
        basis = select_basis(std.A)
        assert np.array_equal(basis.basic, basic)
        assert np.linalg.cond(std.A.to_dense()[:, basis.basic]) < 1e6

    @staticmethod
    def _growth_core(k: int) -> np.ndarray:
        # unit diagonal and -1 below it: every pivot dominates its row and
        # column (ties), and the inverse grows like 2^k. The last column
        # is private to the last row, so the core is the first k - 1 rows
        return np.eye(k) - np.tril(np.ones((k, k)), -1)

    def test_ill_conditioned_crash_falls_back_to_the_qr(self):
        from scipy import linalg
        calls = []
        qr = standardize_module._pivoted_qr

        def counting_qr(a):
            calls.append(a.shape)
            return qr(a)

        # the (k - 1)-row core's 1-norm condition is (k - 1) 2^(k - 2):
        # 5.3e4 at k = 14 and 1.1e5 at k = 15, past CRASH_COND_MAX; the
        # crash covers both, and with the guard lifted it is taken at 15
        for k, cond_max, crash in [(14, None, True), (15, None, False),
                                   (15, math.inf, True), (24, None, False)]:
            a = self._growth_core(k)
            A = SparseMatrix.from_dense(a)
            core_basis.cache_clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(standardize_module, "_pivoted_qr", counting_qr)
                if cond_max is not None:
                    mp.setattr(standardize_module, "CRASH_COND_MAX", cond_max)
                calls.clear()
                covered, rest, basic, rank = core_basis(A)
            assert covered.tolist() == [k - 1]
            assert rank == rest.size == k - 1
            assert calls == ([] if crash else [(k - 1, k - 1)])
            if crash:  # the block is covered from the last core row up
                assert basic.tolist() == [k - 1] + list(range(k - 2, -1, -1))
            else:  # the pick is the QR's, as without the crash
                block = a[rest][:, :k - 1]  # the columns the core touches
                _, piv = linalg.qr(
                    block / np.linalg.norm(block, axis=1)[:, None],
                    mode="r", pivoting=True)
                assert basic.tolist() == [k - 1] + piv.tolist()

    def test_kappa_bounds_hold_under_crash_bases(self, monkeypatch):
        # kappa_lower <= the dense kappa for both formulations on the
        # crash bases of flow grids and of the survey's narrow 2 x k grids
        texts = [generators.flow_grid(k, k, 1) for k in range(8, 13)] + \
            [generators.flow_grid(2, k, 1) for k in range(2, 13)]
        self._no_qr(monkeypatch)
        violations = []
        for text in texts:
            std = standardize(parse_mps(text))
            m, n = std.m, std.n
            basis = select_basis(std.A)
            it = canonical_iterate(m, n)
            a = std.A.to_dense()
            sf = np.linalg.svd(dense_fbar(a, basis.basic, basis.nonbasic, it),
                               compute_uv=False)
            smin_f = sf[m - 1] if n - m >= m else 0.0
            o = np.linalg.svd(dense_oss(a, basis.basic, basis.nonbasic, it),
                              compute_uv=False)
            truth = {"mnes": (1.0 + sf[0] ** 2) / (1.0 + smin_f ** 2),
                     "oss": o[0] / o[-1]}
            fbar = build_fbar(basis, std.A, it)
            kb = {"mnes": kappa_lower_mnes(fbar, m, n, seed=1),
                  "oss": kappa_lower_oss(build_oss(std, it, basis, 0.5,
                                                   fbar=fbar), seed=1)}
            for name, bound in kb.items():
                if bound.kappa_lower > truth[name] * (1.0 + 1e-10):
                    violations.append((m, n, name, bound.kappa_lower,
                                       truth[name]))
        assert violations == []


class TestBuildNes:
    def test_hand_example(self):
        # A = [1 1], x = s = 1, y = 0, b = [2], c = 0, beta_mu = 1
        std = std_from_dense([[1.0, 1.0]], b=[2.0], c=[0.0, 0.0])
        it = canonical_iterate(1, 2)
        nes = build_nes(std, it, beta_mu=1.0)
        np.testing.assert_allclose(nes.apply(np.array([3.0])), [6.0])
        np.testing.assert_allclose(nes.rhs, [-2.0])

    def test_x_equals_s_gives_aat(self):
        rng = rng_for(1)
        a = rng.normal(size=(3, 5))
        std = std_from_dense(a)
        xs = rng.uniform(0.5, 2.0, size=5)
        it = Iterate(xs, np.zeros(3), xs.copy())
        nes = build_nes(std, it, 0.5)
        v = rng.normal(size=3)
        np.testing.assert_allclose(nes.apply(v), a @ a.T @ v, rtol=1e-12)

    def test_matches_dense_assembly(self):
        std = random_standard_lp(11, 5, 8)
        rng = rng_for(12)
        it = random_iterate(rng, 5, 8)
        nes = build_nes(std, it, 0.7)
        oracle = dense_nes(std.A.to_dense(), it)
        np.testing.assert_allclose(op_columns(nes), oracle, rtol=0, atol=1e-12
                                   * np.abs(oracle).max())

    def test_rejects_nonpositive_iterate(self):
        std = std_from_dense([[1.0, 1.0]])
        with pytest.raises(ValueError):
            Iterate(np.array([1.0, 0.0]), np.zeros(1), np.ones(2))


class TestBuildMnes:
    def test_scalar_identity_plus_coupling(self):
        std = std_from_dense([[1.0, 1.0]], b=[2.0])
        it = canonical_iterate(1, 2)
        basis = select_basis(std.A)
        mnes = build_mnes(std, it, basis, 0.5)
        np.testing.assert_allclose(mnes.apply(np.array([1.0])), [2.0],
                                   rtol=1e-12)

    def test_square_reduces_to_identity(self):
        rng = rng_for(2)
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        std = std_from_dense(a)
        it = canonical_iterate(4, 4)
        basis = select_basis(std.A)
        mnes = build_mnes(std, it, basis, 0.5)
        v = rng.normal(size=4)
        np.testing.assert_allclose(mnes.apply(v), v, atol=1e-10)

    def test_matches_dense_assembly(self):
        std = random_standard_lp(21, 6, 10)
        basis = select_basis(std.A)
        it = canonical_iterate(6, 10)
        mnes = build_mnes(std, it, basis, 0.5)
        oracle = dense_mnes(std.A.to_dense(), basis.basic, it)
        np.testing.assert_allclose(op_columns(mnes), oracle,
                                   atol=1e-10 * np.abs(oracle).max())

    def test_rhs_consistent_with_nes(self):
        # sigma_hat must equal D_B^-1 A_B^-1 sigma, tying both builders
        std = random_standard_lp(23, 6, 11)
        rng = rng_for(23)
        it = random_iterate(rng, 6, 11)
        basis = select_basis(std.A)
        beta_mu = 0.3
        nes = build_nes(std, it, beta_mu)
        mnes = build_mnes(std, it, basis, beta_mu)
        db = np.sqrt(it.x[basis.basic] / it.s[basis.basic])
        expected = basis.solve(nes.rhs) / db
        np.testing.assert_allclose(mnes.rhs, expected, rtol=0,
                                   atol=1e-10 * (1 + np.abs(expected).max()))

    def test_identity_plus_ffbar_structure(self):
        std = random_standard_lp(22, 7, 13)
        basis = select_basis(std.A)
        it = canonical_iterate(7, 13)
        mnes = build_mnes(std, it, basis, 0.5)
        fbar = build_fbar(basis, std.A, it)
        f = op_columns(fbar)
        np.testing.assert_allclose(op_columns(mnes), np.eye(7) + f @ f.T,
                                   atol=1e-10 * (1 + np.abs(f).max() ** 2))


class TestFbarAndNullspace:
    def test_scalar_fbar(self):
        std = std_from_dense([[1.0, 1.0]])
        basis = select_basis(std.A)
        fbar = build_fbar(basis, std.A, canonical_iterate(1, 2))
        np.testing.assert_allclose(fbar.apply(np.array([1.0])), [1.0])

    def test_zero_nonbasic_block(self):
        a = np.hstack([np.eye(3), np.zeros((3, 2))])
        # explicit zero columns would be pruned; give them tiny coupling rows
        a[0, 3] = a[1, 4] = 0.0
        a[2, 3] = a[2, 4] = 0.0
        a = np.hstack([np.eye(3), np.zeros((3, 0))])
        std = std_from_dense(a)
        basis = select_basis(std.A)
        fbar = build_fbar(basis, std.A, canonical_iterate(3, 3))
        assert fbar.shape == (3, 0)
        assert fbar.apply(np.zeros(0)).tolist() == [0.0, 0.0, 0.0]

    def test_fbar_matches_dense(self):
        std = random_standard_lp(31, 5, 9)
        basis = select_basis(std.A)
        it = canonical_iterate(5, 9)
        fbar = build_fbar(basis, std.A, it)
        oracle = dense_fbar(std.A.to_dense(), basis.basic, basis.nonbasic, it)
        np.testing.assert_allclose(op_columns(fbar), oracle,
                                   atol=1e-10 * (1 + np.abs(oracle).max()))
        # transpose consistency
        rng = rng_for(31)
        u, v = rng.normal(size=5), rng.normal(size=4)
        assert fbar.apply(v) @ u == pytest.approx(
            v @ fbar.apply_transpose(u), rel=1e-12)

    def test_nullspace_hand_example(self):
        std = std_from_dense([[1.0, 1.0]])
        basis = select_basis(std.A)
        v_op = null_space_matrix(basis, std.A)
        v = op_columns(v_op)
        av = std.A.to_dense() @ v
        np.testing.assert_allclose(av, 0.0, atol=1e-14)
        assert v.shape == (2, 1)

    def test_nullspace_identity_block(self):
        rng = rng_for(4)
        r = rng.normal(size=(3, 2))
        a = np.hstack([np.eye(3), r])
        std = std_from_dense(a)
        basis = select_basis(std.A)
        v = op_columns(null_space_matrix(basis, std.A))
        np.testing.assert_allclose(a @ v, 0.0, atol=1e-12)

    def test_nullspace_random(self):
        std = random_standard_lp(41, 4, 7)
        basis = select_basis(std.A)
        v_op = null_space_matrix(basis, std.A)
        v = op_columns(v_op)
        oracle = dense_nullspace(std.A.to_dense(), basis.basic, basis.nonbasic)
        np.testing.assert_allclose(v, oracle, atol=1e-10)
        assert np.abs(std.A.to_dense() @ v).max() <= 1e-10


class TestBuildOss:
    def test_hand_example(self):
        std = std_from_dense([[1.0, 1.0]])
        it = canonical_iterate(1, 2)
        basis = select_basis(std.A)
        oss = build_oss(std, it, basis, beta_mu=0.5)
        dense = op_columns(oss)
        # column order of the lambda block depends on which column is basic
        expected = dense_oss(std.A.to_dense(), basis.basic, basis.nonbasic, it)
        np.testing.assert_allclose(dense, expected, atol=1e-14)
        np.testing.assert_allclose(sorted(dense.flatten()), [-1, -1, -1, 1])
        np.testing.assert_allclose(oss.rhs, [-0.5, -0.5])

    def test_all_ones_iterate_shape(self):
        std = random_standard_lp(51, 3, 6)
        it = canonical_iterate(3, 6)
        basis = select_basis(std.A)
        oss = build_oss(std, it, basis, 0.5)
        a = std.A.to_dense()
        v = dense_nullspace(a, basis.basic, basis.nonbasic)
        np.testing.assert_allclose(op_columns(oss), np.hstack([-a.T, v]),
                                   atol=1e-10)

    def test_matches_dense_assembly(self):
        std = random_standard_lp(52, 5, 9)
        rng = rng_for(52)
        it = random_iterate(rng, 5, 9)
        basis = select_basis(std.A)
        oss = build_oss(std, it, basis, 0.25)
        oracle = dense_oss(std.A.to_dense(), basis.basic, basis.nonbasic, it)
        np.testing.assert_allclose(op_columns(oss), oracle,
                                   atol=1e-10 * (1 + np.abs(oracle).max()))
        u = rng.normal(size=9)
        np.testing.assert_allclose(oss.apply_transpose(u), oracle.T @ u,
                                   atol=1e-10 * (1 + np.abs(oracle).max()))
        np.testing.assert_allclose(oss.rhs, 0.25 - it.x * it.s)


class TestOperatorInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_linearity_symmetry_pd(self, seed):
        rng = rng_for(600 + seed)
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m, m + 10))
        std = random_standard_lp(700 + seed, m, n)
        it = random_iterate(rng, m, n)
        basis = select_basis(std.A)
        ops = [build_nes(std, it, 0.5), build_mnes(std, it, basis, 0.5)]
        for op in ops:
            u = rng.normal(size=m)
            v = rng.normal(size=m)
            al, be = rng.normal(), rng.normal()
            lhs = op.apply(al * u + be * v)
            rhs = al * op.apply(u) + be * op.apply(v)
            scale = max(np.abs(rhs).max(), 1e-30)
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale
            # symmetry on random probes
            assert u @ op.apply(v) == pytest.approx(v @ op.apply(u), rel=1e-10)
            # positive definiteness
            assert v @ op.apply(v) > 0.0


class TestRecoverNes:
    def test_exact_solution_satisfies_all_rows(self):
        std = random_standard_lp(61, 4, 6)
        rng = rng_for(61)
        it = random_iterate(rng, 4, 6)
        beta_mu = 0.4
        nes = build_nes(std, it, beta_mu)
        m_dense = dense_nes(std.A.to_dense(), it)
        dy = np.linalg.solve(m_dense, nes.rhs)
        step = recover_updates_nes(std, it, beta_mu, dy)
        rp, rd, rc = newton_residuals(std, it, beta_mu, step)
        assert np.linalg.norm(rp) <= 1e-9
        assert np.linalg.norm(rd) <= 1e-9
        assert np.linalg.norm(rc) <= 1e-9
        assert step.residual_location == "primal_row"

    def test_dual_feasible_start_with_zero_dy(self):
        std = random_standard_lp(62, 3, 5)
        std.c = np.abs(std.c) + 0.5  # s = c needs a strictly positive c
        it = Iterate(np.ones(5), np.zeros(3), std.c.copy())
        beta_mu = 0.3
        step = recover_updates_nes(std, it, beta_mu, np.zeros(3))
        np.testing.assert_allclose(step.ds, 0.0, atol=1e-15)
        np.testing.assert_allclose(step.dx, beta_mu / it.s - it.x)

    def test_perturbed_dy_pollutes_primal_row_only(self):
        std = random_standard_lp(63, 4, 7)
        rng = rng_for(63)
        it = random_iterate(rng, 4, 7)
        beta_mu = 0.4
        nes = build_nes(std, it, beta_mu)
        dy = np.linalg.solve(dense_nes(std.A.to_dense(), it), nes.rhs)
        eps = 1e-3
        dy_bad = dy + eps * rng.normal(size=4)
        step = recover_updates_nes(std, it, beta_mu, dy_bad)
        rp, rd, rc = newton_residuals(std, it, beta_mu, step)
        assert np.linalg.norm(rd) <= 1e-9
        assert np.linalg.norm(rc) <= 1e-9
        assert 1e-5 * eps < np.linalg.norm(rp)


class TestRecoverMnes:
    def _setup(self, seed, m=4, n=6):
        std = random_standard_lp(seed, m, n)
        rng = rng_for(seed)
        it = random_iterate(rng, m, n)
        basis = select_basis(std.A)
        beta_mu = 0.4
        mnes = build_mnes(std, it, basis, beta_mu)
        m_dense = dense_mnes(std.A.to_dense(), basis.basic, it)
        return std, rng, it, basis, beta_mu, mnes, m_dense

    def test_exact_solution(self):
        std, rng, it, basis, beta_mu, mnes, m_dense = self._setup(71)
        z = np.linalg.solve(m_dense, mnes.rhs)
        step = recover_updates_mnes(std, it, basis, beta_mu, z,
                                    r_hat=mnes.rhs - m_dense @ z)
        rp, rd, rc = newton_residuals(std, it, beta_mu, step)
        assert np.linalg.norm(rp) <= 1e-9
        assert np.linalg.norm(rd) <= 1e-9
        assert step.residual_location == "complementarity_row"

    def test_zero_solution_full_residual(self):
        std, rng, it, basis, beta_mu, mnes, m_dense = self._setup(72)
        z = np.zeros(std.m)
        step = recover_updates_mnes(std, it, basis, beta_mu, z, r_hat=mnes.rhs)
        rp, rd, _ = newton_residuals(std, it, beta_mu, step)
        assert np.linalg.norm(rp) <= 1e-9
        assert np.linalg.norm(rd) <= 1e-9

    def test_inexact_residual_transfer_identity(self):
        std, rng, it, basis, beta_mu, mnes, m_dense = self._setup(73)
        z = np.linalg.solve(m_dense, mnes.rhs) + 0.1 * rng.normal(size=std.m)
        r_hat = mnes.rhs - m_dense @ z
        step = recover_updates_mnes(std, it, basis, beta_mu, z, r_hat)
        rp, rd, rc = newton_residuals(std, it, beta_mu, step)
        assert np.linalg.norm(rp) <= 1e-9
        assert np.linalg.norm(rd) <= 1e-9
        # complementarity residual is exactly the transferred quantity
        db = np.sqrt(it.x[basis.basic] / it.s[basis.basic])
        expected = np.zeros(std.n)
        expected[basis.basic] = it.s[basis.basic] * db * r_hat
        np.testing.assert_allclose(rc, expected, atol=1e-9)


class TestRecoverOss:
    def test_arbitrary_w_preserves_feasibility(self):
        std = random_standard_lp(81, 5, 9)
        rng = rng_for(81)
        it = random_iterate(rng, 5, 9)
        basis = select_basis(std.A)
        for _ in range(5):
            w = rng.normal(size=9)
            step = recover_updates_oss(std, it, basis, w)
            assert np.linalg.norm(std.A.tocsr() @ step.dx) <= 1e-9
            # ds is computed as -A'dy, so the identity holds exactly
            np.testing.assert_array_equal(
                step.ds, -(std.A.tocsr().T @ step.dy))

    def test_zero_w_zero_step(self):
        std = random_standard_lp(82, 3, 6)
        basis = select_basis(std.A)
        step = recover_updates_oss(std, canonical_iterate(3, 6), basis,
                                   np.zeros(6))
        assert not step.dx.any() and not step.dy.any() and not step.ds.any()

    def test_exact_solve_at_feasible_iterate(self):
        std = random_standard_lp(83, 4, 8)
        rng = rng_for(83)
        # primal-dual feasible iterate by construction of random_standard_lp:
        # recover (x0, y0, s0) by solving the residual-free conditions
        a = std.A.to_dense()
        x0 = np.linalg.lstsq(a, std.b, rcond=None)[0]
        # fall back: build a feasible interior point explicitly
        x0 = rng.uniform(0.5, 2.0, size=8)
        b = a @ x0
        y0 = rng.normal(size=4)
        s0 = rng.uniform(0.5, 2.0, size=8)
        c = a.T @ y0 + s0
        std = StandardLP(A=std.A, b=b, c=c)
        it = Iterate(x0, y0, s0)
        beta_mu = 0.4
        basis = select_basis(std.A)
        oss = build_oss(std, it, basis, beta_mu)
        dense = op_columns(oss)
        w = np.linalg.solve(dense, oss.rhs)
        step = recover_updates_oss(std, it, basis, w)
        rp, rd, rc = newton_residuals(std, it, beta_mu, step)
        assert np.linalg.norm(rp) <= 1e-9
        assert np.linalg.norm(rd) <= 1e-9
        assert np.linalg.norm(rc) <= 1e-9
