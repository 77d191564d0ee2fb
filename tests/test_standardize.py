"""Presolve, standard-form conversion and rank repair."""

import gc
import hashlib
import importlib

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from conftest import (col_tuples, general_lp, load_gen_corpus, rng_for,
                      row_tuples)
from qipm_bounds.lp_model import (INF, GeneralLP, SparseMatrix, emit_mps,
                                  interval_rows, parse_mps)
from qipm_bounds.newton import select_basis
from qipm_bounds.standardize import (RANK_TOL, InfeasibleProblem,
                                     UnboundedProblem, ensure_full_row_rank,
                                     presolve, private_singletons,
                                     standardize, to_standard_form)

# the package re-exports the function `standardize` under the module's name
standardize_module = importlib.import_module("qipm_bounds.standardize")

# normwise backward error a basis solve must meet:
# ||A_B x - v|| <= tol * (||A_B|| ||x|| + ||v||)
BACKWARD_ERROR_TOL = 1e-10


def make_lp(rows, cols, coeffs, objective, sense="min", constant=0.0):
    """rows: (name, sense, rhs[, range]); cols: (name, lo, up);
    coeffs: (row_idx, col_idx, value)."""
    return general_lp(rows, cols, coeffs, objective, sense=sense,
                      constant=constant)


def interval(lp, i):
    """Row i's activity interval as a pair of Python floats."""
    lo, hi = lp.intervals()
    return float(lo[i]), float(hi[i])


def set_row(lp, lo, hi):
    """Make lp's one row the row whose interval is exactly [lo, hi]."""
    lp.sense, lp.rhs, lp.ranges, lp.row_lower = interval_rows(
        np.array([lo]), np.array([hi]))


def solve_general_oracle(lp):
    """Reference optimum of a GeneralLP via scipy's HiGHS front end."""
    sign = 1.0 if lp.objective_sense == "min" else -1.0
    a = lp.coefficients.to_dense()
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, (lo, hi) in enumerate(zip(*lp.intervals())):
        if lo == hi:
            a_eq.append(a[i])
            b_eq.append(lo)
            continue
        if hi < INF:
            a_ub.append(a[i])
            b_ub.append(hi)
        if lo > -INF:
            a_ub.append(-a[i])
            b_ub.append(-lo)
    bounds = [(lo if lo > -INF else None, up if up < INF else None)
              for _, lo, up in col_tuples(lp)]
    res = linprog(sign * lp.objective,
                  A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs")
    if not res.success:
        return res.status, None
    return 0, sign * res.fun + lp.objective_constant


def solve_standard_oracle(std):
    res = linprog(std.c, A_eq=std.A.to_dense(), b_eq=std.b,
                  bounds=[(0, None)] * std.n, method="highs")
    if not res.success:
        return res.status, None
    return 0, std.original_objective(res.fun)


class TestPresolve:
    def test_vacuous_row_removed(self):
        lp = make_lp([("r0", "<=", 1.0), ("r1", "<=", 5.0)],
                     [("x", 0.0, INF)], [(1, 0, 1.0)], [1.0])
        out = presolve(lp)
        assert out.row_names == ["r1"]
        assert any("empty row" in e for e in out.transform_log)

    def test_vacuous_row_infeasible(self):
        lp = make_lp([("r0", ">=", 1.0)], [("x", 0.0, INF)], [], [1.0])
        with pytest.raises(InfeasibleProblem):
            presolve(lp)

    def test_positive_scaling_duplicates_merge(self):
        lp = make_lp([("r0", "<=", 3.0), ("r1", "<=", 6.0)],
                     [("x", 0.0, INF), ("y", 0.0, INF)],
                     [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 2.0)],
                     [-1.0, -1.0])
        out = presolve(lp)
        assert out.n_rows == 1
        assert any("merge duplicate" in e for e in out.transform_log)
        # tightest interval wins: both describe x + y <= 3
        assert interval(out, 0) == (-INF, 3.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_merges_match_a_pairwise_reference(self, seed):
        # few patterns, scaled by powers of two (exact ratios) of either
        # sign, plus rows that share a pattern with other values
        rng = rng_for(300 + seed)
        base = rng.integers(-2, 3, size=(3, 5)).astype(float)
        base[:, 0] = 1.0
        vecs = []
        for _ in range(14):
            row = base[int(rng.integers(3))]
            vec = row * rng.choice([1.0, 2.0, 0.5, -1.0])
            if rng.random() < 0.2:
                vec = vec.copy()
                vec[0] += 1.0  # same pattern, another direction
            vecs.append(vec)
        rows = [(f"r{i}", "<=", 10.0) for i in range(len(vecs))]
        coeffs = [(i, j, v) for i, vec in enumerate(vecs)
                  for j, v in enumerate(vec) if v != 0.0]
        out = presolve(make_lp(rows, [(f"x{j}", 0.0, INF) for j in range(5)],
                               coeffs, np.ones(5)))
        expected_log, kept = [], []
        for i, vec in enumerate(vecs):
            k = next((k for k in kept if any(
                np.array_equal(vec, alpha * vecs[k])
                for alpha in (0.25, 0.5, 1.0, 2.0, 4.0))), None)
            if k is None:
                kept.append(i)
            else:
                expected_log.append(f"merge duplicate row r{i} into r{k}")
        assert out.row_names == [f"r{i}" for i in kept]
        assert out.transform_log == expected_log

    def test_merge_crossing_inside_tolerance_yields_equality(self):
        # x + y >= 1 and x + y <= 1 - 5e-14 cross by less than the merge
        # tolerance: the merged row is an equality between the two ends,
        # never an inverted interval
        lp = make_lp([("R1", ">=", 1.0), ("R2", "<=", 2.0 - 1e-13)],
                     [("x", 0.0, INF), ("y", 0.0, INF)],
                     [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 2.0)],
                     [1.0, 1.0])
        out = presolve(lp)
        assert [(name, sense, r) for name, sense, _, r in row_tuples(out)] \
            == [("R1", "=", None)]
        lo, hi = interval(out, 0)
        assert lo == hi and (2.0 - 1e-13) / 2.0 <= lo <= 1.0

    # a >= row at rhs +inf, an = row at +inf and a <= row at -inf
    @pytest.mark.parametrize("sense, rhs", [(">=", INF), ("=", INF),
                                            ("<=", -INF)])
    def test_infinite_wrong_side_end_is_infeasible(self, sense, rhs):
        cols = [("x", 0.0, INF), ("y", 0.0, INF)]
        alone = make_lp([("R1", sense, rhs)], cols, [(0, 0, 1.0), (0, 1, 1.0)],
                        [1.0, 1.0])
        # merged with a positively scaled duplicate, before and after it
        first = make_lp([("R1", sense, rhs), ("R2", "<=", 4.0)], cols,
                        [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 2.0)],
                        [1.0, 1.0])
        second = make_lp([("R2", "<=", 4.0), ("R1", sense, rhs)], cols,
                         [(0, 0, 2.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 1.0)],
                         [1.0, 1.0])
        for lp in (alone, first, second):
            with pytest.raises(InfeasibleProblem, match="row R1 requires"):
                presolve(lp)
            with pytest.raises(InfeasibleProblem, match="row R1 requires"):
                to_standard_form(lp)
        text = emit_mps(alone)
        with pytest.raises(InfeasibleProblem, match="row R1 requires"):
            standardize(parse_mps(text))

    # a <= row at rhs +inf and a >= row at -inf bound nothing
    @pytest.mark.parametrize("sense, rhs", [("<=", INF), (">=", -INF)])
    def test_row_with_no_finite_end_is_dropped(self, sense, rhs):
        cols = [("x", 0.0, INF), ("y", 0.0, INF)]
        lp = make_lp([("R1", sense, rhs), ("R2", ">=", 1.0)], cols,
                     [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
                     [1.0, 1.0])
        out = presolve(lp)
        assert out.row_names == ["R2"]
        assert "drop free row R1" in out.transform_log
        std = standardize(parse_mps(emit_mps(lp)))
        assert np.isfinite(std.b).all() and std.m == 1

    def test_fixed_variable_substituted(self):
        lp = make_lp([("r0", "<=", 5.0)],
                     [("x", 2.0, 2.0), ("y", 0.0, INF)],
                     [(0, 0, 1.0), (0, 1, 1.0)], [1.0, 1.0])
        out = presolve(lp)
        assert out.col_names == ["y"]
        assert interval(out, 0) == (-INF, 3.0)
        assert out.objective_constant == 2.0
        # feasible-set equivalence through the reference solver
        _, val_orig = solve_general_oracle(lp)
        _, val_new = solve_general_oracle(out)
        assert val_orig == pytest.approx(val_new, rel=1e-9)

    def test_untouched_ranged_row_keeps_exact_ends(self):
        # rebuilding this row from its interval would store the range
        # hi - lo, whose interval() lower end is -0.7312715117751623
        row = ("r0", ">=", -0.7312715117751976, 855.1378)
        lp = make_lp([row], [("x", 0.0, INF)], [(0, 0, 1.0)], [1.0])
        out = presolve(lp)
        assert row_tuples(out) == [row]
        assert interval(out, 0) == interval(lp, 0)
        # nothing was removed or changed, so the arrays are the input's
        for attr in ("sense", "rhs", "ranges", "row_lower", "lower", "upper",
                     "objective", "coefficients"):
            assert getattr(out, attr) is getattr(lp, attr)

    # hi - (hi - lo) != lo for both; no ranged '<=' or '>=' row gives the
    # second one exactly
    @pytest.mark.parametrize("lo, hi", [
        (-0.7312715117751976, 854.4066356201084),
        (-174.2520133664412, 202.96914653259458)])
    def test_rebuilt_ranged_row_keeps_exact_ends(self, lo, hi):
        # shifted by a fixed variable x = 1 with coefficient 0.5
        lp = make_lp([("r0", ">=", 0.0)], [("x", 1.0, 1.0), ("y", 0.0, INF)],
                     [(0, 0, 0.5), (0, 1, 1.0)], [1.0, 1.0])
        set_row(lp, lo, hi)
        assert interval(lp, 0) == (lo, hi)
        set_row(lp, lo + 0.5, hi + 0.5)
        out = presolve(lp)
        expected = (interval(lp, 0)[0] - 0.5, interval(lp, 0)[1] - 0.5)
        assert interval(out, 0) == expected
        std = to_standard_form(out)
        # the bound row of the ranged slack holds the exact width
        assert std.b[-1] == expected[1] - expected[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_shifted_and_merged_rows_keep_exact_ends(self, seed):
        rng = rng_for(3000 + seed)
        cols = [("x", 0.0, INF), ("y", 0.0, INF), ("f", 1.0, 1.0)]
        for _ in range(200):
            if rng.random() < 0.5:
                lo = float(rng.uniform(-1.0, 1.0))
                hi = lo + float(10.0 ** rng.uniform(-3.0, 4.0))
            else:
                lo = -float(10.0 ** rng.uniform(-3.0, 3.0))
                hi = float(10.0 ** rng.uniform(-3.0, 3.0))
            shift = float(rng.uniform(-2.0, 2.0))
            # shifted: a fixed f = 1 with coefficient `shift`
            shifted = make_lp([("r", ">=", 0.0)], cols,
                              [(0, 0, 1.0), (0, 1, 1.0), (0, 2, shift)],
                              [1.0, 1.0, 0.0])
            set_row(shifted, lo, hi)
            assert interval(presolve(shifted), 0) == (lo - shift, hi - shift)
            # merged: r1 >= lo and 2 * r1 <= 2 * hi, so [lo, hi] after merge
            merged = make_lp([("r1", ">=", lo), ("r2", "<=", 2.0 * hi)],
                             cols[:2], [(0, 0, 1.0), (0, 1, 1.0),
                                        (1, 0, 2.0), (1, 1, 2.0)],
                             [1.0, 1.0])
            out = presolve(merged)
            assert interval(out, 0) == (lo, hi)
            std = to_standard_form(out)
            assert (std.b[0], std.b[-1]) == (hi, hi - lo)

    @pytest.mark.parametrize("col, match", [
        (("y", 2.0, 1.0), "variable y has empty bound interval"),
        (("y", INF, INF), "variable y is fixed at a non-finite value"),
        (("y", -INF, -INF), "variable y is fixed at a non-finite value")],
        ids=["empty-interval", "fixed-at-inf", "fixed-at-minus-inf"])
    def test_bad_column_bounds_infeasible(self, col, match):
        lp = make_lp([("r0", "<=", 1.0)], [("x", 0.0, INF), col],
                     [(0, 0, 1.0), (0, 1, 1.0)], [1.0, 1.0])
        with pytest.raises(InfeasibleProblem, match=match):
            presolve(lp)

    def test_empty_column_unbounded(self):
        lp = make_lp([("r0", "<=", 1.0)], [("x", 0.0, INF), ("z", 0.0, INF)],
                     [(0, 0, 1.0)], [1.0, -1.0])
        with pytest.raises(UnboundedProblem):
            presolve(lp)

    def test_empty_column_fixed_at_best_bound(self):
        lp = make_lp([("r0", "<=", 1.0)], [("x", 0.0, INF), ("z", 0.0, 4.0)],
                     [(0, 0, 1.0)], [1.0, -2.0])
        out = presolve(lp)
        assert out.col_names == ["x"]
        assert out.objective_constant == -8.0


class TestToStandardForm:
    def test_single_surplus(self):
        lp = make_lp([("c1", ">=", 1.0)], [("x", 0.0, INF)],
                     [(0, 0, 1.0)], [1.0])
        std = to_standard_form(lp)
        assert std.A.to_dense().tolist() == [[1.0, -1.0]]
        assert std.b.tolist() == [1.0]
        assert std.c.tolist() == [1.0, 0.0]

    def test_free_variable_split(self):
        lp = make_lp([("c1", "=", 2.0)], [("y", -INF, INF)],
                     [(0, 0, 1.0)], [0.0])
        std = to_standard_form(lp)
        assert std.A.to_dense().tolist() == [[1.0, -1.0]]
        assert std.transform_log == ["split free variable y"]

    def test_two_sided_bound_becomes_row(self):
        lp = make_lp([("c1", "<=", 3.0)], [("x", 0.0, 5.0)],
                     [(0, 0, 1.0)], [-1.0])
        std = to_standard_form(lp)
        assert (std.m, std.n) == (2, 3)
        dense = std.A.to_dense()
        np.testing.assert_allclose(dense, [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        np.testing.assert_allclose(std.b, [3.0, 5.0])
        # equal optima on both polytopes for c = (-1)
        _, val_orig = solve_general_oracle(lp)
        _, val_std = solve_standard_oracle(std)
        assert val_std == pytest.approx(val_orig, rel=1e-9)

    def test_max_objective_negated(self):
        lp = make_lp([("c1", "<=", 4.0)], [("x", 0.0, INF)],
                     [(0, 0, 1.0)], [1.0], sense="max")
        std = to_standard_form(lp)
        assert std.c.tolist() == [-1.0, 0.0]
        assert std.objective_sign == -1.0
        _, val = solve_standard_oracle(std)
        assert val == pytest.approx(4.0)

    def test_mirrored_upper_bounded_variable(self):
        # x <= 2 with no lower bound: minimize x has optimum at -inf unless
        # constrained; use a >= row to pin it
        lp = make_lp([("c1", ">=", -5.0)], [("x", -INF, 2.0)],
                     [(0, 0, 1.0)], [1.0])
        std = to_standard_form(lp)
        _, val = solve_standard_oracle(std)
        assert val == pytest.approx(-5.0)

    def test_bad_column_bounds_rejected(self):
        # without the check, x in [inf, inf] and y in [2, 1] gave
        # b = [-inf, -1] and a NaN objective constant
        def lp(*cols):
            return make_lp([("r0", "<=", 1.0)], list(cols),
                           [(0, j, 1.0) for j in range(len(cols))],
                           np.ones(len(cols)))
        x, y = ("x", INF, INF), ("y", 2.0, 1.0)
        with pytest.raises(ValueError, match="x is fixed at a non-finite"):
            to_standard_form(lp(x, y))
        with pytest.raises(ValueError, match="non-finite"):
            to_standard_form(lp(("x", -INF, -INF)))
        with pytest.raises(InfeasibleProblem, match="y has empty bound"):
            to_standard_form(lp(y))
        with pytest.raises(InfeasibleProblem):
            to_standard_form(lp(("z", INF, 0.0)))

    # a <= row at rhs +inf and a >= row at -inf have no right-hand side;
    # without the check, the first case gave b = [inf, 4]
    @pytest.mark.parametrize("sense, rhs", [("<=", INF), (">=", -INF)])
    def test_row_with_no_finite_end_rejected(self, sense, rhs):
        lp = make_lp([("R1", sense, rhs), ("R2", "<=", 4.0)],
                     [("x", 0.0, INF), ("y", 0.0, INF)],
                     [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
                     [1.0, 1.0])
        with pytest.raises(ValueError, match="row R1 has no finite end"):
            to_standard_form(lp)
        assert to_standard_form(presolve(lp)).b.tolist() == [4.0]


class TestEnsureFullRowRank:
    def _std(self, a, b):
        a = np.asarray(a, dtype=float)
        from qipm_bounds.lp_model import StandardLP
        return StandardLP(
            A=SparseMatrix(sparse.csr_matrix(a)), b=np.asarray(b, dtype=float),
            c=np.zeros(a.shape[1]))

    def test_scaled_duplicate_dropped(self):
        std = self._std([[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0])
        out = ensure_full_row_rank(std)
        assert out.m == 1
        np.testing.assert_allclose(out.A.to_dense(), [[1.0, 1.0]])
        # a dependent row ahead of an independent one: e2 must be kept
        out = ensure_full_row_rank(
            self._std([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 2.0]))
        assert out.m == 2
        assert [0.0, 1.0] in out.A.to_dense().tolist()

    def test_private_singletons(self):
        # column 0 is private to row 0 and column 3 to row 2; columns 1, 2
        # and 4 are shared; row 2 reports its larger private entry
        a = [[2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
             [0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, 1.0, 1.0, 3.0],
             [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]
        rows, cols = private_singletons(SparseMatrix.from_dense(a))
        assert rows.tolist() == [0, 2]
        assert cols.tolist() == [0, 5]
        # an entry at the rank tolerance relative to the row norm is too
        # small to prove independence
        rows, _ = private_singletons(SparseMatrix.from_dense(
            [[RANK_TOL, 1.0], [0.0, 1.0]]))
        assert rows.tolist() == []

    def test_covered_row_kept_and_dependence_among_the_rest(self):
        # r0 owns column p; r3 = r1 + r2 on shared columns a, b, c, d
        a = [[1.0, 1.0, 0.0, 0.0, 0.0],    # p + a
             [0.0, 1.0, 1.0, 0.0, 0.0],    # a + b
             [0.0, 0.0, 0.0, 1.0, 1.0],    # c + d
             [0.0, 1.0, 1.0, 1.0, 1.0]]    # a + b + c + d
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.asarray(a) @ x0
        out = ensure_full_row_rank(self._std(a, b))
        assert out.m == 3
        assert out.A.to_dense().tolist()[0] == a[0]
        np.testing.assert_allclose(out.A.to_dense() @ x0, out.b)
        [drop] = [e for e in out.transform_log
                  if e.startswith("drop dependent row")]
        dropped = int(drop.split()[-1])
        assert dropped in (1, 2, 3)
        b[dropped] += 1e-6
        with pytest.raises(InfeasibleProblem, match=f"row {dropped} is"):
            ensure_full_row_rank(self._std(a, b))

    def test_tiny_private_entry_goes_through_the_qr(self, monkeypatch):
        calls = []
        qr = standardize_module._pivoted_qr

        def counting_qr(a):
            calls.append(a.shape)
            return qr(a)
        monkeypatch.setattr(standardize_module, "_pivoted_qr", counting_qr)
        # r0's private entry is below RANK_TOL * ||r0||, so within the
        # tolerance r0 and r1 are the same row
        a = [[1e-12, 1.0, 1.0], [0.0, 1.0, 1.0]]
        out = ensure_full_row_rank(self._std(a, [2.0, 2.0]))
        # the core QR, then the row pick on its transpose
        assert calls == [(2, 3), (3, 2)]
        assert out.m == 1

    def test_all_covered_rows_skip_the_qr(self, monkeypatch):
        def no_qr(a):
            raise AssertionError("QR ran on covered rows")
        monkeypatch.setattr(standardize_module, "_pivoted_qr", no_qr)
        a = [[1.0, 0.0, 0.0, 2.0, 1.0],
             [0.0, 3.0, 0.0, 2.0, 1.0],
             [0.0, 0.0, 1.0, 2.0, 1.0]]
        out = ensure_full_row_rank(self._std(a, [1.0, 2.0, 3.0]))
        assert out.m == 3
        assert out.b.tolist() == [1.0, 2.0, 3.0]
        assert out.A.to_dense().tolist() == a

    def test_zero_row_dropped_or_infeasible(self):
        # the zero row is all of R' and touches no column
        out = ensure_full_row_rank(self._std([[0.0, 0.0], [1.0, 1.0]],
                                             [0.0, 2.0]))
        assert out.b.tolist() == [2.0]
        assert "drop dependent row 0" in out.transform_log
        with pytest.raises(InfeasibleProblem):
            ensure_full_row_rank(self._std([[0.0, 0.0], [1.0, 1.0]],
                                           [1.0, 2.0]))

    def test_unit_row_block_matches_the_dense_formula(self):
        # the rows are scaled while sparse; block, norms and scale are
        # bit-identical to norming and scaling the Fortran-ordered dense
        # block, as the core QR did
        rng = rng_for(11)
        a = rng.normal(size=(30, 60)) * 10.0 ** rng.uniform(-4, 4, (30, 1))
        a[rng.random(a.shape) < 0.8] = 0.0
        a[3] = 0.0  # a zero row keeps scale 0
        A = SparseMatrix.from_dense(a)
        for rows in ([0, 3, 5, 7, 11, 29], list(range(30))):
            rows = np.asarray(rows)
            cols = np.flatnonzero(np.abs(a[rows]).sum(axis=0))
            ref = np.asfortranarray(a[rows][:, cols])
            ref_norms = np.linalg.norm(ref, axis=1)
            ref_scale = np.divide(1.0, ref_norms, out=np.zeros(len(rows)),
                                  where=ref_norms > 0.0)
            ref *= ref_scale[:, None]
            for order in ("C", "F"):
                block, got_cols, norms, scale = \
                    standardize_module._unit_row_block(A, rows, order)
                assert block.flags[f"{order}_CONTIGUOUS"]
                assert np.array_equal(got_cols, cols)
                assert np.array_equal(norms, ref_norms)
                assert np.array_equal(scale, ref_scale)
                assert np.array_equal(block, ref)

    def test_pivoted_qr_matches_scipy(self, monkeypatch):
        from scipy import linalg
        rng = rng_for(9)
        a = rng.normal(size=(30, 12)) @ rng.normal(size=(12, 40))
        r, piv = linalg.qr(a, mode="r", pivoting=True)
        f, piv2 = standardize_module._pivoted_qr(np.asfortranarray(a))
        assert np.array_equal(piv, piv2)
        assert np.array_equal(r, np.triu(f))
        with pytest.raises(ValueError, match="infs or NaNs"):
            standardize_module._pivoted_qr(np.full((2, 2), np.nan, order="F"))

        def bad_geqp3(a, lwork, overwrite_a):
            return a, None, None, np.ones(1), -4
        monkeypatch.setattr(standardize_module.linalg, "get_lapack_funcs",
                            lambda names, arrays: (bad_geqp3,))
        with pytest.raises(ValueError, match="argument 4 of geqp3"):
            standardize_module._pivoted_qr(np.ones((2, 2), order="F"))

    def test_contradictory_dependence_infeasible(self):
        std = self._std([[1.0, 1.0], [2.0, 2.0]], [2.0, 5.0])
        with pytest.raises(InfeasibleProblem):
            ensure_full_row_rank(std)

    def test_random_stacked_combinations(self):
        # dependent rows shuffled in among independent ones, with row scales
        # of 10^-4..10^4
        rng = rng_for(7)
        for trial in range(10):
            a = rng.normal(size=(10, 20))
            w = rng.normal(size=(3, 10))
            stacked = np.vstack([w @ a, a])[rng.permutation(13)]
            stacked *= (10.0 ** rng.uniform(-4.0, 4.0, size=13))[:, None]
            x0 = rng.uniform(0.5, 1.5, size=20)
            b = stacked @ x0
            out = ensure_full_row_rank(self._std(stacked, b))
            assert out.m == np.linalg.matrix_rank(stacked) == 10
            kept = out.A.to_dense()
            np.testing.assert_allclose(kept @ x0, out.b, rtol=1e-12)
            # the kept rows imply the dropped ones: a solution of the kept
            # system (rows scaled to unit norm) reproduces every rhs
            norms = np.linalg.norm(kept, axis=1)
            x1, *_ = np.linalg.lstsq(kept / norms[:, None], out.b / norms,
                                     rcond=None)
            resid = (stacked @ x1 - b) / np.linalg.norm(stacked, axis=1)
            assert np.abs(resid).max() <= 1e-10 * np.linalg.norm(x1)
            dropped = [int(e.split()[-1]) for e in out.transform_log
                       if e.startswith("drop dependent row")]
            assert len(dropped) == 3
            b[dropped[0]] += 1e-6 * (1.0 + abs(b[dropped[0]]))
            with pytest.raises(InfeasibleProblem):
                ensure_full_row_rank(self._std(stacked, b))

    def test_random_stacked_combinations_with_slack_rows(self):
        # as above, but a random subset of the independent rows owns a
        # slack column each; the dependent rows combine only the others, so
        # the QR sees the dependent rows and the rows without a slack
        rng = rng_for(8)
        for trial in range(10):
            a = rng.normal(size=(10, 20))
            with_slack = np.flatnonzero(rng.random(10) < 0.4)
            w = rng.normal(size=(3, 10))
            w[:, with_slack] = 0.0
            slack = np.zeros((10, 10))
            slack[with_slack, with_slack] = 1.0
            a = np.hstack([a, slack[:, with_slack]])
            perm = rng.permutation(13)
            stacked = np.vstack([w @ a, a])[perm]
            stacked *= (10.0 ** rng.uniform(-4.0, 4.0, size=13))[:, None]
            rows, _ = private_singletons(SparseMatrix.from_dense(stacked))
            assert sorted(perm[rows].tolist()) == (3 + with_slack).tolist()
            x0 = rng.uniform(0.5, 1.5, size=a.shape[1])
            b = stacked @ x0
            out = ensure_full_row_rank(self._std(stacked, b))
            assert out.m == np.linalg.matrix_rank(stacked) == 10
            np.testing.assert_allclose(out.A.to_dense() @ x0, out.b,
                                       rtol=1e-12)
            dropped = [int(e.split()[-1]) for e in out.transform_log
                       if e.startswith("drop dependent row")]
            assert len(dropped) == 3 and not set(dropped) & set(rows)
            # the repaired form is a new matrix, so the basis factors it
            # anew; its rows span 10^8 in scale, so the solve is held to a
            # normwise backward error, not to a residual relative to v alone
            basis = select_basis(out.A)
            v = rng_for(80 + trial).normal(size=out.m)
            a_b = out.A.to_dense()[:, basis.basic]
            x = basis.solve(v)
            assert np.linalg.norm(a_b @ x - v) <= BACKWARD_ERROR_TOL * (
                np.linalg.norm(a_b, 2) * np.linalg.norm(x) + np.linalg.norm(v))
            b[dropped[0]] += 1e-6 * (1.0 + abs(b[dropped[0]]))
            with pytest.raises(InfeasibleProblem):
                ensure_full_row_rank(self._std(stacked, b))


def standard_form_digest(lps) -> str:
    """SHA-256 over every output field of to_standard_form(presolve(lp)).
    The objective constant is hashed as a Python float's repr, so the digest
    pins its value, not whether it is a NumPy scalar."""
    h = hashlib.sha256()
    for lp in lps:
        std = to_standard_form(presolve(lp))
        a = std.A.tocsr()
        for arr in (a.indptr.astype(np.int64), a.indices.astype(np.int64),
                    a.data, std.b, std.c):
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(b"|")
        h.update(repr((a.shape, std.name, std.objective_sign,
                       repr(float(std.objective_constant)),
                       std.transform_log)).encode())
    return h.hexdigest()


# recorded when StandardLP lost its column names and provenance, on the
# tree before that change as well, which gave the same three values
CORPUS_DIGEST = \
    "6d1777028b86740920b365967674d8c3f1d1820ba4166ebcdd124f85517e5fe7"
RANDOM_DIGEST = \
    "d4289038f98bc4cd73a3ac350b982566991289bf5bf96761a2b98beef64ffedc"


def general_lp_digest(texts) -> str:
    """SHA-256 over every field of parse_mps(text) and of its presolve."""
    h = hashlib.sha256()
    for text in texts:
        lp = parse_mps(text)
        for out in (lp, presolve(lp)):
            a = out.coefficients.tocsr()
            for arr in (a.indptr.astype(np.int64), a.indices.astype(np.int64),
                        a.data, out.objective):
                h.update(np.ascontiguousarray(arr).tobytes())
                h.update(b"|")
            h.update(repr((
                a.shape, out.name, out.objective_sense, out.objective_name,
                row_tuples(out), col_tuples(out),
                out.objective_constant, out.warnings,
                out.transform_log)).encode())
    return h.hexdigest()


def generated_texts() -> list[str]:
    """Bench-sized instances from tools/gen_corpus.py."""
    gen = load_gen_corpus()
    return [gen.flow_grid(12, 12), gen.flow_grid(20, 20),
            gen.slack_ladder(600, 800), gen.slack_ladder(1200, 1600)]


def corpus_texts() -> list[str]:
    from qipm_bounds.corpus import corpus_files
    return [p.read_text() for p in corpus_files()]


def random_texts() -> list[str]:
    return [emit_mps(random_general_lp(seed)) for seed in range(200)]


# recorded as CORPUS_DIGEST was
GENERATED_DIGEST = \
    "5c846d9ea7214bb3776437d68d3990789c4dc76b11868abe61011acaedecfa62"
# recorded before the reader, presolve and to_standard_form moved onto flat
# arrays
PARSED_CORPUS_DIGEST = \
    "77d7f161c3b4f0c7365a681db9120cbd4f781579d68f9705f2c2eadef542edcb"
PARSED_RANDOM_DIGEST = \
    "b1db5aded87c0b1754702397622eb751b733a133da962315005e18fed30beb6c"
PARSED_GENERATED_DIGEST = \
    "75148ac0e4e3349bf772fd1f9f3ba75ac80392c4be820bae3770ff06213a08bb"


class TestPinnedStandardForm:
    """The standard form is bit-identical to the one these digests record;
    every quantum bound downstream is computed from it."""

    def test_corpus(self):
        from qipm_bounds.corpus import corpus_files
        lps = [parse_mps(p.read_text()) for p in corpus_files()]
        assert len(lps) == 7
        assert standard_form_digest(lps) == CORPUS_DIGEST

    def test_random_general_lps(self):
        lps = [random_general_lp(seed) for seed in range(200)]
        assert standard_form_digest(lps) == RANDOM_DIGEST

    def test_generated(self):
        lps = [parse_mps(text) for text in generated_texts()]
        assert standard_form_digest(lps) == GENERATED_DIGEST


class TestPinnedParseAndPresolve:
    """parse_mps and presolve outputs are bit-identical to the ones these
    digests record, warnings and transform logs included."""

    def test_corpus(self):
        texts = corpus_texts()
        assert len(texts) == 7
        assert general_lp_digest(texts) == PARSED_CORPUS_DIGEST

    def test_random_general_lps(self):
        assert general_lp_digest(random_texts()) == PARSED_RANDOM_DIGEST

    def test_generated(self):
        assert general_lp_digest(generated_texts()) == PARSED_GENERATED_DIGEST


def test_front_end_makes_no_object_per_row_or_column():
    # flow_grid(20, 20), 400 rows and 800 columns, parsed, presolved and in
    # standard form: the three live on with fewer new objects tracked by
    # the collector than there are rows
    text = load_gen_corpus().flow_grid(20, 20)
    to_standard_form(presolve(parse_mps(text)))  # first-call caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        lp = parse_mps(text)
        reduced = presolve(lp)
        std = to_standard_form(reduced)
        tracked = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert (lp.n_rows, lp.n_cols, reduced.n_cols, std.n) == (400, 800, 800,
                                                            1600)
    assert tracked < 100


class TestPipelineProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_equivalence_and_rank(self, seed):
        lp = random_general_lp(seed)
        status, val_orig = solve_general_oracle(lp)
        std = standardize(lp)
        assert std.m <= std.n
        dense = std.A.to_dense()
        if std.m:
            assert np.linalg.matrix_rank(dense) == std.m
        status_std, val_std = solve_standard_oracle(std)
        assert status == status_std == 0
        assert val_std == pytest.approx(val_orig, rel=1e-6)

    def test_overdetermined_equalities_reduce_below_n(self):
        # more equality rows than columns: rank repair must bring m <= n
        rng = rng_for(99)
        a = rng.normal(size=(3, 6))
        stacked = np.vstack([a, rng.normal(size=(5, 3)) @ a])  # 8 rows, rank 3
        x0 = rng.uniform(0.5, 1.5, size=6)
        b = stacked @ x0
        rows = [(f"e{i}", "=", float(b[i])) for i in range(8)]
        cols = [(f"x{j}", 0.0, INF) for j in range(6)]
        coeffs = [(i, j, float(stacked[i, j])) for i in range(8)
                  for j in range(6) if stacked[i, j] != 0.0]
        lp = make_lp(rows, cols, coeffs, np.ones(6))
        std = standardize(lp)
        assert std.m <= std.n
        assert np.linalg.matrix_rank(std.A.to_dense()) == std.m == 3

    def test_rankdef_corpus_file(self):
        from qipm_bounds.corpus import corpus_dir
        lp = parse_mps((corpus_dir() / "raw" / "rankdef_dup.mps").read_text())
        std = standardize(lp)
        assert np.linalg.matrix_rank(std.A.to_dense()) == std.m
        _, val_orig = solve_general_oracle(lp)
        _, val_std = solve_standard_oracle(std)
        assert val_std == pytest.approx(val_orig, rel=1e-9)


def random_general_lp(seed: int) -> GeneralLP:
    """Feasible bounded LP with mixed senses, ranges and bound types."""
    rng = rng_for(1000 + seed)
    n = int(rng.integers(3, 8))
    m = int(rng.integers(2, 6))
    x0 = rng.uniform(-1.0, 2.0, size=n)
    cols = []
    for j in range(n):
        lo = x0[j] - rng.uniform(0.5, 2.0)
        hi = x0[j] + rng.uniform(0.5, 2.0)
        cols.append((f"x{j}", lo, hi))
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    act = a @ x0
    rows = []
    for i in range(m):
        kind = rng.integers(4)
        if kind == 0:
            rows.append((f"r{i}", "<=", act[i] + rng.uniform(0.1, 1.0)))
        elif kind == 1:
            rows.append((f"r{i}", ">=", act[i] - rng.uniform(0.1, 1.0)))
        elif kind == 2:
            rows.append((f"r{i}", "=", act[i]))
        else:  # ranged row whose interval contains the activity
            slack = rng.uniform(0.1, 1.0)
            hi = act[i] + slack
            rows.append((f"r{i}", "<=", hi, slack + rng.uniform(0.1, 1.0)))
    coeffs = [(i, j, a[i, j]) for i in range(m) for j in range(n)
              if a[i, j] != 0.0]
    return make_lp(rows, cols, coeffs, rng.normal(size=n),
                   sense="max" if rng.random() < 0.3 else "min",
                   constant=float(rng.normal()))
