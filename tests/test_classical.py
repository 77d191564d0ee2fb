"""Internal IPM against the HiGHS oracle."""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from conftest import random_standard_lp
from qipm_bounds import classical
from qipm_bounds.classical import solve_internal_ipm
from qipm_bounds.corpus import corpus_files
from qipm_bounds.lp_model import SparseMatrix, StandardLP, parse_mps
from qipm_bounds.newton import factor_nes
from qipm_bounds.standardize import standardize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generators  # noqa: E402


def highs_oracle(std):
    res = linprog(std.c, A_eq=std.A.to_dense(), b_eq=std.b,
                  bounds=[(0, None)] * std.n, method="highs")
    return res


class TestInternalIpm:
    def test_min_x_geq_one(self, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        out = solve_internal_ipm(std)
        assert out.status == "optimal"
        assert out.objective == pytest.approx(1.0, abs=1e-6)

    def test_vertex_optimum(self):
        text = """NAME V
ROWS
 N  obj
 L  c1
COLUMNS
    x  obj  -1  c1  1
    y  obj  -1  c1  1
RHS
    RHS  c1  1
ENDATA
"""
        std = standardize(parse_mps(text))
        out = solve_internal_ipm(std)
        assert out.status == "optimal"
        assert out.objective == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("c,status,objective", [
        ([], "optimal", 0.0),
        ([1.0, 0.0], "optimal", 0.0),
        ([1.0, -1.0], "unbounded", float("nan")),
    ], ids=["no-rows-no-columns", "no-rows", "no-rows-negative-cost"])
    def test_form_without_rows(self, c, status, objective):
        n = len(c)
        std = StandardLP(A=SparseMatrix.from_entries(0, n, []),
                         b=np.zeros(0), c=np.array(c, dtype=float))
        out = solve_internal_ipm(std)
        assert (out.status, out.iterations) == (status, 0)
        assert out.objective == pytest.approx(objective, nan_ok=True)

    def test_matches_reference_solver_on_random_instances(self):
        agree = 0
        total = 100
        for seed in range(total):
            std = random_standard_lp(5000 + seed, 10, 20)
            out = solve_internal_ipm(std)
            ref = highs_oracle(std)
            assert ref.success
            if out.status == "optimal" and \
                    out.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6):
                agree += 1
        assert agree >= 95

    @pytest.mark.parametrize("seed", range(6))
    def test_nes_solve_matches_dense_reference(self, seed):
        std = random_standard_lp(44 + seed, 8, 16)
        rng = np.random.default_rng(44 + seed)
        a = std.A.tocsr()
        d2 = 10.0 ** rng.uniform(-3.0, 3.0, size=16)
        rhs = rng.normal(size=8)
        dense = std.A.to_dense()
        ref = np.linalg.solve((dense * d2) @ dense.T, rhs)
        np.testing.assert_allclose(factor_nes(a, d2)(rhs), ref,
                                   rtol=1e-8, atol=1e-12)

    def test_nes_solve_survives_exactly_singular_matrix(self):
        # A D^2 A' rounds to [[1e9, 1e9], [1e9, 1e9]], which is exactly
        # singular; the shifted retry must still return a finite step
        a = sparse.csr_matrix([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        d2 = np.array([1e9, 1e-9, 1e-9])
        dy = factor_nes(a, d2)(np.array([1.0, 2.0]))
        assert np.all(np.isfinite(dy))

    @pytest.mark.parametrize("width,layers,seed", [(2, 8, 1), (2, 6, 3)])
    def test_flow_grid_solves_to_optimum(self, width, layers, seed):
        # the NES matrices of these grids turn semidefinite in floating
        # point at the last iteration (12)
        std = standardize(parse_mps(generators.flow_grid(width, layers, seed)))
        out = solve_internal_ipm(std)
        assert out.status == "optimal", out.message
        assert out.objective == pytest.approx(highs_oracle(std).fun, rel=1e-6)

    def test_last_step_is_tested_for_optimality(self, monkeypatch):
        # capped at its own step count, each corpus instance converges on
        # the last allowed step and must still be reported optimal
        files = corpus_files()
        assert files
        for path in files:
            std = standardize(parse_mps(path.read_text()))
            full = solve_internal_ipm(std)
            assert full.status == "optimal", path.name
            monkeypatch.setattr(classical, "MAX_ITERATIONS", full.iterations)
            capped = solve_internal_ipm(std)
            assert (capped.status, capped.objective, capped.iterations) == \
                ("optimal", full.objective, full.iterations), path.name
            monkeypatch.undo()

    def test_wall_time_positive_and_bounded(self):
        std = random_standard_lp(43, 5, 10)
        out = solve_internal_ipm(std)
        assert 0.0 < out.wall_time < 60.0

    @pytest.mark.parametrize("overshoot", [1.5, 3.0])
    def test_step_out_of_the_orthant_is_a_breakdown(self, overshoot,
                                                    monkeypatch):
        # an overshooting step leaves x or s non-positive; the solve ends as
        # a breakdown, neither raising from the Iterate check nor passing
        # the optimality test (a 3x step did both at once)
        exact = classical._max_step
        monkeypatch.setattr(
            classical, "_max_step",
            lambda x, dx, s, ds: overshoot * exact(x, dx, s, ds))
        out = solve_internal_ipm(random_standard_lp(43, 5, 10))
        assert out.status == "error"
        assert "x > 0, s > 0" in out.message

    def test_slack_ladder_seed_18_solves_to_optimum(self):
        # with a pivoting LU of A D^2 A', one x_i of this instance rounded
        # to about -1e-168 at iteration 175 and the solve broke down
        std = standardize(parse_mps(generators.slack_ladder(600, 800, 18)))
        out = solve_internal_ipm(std)
        assert out.status == "optimal", out.message
        assert out.objective == pytest.approx(highs_oracle(std).fun, rel=1e-6)

    def test_nes_fill_does_not_grow_as_d_spreads(self):
        # A D^2 A' is SPD, so its factor needs no row interchanges and keeps
        # the fill of its ordering for any D > 0
        std = standardize(parse_mps(generators.slack_ladder(60, 80, 1)))
        a = std.A.tocsr()
        spread = np.logspace(-8.0, 8.0, std.n)
        np.random.default_rng(0).shuffle(spread)
        fill = [factor_nes(a, d2).__self__ for d2 in (np.ones(std.n), spread)]
        assert fill[0].L.nnz + fill[0].U.nnz == fill[1].L.nnz + fill[1].U.nnz
