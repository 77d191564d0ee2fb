"""Internal IPM against the HiGHS oracle, and the external-solver adapter."""

import shlex
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import qipm_bounds
from conftest import random_standard_lp
from qipm_bounds import classical
from qipm_bounds.classical import (solve_external, solve_internal_ipm,
                                   standard_to_general)
from qipm_bounds.corpus import corpus_dir
from qipm_bounds.harness import AnalysisConfig, analyze_instance
from qipm_bounds.lp_model import (SparseMatrix, StandardLP, emit_mps,
                                  parse_mps)
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
                         b=np.zeros(0), c=np.array(c, dtype=float),
                         column_provenance=["original"] * n,
                         column_names=[f"x{j}" for j in range(n)])
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

    def test_slack_ladder_rounding_out_of_the_orthant(self):
        # one x_i of this feasible instance rounds to about -1e-168 near the
        # optimum; the solve must return a status, not raise
        std = standardize(parse_mps(generators.slack_ladder(600, 800, 18)))
        assert solve_internal_ipm(std).status in ("optimal", "error")


def _write_stub(tmp_path, body: str) -> str:
    """Command template running `body` as a solver. The adapter runs it in a
    temporary working directory, so the package is put on PYTHONPATH by its
    absolute path."""
    path = tmp_path / "stub_solver.py"
    path.write_text(textwrap.dedent(body))
    src = Path(qipm_bounds.__file__).resolve().parent.parent
    return (f"env PYTHONPATH={shlex.quote(str(src))} "
            f"{shlex.quote(sys.executable)} {shlex.quote(str(path))} {{mps}}")


class TestSolveExternal:
    def test_parses_objective_from_stub(self, tmp_path, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        cmd = _write_stub(tmp_path, """
            import sys
            print("Optimal")
            print("Objective value: 1.0")
        """)
        out = solve_external(std, cmd)
        assert out.status == "optimal"
        assert out.objective == 1.0
        assert out.serialize_time is not None
        assert out.solver.startswith("external(")

    def test_none_patterns_select_defaults(self, tmp_path, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        cmd = _write_stub(tmp_path, """
            print("Optimal")
            print("Objective value: 1.0")
        """)
        out = solve_external(std, cmd, objective_pattern=None,
                             status_patterns=None)
        assert out.status == "optimal"
        assert out.objective == 1.0

    def test_harness_passes_config_patterns(self, tmp_path):
        cmd = _write_stub(tmp_path, """
            print("done; cost is 2.5")
        """)
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        rec = analyze_instance(path, AnalysisConfig(classical_cmd=cmd))
        assert rec.classical.status == "error"  # the defaults match nothing
        rec = analyze_instance(path, AnalysisConfig(
            classical_cmd=cmd, objective_pattern=r"cost is ([0-9.]+)",
            status_patterns={"optimal": r"done"}))
        assert rec.classical.status == "optimal"
        assert rec.classical.solver.startswith("external(")

    def test_nonzero_exit_captured(self, tmp_path, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        cmd = _write_stub(tmp_path, """
            import sys
            print("boom", file=sys.stderr)
            sys.exit(1)
        """)
        out = solve_external(std, cmd)
        assert out.status == "error"
        assert "boom" in out.captured_output
        assert "code 1" in out.message

    def test_unparseable_objective(self, tmp_path, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        cmd = _write_stub(tmp_path, """
            print("Optimal solution found, no numbers here")
        """)
        out = solve_external(std, cmd)
        assert out.status == "error"
        assert "objective" in out.message

    @pytest.mark.parametrize("body,timeout,status,objective,message", [
        ('print("Objective: 1.0")', 600.0, "optimal", 1.0, ""),
        ("import time\ntime.sleep(30)", 0.5, "error", float("nan"),
         "solver timed out after 0.5 s"),
        (None, 600.0, "error", float("nan"), "failed to launch solver: "),
    ], ids=["objective-without-status", "timeout", "cannot-launch"])
    def test_outcome_table(self, tmp_path, tiny_min_text, body, timeout,
                           status, objective, message):
        std = standardize(parse_mps(tiny_min_text))
        cmd = _write_stub(tmp_path, body) if body is not None else \
            f"{shlex.quote(str(tmp_path / 'no_such_solver'))} {{mps}}"
        out = solve_external(std, cmd, timeout=timeout)
        assert (out.status, out.message[:len(message)]) == (status, message)
        assert out.objective == pytest.approx(objective, nan_ok=True)
        assert 0.0 <= out.wall_time < 20.0

    def test_missing_placeholder_rejected(self, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        with pytest.raises(ValueError):
            solve_external(std, "solver instance.mps")

    def test_command_template_rules(self):
        assert classical.command_argv("solver --in '{mps}'") == \
            ["solver", "--in", "{mps}"]
        for template, match in [("solver instance.mps", "placeholder"),
                                ('solver "{mps}', "No closing quotation")]:
            with pytest.raises(ValueError, match=match):
                classical.command_argv(template)

    def test_blank_names_export(self, tmp_path):
        # a fixed-format LP with blanks in its names reaches the solver as
        # valid MPS, because the export names its columns C{j}
        def fx(*fields):
            widths = (10, 10, 15, 10, 12)
            return "    " + "".join(f.ljust(w) for f, w in zip(fields, widths))

        text = "\n".join([
            "NAME          FIXED CASE", "ROWS", " N  TOTAL COST",
            " L  CAP ONE", "COLUMNS",
            fx("VAR X", "TOTAL COST", "1.5", "CAP ONE", "1.0"),
            fx("VAR Y", "TOTAL COST", "2.0", "CAP ONE", "2.0"),
            "RHS", fx("RHS", "CAP ONE", "8.0"), "ENDATA"]) + "\n"
        path = tmp_path / "fixedcase.mps"
        path.write_text(text)
        assert parse_mps(text).columns[0].name == "VAR X"
        cmd = _write_stub(tmp_path, """
            import sys
            from qipm_bounds.lp_model import parse_mps
            lp = parse_mps(open(sys.argv[1]).read())
            assert [c.name for c in lp.columns] == ["C0", "C1", "C2"]
            print("Optimal")
            print("Objective value: 0.0")
        """)
        rec = analyze_instance(path, AnalysisConfig(classical_cmd=cmd))
        assert rec.status == "ok", rec.error
        assert rec.classical.status == "optimal", rec.classical.message

    def test_real_open_source_solver(self, tmp_path, tiny_min_text):
        """Drive scipy's bundled HiGHS through the subprocess adapter."""
        std = standardize(parse_mps(tiny_min_text))
        cmd = _write_stub(tmp_path, """
            import sys
            import numpy as np
            from scipy.optimize import linprog
            from qipm_bounds.lp_model import parse_mps

            lp = parse_mps(open(sys.argv[1]).read())
            res = linprog(lp.objective, A_eq=lp.coefficients.to_dense(),
                          b_eq=np.array([r.rhs for r in lp.rows]),
                          bounds=[(0, None)] * lp.n_cols, method="highs")
            if res.success:
                print("Optimal")
                print(f"Objective value: {res.fun:.12g}")
            else:
                print("solver failed")
                sys.exit(3)
        """)
        out = solve_external(std, cmd)
        assert out.status == "optimal"
        assert out.objective == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_of_standard_form_export(self, tiny_min_text):
        std = standardize(parse_mps(tiny_min_text))
        lp = standard_to_general(std)
        again = parse_mps(emit_mps(lp))
        assert again.n_rows == std.m
        assert again.n_cols == std.n
        np.testing.assert_allclose(again.coefficients.to_dense(),
                                   std.A.to_dense())
