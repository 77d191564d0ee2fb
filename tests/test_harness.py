"""Pipeline orchestration, curves, reports and the CLI."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import struct
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from qipm_bounds.classical import SolveOutcome
from qipm_bounds.corpus import corpus_dir
from qipm_bounds.harness import (AnalysisConfig, FormulationResult,
                                 InstanceRecord, analyze_instance,
                                 exclusion_curve, run_suite)
from qipm_bounds.lp_model import parse_mps
from qipm_bounds.qcost import duration_grid, to_fraction
from qipm_bounds.report import (TIMING_COLUMNS, difficulty_svg, emit_report,
                                exclusion_svg, records_csv, report_json)
from qipm_bounds.standardize import standardize

FAST = AnalysisConfig(sigma_min_timeout=10.0, sigma_min_samples=500)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generators  # noqa: E402


@pytest.fixture(scope="module")
def tiny_record():
    path = corpus_dir() / "tiny" / "tiny_min.mps"
    return analyze_instance(path, FAST, family="tiny")


class TestAnalyzeInstance:
    def test_tiny_min_fields(self, tiny_record):
        rec = tiny_record
        assert rec.status == "ok"
        assert (rec.m, rec.n) == (1, 2)
        mnes = rec.formulations["mnes"]
        assert mnes.ok and mnes.d == 1 and mnes.degenerate
        assert mnes.total_cycles == 0
        oss = rec.formulations["oss"]
        assert oss.ok and oss.d == 2 and oss.dilated_dim == 4
        assert oss.gamma >= 2.0
        assert oss.total_cycles > 0
        assert rec.classical is not None and rec.classical.status == "optimal"
        # the classical_solver column names the baseline; no warning repeats it
        assert rec.warnings == []
        assert set(rec.exclusion) == {"mnes", "oss"}
        assert "parse" in rec.stage_seconds

    def test_classical_solve_runs_without_collections(self, monkeypatch):
        # with a generation-0 threshold of 1 the collector runs on almost
        # every allocation, unless it is off during the timed solve
        from qipm_bounds import harness
        inside, seen = [], []
        solve = harness.solve_internal_ipm

        def wrapped(std):
            inside.append(gc.isenabled())
            try:
                return solve(std)
            finally:
                inside.pop()

        def hook(phase, info):
            if phase == "start" and inside:
                seen.append(info["generation"])

        monkeypatch.setattr(harness, "solve_internal_ipm", wrapped)
        path = corpus_dir() / "tiny" / "bounds_mix.mps"
        threshold = gc.get_threshold()
        gc.set_threshold(1)
        gc.callbacks.append(hook)
        try:
            rec = analyze_instance(path, FAST)
            assert gc.isenabled()
            gc.disable()  # a disabled collector stays disabled
            analyze_instance(path, FAST)
            assert not gc.isenabled()
        finally:
            gc.enable()
            gc.callbacks.remove(hook)
            gc.set_threshold(*threshold)
        assert rec.status == "ok" and rec.classical.status == "optimal"
        assert seen == []

    @pytest.mark.parametrize("text", [
        generators.slack_ladder(60, 80, 1), generators.flow_grid(8, 8, 1)],
        ids=["slack", "flow"])
    def test_bound_side_inputs_released_before_classical_solve(
            self, text, tmp_path, monkeypatch):
        # the parsed LP and the basis (on slack without a factor, on flow
        # with one) are freed by reference count, with the collector off
        from qipm_bounds import harness
        refs, alive = {}, []
        parse, select, solve = (harness.parse_mps, harness.select_basis,
                                harness.solve_internal_ipm)

        def parse_mps(text):
            lp = parse(text)
            refs["lp"] = weakref.ref(lp)
            return lp

        def select_basis(A):
            basis = select(A)
            refs["basis"] = weakref.ref(basis)
            return basis

        def solve_internal_ipm(std):
            alive.extend(k for k, ref in refs.items() if ref() is not None)
            return solve(std)

        monkeypatch.setattr(harness, "parse_mps", parse_mps)
        monkeypatch.setattr(harness, "select_basis", select_basis)
        monkeypatch.setattr(harness, "solve_internal_ipm", solve_internal_ipm)
        path = tmp_path / "lp.mps"
        path.write_text(text)
        rec = analyze_instance(path, FAST)
        assert rec.status == "ok" and rec.classical.status == "optimal"
        assert set(refs) == {"lp", "basis"} and alive == []

    def test_gamma_is_exact_product(self, suite):
        checked = 0
        for rec in suite.records:
            for f in rec.formulations.values():
                if f.ok:
                    assert f.gamma == f.sparsity * f.kappa_lower
                    checked += 1
        assert checked >= 4

    def test_config_rejects_bad_values(self):
        for kwargs, match in [({"sigma_min_timeout": 0.0,
                                "sigma_min_samples": 0}, "sigma_min_samples"),
                              ({"sigma_min_timeout": -1.0,
                                "sigma_min_samples": -5},
                               "sigma_min_samples"),
                              ({"sigma_min_timeout": float("nan")}, "NaN"),
                              # a bool is no float: true would be a 1 s
                              # sigma_min timeout
                              ({"sigma_min_timeout": True},
                               "sigma_min_timeout must be a float, not True")]:
            with pytest.raises(ValueError, match=match):
                AnalysisConfig(**kwargs)

    def test_option_surface(self):
        # a new option shows up here as a reviewed diff
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
            "seed", "sigma_min_timeout", "sigma_min_samples"]

    def test_basis_accepts_what_rank_repair_keeps(self, tmp_path):
        # both LPs are feasible (HiGHS: 1.0) and rank repair keeps both rows,
        # but the second row's pivot on the unscaled A is below 1e-10 of the
        # first one's; the first LP gives each row a private column, the
        # second none, so its basis comes from the core QR alone
        cases = {
            "covered": "    X1        COST      1   R1        1\n"
                       "    X2        COST      1   R2        1e-11\n"
                       "    X3        COST      2   R1        1\n"
                       "    X4        COST      2   R2        1e-11\n"
                       "RHS\n    RHS       R1        1   R2        1e-11\n",
            "core": "    X1        COST      1   R1        1\n"
                    "    X1        R2        1e-11\n"
                    "    X2        COST      1   R1        1\n"
                    "    X2        R2        2e-11\n"
                    "    X3        COST      1   R1        1\n"
                    "    X3        R2        3e-11\n"
                    "RHS\n    RHS       R1        1   R2        1.5e-11\n"}
        for name, columns in cases.items():
            path = tmp_path / f"{name}.mps"
            path.write_text(
                "NAME          SCALED\nROWS\n N  COST\n E  R1\n E  R2\n"
                "COLUMNS\n" + columns + "ENDATA\n")
            rec = analyze_instance(path, FAST)
            assert rec.m == 2, name
            assert rec.status == "ok", (name, rec.error)

    def test_unreadable_file(self, tmp_path):
        rec = analyze_instance(tmp_path / "missing.mps", FAST)
        assert rec.status == "error"
        assert "unreadable" in rec.error

    def test_non_utf8_file_is_an_error_record(self, tmp_path):
        # a decode failure is recorded like a missing file, in both paths
        (tmp_path / "latin1.mps").write_bytes(b"NAME \xff\n")
        rec = analyze_instance(tmp_path / "latin1.mps", FAST)
        [suite_rec] = run_suite(tmp_path, FAST).records
        for r in (rec, suite_rec):
            assert r.status == "error"
            assert r.error.startswith("unreadable file: ")

    def test_fault_injection_isolates_formulations(self):
        # bounds_mix has n - m < m, so the MNES sigma_min path is exact and
        # needs no sampling; the OSS path fails with sampling disabled, set
        # past the config check that rejects it
        cfg = AnalysisConfig(sigma_min_timeout=0.0)
        cfg.sigma_min_samples = 0
        path = corpus_dir() / "tiny" / "bounds_mix.mps"
        rec = analyze_instance(path, cfg, family="tiny")
        assert rec.status == "ok"
        assert rec.formulations["mnes"].ok
        assert rec.formulations["mnes"].sigma_min_method == \
            "rank_deficiency_exact"
        assert not rec.formulations["oss"].ok
        assert "NumericalError" in rec.formulations["oss"].failure

    def test_fixed_format_file_end_to_end(self, tmp_path):
        # classic fixed-column dialect with spaced names, driven through the
        # whole pipeline, not just the parser
        def fx(*fields, lead="    "):
            widths = (10, 10, 15, 10, 12)
            return lead + "".join(f.ljust(w) for f, w in zip(fields, widths))

        text = "\n".join([
            "NAME          FIXED CASE",
            "ROWS",
            " N  TOTAL COST",
            " L  CAP ONE",
            " G  DEMAND A",
            "COLUMNS",
            fx("VAR X", "TOTAL COST", "1.5", "CAP ONE", "1.0"),
            fx("VAR X", "DEMAND A", "1.0"),
            fx("VAR Y", "TOTAL COST", "2.0", "CAP ONE", "2.0"),
            "RHS",
            fx("RHS", "CAP ONE", "8.0", "DEMAND A", "2.0"),
            "BOUNDS",
            " UP BND       VAR Y          5.0",
            "ENDATA",
        ]) + "\n"
        path = tmp_path / "fixedcase.mps"
        path.write_text(text)
        rec = analyze_instance(path, FAST, family="misc")
        assert rec.status == "ok", rec.error
        assert rec.classical.status == "optimal"
        assert rec.classical.objective == pytest.approx(3.0, abs=1e-6)
        assert all(f.ok for f in rec.formulations.values())

    # stage fault -> (stages timed before it, whether m and n are known,
    # whether both formulations ran)
    STAGE_FAULTS = {
        "parse_mps": ((), False, False),
        "standardize": (("parse",), False, False),
        "select_basis": (("parse", "standardize"), True, False),
        "solve_internal_ipm": (("parse", "standardize", "basis", "mnes",
                                "oss"), True, True),
    }

    @pytest.mark.parametrize("stage", sorted(STAGE_FAULTS))
    def test_one_guard_keeps_earlier_stages(self, stage, monkeypatch,
                                            tmp_path):
        import qipm_bounds.harness as harness

        def fault(*args, **kwargs):
            raise RuntimeError(f"injected fault in {stage}")

        monkeypatch.setattr(harness, stage, fault)
        (tmp_path / "bounds_mix.mps").write_text(
            (corpus_dir() / "tiny" / "bounds_mix.mps").read_text())
        rec = analyze_instance(tmp_path / "bounds_mix.mps", FAST)
        timed, sized, analyzed = self.STAGE_FAULTS[stage]
        assert rec.status == "error"
        assert rec.error == f"RuntimeError: injected fault in {stage}"
        assert tuple(rec.stage_seconds) == timed
        assert (rec.m > 0 and rec.n > 0) == sized
        assert rec.classical is None and rec.exclusion == {}
        assert sorted(rec.formulations) == (["mnes", "oss"] if analyzed
                                            else [])
        assert all(f.ok for f in rec.formulations.values())
        # the suite keeps the same record, not a bare error
        [suite_rec] = run_suite(tmp_path, FAST).records
        assert (suite_rec.status, suite_rec.error, suite_rec.m, suite_rec.n,
                suite_rec.formulations) == \
            (rec.status, rec.error, rec.m, rec.n, rec.formulations)

    def test_determinism_modulo_timing(self):
        path = corpus_dir() / "tiny" / "bounds_mix.mps"
        a = analyze_instance(path, FAST, family="tiny")
        b = analyze_instance(path, FAST, family="tiny")
        for f in ("mnes", "oss"):
            fa, fb = a.formulations[f], b.formulations[f]
            assert (fa.sparsity, fa.kappa_lower, fa.gamma, fa.sigma_max_lb,
                    fa.sigma_min_ub, fa.query_count, fa.total_cycles) == \
                   (fb.sparsity, fb.kappa_lower, fb.gamma, fb.sigma_max_lb,
                    fb.sigma_min_ub, fb.query_count, fb.total_cycles)
        # the seed derives from the suite seed and the standard-form A
        csr = standardize(parse_mps(path.read_text())).A.tocsr()
        matrix = hashlib.sha256(struct.pack("<2q", *csr.shape)
                                + csr.indptr.astype("<i8").tobytes()
                                + csr.indices.astype("<i8").tobytes()
                                + csr.data.astype("<f8").tobytes()).digest()
        seed = int.from_bytes(hashlib.sha256(
            f"{FAST.seed}:".encode() + matrix).digest()[:8], "big")
        assert a.seed == b.seed == seed
        assert a.classical.objective == pytest.approx(b.classical.objective,
                                                      rel=1e-12)


def synthetic_record(name, family, cycles_mnes, cycles_oss, wall):
    rec = InstanceRecord(name=name, family=family, m=3, n=6)
    for formulation, cycles in (("mnes", cycles_mnes), ("oss", cycles_oss)):
        rec.formulations[formulation] = FormulationResult(
            formulation=formulation, d=3, sparsity=3, kappa_lower=1.0,
            gamma=3.0, query_count=1, total_cycles=cycles)
    rec.classical = SolveOutcome(status="optimal", objective=0.0,
                                 wall_time=wall)
    return rec


class TestExclusionCurve:
    def test_single_threshold(self):
        rec = synthetic_record("a", "fam", 4800, 4800, 1.0)
        grid = [1e-6, 1.0 / 4800 - 1e-9, 1.0 / 4800 + 1e-9, 1.0]
        curves, counts, excluded = exclusion_curve([rec], grid)
        assert curves["fam"]["mnes"] == [1.0, 1.0, 0.0, 0.0]
        assert counts["fam"]["mnes"][0] == [1, 1]
        assert excluded["fam"] == 0

    def test_flag_equals_recomputation(self):
        rec = synthetic_record("a", "fam", 4800, 10 ** 9, 0.5)
        for t in (1e-9, 1e-5, 1e-3):
            flag = rec.quantum_lb_below_classical("mnes", t)
            assert flag == (Fraction(4800) * Fraction(str(t))
                            < Fraction(0.5))

    def test_unconverged_classical_gives_no_flag(self):
        rec = synthetic_record("a", "fam", 4800, 4800, 1.0)
        rec.classical.status = "iteration_limit"
        assert rec.quantum_lb_below_classical("mnes", 1e-9) is None
        _, counts, excluded = exclusion_curve([rec], [1e-9])
        assert counts["fam"]["mnes"][0] == [0, 0]
        assert excluded["fam"] == 1

    def test_dominant_cycles_give_zero_curve(self):
        rec = synthetic_record("a", "fam", 10 ** 30, 10 ** 30, 1e-3)
        curves, _, _ = exclusion_curve([rec], [1e-15, 1e-9, 1e-3])
        assert curves["fam"]["mnes"] == [0.0, 0.0, 0.0]

    def test_two_records_step_structure(self):
        r1 = synthetic_record("a", "fam", 1000, 1000, 1.0)   # threshold 1e-3
        r2 = synthetic_record("b", "fam", 10 ** 6, 10 ** 6, 1.0)  # 1e-6
        curves, _, _ = exclusion_curve([r1, r2], [1e-9, 1e-4, 1e-2])
        assert curves["fam"]["mnes"] == [1.0, 0.5, 0.0]

    def test_curves_nonincreasing(self):
        recs = [synthetic_record(f"r{k}", "fam", 10 ** (3 + k), 10 ** (4 + k),
                                 10.0 ** -k) for k in range(4)]
        grid = [10.0 ** -e for e in range(12, 0, -1)]
        curves, _, _ = exclusion_curve(recs, grid)
        for series in curves["fam"].values():
            assert all(a >= b for a, b in zip(series, series[1:]))


    def test_bisection_matches_the_elementwise_definition(self):
        # ties, inf (zero cycles, positive wall) and zero (zero cycles, zero
        # wall) thresholds, duplicate records and unsorted grids
        rng = random.Random(2024)
        # the first four are the taus 1.5/4800, 0.75/4800, 1.5/1200, 0.75/1200
        pool = [0.0003125, 0.00015625, 0.00125, 0.000625, 1e-9, 1e-3, 7.25]
        seen = set()
        for trial in range(60):
            recs = []
            for k in range(rng.randint(0, 7)):
                wall = rng.choice([0.0, 1.5, 0.75, 1.0, rng.random()])
                cycles = [rng.choice([0, 4800, 1200, rng.randint(1, 10 ** 9)])
                          for _ in range(2)]
                rec = synthetic_record(f"r{k}", rng.choice("ab"), *cycles,
                                       wall)
                if rng.random() < 0.2:
                    rec.classical.status = "iteration_limit"
                recs.append(rec)
                if rng.random() < 0.3:
                    recs.append(dataclasses.replace(rec, name=f"r{k}'"))
            grid = [rng.choice(pool) if rng.random() < 0.5
                    else 10.0 ** rng.uniform(-12, 1) for _ in range(9)]
            curves, counts, excluded = exclusion_curve(recs, grid)
            for fam in counts:
                fam_recs = [r for r in recs if r.family == fam]
                for f in ("mnes", "oss"):
                    taus = [r.exclusion_threshold(f) for r in fam_recs]
                    taus = [tau for tau in taus if tau is not None]
                    seen.update(tau for tau in taus
                                if tau in (0, math.inf) or any(
                                    to_fraction(t) == tau for t in grid))
                    assert counts[fam][f] == [
                        [sum(to_fraction(t) < tau for tau in taus),
                         len(taus)] for t in grid], trial
        assert {0, math.inf, Fraction(1, 3200), Fraction(1, 1600)} <= seen

    def test_instance_flags_match_the_elementwise_definition(
            self, monkeypatch):
        import qipm_bounds.harness as harness
        import qipm_bounds.qcost as qcost

        rng = random.Random(7)
        grid = qcost.duration_grid()
        assert (grid[0], grid[-1]) == (1e-15, 1e-3)
        # the last three put tau exactly on 1e-15, 8e-10 and 1e-3
        cases = [(0, 0.0), (0, 1.5), (4800, 0.0), (10 ** 15, 1.0),
                 (10 ** 10, 8.0), (1000, 1.0),
                 *((rng.randint(1, 10 ** 12), rng.random())
                   for _ in range(6))]
        for cycles, wall in cases:
            monkeypatch.setattr(qcost, "total_quantum_cycles",
                                lambda *a, c=cycles: c)
            monkeypatch.setattr(harness, "solve_internal_ipm",
                                lambda std, w=wall: SolveOutcome(
                                    status="optimal", objective=0.0,
                                    wall_time=w))
            rec = analyze_instance(corpus_dir() / "tiny" / "bounds_mix.mps",
                                   FAST, family="tiny")
            for f in ("mnes", "oss"):
                tau = rec.exclusion_threshold(f)
                assert rec.exclusion[f] == [qcost.to_fraction(t) < tau
                                            for t in grid]


class TestThresholdTie:
    """Wall 1.5 s over 4800 cycles puts tau exactly on the double
    0.0003125: the flag there is False, and True just below it."""
    T = 0.0003125
    GRID = [math.nextafter(T, 0.0), T, math.nextafter(T, 1.0)]

    def test_flags_curve_and_threshold_agree_at_the_tie(self, monkeypatch):
        import qipm_bounds.harness as harness
        import qipm_bounds.qcost as qcost

        monkeypatch.setattr(qcost, "duration_grid", lambda *a: list(self.GRID))
        monkeypatch.setattr(qcost, "total_quantum_cycles", lambda *a: 4800)
        monkeypatch.setattr(harness, "solve_internal_ipm", lambda std:
                            SolveOutcome(status="optimal", objective=0.0,
                                         wall_time=1.5))
        rec = analyze_instance(corpus_dir() / "tiny" / "bounds_mix.mps",
                               FAST, family="tiny")
        assert rec.exclusion_threshold("oss") == Fraction(1, 3200)
        _, counts, _ = exclusion_curve([rec], self.GRID)
        for formulation in ("mnes", "oss"):
            assert rec.exclusion[formulation] == [True, False, False]
            assert counts["tiny"][formulation] == [[1, 1], [0, 1], [0, 1]]
            assert [rec.quantum_lb_below_classical(formulation, t)
                    for t in self.GRID] == [True, False, False]
        from qipm_bounds.report import record_rows
        assert [r["threshold_duration"] for r in record_rows(rec)] == \
            ["0.0003125", "0.0003125"]


class TestRunSuite:
    def test_family_denominators(self, tmp_path):
        src = (corpus_dir() / "tiny" / "tiny_min.mps").read_text()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "one.mps").write_text(src)
        (tmp_path / "a" / "two.mps").write_text(src)
        (tmp_path / "b" / "three.mps").write_text(src)
        report = run_suite(tmp_path, FAST)
        assert sorted(report.curves) == ["a", "b"]
        assert report.curve_counts["a"]["oss"][0][1] == 2
        assert report.curve_counts["b"]["oss"][0][1] == 1

    def test_errored_instance_excluded(self, tmp_path):
        (tmp_path / "good.mps").write_text(
            (corpus_dir() / "tiny" / "tiny_min.mps").read_text())
        # two errored records of family misc that share the name "bad"
        (tmp_path / "bad.mps").write_text("THIS IS NOT MPS\n")
        (tmp_path / "misc").mkdir()
        (tmp_path / "misc" / "bad.mps").write_text("THIS IS NOT MPS\n")
        report = run_suite(tmp_path, FAST)
        assert report.metadata["errored"] == 2
        assert any("excluded" in w for w in report.warnings)
        assert report.curve_counts["misc"]["oss"][0][1] == 1
        assert report.excluded == {"misc": 2}

    def test_empty_standard_form_fails_each_formulation_once(
            self, tmp_path, monkeypatch):
        import qipm_bounds.harness as harness
        from qipm_bounds.qcost import total_quantum_cycles
        from qipm_bounds.spectral import sparsity_mnes

        def no_basis(A):
            raise AssertionError("select_basis ran on an empty form")

        monkeypatch.setattr(harness, "select_basis", no_basis)
        # both variables are fixed, so presolve leaves a 0 x 0 form
        path = tmp_path / "fixed.mps"
        path.write_text(
            "NAME          FIXED\nROWS\n N  COST\n L  R1\nCOLUMNS\n"
            "    X         COST      1.0          R1        1.0\n"
            "    Y         COST      2.0          R1        1.0\n"
            "RHS\n    RHS       R1        10.0\nBOUNDS\n"
            " FX BND       X         1.0\n FX BND       Y         2.0\n"
            "ENDATA\n")
        rec = analyze_instance(path, FAST)
        assert rec.status == "ok" and (rec.m, rec.n) == (0, 0)
        assert rec.classical.status == "optimal"
        assert rec.classical.objective == 5.0
        assert {f: r.failure for f, r in rec.formulations.items()} == \
            dict.fromkeys(("mnes", "oss"), "ValueError: empty standard "
                          "form: presolve removed every row, so there is "
                          "no system to bound")
        assert rec.exclusion == {}
        # the formulas keep rejecting a zero dimension
        with pytest.raises(ValueError):
            sparsity_mnes(0)
        with pytest.raises(ValueError):
            total_quantum_cycles(0, 2, 0.1)

    def test_empty_directory_warns(self, tmp_path):
        report = run_suite(tmp_path, FAST)
        assert report.records == []
        assert any("no MPS instances" in w for w in report.warnings)

    def test_shared_matrix_runs_one_core_decision(self, tmp_path):
        # flow replicas differ only in capacities, which land in b: the
        # suite makes one core decision (a core_basis cache miss) for their
        # common matrix, and each record matches the one analyzed alone on
        # an empty cache
        from qipm_bounds.standardize import core_basis
        for replica in (0, 1):
            (tmp_path / f"flow_{replica}.mps").write_text(
                generators.flow_grid(8, 8, 1, replica))
        core_basis.cache_clear()
        shared = run_suite(tmp_path, FAST).records
        assert core_basis.cache_info().misses == 1
        assert core_basis.cache_info().hits > 0
        for rec in shared:
            core_basis.cache_clear()
            alone = analyze_instance(rec.path, FAST)
            assert core_basis.cache_info().misses == 1
            assert alone.status == rec.status == "ok"
            assert alone.formulations == rec.formulations

    @staticmethod
    def _untimed_csv(report) -> list[dict[str, str]]:
        import csv as csvmod
        import io
        return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in csvmod.DictReader(io.StringIO(records_csv(report)))]

    @staticmethod
    def _flow_copies(root: Path) -> None:
        """One flow grid under three names and families, and a replica
        that differs from it only in b."""
        text = generators.flow_grid(8, 8, 1)
        for rel in ("g.mps", "a/g.mps", "b/h.mps"):
            (root / rel).parent.mkdir(exist_ok=True)
            (root / rel).write_text(text)
        (root / "b" / "replica.mps").write_text(
            generators.flow_grid(8, 8, 1, 1))

    @pytest.mark.parametrize("where", ["corpus", "flow"])
    def test_suite_records_equal_standalone_records(self, where, tmp_path):
        if where == "corpus":
            root, distinct = corpus_dir(), 7
        else:
            root, distinct = tmp_path, 1
            self._flow_copies(root)
        report = run_suite(root, FAST)
        alone = [analyze_instance(r.path, FAST, r.family)
                 for r in report.records]
        assert self._untimed_csv(report) == self._untimed_csv(
            dataclasses.replace(report, records=alone))
        assert [r.seed for r in report.records] == [r.seed for r in alone]
        assert report.metadata["distinct_matrices"] == distinct
        assert report.metadata["instances"] == (7 if where == "corpus"
                                                else 4)

    def test_one_analysis_per_matrix(self, tmp_path, monkeypatch):
        import qipm_bounds.harness as harness
        calls = []

        def counting(name):
            fn = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(harness, name, wrapper)

        for name in ("select_basis", "build_fbar", "build_oss",
                     "kappa_lower_mnes", "kappa_lower_oss", "standardize"):
            counting(name)
        self._flow_copies(tmp_path)
        records = run_suite(tmp_path, FAST).records
        assert sorted(calls) == sorted(
            ["select_basis", "build_fbar", "build_oss", "kappa_lower_mnes",
             "kappa_lower_oss"] + ["standardize"] * 4)
        for rec in records:
            assert rec.status == "ok"
            assert list(rec.stage_seconds) == [
                "parse", "standardize", "basis", "mnes", "oss", "classical"]
        first, *rest = records
        for rec in rest:  # equal copies, never the first record's objects
            for f, result in first.formulations.items():
                assert rec.formulations[f] == result
                assert rec.formulations[f] is not result

    def test_memo_does_not_outlive_the_call(self, tmp_path, monkeypatch):
        import qipm_bounds.harness as harness
        self._flow_copies(tmp_path)
        before = run_suite(tmp_path, FAST).records
        assert all(r.formulations["oss"].ok for r in before)

        def fault(*args, **kwargs):
            raise RuntimeError("patched between suites")

        monkeypatch.setattr(harness, "kappa_lower_oss", fault)
        after = run_suite(tmp_path, FAST).records
        for rec in after:
            assert rec.formulations["oss"].failure == \
                "RuntimeError: patched between suites"
            assert rec.formulations["mnes"] == before[0].formulations["mnes"]

    def test_oss_stands_without_the_mnes_hand_off(self, tmp_path,
                                                  monkeypatch):
        # a failed MNES hands OSS no sigma_max(F); OSS then runs that
        # iteration itself and gets the same result
        import qipm_bounds.harness as harness
        self._flow_copies(tmp_path)
        before = run_suite(tmp_path, FAST).records

        def fault(*args, **kwargs):
            raise RuntimeError("MNES fails")

        monkeypatch.setattr(harness, "kappa_lower_mnes", fault)
        after = run_suite(tmp_path, FAST).records
        for rec, ref in zip(after, before, strict=True):
            assert rec.formulations["mnes"].failure == "RuntimeError: MNES fails"
            assert rec.formulations["oss"] == ref.formulations["oss"]
            assert rec.formulations["oss"].ok

    def test_quantum_side_exception_is_not_memoized(self, tmp_path,
                                                    monkeypatch):
        import qipm_bounds.harness as harness
        self._flow_copies(tmp_path)
        select_basis, calls = harness.select_basis, []

        def fails_once(A):
            calls.append(A.shape)
            if len(calls) == 1:
                raise RuntimeError("first basis fails")
            return select_basis(A)

        monkeypatch.setattr(harness, "select_basis", fails_once)
        report = run_suite(tmp_path, FAST)
        first, *rest = report.records
        assert first.error == "RuntimeError: first basis fails"
        assert len(calls) == 2
        assert all(r.status == "ok" for r in rest)
        assert report.metadata["distinct_matrices"] == 1

    def test_same_matrix_same_seed_and_kappa_bits(self, tmp_path):
        text = generators.flow_grid(8, 8, 1)
        (tmp_path / "one.mps").write_text(text)
        (tmp_path / "two.mps").write_text(text)
        a = analyze_instance(tmp_path / "one.mps", FAST, "fam_a")
        b = analyze_instance(tmp_path / "two.mps", FAST, "fam_b")
        assert a.seed == b.seed != 0
        for f in ("mnes", "oss"):
            fa, fb = a.formulations[f], b.formulations[f]
            assert [x.hex() for x in (fa.kappa_lower, fa.sigma_max_lb,
                                      fa.sigma_min_ub)] == \
                [x.hex() for x in (fb.kappa_lower, fb.sigma_max_lb,
                                   fb.sigma_min_ub)]
        # another suite seed gives another spectral seed
        other = analyze_instance(tmp_path / "one.mps",
                                 dataclasses.replace(FAST, seed=1), "fam_a")
        assert other.seed not in (0, a.seed)

    @pytest.mark.parametrize("text", [generators.flow_grid(8, 8, 1),
                                      generators.slack_ladder(60, 80, 1)],
                             ids=["flow_8x8", "slack_60x80"])
    def test_sigma_max_of_f_runs_once(self, text, tmp_path, monkeypatch):
        # MNES and OSS bound the same F at the same seed; MNES's value is
        # handed to OSS instead of a second, bit-identical iteration
        from qipm_bounds import spectral
        real, kinds = spectral.sigma_max_lower, []

        def counted(op, *args, **kwargs):
            kinds.append(op.kind)
            return real(op, *args, **kwargs)

        monkeypatch.setattr(spectral, "sigma_max_lower", counted)
        (tmp_path / "lp.mps").write_text(text)
        rec = analyze_instance(tmp_path / "lp.mps", FAST)
        assert rec.status == "ok"
        assert all(f.ok for f in rec.formulations.values())
        assert kinds.count("fbar") == 1

    def test_f_is_built_and_factored_once(self, tmp_path, monkeypatch):
        # tiny_min has n - m = m = 1, so F carries the inverse Gram through
        # a factorization of A_N A_N' (a (1, 1) argument; O's A-block
        # factors A A', a (1, 2) one): OSS bounds MNES's F and reuses it
        import qipm_bounds.harness as harness
        from qipm_bounds import newton
        real, shapes, built = newton.factor_nes, [], []

        def counted(a, d2):
            shapes.append(a.shape)
            return real(a, d2)

        def build_oss(*args, **kwargs):
            built.append(kwargs["fbar"])
            return newton.build_oss(*args, **kwargs)

        monkeypatch.setattr(newton, "factor_nes", counted)
        monkeypatch.setattr(harness, "build_oss", build_oss)
        (tmp_path / "tiny_min.mps").write_text(
            (corpus_dir() / "tiny" / "tiny_min.mps").read_text())
        rec = analyze_instance(tmp_path / "tiny_min.mps", FAST)
        assert (rec.m, rec.n) == (1, 2)
        assert all(f.ok for f in rec.formulations.values())
        assert shapes.count((1, 1)) == 1
        assert built[0] is not None and built[0].kind == "fbar"

    def test_oss_builds_f_when_mnes_could_not(self, tmp_path, monkeypatch):
        import qipm_bounds.harness as harness
        self._flow_copies(tmp_path)
        before = run_suite(tmp_path, FAST).records

        def fault(*args, **kwargs):
            raise RuntimeError("F fails under MNES")

        monkeypatch.setattr(harness, "build_fbar", fault)
        after = run_suite(tmp_path, FAST).records
        for rec, ref in zip(after, before, strict=True):
            assert rec.formulations["mnes"].failure == \
                "RuntimeError: F fails under MNES"
            assert rec.formulations["oss"] == ref.formulations["oss"]

    def test_seed_is_zero_without_a_standard_form(self, tmp_path):
        (tmp_path / "bad.mps").write_text("THIS IS NOT MPS\n")
        [rec] = run_suite(tmp_path, FAST).records
        assert rec.status == "error" and rec.seed == 0

    def test_hardware_string_starts_no_process(self, tmp_path, monkeypatch):
        # platform.processor() runs `uname -p` as a subprocess on Linux, so
        # neither it nor any other process start may happen while a record
        # is built
        def forbidden(*args, **kwargs):
            raise AssertionError("no process may start here")

        monkeypatch.setattr(platform, "processor", forbidden)
        monkeypatch.setattr(subprocess, "Popen", forbidden)
        (tmp_path / "tiny_min.mps").write_text(
            (corpus_dir() / "tiny" / "tiny_min.mps").read_text())
        rec = analyze_instance(tmp_path / "tiny_min.mps", FAST)
        report = run_suite(tmp_path, FAST)
        assert rec.status == "ok" and report.records[0].status == "ok"
        u = platform.uname()
        assert rec.hardware == report.metadata["hardware"] == \
            f"{u.system}-{u.release}-{u.machine}"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("suite")
    src = corpus_dir()
    for rel in ("tiny/tiny_min.mps", "tiny/bounds_mix.mps",
                "cover/cover_pairs.mps"):
        dest = tmp / rel
        dest.parent.mkdir(exist_ok=True)
        dest.write_text((src / rel).read_text())
    return run_suite(tmp, FAST)


class TestReports:
    def test_empty_report_is_header_only(self, tmp_path):
        report = run_suite(tmp_path, FAST)
        text = records_csv(report)
        assert text.splitlines() == [",".join([
            "name", "family", "formulation", "status", "m", "n", "d",
            "dilated_dim", "sparsity", "kappa_lower", "gamma", "sigma_max_lb",
            "sigma_min_ub", "sigma_min_method", "degenerate", "query_count",
            "total_cycles", "classical_status", "classical_objective",
            "classical_iterations", "classical_solver", "classical_wall_time",
            "threshold_duration", "failure"])]

    def test_row_count(self, suite):
        lines = records_csv(suite).splitlines()
        assert len(lines) == 1 + 2 * len(suite.records)

    def test_csv_recomputability(self, suite):
        import csv as csvmod
        import io
        rows = list(csvmod.DictReader(io.StringIO(records_csv(suite))))
        recomputed = {}
        for row in rows:
            if row["status"] != "ok" or not row["total_cycles"]:
                continue
            key = (row["family"], row["formulation"])
            cycles = int(row["total_cycles"])
            wall = float(row["classical_wall_time"])
            for t in suite.duration_grid:
                flag = Fraction(cycles) * Fraction(str(t)) < Fraction(wall)
                recomputed.setdefault(key, {}).setdefault(t, [0, 0])
                recomputed[key][t][0] += bool(flag)
                recomputed[key][t][1] += 1
        for (family, formulation), per_t in recomputed.items():
            for i, t in enumerate(suite.duration_grid):
                below, total = per_t[t]
                assert suite.curve_counts[family][formulation][i] == \
                    [below, total]

    def test_failed_formulation_row_shape(self):
        from qipm_bounds.report import record_rows
        cfg = AnalysisConfig(sigma_min_timeout=0.0)
        cfg.sigma_min_samples = 0  # past the config check, as above
        rec = analyze_instance(corpus_dir() / "tiny" / "bounds_mix.mps", cfg,
                               "tiny")
        rows = {r["formulation"]: r for r in record_rows(rec)}
        assert rows["mnes"]["status"] == "ok"
        assert rows["oss"]["status"] == "failed"
        assert "NumericalError" in rows["oss"]["failure"]
        assert rows["oss"]["total_cycles"] == "0"

    def test_threshold_follows_the_flag(self):
        from qipm_bounds.report import record_rows
        rec = synthetic_record("a", "fam", 0, 4800, 1.0)
        rows = {r["formulation"]: r for r in record_rows(rec)}
        # zero cycles undercut every duration
        assert rec.quantum_lb_below_classical("mnes", 1e3) is True
        assert rows["mnes"]["threshold_duration"] == "inf"
        assert float(rows["oss"]["threshold_duration"]) == 1.0 / 4800
        # no legitimate classical time: no flag and no threshold
        rec.classical.status = "iteration_limit"
        assert rec.quantum_lb_below_classical("oss", 1e-9) is None
        assert [r["threshold_duration"] for r in record_rows(rec)] == \
            ["", ""]

    def test_emit_report_files(self, suite, tmp_path):
        written = emit_report(suite, tmp_path, {"csv", "json", "svg"})
        names = {p.name for p in written}
        assert names == {"records.csv", "curves.csv", "report.json",
                         "difficulty.svg", "exclusion_curves.svg"}
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"] == dataclasses.asdict(FAST)
        classical = [r["classical"] for r in payload["records"]
                     if r["classical"] is not None]
        assert classical and all(
            set(c) == {"status", "objective", "iterations", "wall_time",
                       "solver", "message"} for c in classical)
        assert payload["duration_grid"] == duration_grid()
        assert payload["reference_marker"] == 8e-10

    def test_report_json_matches_asdict(self, suite, monkeypatch):
        from qipm_bounds import report as report_mod
        text = report_json(suite)
        monkeypatch.setattr(report_mod, "record_dict", dataclasses.asdict)
        assert text == report_json(suite)

    def test_svg_deterministic(self, suite):
        assert difficulty_svg(suite) == difficulty_svg(suite)
        assert exclusion_svg(suite) == exclusion_svg(suite)
        assert exclusion_svg(suite).startswith("<svg")
        assert "8e-10" in exclusion_svg(suite)

    def test_unknown_format_rejected(self, suite, tmp_path):
        # an empty set is no format, as for --formats; None selects all
        for formats in ({"pdf"}, set()):
            with pytest.raises(ValueError, match="non-empty subset"):
                emit_report(suite, tmp_path / "none", formats)
        assert not (tmp_path / "none").exists()
        assert len(emit_report(suite, tmp_path / "all")) == 5

    def test_fixed_duration_grid(self, suite):
        grid = duration_grid()
        assert len(grid) == 122 and grid == sorted(set(grid))
        assert (grid[0], grid[-1]) == (1e-15, 1e-3) and 8e-10 in grid
        assert suite.duration_grid == grid
        flags = [f for r in suite.records for f in r.exclusion.values()]
        assert flags and all(len(f) == len(grid) for f in flags)

    def test_svg_escapes_family_names(self, tmp_path):
        import xml.etree.ElementTree as ET
        family = tmp_path / "R&D <x>"
        family.mkdir()
        (family / "t.mps").write_text(
            (corpus_dir() / "tiny" / "tiny_min.mps").read_text())
        report = run_suite(tmp_path, FAST)
        for svg in (difficulty_svg(report), exclusion_svg(report)):
            texts = [e.text for e in ET.fromstring(svg).iter(
                "{http://www.w3.org/2000/svg}text")]
            assert "R&D <x>" in texts


class TestCli:
    def test_analyze_json_stdout(self, capsys):
        from qipm_bounds.cli import main
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        code = main(["analyze", str(path), "--sigma-min-timeout", "5",
                     "--sigma-min-samples", "200"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "tiny_min"
        assert payload["formulations"]["oss"]["total_cycles"] > 0

    def test_analyze_json_matches_asdict(self, tiny_record, capsys,
                                         monkeypatch):
        from qipm_bounds import cli
        monkeypatch.setattr(cli, "analyze_instance",
                            lambda path, cfg: tiny_record)
        assert cli.main(["analyze", tiny_record.path]) == 0
        assert capsys.readouterr().out == json.dumps(
            dataclasses.asdict(tiny_record), indent=2, default=str) + "\n"

    def test_suite_writes_reports_and_exit_code(self, tmp_path, capsys):
        from qipm_bounds.cli import main
        data = tmp_path / "data"
        data.mkdir()
        (data / "t.mps").write_text(
            (corpus_dir() / "tiny" / "tiny_min.mps").read_text())
        out = tmp_path / "out"
        code = main(["suite", str(data), "--out", str(out),
                     "--formats", "csv,json",
                     "--sigma-min-timeout", "5",
                     "--sigma-min-samples", "200"])
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "report.json").exists()
        assert not (out / "difficulty.svg").exists()

    def test_suite_exit_code_two_on_error(self, tmp_path):
        from qipm_bounds.cli import main
        data = tmp_path / "data"
        data.mkdir()
        (data / "bad.mps").write_text("garbage\n")
        code = main(["suite", str(data), "--out", str(tmp_path / "o"),
                     "--formats", "csv"])
        assert code == 2

    def test_flags_override_config_file(self, tmp_path, capsys):
        from qipm_bounds import cli
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "sigma_min_timeout": 5.0}))
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        assert cli.main(["analyze", str(path), "--config", str(cfg_path),
                         "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config_hash"] == AnalysisConfig(
            seed=3, sigma_min_timeout=5.0).config_hash()

    def test_config_file_rejects_zero_sigma_max_iters(self, tmp_path):
        from qipm_bounds import cli
        cfg_path = tmp_path / "cfg.json"
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        # a bad value, unknown keys, malformed JSON, a non-object and a
        # missing file all end in one clean message instead of a traceback
        for text, match in [(json.dumps({"sigma_max_iters": 0}),
                             "unknown config keys"),
                            (json.dumps({"beta": 0.5}),
                             "unknown config keys"),
                            (json.dumps({"workers": 2}),
                             "unknown config keys"),
                            # qcost constants, no longer options
                            *((json.dumps({key: 0.1}),
                               rf"unknown config keys: \['{key}'\]")
                              for key in ("epsilon", "duration_min",
                                          "duration_max", "duration_points")),
                            # settings of the deleted external-solver adapter
                            *((json.dumps({key: value}),
                               rf"unknown config keys: \['{key}'\]")
                              for key, value in (
                                  ("classical_cmd", "solver {mps}"),
                                  ("classical_timeout", 600.0),
                                  ("objective_pattern", "Objective (\\S+)"),
                                  ("status_patterns", {"optimal": "ok"}))),
                            (json.dumps({"ipm": {"bogus": 1}}), "ipm"),
                            # counts and seeds must be ints, bool excluded:
                            # a seed of 7.0 would give another spectral
                            # seed than 7
                            (json.dumps({"sigma_min_timeout": 0,
                                         "sigma_min_samples": 2.5}),
                             "sigma_min_samples must be an int"),
                            (json.dumps({"seed": 7.0}),
                             "seed must be an int, not 7.0"),
                            (json.dumps({"seed": True}),
                             "seed must be an int, not True"),
                            (json.dumps({"sigma_min_samples": False}),
                             "sigma_min_samples must be an int"),
                            (json.dumps({"seed": "7"}),
                             "seed must be an int"),
                            (json.dumps({"sigma_min_timeout": True}),
                             "sigma_min_timeout must be a float, not True"),
                            # a float field names itself, not Python's
                            # "must be real number"
                            (json.dumps({"sigma_min_timeout": "5"}),
                             "sigma_min_timeout must be a float, not '5'"),
                            (json.dumps({"sigma_min_timeout": None}),
                             "sigma_min_timeout must be a float, not None"),
                            (json.dumps({"bogus": 1}), "bogus"),
                            (json.dumps([1, 2]), "JSON object"),
                            ("{not json", "invalid config"),
                            (None, "No such file")]:
            if text is None:
                cfg_path.unlink()
            else:
                cfg_path.write_text(text)
            with pytest.raises(SystemExit, match=match) as exc:
                cli.main(["analyze", str(path), "--config", str(cfg_path)])
            assert str(exc.value).startswith(f"invalid config {cfg_path}: ")

    def test_bool_in_a_float_field_exits_one(self, tmp_path):
        # true in a JSON config is no float: without the check it would
        # stop the sigma_min iteration after 1 s
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_min_timeout": True}))
        proc = subprocess.run(
            [sys.executable, "-m", "qipm_bounds.cli", "analyze",
             str(corpus_dir() / "tiny" / "tiny_min.mps"),
             "--config", str(cfg_path)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 1
        assert proc.stderr == (f"invalid config {cfg_path}: sigma_min_timeout"
                               " must be a float, not True\n")

    def test_invalid_flag_values_exit_cleanly(self):
        from qipm_bounds import cli
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        analyze = ["analyze", str(path)]
        for command, flags, match in [
                (analyze, ["--sigma-min-timeout", "nan"], "NaN"),
                (["analyze", str(corpus_dir() / "raw" / "rankdef_dup.mps")],
                 ["--sigma-min-timeout", "0", "--sigma-min-samples", "0"],
                 "sigma_min_samples"),
                (analyze, ["--sigma-min-timeout", "abc"],
                 "invalid float value: 'abc'"),
                (analyze, ["--bogus", "1"], "unrecognized arguments"),
                *((analyze, [flag, "0.1"], f"unrecognized arguments: {flag}")
                  for flag in ("--epsilon", "--duration-min",
                               "--duration-max", "--duration-points",
                               "--classical-cmd", "--classical-timeout")),
                (["suite", str(path.parent)], ["--workers", "-3"],
                 "unrecognized arguments")]:
            with pytest.raises(SystemExit, match=match) as exc:
                cli.main([*command, *flags])
            assert str(exc.value).startswith("invalid option: ")

    def test_bad_solver_settings_exit_before_analysis(self, tmp_path,
                                                     monkeypatch):
        from qipm_bounds import cli

        def no_analysis(*args, **kwargs):
            raise AssertionError("the analysis ran with a bad sigma_min "
                                 "setting")

        monkeypatch.setattr(cli, "analyze_instance", no_analysis)
        monkeypatch.setattr(cli, "run_suite", no_analysis)
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_min_timeout": 0,
                                        "sigma_min_samples": 0}))
        for command in (["analyze", str(path)],
                        ["suite", str(path.parent), "--out",
                         str(tmp_path / "out")]):
            with pytest.raises(SystemExit, match="NaN") as exc:
                cli.main([*command, "--sigma-min-timeout", "nan"])
            assert str(exc.value).startswith("invalid option: ")
            with pytest.raises(SystemExit, match="sigma_min_samples") as exc:
                cli.main([*command, "--config", str(cfg_path)])
            assert str(exc.value).startswith(f"invalid config {cfg_path}: ")
        # the interpreter turns that message into one stderr line and exit
        # 1, for a usage error too (exit 2 means an instance errored); the
        # external-solver flags are gone, not ignored
        for flags in (["--classical-cmd", "foo {mps}"],
                      ["--classical-timeout", "5"], ["--epsilon", "0.1"]):
            proc = subprocess.run(
                [sys.executable, "-m", "qipm_bounds.cli", "analyze",
                 str(path), *flags], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
            assert proc.returncode == 1
            assert proc.stderr == \
                f"invalid option: unrecognized arguments: {' '.join(flags)}\n"

    def test_invalid_suite_inputs_exit_before_analysis(self, tmp_path,
                                                       monkeypatch):
        from qipm_bounds import cli
        data = tmp_path / "data"
        data.mkdir()
        (data / "t.mps").write_text(
            (corpus_dir() / "tiny" / "tiny_min.mps").read_text())

        def no_analysis(*args, **kwargs):
            raise AssertionError("the suite ran before its inputs were checked")

        monkeypatch.setattr(cli, "run_suite", no_analysis)
        out = tmp_path / "out"
        # an --out that is a file would otherwise fail only in emit_report
        out_file = tmp_path / "out.txt"
        out_file.write_text("kept\n")
        for directory, out_path, formats, match in [
                (tmp_path / "missing", out, "csv",
                 "missing is not a directory"),
                (data / "t.mps", out, "csv", "t.mps is not a directory"),
                (data, out_file, "csv", "exists and is not a directory"),
                (data, out, "csv,pdf", "'csv,pdf' is not a subset"),
                (data, out, ",", "',' is not a subset")]:
            with pytest.raises(SystemExit, match=match) as exc:
                cli.main(["suite", str(directory), "--out", str(out_path),
                          "--formats", formats])
            assert str(exc.value).startswith("invalid option: ")
        assert not out.exists()
        assert out_file.read_text() == "kept\n"
