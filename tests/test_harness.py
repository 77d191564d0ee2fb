"""Pipeline orchestration, curves, reports and the CLI."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qipm_bounds.classical import SolveOutcome
from qipm_bounds.corpus import corpus_dir
from qipm_bounds.harness import (AnalysisConfig, FormulationResult,
                                 InstanceRecord, analyze_instance,
                                 exclusion_curve, run_suite)
from qipm_bounds.lp_model import parse_mps
from qipm_bounds.qcost import to_fraction
from qipm_bounds.report import (TIMING_COLUMNS, difficulty_svg, emit_report,
                                exclusion_svg, records_csv, report_from_json,
                                report_json)
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
        assert set(rec.exclusion) == {"mnes", "oss"}
        assert "parse" in rec.stage_seconds

    def test_gamma_is_exact_product(self, suite):
        checked = 0
        for rec in suite.records:
            for f in rec.formulations.values():
                if f.ok:
                    assert f.gamma == f.sparsity * f.kappa_lower
                    checked += 1
        assert checked >= 4

    def test_config_rejects_bad_values(self):
        for kwargs, match in [({"epsilon": 0.0}, "epsilon"),
                              ({"epsilon": 2.0}, "epsilon"),
                              ({"duration_points": 1}, "points"),
                              ({"sigma_min_timeout": 0.0,
                                "sigma_min_samples": 0}, "sigma_min_samples"),
                              ({"sigma_min_timeout": -1.0,
                                "sigma_min_samples": -5},
                               "sigma_min_samples"),
                              # a bool is no float: true would be a 1 s
                              # solver timeout or a grid ending at 1 s
                              ({"classical_timeout": True},
                               "classical_timeout must be a float, not True"),
                              ({"duration_min": True, "duration_max": 2.0},
                               "duration_min must be a float, not True"),
                              ({"sigma_min_timeout": True},
                               "sigma_min_timeout must be a float, not True"),
                              ({"epsilon": False},
                               "epsilon must be a float, not False")]:
            with pytest.raises(ValueError, match=match):
                AnalysisConfig(**kwargs)

    def test_config_rejects_bad_solver_settings(self):
        for kwargs, match in [
                ({"classical_cmd": "solver instance.mps"}, "placeholder"),
                ({"classical_cmd": 'solver "{mps}'}, "No closing quotation"),
                ({"objective_pattern": "("}, "bad pattern"),
                ({"objective_pattern": "Objective"}, "capture group"),
                ({"status_patterns": {"optimal": "[a"}}, "bad pattern"),
                ({"sigma_min_timeout": float("nan")}, "NaN"),
                ({"classical_timeout": 0.0}, "classical_timeout"),
                ({"classical_timeout": float("inf")}, "classical_timeout")]:
            with pytest.raises(ValueError, match=match):
                AnalysisConfig(**kwargs)

    def test_option_surface(self):
        # a new option shows up here as a reviewed diff
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
            "epsilon", "seed", "sigma_min_timeout",
            "sigma_min_samples", "duration_min",
            "duration_max", "duration_points", "classical_cmd",
            "classical_timeout", "objective_pattern", "status_patterns"]

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
        grid = FAST.durations()
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
        (tmp_path / "bad.mps").write_text("THIS IS NOT MPS\n")
        report = run_suite(tmp_path, FAST)
        assert report.metadata["errored"] == 1
        assert any("excluded" in w for w in report.warnings)
        assert report.curve_counts["misc"]["oss"][0][1] == 1

    def test_empty_directory_warns(self, tmp_path):
        report = run_suite(tmp_path, FAST)
        assert report.records == []
        assert any("no MPS instances" in w for w in report.warnings)

    def test_shared_matrix_runs_one_core_qr(self, tmp_path, monkeypatch):
        # flow replicas differ only in capacities, which land in b: the
        # suite factors their common core once, and each record matches
        # the one analyzed alone on an empty cache
        from qipm_bounds.standardize import core_basis
        standardize_module = importlib.import_module("qipm_bounds.standardize")
        qr = standardize_module._pivoted_qr
        calls = []

        def counting_qr(a):
            calls.append(a.shape)
            return qr(a)

        monkeypatch.setattr(standardize_module, "_pivoted_qr", counting_qr)
        for replica in (0, 1):
            (tmp_path / f"flow_{replica}.mps").write_text(
                generators.flow_grid(8, 8, 1, replica))
        core_basis.cache_clear()
        shared = run_suite(tmp_path, FAST).records
        assert calls == [(64, 128)]
        for rec in shared:
            core_basis.cache_clear()
            alone = analyze_instance(rec.path, FAST)
            assert alone.status == rec.status == "ok"
            assert alone.formulations == rec.formulations
        assert len(calls) == 3


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
        assert payload["config"]["epsilon"] == FAST.epsilon
        assert payload["reference_marker"] == 8e-10

    def test_svg_deterministic(self, suite):
        assert difficulty_svg(suite) == difficulty_svg(suite)
        assert exclusion_svg(suite) == exclusion_svg(suite)
        assert exclusion_svg(suite).startswith("<svg")
        assert "8e-10" in exclusion_svg(suite)

    def test_svg_from_reloaded_json_byte_identical(self, suite):
        reloaded = report_from_json(report_json(suite))
        assert difficulty_svg(reloaded) == difficulty_svg(suite)
        assert exclusion_svg(reloaded) == exclusion_svg(suite)

    def test_unknown_format_rejected(self, suite, tmp_path):
        with pytest.raises(ValueError):
            emit_report(suite, tmp_path, {"pdf"})


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

    def test_config_file_and_env(self, tmp_path, monkeypatch, capsys):
        from qipm_bounds import cli
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"sigma_min_timeout": 5.0, "sigma_min_samples": 100}))
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg_path))
        cfg = cli._load_config(None)
        assert (cfg.sigma_min_timeout, cfg.sigma_min_samples) == (5.0, 100)
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        assert cli.main(["analyze", str(path)]) == 0

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
                            (json.dumps({"duration_points": 41.0}),
                             "duration_points must be an int"),
                            (json.dumps({"seed": "7"}),
                             "seed must be an int"),
                            (json.dumps({"classical_timeout": True}),
                             "classical_timeout must be a float, not True"),
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
        # run the external solver with a 1 s timeout
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"classical_timeout": True}))
        proc = subprocess.run(
            [sys.executable, "-m", "qipm_bounds.cli", "analyze",
             str(corpus_dir() / "tiny" / "tiny_min.mps"),
             "--config", str(cfg_path)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 1
        assert proc.stderr == (f"invalid config {cfg_path}: classical_timeout"
                               " must be a float, not True\n")

    def test_invalid_flag_values_exit_cleanly(self):
        from qipm_bounds import cli
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        analyze = ["analyze", str(path)]
        for command, flags, match in [
                (analyze, ["--epsilon", "2"], "epsilon"),
                (analyze, ["--duration-points", "1"], "points"),
                (analyze, ["--duration-min", "nan"], "d_min"),
                (analyze, ["--duration-max", "inf"], "d_max"),
                (analyze, ["--sigma-min-timeout", "nan"], "NaN"),
                (analyze, ["--classical-timeout", "0"], "classical_timeout"),
                (["analyze", str(corpus_dir() / "raw" / "rankdef_dup.mps")],
                 ["--sigma-min-timeout", "0", "--sigma-min-samples", "0"],
                 "sigma_min_samples"),
                (analyze, ["--epsilon", "abc"], "invalid float value: 'abc'"),
                (analyze, ["--bogus", "1"], "unrecognized arguments"),
                (["suite", str(path.parent)], ["--workers", "-3"],
                 "unrecognized arguments")]:
            with pytest.raises(SystemExit, match=match) as exc:
                cli.main([*command, *flags])
            assert str(exc.value).startswith("invalid option: ")

    def test_bad_solver_settings_exit_before_analysis(self, tmp_path,
                                                     monkeypatch):
        from qipm_bounds import cli

        def no_analysis(*args, **kwargs):
            raise AssertionError("the analysis ran with a bad solver config")

        monkeypatch.setattr(cli, "analyze_instance", no_analysis)
        monkeypatch.setattr(cli, "run_suite", no_analysis)
        path = corpus_dir() / "tiny" / "tiny_min.mps"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"objective_pattern": "("}))
        for command in (["analyze", str(path)],
                        ["suite", str(path.parent), "--out",
                         str(tmp_path / "out")]):
            with pytest.raises(SystemExit, match="placeholder") as exc:
                cli.main([*command, "--classical-cmd", "foo"])
            assert str(exc.value).startswith("invalid option: ")
            with pytest.raises(SystemExit, match="bad pattern") as exc:
                cli.main([*command, "--config", str(cfg_path)])
            assert str(exc.value).startswith(f"invalid config {cfg_path}: ")
        # the interpreter turns that message into one stderr line and exit
        # 1, for a usage error too (exit 2 means an instance errored)
        for flags in (["--classical-cmd", "foo"], ["--epsilon", "abc"]):
            proc = subprocess.run(
                [sys.executable, "-m", "qipm_bounds.cli", "analyze",
                 str(path), *flags], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
            assert proc.returncode == 1
            assert proc.stderr.startswith("invalid option: ")
            assert len(proc.stderr.splitlines()) == 1

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
        for directory, formats, match in [
                (tmp_path / "missing", "csv", "missing is not a directory"),
                (data / "t.mps", "csv", "t.mps is not a directory"),
                (data, "csv,pdf", "'csv,pdf' is not a subset"),
                (data, ",", "',' is not a subset")]:
            with pytest.raises(SystemExit, match=match) as exc:
                cli.main(["suite", str(directory), "--out", str(out),
                          "--formats", formats])
            assert str(exc.value).startswith("invalid option: ")
        assert not out.exists()
