"""Self-test of the benchmark's tracer: every named span fires on the
workload meant to exercise it, here on small instances of the same
families, and a renamed library function fails loudly at install time.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from qipm_bounds import AnalysisConfig  # noqa: E402

import generators  # noqa: E402
from tracer import EXPECTED_SPANS, Tracer  # noqa: E402

SEED = 3


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _harness():
    return sys.modules["qipm_bounds.harness"]


def test_slack_spans_fire(tmp_path, tracer):
    path = tmp_path / "slack.mps"
    path.write_text(generators.slack_ladder(12, 16, SEED))
    record = _harness().analyze_instance(path, AnalysisConfig(seed=SEED))
    assert record.status == "ok"
    assert EXPECTED_SPANS["slack"] <= tracer.fired()


SUITES = {
    "flow": {"flow_grid_3x3.mps": generators.flow_grid(3, 3, SEED),
             "flow_grid_2x4.mps": generators.flow_grid(2, 4, SEED)},
    "survey": {
        "tiny/tiny_min.mps": generators.tiny_min(SEED, 0),
        "tiny/bounds_mix.mps": generators.bounds_mix(SEED, 0),
        "cover/cover_pairs.mps": generators.cover_pairs(4, SEED),
        "slack/slack_ladder.mps": generators.slack_ladder(12, 16, SEED),
        "flow/flow_grid.mps": generators.flow_grid(2, 3, SEED),
        "raw/rankdef_dup.mps": generators.rankdef_dup(SEED, 0),
    },
}


@pytest.mark.parametrize("workload", sorted(SUITES))
def test_suite_spans_fire(tmp_path, tracer, workload):
    for rel, text in SUITES[workload].items():
        (tmp_path / "mps" / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "mps" / rel).write_text(text)
    report = _harness().run_suite(tmp_path / "mps", AnalysisConfig(seed=SEED))
    sys.modules["qipm_bounds.report"].emit_report(report, tmp_path / "out")
    assert EXPECTED_SPANS[workload] <= tracer.fired()


def test_rank_repair_counts_dropped_rows(tmp_path, tracer):
    path = tmp_path / "rankdef.mps"
    path.write_text(generators.rankdef_dup(SEED, 0))
    _harness().analyze_instance(path, AnalysisConfig(seed=SEED))
    [repair] = [s for s in tracer.spans if s.name == "standardize.rank_repair"]
    assert repair.attrs["rows_dropped"] == 1


def test_uninstall_restores_the_library():
    harness = _harness()
    before = harness.select_basis
    t = Tracer()
    t.install()
    assert harness.select_basis is not before
    t.uninstall()
    assert harness.select_basis is before


def test_renamed_function_fails_install(monkeypatch):
    harness = _harness()
    before = harness.analyze_instance
    monkeypatch.delattr(harness, "select_basis")
    with pytest.raises(AttributeError):
        Tracer().install()
    assert harness.analyze_instance is before  # nothing was patched


def test_workload_inputs_repeat_per_seed():
    for workload in generators.WORKLOADS:
        first = generators.workload_files(workload, SEED)
        assert first == generators.workload_files(workload, SEED)
        assert first != generators.workload_files(workload, SEED + 1)


def test_matvecs_count_outermost_applies(tracer):
    from qipm_bounds import (build_oss, canonical_iterate, parse_mps,
                             select_basis, standardize)

    std = standardize(parse_mps(generators.flow_grid(2, 3, SEED)))
    it = canonical_iterate(std.m, std.n)
    oss = build_oss(std, it, select_basis(std.A), it.default_beta_mu())
    spectral = sys.modules["qipm_bounds.spectral"]
    # timeout 0 skips the Krylov stage: 300 sampled columns, applied once
    _, method = spectral.sigma_min_upper(oss, timeout=0, n_samples=300)
    assert method == "random_sampling"
    assert (tracer.krylov_matvecs, tracer.sample_matvecs) == (0, 300)
    oss.apply(it.x)  # outside any sigma span: not counted
    assert tracer.krylov_matvecs == 0
