"""One benchmark pass in a fresh interpreter; prints one JSON line.

Set-up runs from interpreter start through the package import and the
generation of the workload's MPS files up to the first timed call. The
timed region holds only the public entry calls: `analyze_instance` per
instance (slack) or `run_suite` + `emit_report` over the workload's
directory (flow, survey), with the user-default `AnalysisConfig` and only
the seed set. Peak RSS is read
right after the timed region, before any check runs.

    python3 perfbench/worker.py --workload flow --seed 1 --workdir DIR \
        --t-spawn <time.monotonic() of the launcher> [--trace] [--check]
    python3 perfbench/worker.py ... --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# workloads timed through run_suite + emit_report, the CLI's suite path
SUITE_WORKLOADS = ("flow", "survey")


def _entry_calls(workload: str, mps_dir: Path, paths, cfg):
    """Runs the timed entry calls; returns (records, wall seconds)."""
    harness = sys.modules["qipm_bounds.harness"]
    wall = 0.0
    if workload in SUITE_WORKLOADS:
        report_mod = sys.modules["qipm_bounds.report"]
        t = time.perf_counter()
        report = harness.run_suite(mps_dir, cfg)
        report_mod.emit_report(report, mps_dir.parent / "report")
        return report.records, time.perf_counter() - t
    records = []
    for path in paths:
        t = time.perf_counter()
        records.append(harness.analyze_instance(path, cfg))
        wall += time.perf_counter() - t
    return records, wall


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--check", action="store_true")
    args = p.parse_args()

    src = ROOT / "src"
    if not (src / "qipm_bounds").is_dir():
        sys.exit(f"no library source under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    from qipm_bounds import AnalysisConfig

    import checks
    from generators import write_workload
    from tracer import (EXPECTED_SPANS, Tracer, layer_metrics,
                        self_time_total)

    mps_dir = args.workdir / "mps"
    paths = write_workload(args.workload, args.seed, mps_dir)
    cfg = AnalysisConfig(seed=args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    capture = checks.StdCapture() if args.check else None
    if capture:
        capture.install()
    out = {"setup_s": time.monotonic() - args.t_spawn}
    if args.setup_only:
        print(json.dumps(out))
        return

    records, entry_s = _entry_calls(args.workload, mps_dir, paths, cfg)
    out.update({
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "entry_s": entry_s,
        "classical_s": sum(r.stage_seconds.get("classical", 0.0)
                           for r in records),
        "instances": len(records),
        "verdicts": [checks.record_key(r) for r in records
                     if checks.has_verdict(r)],
        "digest": checks.digest(records),
        "versions": _versions(),
    })
    if tracer:
        out["layers"] = layer_metrics(tracer, records)
        out["missing_spans"] = sorted(EXPECTED_SPANS[args.workload]
                                      - tracer.fired())
        out["self_time_s"] = self_time_total(tracer)
    if args.check:
        out["checks"] = checks.check_records(records, capture)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
