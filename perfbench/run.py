"""Seeded benchmark of qipm-bounds: time to verdict, bound tightness and
per-module cost on seeded workloads (slack, flow, survey).

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. Every pass runs in a fresh interpreter (perfbench/worker.py) with
the BLAS and OpenMP thread count pinned, because the verdicts depend on it.
Passes repeat until --seconds have elapsed; times are medians over passes.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced pass with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generators import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 2
# set-up is timed in every pass and, up to this many samples, in extra
# processes that stop at the first timed call
SETUP_SAMPLES = 5
# the whole run must end well within 180 s
RUN_DEADLINE_S = 165.0

UNITS = {
    "setup_s": "s", "bound_s": "s", "verdicts_per_min": "1/min",
    "failed_frac": "ratio", "kappa_tightness": "ratio", "peak_rss_mb": "MB",
}
# verdicts_per_min and failed_frac are printed, and reported per layer by
# the traced run, but not gated: the internal IPM breaks down on a
# seed-dependent few instances, so on slack (two instances) one seed in
# five to ten halves verdicts_per_min, and failed_frac reads 0 on most seeds
GATED = ("setup_s", "bound_s", "kappa_tightness", "peak_rss_mb")
# every per-layer metric with its unit, in reporting order
LAYER_UNITS = {
    "lp_model.parse_s": "s",
    "lp_model.parse_mb_per_s": "MB/s",
    "standardize.presolve_s": "s",
    "standardize.to_standard_form_s": "s",
    "standardize.rank_repair_s": "s",
    "standardize.rows_dropped": "count",
    "standardize.dense_bytes": "B",
    "newton.select_basis_s": "s",
    "newton.build_s": "s",
    "spectral.sigma_max_s.mnes": "s",
    "spectral.sigma_max_s.oss": "s",
    "spectral.sigma_min_s.mnes": "s",
    "spectral.sigma_min_s.oss": "s",
    "spectral.krylov_matvecs": "count",
    "spectral.sample_matvecs": "count",
    "spectral.fallback_frac": "ratio",
    "spectral.timeouts": "count",
    "qcost.s": "s",
    "qcost.calls": "count",
    "classical.solve_s": "s",
    "classical.iterations": "count",
    "classical.s_per_iter": "s",
    "classical.breakdowns": "count",
    "harness.self_s": "s",
    "harness.exclusion_curve_s": "s",
    "harness.t_crit_ps": "ps",
    "harness.verdicts_per_min": "1/min",
    "harness.failed_frac": "ratio",
    "report.emit_s": "s",
    "report.bytes": "B",
    "trace.overhead_frac": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Spawns worker processes one at a time and waits for each."""

    def __init__(self, workload: str, seed: int, workdir: Path, env: dict):
        self.workload, self.seed = workload, seed
        self.workdir, self.env = workdir, env
        self.started = time.monotonic()
        self.count = 0

    def spawn(self, *flags: str) -> dict:
        self.count += 1
        workdir = self.workdir / str(self.count)
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 "--workload", self.workload, "--seed", str(self.seed),
                 "--workdir", str(workdir), "--t-spawn", repr(t_spawn),
                 *flags],
                env=self.env, capture_output=True, text=True,
                timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise WorkerFailed("worker exceeded the run deadline") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _passes(runner: Runner, seconds: int, traced: bool):
    """Untraced passes (the first also runs the checks), each followed by
    a traced pass when `traced`, until `seconds` have elapsed."""
    plain, with_trace = [], []
    longest = 0.0
    while not plain or (runner.elapsed() < seconds and
                        runner.elapsed() + longest < RUN_DEADLINE_S - 15):
        t = runner.elapsed()
        plain.append(runner.spawn(*([] if plain else ["--check"])))
        if traced:
            with_trace.append(runner.spawn("--trace"))
        longest = max(longest, runner.elapsed() - t)
    return plain, with_trace


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _end_to_end(plain: list[dict], setups: list[float], failures: dict,
                log_ratios: list[float]) -> tuple[dict, list[int]]:
    """Metrics of the untraced passes, and the verdict count of each."""
    verdicts = [len(set(p["verdicts"]) - set(failures)) for p in plain]
    metrics = {
        "setup_s": statistics.median(setups),
        "bound_s": statistics.median(p["entry_s"] - p["classical_s"]
                                     for p in plain),
        "verdicts_per_min": statistics.median(
            v / (p["entry_s"] / 60.0) for v, p in zip(verdicts, plain)),
        "failed_frac": statistics.median(
            (p["instances"] - v) / p["instances"]
            for v, p in zip(verdicts, plain)),
        "kappa_tightness": math.exp(statistics.fmean(log_ratios)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    return metrics, verdicts


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    runner = Runner(args.workload, args.seed, workdir, env)
    try:
        plain, traced = _passes(runner, args.seconds, bool(args.trace))
        setups = [p["setup_s"] for p in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("--setup-only")["setup_s"])
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    checks = plain[0]["checks"]
    failures = dict(checks["failures"])
    digests = {p["digest"] for p in plain + traced}
    if len(digests) > 1:
        failures["*"] = ("passes disagree on statuses, kappas or cycle "
                         "counts" + (" (tracing changed the results)"
                                     if traced else ""))
    metrics, verdicts = _end_to_end(plain, setups, failures,
                                    checks["log_ratios"])
    attempted = sum(p["instances"] for p in plain)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "blas_threads": threads, **plain[0]["versions"],
        "python": sys.version.split()[0], "src_lines": _src_lines(),
        "passes": len(plain), "instances": plain[0]["instances"],
        "dense_checked_pairs": len(checks["log_ratios"]),
        "check_failures": failures,
        "entry_s": [p["entry_s"] for p in plain],
        "setup_s": setups,
    }
    if traced:
        layers = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        plain_s = statistics.median(p["entry_s"] for p in plain)
        traced_s = statistics.median(t["entry_s"] for t in traced)
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
        layers["harness.verdicts_per_min"] = metrics["verdicts_per_min"]
        layers["harness.failed_frac"] = metrics["failed_frac"]
        missing = set().union(*(t["missing_spans"] for t in traced))
        if missing:
            failures["*spans"] = f"spans never fired: {sorted(missing)}"
        meta.update({
            "trace.overhead_frac": layers["trace.overhead_frac"],
            "trace.self_time_s": [t["self_time_s"] for t in traced],
            "trace.entry_s": [t["entry_s"] for t in traced],
        })
        shown = {k: (layers[k], u) for k, u in LAYER_UNITS.items()}
    else:
        shown = {k: (v, UNITS[k]) for k, v in metrics.items()}
    gated = set(layers if traced else GATED)
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in shown.items():
        note = "" if name in gated else "  (printed, not gated)"
        print(f"{args.workload:>7} {name:<34} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - sum(verdicts),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in shown.items() if k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
