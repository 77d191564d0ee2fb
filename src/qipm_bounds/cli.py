"""Command-line entry points: `analyze <file.mps>` and `suite <dir>`.

`analyze` prints one instance's record as JSON; `suite` writes
records.csv, curves.csv, report.json and two SVG figures under --out and
prints their paths. A JSON config file given with --config can preset any
analysis option (`seed`, `sigma_min_timeout`, `sigma_min_samples`);
command-line flags override it. The QLSA precision and the cycle-duration
grid are `qcost` constants, not options, and the classical baseline is
always the internal IPM. Exit code is 0 on full success, 1 when the
command line, the config file, a flag value or the suite directory is
invalid or --out cannot be created as a directory (one line:
`invalid config <path>: <reason>` or `invalid option: <reason>`, before
any analysis runs), and 2 when any instance errored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import AnalysisConfig, analyze_instance, run_suite
from .report import emit_report, record_dict


def _load_config(path: str | None) -> AnalysisConfig:
    if not path:
        return AnalysisConfig()
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        known = {f.name for f in dataclasses.fields(AnalysisConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return AnalysisConfig(**data)
    except (OSError, ValueError, TypeError) as exc:  # incl. JSONDecodeError
        raise SystemExit(f"invalid config {path}: {exc}") from None


# flags named after the AnalysisConfig field they override
FLAG_FIELDS = ("seed", "sigma_min_timeout", "sigma_min_samples")


def _apply_flags(cfg: AnalysisConfig,
                 args: argparse.Namespace) -> AnalysisConfig:
    flags = {name: getattr(args, name) for name in FLAG_FIELDS
             if getattr(args, name, None) is not None}
    try:
        return dataclasses.replace(cfg, **flags)
    except ValueError as exc:
        raise SystemExit(f"invalid option: {exc}") from None


def _prepare_suite_paths(args: argparse.Namespace) -> None:
    """Check the suite directory, then create --out, before any analysis
    runs."""
    if not Path(args.directory).is_dir():
        raise SystemExit(
            f"invalid option: {args.directory} is not a directory")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(
            f"invalid option: --out {args.out}: {exc.strerror}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line with exit code 1, as a bad flag
    value is; exit code 2 means an instance errored."""

    def error(self, message):
        raise SystemExit(f"invalid option: {message}")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file presetting any "
                   "option; flags override it")
    p.add_argument("--seed", type=int, help="suite seed (default 0)")
    p.add_argument("--sigma-min-timeout", dest="sigma_min_timeout",
                   type=float, help="seconds after which the sigma_min "
                   "Lanczos iteration, including the sparse factorization "
                   "of its inverse operator, stops and keeps its current "
                   "bound (the sigma_max estimate is not under this limit); "
                   "<= 0 selects random sampling instead, looser than a "
                   "finished iteration but possibly tighter than one cut "
                   "after a step or two (default 60)")
    p.add_argument("--sigma-min-samples", dest="sigma_min_samples", type=int,
                   help="random unit vectors drawn for sigma_min, used only "
                   "when --sigma-min-timeout <= 0 (default 10000)")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="qipm-bounds",
        description="Quantum runtime lower bounds and exclusion analysis for "
                    "hybrid interior point methods on LP instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze",
                               help="analyze one MPS file, JSON to stdout")
    p_analyze.add_argument("file", help="path to an MPS file")
    _add_common_flags(p_analyze)

    p_suite = sub.add_parser("suite", help="analyze a directory of MPS files")
    p_suite.add_argument("directory", help="directory of .mps files, "
                         "optionally in per-family subdirectories")
    p_suite.add_argument("--out", default="qipm_bounds_report",
                         help="output directory, created before any analysis "
                         "runs (default qipm_bounds_report)")
    _add_common_flags(p_suite)

    args = parser.parse_args(argv)
    cfg = _apply_flags(_load_config(args.config), args)

    if args.command == "analyze":
        record = analyze_instance(args.file, cfg)
        json.dump(record_dict(record), sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return 0 if record.status == "ok" else 2

    _prepare_suite_paths(args)
    report = run_suite(args.directory, cfg)
    for path in emit_report(report, args.out):
        print(path)
    errored = any(r.status == "error" for r in report.records)
    return 2 if errored else 0


if __name__ == "__main__":
    sys.exit(main())
