"""Alternating parent/change pairs of the benchmark, judged by the gain rule.

    python3 tools/ab_pairs.py --parent HEAD~1 --workload slack --seeds 5 \
        --pairs 10 --seconds 40

The parent revision's committed files are exported (`git archive`) into a
temporary directory, removed at the end; the change is this checkout, as
it stands on disk. `perfbench/run.py --trace 0` then runs alternately in
the two trees, N pairs, with the side that runs first alternating from
pair to pair; pair i uses seed seeds[i % len(seeds)]. For each end-to-end
metric of BENCHMARK.json this prints both sides' median and quartiles, the
pairs the change wins (ties count for neither side), and whether the
median gap exceeds the parent's interquartile range. A gain can be claimed
when the change wins at least nine tenths of the pairs and the gap exceeds
that range. The last line of stdout is one JSON object with every run's
metrics and each verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linear interpolation
    between order statistics (statistics' "inclusive" method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The gain rule on paired runs of one metric: change[i] ran paired
    with parent[i], and `better` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")

    def improvement(p: float, c: float) -> float:
        return p - c if better == "lower" else c - p

    wins = sum(improvement(p, c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = improvement(p_med, c_med)
    iqr = p_q3 - p_q1
    return {
        "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
        "wins": wins, "pairs": len(parent), "gap": gap, "parent_iqr": iqr,
        "gap_exceeds_iqr": gap > iqr,
        "gain": 10 * wins >= 9 * len(parent) and gap > iqr,
    }


def export(rev: str, dest: Path) -> None:
    """Write the committed files of `rev` under `dest`."""
    git = subprocess.Popen(["git", "archive", "--format=tar", rev],
                           cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout,
                       check=True)
    finally:
        git.stdout.close()
        if git.wait():
            raise RuntimeError(f"git archive {rev} failed")


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in `tree`; its last stdout line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"run.py in {tree} exited {out.returncode}: "
                           f"{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent git revision")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True,
                   help="comma-separated seeds, used in turn")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=40)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                runs[side].append(
                    bench(trees[side], args.workload, seed, args.seconds))
            last = {side: runs[side][-1]["metrics"] for side in runs}
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{m['name']} {last['parent'][m['name']]['value']:.6g} -> "
                f"{last['change'][m['name']]['value']:.6g}" for m in metrics),
                file=sys.stderr, flush=True)

    verdicts = {}
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seeds}, parent "
          f"{args.parent}; median [quartiles]")
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        v = verdicts[name] = verdict(values["parent"], values["change"],
                                     m["better"])
        (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
        print(f"{name:<16} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change "
              f"{cm:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  wins "
              f"{v['wins']}/{v['pairs']}  gap {v['gap']:.4g} vs IQR "
              f"{v['parent_iqr']:.4g} "
              f"({'exceeds' if v['gap_exceeds_iqr'] else 'within'})  "
              f"gain {'yes' if v['gain'] else 'no'}")
    for side in runs:
        print(f"{side}: correct {all(r['correct'] for r in runs[side])}, "
              f"failed {sum(r['failed'] for r in runs[side])} of "
              f"{sum(r['attempted'] for r in runs[side])}")
    print(json.dumps({"workload": args.workload, "seeds": seeds,
                      "parent": args.parent, "runs": runs,
                      "verdicts": verdicts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
