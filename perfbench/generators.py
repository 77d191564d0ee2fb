"""Seeded MPS generators and the three benchmark workloads.

The families follow the bundled corpus generators (tiny, cover, slack, flow,
raw). Sizes are fixed per workload; the workload seed only changes
coefficients, costs, right-hand sides and capacities, so the same seed
always yields byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("slack", "flow", "survey")


def _rng(seed: int, tag: str) -> random.Random:
    # string seeding is deterministic across interpreter runs
    return random.Random(f"{seed}:{tag}")


def _columns_section(cols: dict[str, list[tuple[str, float]]]) -> list[str]:
    lines = ["COLUMNS"]
    for name, entries in cols.items():
        for k in range(0, len(entries), 2):
            body = "".join(f"  {r:<10}{v:>10g}" for r, v in entries[k:k + 2])
            lines.append(f"    {name:<8}{body}")
    return lines


def slack_ladder(m: int, n: int, seed: int) -> str:
    """Pure-slack instance: banded <= rows, negative costs push against the
    constraints. Every column needs n <= m + 2m/3 to appear in some row."""
    rng = _rng(seed, f"slack:{m}x{n}")
    lines = ["NAME          SLACKLADDER", "ROWS", " N  COST"]
    lines += [f" L  R{i}" for i in range(m)]
    cols: dict[str, list[tuple[str, float]]] = {}
    rows_of: list[list[tuple[str, float]]] = [[] for _ in range(n)]
    for i in range(m):
        for j in sorted({i, (i + 1) % n, (i + 17) % n, (i + 2 * m // 3) % n}):
            rows_of[j].append((f"R{i}", float(1 + rng.randrange(8))))
    for j in range(n):
        cols[f"X{j}"] = [("COST", -float(1 + rng.randrange(5)))] + rows_of[j]
    lines += _columns_section(cols)
    lines.append("RHS")
    lines += [f"    RHS       R{i:<8}{20 + rng.randrange(30):>10}"
              for i in range(m)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def flow_grid(width: int, layers: int, seed: int, replica: int = 0) -> str:
    """Max-flow relaxation on a layered DAG: conservation equalities plus
    capacity upper bounds, which standardize into bound-slack rows.
    Replicas share the graph and differ in capacities."""
    rng = _rng(seed, f"flow:{width}x{layers}:{replica}")

    def node(l, w):
        return f"N{l}_{w}"

    arcs: list[tuple[str, str, float]] = []  # (tail, head, capacity)
    for w in range(width):
        arcs.append(("SRC", node(0, w), float(3 + rng.randrange(4))))
    for l in range(layers - 1):
        for w in range(width):
            for dw in (0, 1):
                arcs.append((node(l, w), node(l + 1, (w + dw) % width),
                             float(1 + rng.randrange(4))))
    for w in range(width):
        arcs.append((node(layers - 1, w), "SNK", float(3 + rng.randrange(4))))

    internal = [node(l, w) for l in range(layers) for w in range(width)]
    lines = ["NAME          FLOWGRID", "OBJSENSE", "    MAX", "ROWS",
             " N  FLOW"]
    lines += [f" E  C{nd}" for nd in internal]
    cols: dict[str, list[tuple[str, float]]] = {}
    for k, (tail, head, _) in enumerate(arcs):
        entries = []
        if tail == "SRC":
            entries.append(("FLOW", 1.0))
        else:
            entries.append((f"C{tail}", -1.0))
        if head != "SNK":
            entries.append((f"C{head}", 1.0))
        cols[f"A{k}"] = entries
    lines += _columns_section(cols)
    lines += ["RHS", "BOUNDS"]
    lines += [f" UP BND       A{k:<9}{cap:>8g}"
              for k, (_, _, cap) in enumerate(arcs)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def tiny_min(seed: int, k: int) -> str:
    rng = _rng(seed, f"tiny_min:{k}")
    return f"""NAME          TINYMIN
ROWS
 N  COST
 G  C1
COLUMNS
    X         COST          {1 + rng.randrange(5)}   C1            1
RHS
    RHS       C1            {1 + rng.randrange(5)}
ENDATA
"""


def square_band(m: int, seed: int) -> str:
    """Equality system with a square lower-triangular band: n = m after
    standardization, and a positive solution by construction."""
    rng = _rng(seed, f"square_band:{m}")
    sol = [float(1 + rng.randrange(5)) for _ in range(m)]
    rhs = [0.0] * m
    cols: dict[str, list[tuple[str, float]]] = {
        f"X{j}": [("COST", float(1 + rng.randrange(3)))] for j in range(m)}
    for i in range(m):
        coeffs = {i: float(2 + rng.randrange(3))}
        if i > 0:
            coeffs[i - 1] = 1.0
        for j, v in coeffs.items():
            cols[f"X{j}"].append((f"R{i}", v))
            rhs[i] += v * sol[j]
    lines = ["NAME          SQUAREBAND", "ROWS", " N  COST"]
    lines += [f" E  R{i}" for i in range(m)]
    lines += _columns_section(cols)
    lines.append("RHS")
    lines += [f"    RHS       R{i:<8}{rhs[i]:>12g}" for i in range(m)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def bounds_mix(seed: int, k: int) -> str:
    """Ranged row, free, two-sided, fixed and negative-lower-bounded
    variables. Positive costs on XA, XB and XF keep the LP bounded."""
    rng = _rng(seed, f"bounds_mix:{k}")
    ca, cb, cf = (1 + rng.randrange(4) for _ in range(3))
    cap = 10 + rng.randrange(4)
    return f"""NAME          BOUNDSMIX
ROWS
 N  OBJ
 L  CAP
 G  DEM
 E  BAL
COLUMNS
    XA        OBJ           {ca}   CAP           1
    XA        DEM           1
    XB        OBJ           {cb}   CAP           2
    XB        BAL           1
    XC        OBJ          -1   DEM           1
    XC        BAL           1
    XF        OBJ           {cf}   CAP           1
    XF        BAL          -1
RHS
    RHS       CAP          {cap}   DEM           {1 + rng.randrange(3)}
    RHS       BAL           {2 + rng.randrange(3)}
RANGES
    RNG       CAP           4
BOUNDS
 UP BND       XA            6
 LO BND       XB           -2
 UP BND       XB            5
 FR BND       XF
 FX BND       XC            1
ENDATA
"""


def cover_pairs(pairs: int, seed: int) -> str:
    """Vertex-cover relaxation on disjoint edges: x_u + x_v >= 1."""
    rng = _rng(seed, f"cover:{pairs}")
    lines = ["NAME          COVERPAIRS", "ROWS", " N  COST"]
    lines += [f" G  E{e}" for e in range(pairs)]
    cols: dict[str, list[tuple[str, float]]] = {}
    for e in range(pairs):
        for v in ("U", "V"):
            cols[f"{v}{e}"] = [("COST", float(1 + rng.randrange(5))),
                               (f"E{e}", 1.0)]
    lines += _columns_section(cols)
    lines.append("RHS")
    lines += [f"    RHS       E{e:<8}{1:>10}" for e in range(pairs)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def rankdef_dup(seed: int, k: int) -> str:
    """A positively scaled duplicate row (merged by presolve) and an equality
    row that is the sum of two others (dropped by rank repair)."""
    rng = _rng(seed, f"rankdef:{k}")
    e1, e2 = 1 + rng.randrange(5), 1 + rng.randrange(5)
    r1 = 2 + rng.randrange(5)
    return f"""NAME          RANKDEF
ROWS
 N  COST
 L  R1
 L  R1DUP
 E  E1
 E  E2
 E  ESUM
COLUMNS
    X         COST          {1 + rng.randrange(3)}   R1            1
    X         R1DUP         2   E1            1
    X         ESUM          1
    Y         COST          {1 + rng.randrange(3)}   R1            1
    Y         R1DUP         2   E2            1
    Y         ESUM          1
    Z         COST         -1   E1            1
    Z         ESUM          1
    W         COST          {1 + rng.randrange(3)}   E2            1
    W         ESUM          1
RHS
    RHS       R1            {r1}   R1DUP         {2 * r1}
    RHS       E1            {e1}   E2            {e2}
    RHS       ESUM          {e1 + e2}
ENDATA
"""


# slack_ladder at m = 600 and 1200 (standard form 600 x 1400, 1200 x 2800):
# both formulations fall back to random sampling for sigma_min there
SLACK_SIZES = ((600, 800), (1200, 1600))
# flow_grid side length -> replicas; standard form is 3k^2 x 4k^2
# (m = 192 .. 1200). The internal IPM breaks down on a seed-dependent few of
# these; 12x12 is replicated so that the share of verdicts, and with it
# verdicts_per_min, stays steady from seed to seed. (8x8 is not: its OSS
# sigma_min falls back to sampling on about 40% of seeds, which would make
# kappa_tightness swing instead.)
FLOW_SIZES = {8: 1, 12: 16, 16: 1, 20: 1}


def _survey_instances(seed: int) -> dict[str, str]:
    files: dict[str, str] = {}
    for k in range(10):
        files[f"tiny/tiny_min_{k}.mps"] = tiny_min(seed, k)
        files[f"tiny/bounds_mix_{k}.mps"] = bounds_mix(seed, k)
    for m in range(4, 24):
        files[f"tiny/square_band_{m}.mps"] = square_band(m, seed)
    for pairs in range(4, 44):
        files[f"cover/cover_pairs_{pairs}.mps"] = cover_pairs(pairs, seed)
    for m in range(12, 52):
        files[f"slack/slack_ladder_{m}.mps"] = slack_ladder(
            m, m + m // 3, seed)
    for width in range(2, 7):
        for layers in range(2, 16):
            if 3 * width * layers <= 72:
                files[f"flow/flow_grid_{width}x{layers}.mps"] = flow_grid(
                    width, layers, seed)
    for k in range(40):
        files[f"raw/rankdef_dup_{k}.mps"] = rankdef_dup(seed, k)
    return files


def workload_files(workload: str, seed: int) -> dict[str, str]:
    """Relative path -> MPS text of every instance of a workload."""
    if workload == "slack":
        return {f"slack_{m}.mps": slack_ladder(m, n, seed)
                for m, n in SLACK_SIZES}
    if workload == "flow":
        return {f"flow_{k}x{k}_{r}.mps": flow_grid(k, k, seed, r)
                for k, replicas in FLOW_SIZES.items()
                for r in range(replicas)}
    if workload == "survey":
        return _survey_instances(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def write_workload(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's MPS files under `directory`, sorted by path."""
    paths = []
    for rel, text in sorted(workload_files(workload, seed).items()):
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        paths.append(path)
    return paths
