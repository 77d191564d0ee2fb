"""Classical comparison runtimes.

A built-in infeasible-start primal-dual path-following IPM (exact NES solves
by one sparse LU, `newton.factor_nes`, with a diagonal-shift retry on an
exactly singular factor) provides a dependency-free baseline; an adapter
shells out to any external LP solver executable through a command template
and regex-configurable output parsing. Wall time is measured around the
solve only.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp_model import ColumnDef, GeneralLP, RowDef, StandardLP, emit_mps
from .newton import (Iterate, build_nes, canonical_iterate, factor_nes,
                     recover_updates_nes)

DEFAULT_OBJECTIVE_PATTERN = (
    r"(?:[Oo]bjective(?:\s+value)?|[Oo]ptimal(?:\s+objective)?)\s*[:=]?\s*"
    r"([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)")
DEFAULT_STATUS_PATTERNS = {
    "optimal": r"[Oo]ptimal",
    "infeasible": r"[Ii]nfeasible",
    "unbounded": r"[Uu]nbounded",
}


# internal IPM: optimal at x's <= n * MU_TARGET with relative residuals below
# RESIDUAL_TOL; steps target CENTERING_BETA * mu, STEP_FRACTION to the boundary
MU_TARGET = 1e-8
RESIDUAL_TOL = 1e-8
CENTERING_BETA = 0.1
STEP_FRACTION = 0.99995
MAX_ITERATIONS = 200


@dataclass
class SolveOutcome:
    status: str  # optimal | infeasible | unbounded | iteration_limit | error
    objective: float = float("nan")
    iterations: int = 0
    wall_time: float = 0.0
    solver: str = "internal_ipm"
    message: str = ""
    serialize_time: float | None = None
    captured_output: str = ""


def solve_internal_ipm(std: StandardLP) -> SolveOutcome:
    """Primal-dual path-following IPM from the all-ones start.

    Each iteration solves the normal equation system by one sparse LU of
    A D^2 A' (retried once with a diagonal shift when the factor is exactly
    singular, which happens near the optimum), recovers the full Newton
    step, and advances by the fraction-to-boundary rule capped at a full
    step. Terminates when the duality gap and both feasibility residuals
    are below tolerance.
    """
    m, n = std.m, std.n
    if m == 0 or n == 0:
        # no rows (or no columns): each x_j sits at 0 or runs off to infinity
        if np.any(std.c < 0.0):
            return SolveOutcome(status="unbounded")
        return SolveOutcome(status="optimal", objective=0.0)
    A = std.A.tocsr()
    b, c = std.b, std.c
    norm_b, norm_c = np.linalg.norm(b), np.linalg.norm(c)
    it = canonical_iterate(m, n)
    x, y, s = it.x, it.y, it.s

    t0 = time.perf_counter()
    status = "iteration_limit"
    message = ""
    gap_growth = 0
    prev_gap = float("inf")
    k = 0
    for k in range(1, MAX_ITERATIONS + 1):
        gap = float(x @ s)
        rp = b - A @ x
        rd = c - A.T @ y - s
        if gap <= n * MU_TARGET and \
                np.linalg.norm(rp) <= RESIDUAL_TOL * (1.0 + norm_b) and \
                np.linalg.norm(rd) <= RESIDUAL_TOL * (1.0 + norm_c):
            status = "optimal"
            k -= 1
            break
        if gap > prev_gap * (1.0 + 1e-12):
            gap_growth += 1
            if gap_growth >= 10:
                status = "error"
                message = "duality gap grew for 10 consecutive iterations"
                break
        else:
            gap_growth = 0
        prev_gap = gap

        mu = gap / n
        beta_mu = CENTERING_BETA * mu
        trial = Iterate(x, y, s)
        nes = build_nes(std, trial, beta_mu)
        try:
            dy = factor_nes(A, trial.d2)(nes.rhs)
        except (RuntimeError, np.linalg.LinAlgError,
                FloatingPointError) as exc:
            status = "error"
            message = f"NES solve breakdown: {exc}"
            break
        if not np.all(np.isfinite(dy)):
            status = "error"
            message = "NES solve produced non-finite step"
            break
        step = recover_updates_nes(std, trial, beta_mu, dy)
        alpha = min(1.0, STEP_FRACTION * _max_step(x, step.dx, s, step.ds))
        x = x + alpha * step.dx
        y = y + alpha * step.dy
        s = s + alpha * step.ds
        if not (np.all(x > 0.0) and np.all(s > 0.0)):
            status = "error"
            message = "step rounded out of the interior x > 0, s > 0"
            break
    wall = time.perf_counter() - t0
    return SolveOutcome(status=status, objective=float(c @ x), iterations=k,
                        wall_time=wall, solver="internal_ipm", message=message)


def _max_step(x, dx, s, ds) -> float:
    """Largest alpha keeping x + alpha dx > 0 and s + alpha ds > 0."""
    alpha = np.inf
    neg = dx < 0.0
    if np.any(neg):
        alpha = min(alpha, float(np.min(-x[neg] / dx[neg])))
    neg = ds < 0.0
    if np.any(neg):
        alpha = min(alpha, float(np.min(-s[neg] / ds[neg])))
    return alpha


def standard_to_general(std: StandardLP) -> GeneralLP:
    """View a StandardLP as a GeneralLP of equality rows R{i} over columns
    C{j} (for MPS export: source names, blanks included, never reach it)."""
    rows = [RowDef(f"R{i}", "=", float(std.b[i])) for i in range(std.m)]
    cols = [ColumnDef(f"C{j}") for j in range(std.n)]
    return GeneralLP(
        name=std.name or "STANDARD", objective_sense="min",
        objective_name="COST", rows=rows, columns=cols,
        coefficients=std.A, objective=np.asarray(std.c, dtype=float))


def command_argv(command_template: str) -> list[str]:
    """Split a solver command template; it must contain `{mps}`."""
    if "{mps}" not in command_template:
        raise ValueError("command template must contain the {mps} placeholder")
    try:
        return shlex.split(command_template)
    except ValueError as exc:
        raise ValueError(f"cannot split command template: {exc}") from None


def solve_external(std: StandardLP, command_template: str,
                   timeout: float = 600.0,
                   objective_pattern: str | None = None,
                   status_patterns: dict[str, str] | None = None
                   ) -> SolveOutcome:
    """Run an external LP solver on the standard-form instance.

    The instance is written as MPS, `{mps}` in the command template is
    replaced by its path, and objective/status are scraped from the solver's
    combined output with the given regular expressions (None selects the
    defaults). Wall time covers the subprocess only; MPS serialization is
    timed separately.
    """
    argv = command_argv(command_template)
    objective_pattern = objective_pattern or DEFAULT_OBJECTIVE_PATTERN
    status_patterns = status_patterns or DEFAULT_STATUS_PATTERNS
    solver_name = f"external({argv[0]})"

    with tempfile.TemporaryDirectory(prefix="qipm_bounds_") as tmp:
        dirpath = Path(tmp)
        t_ser = time.perf_counter()
        mps_path = dirpath / "instance.mps"
        mps_path.write_text(emit_mps(standard_to_general(std)))
        serialize_time = time.perf_counter() - t_ser

        cmd = [arg.replace("{mps}", str(mps_path)) for arg in argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, cwd=dirpath)
        except subprocess.TimeoutExpired:
            return SolveOutcome(
                status="error", wall_time=time.perf_counter() - t0,
                solver=solver_name, serialize_time=serialize_time,
                message=f"solver timed out after {timeout} s")
        except OSError as exc:
            return SolveOutcome(
                status="error", wall_time=time.perf_counter() - t0,
                solver=solver_name, serialize_time=serialize_time,
                message=f"failed to launch solver: {exc}")
        wall = time.perf_counter() - t0
        output = proc.stdout + ("\n" + proc.stderr if proc.stderr else "")
        if proc.returncode != 0:
            return SolveOutcome(
                status="error", wall_time=wall, solver=solver_name,
                serialize_time=serialize_time, captured_output=output,
                message=f"solver exited with code {proc.returncode}")
        status = "error"
        for name in ("infeasible", "unbounded", "optimal"):
            pat = status_patterns.get(name)
            if pat and re.search(pat, output):
                status = name
        obj_match = re.search(objective_pattern, output)
        objective = float("nan")
        if obj_match:
            objective = float(obj_match.group(1))
            if status == "error":
                status = "optimal"
        elif status == "optimal":
            return SolveOutcome(
                status="error", wall_time=wall, solver=solver_name,
                serialize_time=serialize_time, captured_output=output,
                message="could not parse objective value from solver output")
        return SolveOutcome(
            status=status, objective=objective, wall_time=wall,
            solver=solver_name, serialize_time=serialize_time,
            captured_output=output)
