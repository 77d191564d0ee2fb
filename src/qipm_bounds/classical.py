"""Classical comparison runtime.

A built-in infeasible-start primal-dual path-following IPM (exact NES solves
by one sparse LU, `newton.factor_nes`, with a diagonal-shift retry on an
exactly singular factor) is the one classical baseline. A D^2 A' is
symmetric positive definite (A has full row rank after rank repair and
D > 0 at every iterate), so the LU runs in SuperLU's symmetric mode without
row interchanges: its fill stays that of the first iteration's ordering
however D spreads. Wall time is measured around the solve only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .lp_model import StandardLP
from .newton import (Iterate, build_nes, canonical_iterate, factor_nes,
                     recover_updates_nes)

# internal IPM: optimal at x's <= n * MU_TARGET with relative residuals below
# RESIDUAL_TOL; steps target CENTERING_BETA * mu, STEP_FRACTION to the boundary
MU_TARGET = 1e-8
RESIDUAL_TOL = 1e-8
CENTERING_BETA = 0.1
STEP_FRACTION = 0.99995
MAX_ITERATIONS = 200


@dataclass
class SolveOutcome:
    status: str  # optimal | unbounded | iteration_limit | error
    objective: float = float("nan")
    iterations: int = 0
    wall_time: float = 0.0
    solver: str = "internal_ipm"
    message: str = ""


def solve_internal_ipm(std: StandardLP) -> SolveOutcome:
    """Primal-dual path-following IPM from the all-ones start.

    Each iteration solves the normal equation system by one sparse
    symmetric-mode LU of A D^2 A' (retried once with a diagonal shift when
    the factor is exactly singular, which happens near the optimum),
    recovers the full Newton step, and advances by the fraction-to-boundary
    rule capped at a full step. Terminates when the duality gap and both
    feasibility residuals are below tolerance.
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
    k = 0  # steps taken; a breakdown also counts the step it broke in
    while True:
        # the iterate of the last allowed step is tested too
        gap = float(x @ s)
        rp = b - A @ x
        rd = c - A.T @ y - s
        if gap <= n * MU_TARGET and \
                np.linalg.norm(rp) <= RESIDUAL_TOL * (1.0 + norm_b) and \
                np.linalg.norm(rd) <= RESIDUAL_TOL * (1.0 + norm_c):
            status = "optimal"
            break
        if k == MAX_ITERATIONS:
            break
        k += 1
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
