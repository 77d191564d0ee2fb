"""Correctness checks run after the timed region of a pass.

- One-sidedness: every reported kappa_lower is at most the condition number
  of the dense Newton matrix (full SVD), on instances with n <= DENSE_MAX_N.
  The ratios also give `kappa_tightness`.
- Classical objective: every `optimal` record agrees with SciPy's HiGHS on
  the same standard form to OBJECTIVE_RTOL.

The standard form each instance was analyzed on is kept by `StdCapture`
(two pass-through wrappers, installed only in the pass that runs the
checks), since rebuilding it would repeat the slow rank repair.
"""

from __future__ import annotations

import hashlib
import json
import math

import sys

import numpy as np

from qipm_bounds import (AnalysisConfig, build_fbar, build_oss,
                         canonical_iterate, select_basis)

DENSE_MAX_N = 2000
OBJECTIVE_RTOL = 1e-6
# rounding allowance of the dense SVD itself; the library shaves sigma_max by
# 1e-12 relative, so a sound bound clears this by a wide margin
KAPPA_RTOL = 1e-10


def record_key(record) -> str:
    return f"{record.family}/{record.name}"


def has_verdict(record) -> bool:
    """Exclusion flags exist for both formulations (MNES and OSS)."""
    return len(record.exclusion) == 2


def digest(records) -> str:
    """Hash of statuses, kappas, methods and cycle counts of a pass."""
    rows = []
    for r in records:
        c = r.classical
        rows.append([
            record_key(r), r.status, r.error, r.m, r.n,
            c.status if c else None, c.iterations if c else None,
            [[f, repr(x.kappa_lower), x.total_cycles, x.sigma_min_method,
              x.failure] for f, x in sorted(r.formulations.items())]])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class StdCapture:
    """Keeps the StandardLP the harness built for each instance path."""

    def __init__(self):
        self.by_path: dict[str, object] = {}
        self._path = None

    def install(self) -> None:
        harness = sys.modules["qipm_bounds.harness"]
        analyze, standardize = harness.analyze_instance, harness.standardize

        def analyze_instance(path, *args, **kwargs):
            self._path = str(path)
            return analyze(path, *args, **kwargs)

        def keep(*args, **kwargs):
            std = standardize(*args, **kwargs)
            self.by_path[self._path] = std
            return std

        harness.analyze_instance, harness.standardize = analyze_instance, keep


def _dense_kappa(formulation: str, std, basis, it, beta_mu) -> float:
    m, n = std.m, std.n
    if formulation == "mnes":
        # M_hat = I + F F' has eigenvalues 1 + sigma_i(F)^2, plus 1 when
        # F has fewer columns than rows
        if n == m:
            return 1.0
        sv = np.linalg.svd(build_fbar(basis, std.A, it).to_dense(),
                           compute_uv=False)
        smin = sv[-1] if n - m >= m else 0.0
        return (1.0 + sv[0] ** 2) / (1.0 + smin ** 2)
    sv = np.linalg.svd(build_oss(std, it, basis, beta_mu).to_dense(),
                       compute_uv=False)
    return sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf


def _objective_error(record, std) -> str | None:
    from scipy.optimize import linprog  # not part of any pass's set-up

    res = linprog(std.c, A_eq=std.A.tocsr(), b_eq=std.b, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        return f"HiGHS found no optimum ({res.message}) for an optimal record"
    ref = std.original_objective(res.fun)
    got = record.classical.objective
    if abs(got - ref) > OBJECTIVE_RTOL * max(1.0, abs(ref)):
        return f"objective {got!r} differs from HiGHS {ref!r}"
    return None


def check_records(records, capture: StdCapture,
                  beta: float = AnalysisConfig.beta) -> dict:
    """Returns {"failures": {key: reason}, "log_ratios": [...]}."""
    failures: dict[str, str] = {}
    log_ratios: list[float] = []
    for r in records:
        if r.status != "ok":
            continue
        std = capture.by_path[r.path]
        problems = []
        if r.classical is not None and r.classical.status == "optimal":
            problems.append(_objective_error(r, std))
        if std.n <= DENSE_MAX_N:
            basis = select_basis(std.A)
            it = canonical_iterate(std.m, std.n)
            for f, res in sorted(r.formulations.items()):
                if not res.ok:
                    continue
                truth = _dense_kappa(f, std, basis, it,
                                     it.default_beta_mu(beta))
                if res.kappa_lower > truth * (1.0 + KAPPA_RTOL):
                    problems.append(f"{f} kappa_lower {res.kappa_lower!r} "
                                    f"exceeds dense kappa {truth!r}")
                log_ratios.append(math.log(res.kappa_lower / truth))
        problems = [p for p in problems if p]
        if problems:
            failures[record_key(r)] = "; ".join(problems)
    return {"failures": failures, "log_ratios": log_ratios}
