"""End-to-end per-instance analysis, suite aggregation and exclusion curves.

For each MPS file: parse -> presolve -> standard form -> rank repair ->
basis -> MNES and OSS operators at the all-ones iterate -> structural
sparsity and condition-number lower bounds -> query/cycle lower bounds
(tomography dimension m for the MNES, n for the OSS) -> classical solve ->
exclusion flags over a cycle-duration grid, all read, like the curves and
the report's `threshold_duration`, from one exact threshold per formulation
(`InstanceRecord.exclusion_threshold`). Everything from the basis through
the cycle counts is a function of the standard-form A and the config alone:
the spectral seed derives from the suite seed and `std.A.digest()`, the
matrix's one identity, so `run_suite` analyzes each distinct matrix once,
keyed on that digest, and its other instances share those results exactly.
`analyze_instance` holds the one per-instance guard: a failure in any
stage sets the record's status to "error" and keeps what the earlier stages
filled in, so `analyze` and `suite` record the same fault the same way.
Inside it, `_analyze_basis` gives each formulation its own guard, so one
formulation's failure leaves the other's result; MNES hands its F and
sigma_max(F) to OSS, which bounds the same F, unless MNES failed.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

from . import qcost
from .classical import SolveOutcome, solve_internal_ipm
from .lp_model import parse_mps
from .newton import build_fbar, build_oss, canonical_iterate, select_basis
from .spectral import (DEFAULT_SAMPLES, DEFAULT_TIMEOUT, kappa_lower_mnes,
                       kappa_lower_oss, sparsity_mnes, sparsity_oss)
from .standardize import standardize

FORMULATIONS = ("mnes", "oss")


@dataclass
class AnalysisConfig:
    """Knobs of the per-instance pipeline; defaults match the harness CLI."""
    # beta_mu = beta * (x's / n) at the build iterate; a constant, not a
    # field, because it reaches only the OSS rhs, which no record reads
    beta: ClassVar[float] = 0.5
    seed: int = 0
    # bounds the sigma_min iteration, including the lazy NES factorization
    # of its inverse operator; sigma_max_lower runs outside it
    sigma_min_timeout: float = DEFAULT_TIMEOUT
    sigma_min_samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        # types are strings (postponed annotations); a bool is no count
        # and no float, though isinstance(True, int) holds, and an int is
        # a float too
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            allowed = (int, float) if f.type == "float" else int
            if isinstance(value, bool) or not isinstance(value, allowed):
                article = "an" if f.type == "int" else "a"
                raise ValueError(
                    f"{f.name} must be {article} {f.type}, not {value!r}")
        if math.isnan(self.sigma_min_timeout):
            raise ValueError("sigma_min_timeout must not be NaN")
        if self.sigma_min_timeout <= 0 and self.sigma_min_samples < 1:
            raise ValueError("sigma_min_samples must be at least 1 when "
                             "sigma_min_timeout <= 0 selects sampling")

    def config_hash(self) -> str:
        payload = dataclasses.asdict(self)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]


def _hardware() -> str:
    """System, release and machine, as in platform.platform(). Both that
    and platform.processor() read the processor field, which on Linux runs
    `uname -p` as a subprocess; platform.uname() leaves it unread."""
    u = platform.uname()
    return f"{u.system}-{u.release}-{u.machine}"


@dataclass
class FormulationResult:
    """Quantum-side analysis of one Newton-system formulation."""
    formulation: str
    d: int = 0
    dilated_dim: int = 0
    sparsity: int = 0
    kappa_lower: float = 0.0
    gamma: float = 0.0
    sigma_max_lb: float = 0.0
    sigma_min_ub: float = 0.0
    sigma_min_method: str = ""
    degenerate: bool = False
    query_count: int = 0
    total_cycles: int = 0
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class InstanceRecord:
    name: str
    family: str
    path: str = ""
    status: str = "ok"  # ok | error
    error: str | None = None
    m: int = 0
    n: int = 0
    # the spectral seed the estimates used: the first 8 bytes (big-endian)
    # of SHA-256 over f"{cfg.seed}:" and the standard-form A.digest(); 0
    # without a standard form
    seed: int = 0
    config_hash: str = ""
    timestamp: str = ""
    hardware: str = ""
    presolve_log_size: int = 0
    warnings: list[str] = field(default_factory=list)
    formulations: dict[str, FormulationResult] = field(default_factory=dict)
    classical: SolveOutcome | None = None
    exclusion: dict[str, list[bool]] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def exclusion_threshold(self, formulation: str) -> Fraction | float | None:
        """Exact tau = wall time / total_cycles, so that the exclusion flag
        total_cycles * t < wall time at t > 0 is t < tau; inf when zero
        cycles meet a positive wall time, 0 when both are zero. None when
        either side is unavailable; an unconverged classical run has no
        legitimate solve time to compare against."""
        f = self.formulations.get(formulation)
        if f is None or not f.ok or self.classical is None or \
                self.classical.status != "optimal":
            return None
        wall, cycles = Fraction(self.classical.wall_time), f.total_cycles
        return wall / cycles if cycles else (
            math.inf if wall > 0 else Fraction(0))

    def quantum_lb_below_classical(self, formulation: str,
                                   duration: float) -> bool | None:
        """Exact flag total_cycles * duration < classical wall time for
        duration > 0; None exactly when exclusion_threshold is."""
        tau = self.exclusion_threshold(formulation)
        return None if tau is None else qcost.to_fraction(duration) < tau


@dataclass
class SuiteReport:
    records: list[InstanceRecord]
    duration_grid: list[float]
    reference_marker: float
    curves: dict[str, dict[str, list[float]]]  # family -> formulation -> fracs
    curve_counts: dict[str, dict[str, list[list[int]]]]
    excluded: dict[str, int]
    config: dict
    metadata: dict
    warnings: list[str] = field(default_factory=list)


def _analyze_basis(std, basis, cfg: AnalysisConfig, seed: int,
                   stages: dict[str, float]) -> dict[str, FormulationResult]:
    """Both formulations on one basis at the all-ones iterate, each under
    its own guard and stage key. OSS takes MNES's F, with its lazy
    factorization, and MNES's sigma_max(F), the same Lanczos on the same F
    at the same seed; it builds F, or runs that Lanczos, itself when MNES
    failed first."""
    it = canonical_iterate(std.m, std.n)
    opts = dict(timeout=cfg.sigma_min_timeout, seed=seed,
                n_samples=cfg.sigma_min_samples)
    results: dict[str, FormulationResult] = {}
    fbar = None
    for formulation in FORMULATIONS:
        t = time.perf_counter()
        result = results[formulation] = FormulationResult(formulation)
        try:
            if not std.m:
                raise ValueError("empty standard form: presolve removed "
                                 "every row, so there is no system to bound")
            if formulation == "mnes":
                fbar = build_fbar(basis, std.A, it)
                kb = kappa_lower_mnes(fbar, std.m, std.n, **opts)
                s, d = sparsity_mnes(std.m), std.m
            else:
                oss = build_oss(std, it, basis, it.default_beta_mu(cfg.beta),
                                fbar=fbar)
                mnes = results["mnes"]
                kb = kappa_lower_oss(oss, **opts, fbar_sigma_max=(
                    mnes.sigma_max_lb if mnes.ok else None))
                s, d = sparsity_oss(std.A, std.m, std.n, basis), std.n
            dilated, _, _ = qcost.hermitian_dilation_params(
                d, s, kb.kappa_lower, is_hermitian=(formulation == "mnes"))
            result.d = d
            result.dilated_dim = dilated
            result.sparsity = s
            result.kappa_lower = kb.kappa_lower
            result.gamma = s * kb.kappa_lower
            result.sigma_max_lb = kb.sigma_max_lb
            result.sigma_min_ub = kb.sigma_min_ub
            result.sigma_min_method = kb.sigma_min_method
            result.degenerate = d < 2
            gamma = s * qcost.to_fraction(kb.kappa_lower)
            result.query_count = qcost.qlsa_query_count(
                s, kb.kappa_lower, qcost.EPSILON)
            result.total_cycles = qcost.total_quantum_cycles(
                d, gamma, qcost.EPSILON)
        except Exception as exc:  # recorded, never aborts the suite
            result.failure = f"{type(exc).__name__}: {exc}"
        stages[formulation] = time.perf_counter() - t
    return results


def analyze_instance(path: str | Path, config: AnalysisConfig | None = None,
                     family: str = "misc", *,
                     _memo: dict | None = None) -> InstanceRecord:
    """Run the full pipeline on one MPS file; failures become record fields.

    `_memo` is run_suite's per-call map from `std.A.digest()` to the
    `_analyze_basis` results of the first instance with that matrix; a hit
    copies them and skips the basis."""
    cfg = config or AnalysisConfig()
    path = Path(path)
    record = InstanceRecord(
        name=path.stem, family=family, path=str(path),
        config_hash=cfg.config_hash(),
        timestamp=datetime.now(timezone.utc).isoformat(),
        hardware=_hardware())
    stages = record.stage_seconds

    t = time.perf_counter()
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        record.status = "error"
        record.error = f"unreadable file: {exc}"
        return record
    # each bound-side input is released once its stage is done, so none
    # is held through the classical solve, where peak memory rises last
    try:
        lp = parse_mps(text)
        del text
        record.warnings.extend(lp.warnings)
        stages["parse"] = time.perf_counter() - t

        t = time.perf_counter()
        std = standardize(lp)
        del lp
        record.m, record.n = std.m, std.n
        record.presolve_log_size = len(std.transform_log)
        stages["standardize"] = time.perf_counter() - t

        t = time.perf_counter()
        digest = std.A.digest()
        record.seed = int.from_bytes(hashlib.sha256(
            f"{cfg.seed}:".encode() + digest).digest()[:8], "big")
        shared = None if _memo is None else _memo.get(digest)
        basis = select_basis(std.A) if shared is None and std.m else None
        stages["basis"] = time.perf_counter() - t

        if shared is None:
            shared = _analyze_basis(std, basis, cfg, record.seed, stages)
            if _memo is not None:
                _memo[digest] = shared
        else:  # a memo hit spends no time in either formulation
            stages.update(dict.fromkeys(FORMULATIONS, 0.0))
        del basis
        record.formulations = {f: dataclasses.replace(result)
                               for f, result in shared.items()}

        # no collector pause lands in the classical time: the solve runs
        # with the collector off, as timeit runs the code it times
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            record.classical = solve_internal_ipm(std)
            if record.classical.status in ("optimal", "iteration_limit"):
                # report in the original LP's scale (sense and objective
                # constant)
                record.classical.objective = std.original_objective(
                    record.classical.objective)
            stages["classical"] = time.perf_counter() - t
        finally:
            if gc_was_enabled:
                gc.enable()

        # the grid ascends, so the flags t < tau are k Trues, then Falses
        grid = qcost.exact_grid(tuple(qcost.duration_grid()))
        for formulation in FORMULATIONS:
            tau = record.exclusion_threshold(formulation)
            if tau is not None:
                k = bisect.bisect_left(grid, tau)
                record.exclusion[formulation] = \
                    [True] * k + [False] * (len(grid) - k)
    except Exception as exc:  # the one guard: a failure costs one record
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def discover_instances(directory: str | Path) -> list[tuple[Path, str]]:
    """MPS files directly in `directory` (family "misc") and one level of
    per-family subdirectories (family = subdirectory name), sorted."""
    directory = Path(directory)
    found: list[tuple[Path, str]] = []
    for p in sorted(directory.glob("*.mps")):
        found.append((p, "misc"))
    for sub in sorted(d for d in directory.iterdir() if d.is_dir()):
        for p in sorted(sub.glob("*.mps")):
            found.append((p, sub.name))
    return found


def run_suite(directory: str | Path,
              config: AnalysisConfig | None = None) -> SuiteReport:
    """Analyze every MPS instance under `directory` and aggregate curves."""
    cfg = config or AnalysisConfig()
    t0 = time.perf_counter()
    instances = discover_instances(directory)
    warnings: list[str] = []
    if not instances:
        warnings.append(f"no MPS instances found under {directory}")

    # serial, so no classical solve shares the machine with another; the
    # name is read at call time, so a wrapper patched onto the module applies.
    # The config is fixed within the call, so A.digest() alone keys the
    # quantum-side results; the memo lives only as long as this call.
    memo: dict[bytes, dict[str, FormulationResult]] = {}
    records = [analyze_instance(str(p), cfg, fam, _memo=memo)
               for p, fam in instances]

    durations = qcost.duration_grid()
    curves, counts, excluded = exclusion_curve(records, durations)
    errored = sum(1 for r in records if r.status == "error")
    if errored:
        warnings.append(f"{errored} instance(s) errored and were excluded "
                        "from curve denominators")
    metadata = {
        "created": datetime.now(timezone.utc).isoformat(),
        "hardware": _hardware(),
        "python": platform.python_version(),
        "suite_seconds": time.perf_counter() - t0,
        "instances": len(records),
        "errored": errored,
        "distinct_matrices": len(memo),
    }
    return SuiteReport(
        records=records, duration_grid=durations,
        reference_marker=qcost.REFERENCE_CYCLE_DURATION, curves=curves,
        curve_counts=counts, excluded=excluded,
        config=dataclasses.asdict(cfg), metadata=metadata, warnings=warnings)


def exclusion_curve(records: list[InstanceRecord],
                    duration_grid: list[float]):
    """Per family and formulation: fraction of instances whose exclusion
    threshold lies above the duration, so that the quantum cycle lower bound
    still undercuts the classical time.

    Returns (curves, counts, excluded): curves map family -> formulation ->
    fractions per grid point; counts carry [below, total] pairs; excluded
    counts records without a threshold per family (errors, failed
    formulations or a classical run that is not optimal).
    """
    grid = qcost.exact_grid(tuple(duration_grid))
    curves: dict[str, dict[str, list[float]]] = {}
    counts: dict[str, dict[str, list[list[int]]]] = {}
    excluded: dict[str, int] = {}
    for fam in sorted({r.family for r in records}):
        fam_records = [r for r in records if r.family == fam]
        curves[fam], counts[fam] = {}, {}
        dropped: set[int] = set()  # record indices; names can repeat
        for formulation in FORMULATIONS:
            taus = [r.exclusion_threshold(formulation) for r in fam_records]
            dropped.update(i for i, tau in enumerate(taus) if tau is None)
            # the taus above t_ are those after bisect_right in sorted order
            taus = sorted(tau for tau in taus if tau is not None)
            pair_counts = [[len(taus) - bisect.bisect_right(taus, t_),
                            len(taus)] for t_ in grid]
            curves[fam][formulation] = [below / total if total else 0.0
                                        for below, total in pair_counts]
            counts[fam][formulation] = pair_counts
        excluded[fam] = len(dropped)
    return curves, counts, excluded
