"""In-memory spans around the library's public functions.

The library is treated as a black box: wrappers are installed from here on
the module attributes where each caller looks the name up, so no library
file changes. Spans (name, start, end, parent) stay in memory until the run
ends; `layer_metrics` turns them into the per-layer metrics.

`import qipm_bounds.standardize` yields the re-exported *function*, so the
modules are taken from `sys.modules`.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from checks import has_verdict

# (module, attribute, span name). Each attribute is patched on the module
# whose globals its caller reads: the harness calls parse_mps, standardize,
# select_basis, the operator builders, the kappa bounds and the classical
# solver through its own namespace; the kappa bounds call the sigma
# estimators through `spectral`; `standardize` calls its three stages
# through its own module; qcost functions are read as `qcost.<name>`.
WRAPPED = (
    ("harness", "analyze_instance", "harness.analyze_instance"),
    ("harness", "run_suite", "harness.run_suite"),
    ("harness", "exclusion_curve", "harness.exclusion_curve"),
    ("harness", "parse_mps", "lp_model.parse_mps"),
    ("harness", "standardize", "standardize.standardize"),
    ("standardize", "presolve", "standardize.presolve"),
    ("standardize", "to_standard_form", "standardize.to_standard_form"),
    ("standardize", "ensure_full_row_rank", "standardize.rank_repair"),
    ("harness", "select_basis", "newton.select_basis"),
    ("harness", "build_fbar", "newton.build_fbar"),
    ("harness", "build_oss", "newton.build_oss"),
    ("harness", "kappa_lower_mnes", "spectral.kappa_lower.mnes"),
    ("harness", "kappa_lower_oss", "spectral.kappa_lower.oss"),
    ("spectral", "sigma_max_lower", "spectral.sigma_max"),
    ("spectral", "sigma_min_upper", "spectral.sigma_min"),
    ("qcost", "duration_grid", "qcost.duration_grid"),
    ("qcost", "hermitian_dilation_params", "qcost.hermitian_dilation"),
    ("qcost", "qlsa_query_count", "qcost.qlsa_query_count"),
    ("qcost", "total_quantum_cycles", "qcost.total_quantum_cycles"),
    ("harness", "solve_internal_ipm", "classical.solve_internal_ipm"),
    ("report", "emit_report", "report.emit_report"),
)

_SUITE_ONLY = {"harness.run_suite", "harness.exclusion_curve",
               "report.emit_report"}
_ALL_SPANS = {span for _, _, span in WRAPPED}
# every span must fire on the workload meant to exercise it; a renamed
# library function then shows up as a missing span instead of a zero
EXPECTED_SPANS = {
    "slack": (_ALL_SPANS - _SUITE_ONLY) | {"spectral.matvec"},
    "flow": _ALL_SPANS | {"spectral.matvec"},
    "survey": _ALL_SPANS | {"spectral.matvec"},
}
_SIGMA_SPANS = ("spectral.sigma_max", "spectral.sigma_min")


def _module(name: str):
    return sys.modules[f"qipm_bounds.{name}"]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans of a single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.krylov_matvecs = 0
        self.sample_matvecs = 0
        self._originals: list = []
        self._in_matvec = False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(span_name)
            try:
                out = fn(*args, **kwargs)
                _annotate(span, args, kwargs, out)
                return out
            finally:
                self._close(span)
        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def wrapper(op, v):
            # the OSS operator applies the null-space operator inside its own
            # matvec: only the outermost apply counts
            if self._in_matvec or self._current() not in _SIGMA_SPANS:
                return fn(op, v)
            # a vector is one Krylov matvec, a block is one per column
            if np.ndim(v) == 1:
                self.krylov_matvecs += 1
            else:
                self.sample_matvecs += np.shape(v)[1]
            self._in_matvec = True
            try:
                return fn(op, v)
            finally:
                self._in_matvec = False
        return wrapper

    def install(self) -> None:
        """Patch every wrapped name. A missing name raises AttributeError
        before anything is patched."""
        op_cls = _module("newton").NewtonOperator
        targets = [(_module(module), attr, span)
                   for module, attr, span in WRAPPED]
        targets += [(op_cls, "apply", None), (op_cls, "apply_transpose", None)]
        self._originals = [(owner, attr, getattr(owner, attr))
                           for owner, attr, _ in targets]
        for (owner, attr, span), (_, _, fn) in zip(targets, self._originals):
            setattr(owner, attr,
                    self._wrap(fn, span) if span else self._count(fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    def fired(self) -> set[str]:
        names = {s.name for s in self.spans}
        if self.krylov_matvecs + self.sample_matvecs:
            names.add("spectral.matvec")
        return names


def _annotate(span: Span, args, kwargs, out) -> None:
    """Keep the few call facts the layer metrics need (successful calls
    only; a call that raised contributes its time but no facts)."""
    name = span.name
    if name == "lp_model.parse_mps":
        span.attrs["bytes"] = len(args[0].encode())
    elif name == "standardize.rank_repair":
        std = args[0]
        span.attrs["dense_bytes"] = std.m * std.n * 8
        span.attrs["rows_dropped"] = std.m - out.m
    elif name == "spectral.sigma_min":
        span.attrs["method"] = out[1]
        span.attrs["timeout"] = kwargs.get(
            "timeout", _module("spectral").DEFAULT_TIMEOUT)
    elif name == "classical.solve_internal_ipm":
        span.attrs["iterations"] = out.iterations
        span.attrs["status"] = out.status
    elif name == "report.emit_report":
        span.attrs["bytes"] = sum(p.stat().st_size for p in out)


def layer_metrics(tracer: Tracer, records) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times are span self times)."""
    spans = tracer.spans

    def self_s(*names):
        return sum(s.self_time for s in spans if s.name in names)

    def of(name):
        return [s for s in spans if s.name == name]

    def formulation_of(span: Span) -> str:
        parent = spans[span.parent].name if span.parent is not None else ""
        return parent.rsplit(".", 1)[-1]

    parse_s = self_s("lp_model.parse_mps")
    parse_bytes = sum(s.attrs.get("bytes", 0)
                      for s in of("lp_model.parse_mps"))
    repairs = of("standardize.rank_repair")
    sigma_min = of("spectral.sigma_min")
    labelled = [s for s in sigma_min
                if s.attrs.get("method", "rank_deficiency_exact")
                != "rank_deficiency_exact"]
    qcost = [s for s in spans if s.name.startswith("qcost.")]
    solves = of("classical.solve_internal_ipm")
    solve_s = self_s("classical.solve_internal_ipm")
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    t_crit = [r.classical.wall_time / f.total_cycles * 1e12
              for r in records if has_verdict(r)
              for f in r.formulations.values() if f.total_cycles > 0]

    metrics = {
        "lp_model.parse_s": parse_s,
        "lp_model.parse_mb_per_s": parse_bytes / 1e6 / parse_s
        if parse_s else 0.0,
        "standardize.presolve_s": self_s("standardize.presolve"),
        "standardize.to_standard_form_s": self_s(
            "standardize.to_standard_form"),
        "standardize.rank_repair_s": self_s("standardize.rank_repair"),
        "standardize.rows_dropped": sum(s.attrs.get("rows_dropped", 0)
                                        for s in repairs),
        "standardize.dense_bytes": max((s.attrs.get("dense_bytes", 0)
                                        for s in repairs), default=0),
        "newton.select_basis_s": self_s("newton.select_basis"),
        "newton.build_s": self_s("newton.build_fbar", "newton.build_oss"),
    }
    for kind in _SIGMA_SPANS:
        for formulation in ("mnes", "oss"):
            metrics[f"{kind}_s.{formulation}"] = sum(
                s.self_time for s in of(kind)
                if formulation_of(s) == formulation)
    metrics.update({
        "spectral.krylov_matvecs": tracer.krylov_matvecs,
        "spectral.sample_matvecs": tracer.sample_matvecs,
        "spectral.fallback_frac": sum(
            s.attrs["method"] == "random_sampling" for s in labelled)
        / len(labelled) if labelled else 0.0,
        "spectral.timeouts": sum(
            s.duration >= s.attrs.get("timeout", float("inf"))
            for s in sigma_min),
        "qcost.s": sum(s.self_time for s in qcost),
        "qcost.calls": len(qcost),
        "classical.solve_s": solve_s,
        "classical.iterations": iterations,
        "classical.s_per_iter": solve_s / iterations if iterations else 0.0,
        "classical.breakdowns": sum(s.attrs.get("status") == "error"
                                    for s in solves),
        "harness.self_s": self_s("harness.analyze_instance",
                                 "harness.run_suite"),
        "harness.exclusion_curve_s": self_s("harness.exclusion_curve"),
        "harness.t_crit_ps": statistics.median(t_crit) if t_crit else 0.0,
        "report.emit_s": self_s("report.emit_report"),
        "report.bytes": sum(s.attrs.get("bytes", 0)
                            for s in of("report.emit_report")),
    })
    return metrics


def self_time_total(tracer: Tracer) -> float:
    return sum(s.self_time for s in tracer.spans)
