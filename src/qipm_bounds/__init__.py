"""Quantum runtime lower bounds for hybrid interior point methods on LPs.

Build the MNES and OSS Newton systems of a hybrid quantum IPM at the
all-ones iterate, derive a rigorous lower bound on the quantum runtime from
sparsity, condition-number lower bounds and the Chebyshev-QLSA cost
formulas, and compare against measured classical solve times to decide
whether practical quantum advantage is excluded per instance.
"""

from .classical import SolveOutcome, solve_internal_ipm
from .harness import (AnalysisConfig, FormulationResult, InstanceRecord,
                      SuiteReport, analyze_instance, exclusion_curve,
                      run_suite)
from .lp_model import (GeneralLP, MpsParseError, SparseMatrix, StandardLP,
                       emit_mps, parse_mps)
from .newton import (BasisSelection, Iterate, NewtonOperator, NewtonStep,
                     RankDeficiencyError, build_fbar, build_mnes, build_nes,
                     build_oss, canonical_iterate, null_space_matrix,
                     recover_updates_mnes, recover_updates_nes,
                     recover_updates_oss, select_basis)
from .qcost import (duration_grid, hermitian_dilation_params,
                    qlsa_query_count, total_quantum_cycles)
from .report import emit_report
from .spectral import (KappaBound, NumericalError, kappa_lower_mnes,
                       kappa_lower_oss, sigma_max_lower, sigma_min_upper,
                       sparsity_mnes, sparsity_oss)
from .standardize import (InfeasibleProblem, UnboundedProblem,
                          ensure_full_row_rank, presolve, standardize,
                          to_standard_form)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "BasisSelection", "FormulationResult", "GeneralLP",
    "InfeasibleProblem", "InstanceRecord",
    "Iterate", "KappaBound", "MpsParseError", "NewtonOperator",
    "NewtonStep", "NumericalError", "RankDeficiencyError", "SolveOutcome",
    "SparseMatrix", "StandardLP",
    "SuiteReport", "UnboundedProblem", "analyze_instance", "build_fbar",
    "build_mnes", "build_nes", "build_oss", "canonical_iterate",
    "duration_grid", "emit_mps", "emit_report", "ensure_full_row_rank",
    "exclusion_curve", "hermitian_dilation_params",
    "kappa_lower_mnes", "kappa_lower_oss", "null_space_matrix", "parse_mps",
    "presolve", "qlsa_query_count", "recover_updates_mnes",
    "recover_updates_nes", "recover_updates_oss", "run_suite",
    "select_basis", "sigma_max_lower",
    "sigma_min_upper", "solve_internal_ipm", "sparsity_mnes",
    "sparsity_oss", "standardize", "to_standard_form", "total_quantum_cycles",
]
