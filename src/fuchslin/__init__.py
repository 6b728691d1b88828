"""Constructive linearization of differential systems with Fuchsian linear part.

The package computes, in exact rational or floating complex arithmetic:

* the paper's family of matrix-valued polynomials generated by iterated
  first-order operators (a Rodrigues-type construction), in which the
  polynomial correction problem becomes triangular,
* the unique polynomial correction phi (x-degree <= S) making a
  nonhomogeneous Fuchsian system with polynomial data solvable in
  polynomials, plus the solution, by a recursion or, as an analytic
  solution handle, from moment integrals along complex paths,
* order-by-order formal linearizations and normal forms of nonlinear
  perturbations u' = A(x)u + f(x, u)/Q, together with a check of the
  conjugacy identity each satisfies.
"""

from .exact import ExactComplex
from .matrices import CMatrix, ShapeError, SingularMatrixError
from .poly import MatPoly, VecPoly
from .model import (
    AssumptionError,
    FuchsianSystem,
    NonlinearSystem,
    check_linear_assumption,
    check_nonlinear_assumption,
)
from .pnspace import (
    PnBasis,
    conjugation_matrix,
    conjugation_spectrum,
    induced_system,
    multiindices,
    pn_dimension,
)
from .rodrigues import RodriguesFamily, shifted_system
from .correction import (
    CorrectionResult,
    ShiftStep,
    TaylorSolution,
    local_taylor,
    pull_back_correction,
    shift_up,
    solution_uniqueness_check,
    solve_polynomial,
)
from .analytic import (
    AnalyticSolutionHandle,
    CertificateReport,
    PathSpec,
    QuadratureError,
    ResonanceError,
    continue_w,
    default_path,
    frobenius_local,
    moments,
    rhs_moment,
    solve_analytic,
)
from .engine import (
    ConjugacyReport,
    ModeComparison,
    SeriesTable,
    compare_modes,
    compose_series,
    linearize,
    normal_form,
    verify_conjugacy,
)
from .document import SchemaError, SystemDocument, dumps_canonical

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolutionHandle",
    "AssumptionError",
    "CMatrix",
    "CertificateReport",
    "ConjugacyReport",
    "CorrectionResult",
    "ExactComplex",
    "FuchsianSystem",
    "MatPoly",
    "ModeComparison",
    "NonlinearSystem",
    "PathSpec",
    "PnBasis",
    "QuadratureError",
    "ResonanceError",
    "RodriguesFamily",
    "SchemaError",
    "SeriesTable",
    "ShapeError",
    "ShiftStep",
    "SingularMatrixError",
    "SystemDocument",
    "TaylorSolution",
    "VecPoly",
    "check_linear_assumption",
    "check_nonlinear_assumption",
    "compare_modes",
    "compose_series",
    "conjugation_matrix",
    "conjugation_spectrum",
    "continue_w",
    "default_path",
    "dumps_canonical",
    "frobenius_local",
    "induced_system",
    "linearize",
    "local_taylor",
    "moments",
    "multiindices",
    "normal_form",
    "pn_dimension",
    "pull_back_correction",
    "rhs_moment",
    "shift_up",
    "shifted_system",
    "solution_uniqueness_check",
    "solve_analytic",
    "solve_polynomial",
    "verify_conjugacy",
    "__version__",
]
