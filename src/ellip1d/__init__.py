"""1D elliptic boundary-value solver with series-decomposition methods.

The library solves -(kappa u')' = f on (0, L) with u(0) = alpha and
-kappa(L) u'(L) = beta three ways: direct P1 Galerkin with the true
coefficient, the recursive log-coefficient series decomposition (one solve
per term), and its two-solve reformulation that reaches the same truncated
approximation with a single extra back-substitution. Semi-analytic
flux-integral references, error norms, convergence-theory checks and a
benchmark harness support verifying both accuracy and cost claims.
"""

from .bench import BenchReport, MethodStats, run_benchmark
from .decompose import (
    DecompositionResult,
    Method,
    semi_analytic_U_M,
    solve_improved,
    solve_original,
    solve_u0,
)
from .fem import (
    AssemblyError,
    Mesh,
    NodalFunction,
    QuadratureRule,
    SingularSystemError,
    TridiagonalSystem,
    apply_dirichlet,
    assemble_gradient_load,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    fem_solve,
    flux_sweep,
    load_flux,
    solve_tridiagonal,
)
from .norms import (
    PSI_SUP_SAMPLES,
    BoundViolationError,
    ErrorReport,
    Reference,
    h1_seminorm,
    h1_seminorm_error,
    l2_error,
    observed_order,
    sup_norm,
    tail_bound,
    theorem_bound_check,
)
from .problems import (
    BUILTIN_IDS,
    AccuracyError,
    Problem,
    ScalarField,
    builtin_problem,
    constant_field,
    exact_solution_via_flux,
    g_m,
    psi_of,
)

__version__ = "0.1.0"
