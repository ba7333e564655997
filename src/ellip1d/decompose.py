"""Series-decomposition solvers for the variable-coefficient problem.

Writing kappa = exp(psi) and expanding the solution as u = sum_j u_j turns
the variable-coefficient problem into a family of unit-coefficient problems:
u_0 carries the data (f, alpha, beta) and each correction u_m solves

    (u_m', v') = - sum_{j=1}^{m} (1/j!) (psi^j u_{m-j}', v'),   u_m(0) = 0.

The recursive method assembles and back-substitutes that chain term by term.
Because every term's derivative collapses to u_j' = (-psi)^j/j! u_0', the
whole truncated sum U_M = sum_{j<=M} u_j can instead be obtained from u_0 in
a single extra solve against the truncated reciprocal-coefficient series
G_M = sum_{j<=M} (-psi)^j/j!:

    (U_M', v') = (G_M u_0', v'),   U_M(0) = alpha.

Both paths share one unit-coefficient operator, whose element conductances
are set up once; each solve is one flux sweep (fem.flux_sweep), the discrete
flux identity. The work difference is M + 1 versus 2 solves and M versus 1
weighted-gradient load assemblies.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .fem import (
    Mesh,
    NodalFunction,
    QuadratureRule,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    flux_sweep,
    gradient_load_from_values,
)
from .problems import (
    Problem,
    ScalarField,
    constant_field,
    flux_weighted_antiderivative,
    g_m,
    psi_of,
)

__all__ = [
    "Method",
    "MethodConfig",
    "DecompositionResult",
    "solve_u0",
    "solve_original",
    "solve_improved",
    "term_gradient",
    "semi_analytic_U_M",
]


class Method(enum.Enum):
    ORIGINAL = "original"
    IMPROVED = "improved"
    DIRECT = "direct"


@dataclass(frozen=True)
class MethodConfig:
    """A fully specified run: method, truncation order, mesh and quadrature."""

    method: Method
    n_elems: int
    truncation: int = 0
    quad_points: int = 3

    def __post_init__(self):
        if self.n_elems < 1:
            raise ValueError(f"need at least one element, got {self.n_elems}")
        if self.truncation < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.truncation}")
        if self.method in (Method.ORIGINAL, Method.IMPROVED) and self.truncation < 1:
            raise ValueError(f"{self.method.value} method requires truncation >= 1")


@dataclass(frozen=True)
class DecompositionResult:
    """Output of one decomposition run, with honest cost counters.

    solve_count counts flux sweeps against the shared unit-coefficient
    operator (each is one back-substitution in the cost model);
    assembly_count counts weighted-gradient right-hand-side assemblies (the
    recursive method builds one per correction term, the two-solve method
    exactly one); factorization_count counts the one conductance setup that
    all sweeps share.
    """

    u0: NodalFunction
    U_M: NodalFunction
    terms: tuple[NodalFunction, ...] | None
    solve_count: int
    assembly_count: int
    factorization_count: int
    wall_time: float


class _UnitOperator:
    """Unit-coefficient stiffness operator, kept as its element conductances.

    Built once per mesh and shared by every solve; solve() is one flux sweep
    from u(0) = alpha, so any boundary value reuses the same conductances.
    """

    def __init__(self, mesh: Mesh, rule: QuadratureRule):
        self.mesh = mesh
        self.k = -assemble_stiffness(mesh, constant_field(1.0), rule).sub

    def solve(self, rhs: np.ndarray, alpha: float) -> NodalFunction:
        return flux_sweep(self.mesh, self.k, rhs, alpha)


def solve_u0(problem: Problem, n_elems: int, rule: QuadratureRule) -> NodalFunction:
    """Galerkin solution of the unit-coefficient problem with the same data."""
    mesh = build_mesh(problem.length, n_elems)
    op = _UnitOperator(mesh, rule)
    load = assemble_load(mesh, problem.f, rule, beta=problem.beta)
    return op.solve(load, problem.alpha)


def solve_original(
    problem: Problem, n_elems: int, truncation: int, rule: QuadratureRule
) -> DecompositionResult:
    """Recursive decomposition: one solve per term u_1 ... u_M.

    All subproblems share the unit-coefficient operator, set up once. The
    flux terms of the corrections are natural in the weak form and cancel,
    so no boundary assembly happens beyond the -beta term in the u_0 load.
    truncation = 0 degenerates to the plain u_0 solve.
    """
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    start = time.perf_counter()
    mesh = build_mesh(problem.length, n_elems)
    op = _UnitOperator(mesh, rule)
    load = assemble_load(mesh, problem.f, rule, beta=problem.beta)
    u0 = op.solve(load, problem.alpha)

    # psi at every quadrature point, reused by all weight powers
    psi_vals = psi_of(problem.kappa)(mesh.element_points(rule))

    solves = 1
    assemblies = 0
    terms: list[NodalFunction] = []
    weights = [np.ones_like(psi_vals)]  # psi^j / j!, grown on demand
    for m in range(1, truncation + 1):
        weights.append(weights[-1] * psi_vals / m)
        rhs = np.zeros(n_elems + 1)
        for j in range(1, m + 1):
            prior = terms[m - j - 1] if m - j >= 1 else u0
            rhs -= gradient_load_from_values(mesh, weights[j], prior, rule)
        assemblies += 1
        terms.append(op.solve(rhs, 0.0))
        solves += 1

    total = u0.values + np.sum([t.values for t in terms], axis=0)
    return DecompositionResult(
        u0=u0,
        U_M=NodalFunction(mesh, total),
        terms=tuple(terms),
        solve_count=solves,
        assembly_count=assemblies,
        factorization_count=1,
        wall_time=time.perf_counter() - start,
    )


def solve_improved(
    problem: Problem, n_elems: int, truncation: int, rule: QuadratureRule
) -> DecompositionResult:
    """Two-solve decomposition: u_0, then U_M against the series weight G_M."""
    if truncation < 1:
        raise ValueError(f"truncation order must be >= 1, got {truncation}")
    start = time.perf_counter()
    mesh = build_mesh(problem.length, n_elems)
    op = _UnitOperator(mesh, rule)
    load = assemble_load(mesh, problem.f, rule, beta=problem.beta)
    u0 = op.solve(load, problem.alpha)

    series = g_m(psi_of(problem.kappa), truncation)
    rhs = gradient_load_from_values(
        mesh, series(mesh.element_points(rule)), u0, rule
    )
    total = op.solve(rhs, problem.alpha)
    return DecompositionResult(
        u0=u0,
        U_M=total,
        terms=None,
        solve_count=2,
        assembly_count=1,
        factorization_count=1,
        wall_time=time.perf_counter() - start,
    )


def term_gradient(j: int, psi: ScalarField, u0_prime: ScalarField) -> ScalarField:
    """Derivative of the j-th expansion term: (-psi)^j / j! times u_0'."""
    if j < 0:
        raise ValueError(f"term index must be nonnegative, got {j}")
    if j == 0:
        return u0_prime

    def fn(x):
        p = np.broadcast_to(np.asarray(psi(x), dtype=float), x.shape)
        coeff = np.ones_like(p)
        for k in range(1, j + 1):
            coeff = coeff * (-p) / k
        return coeff * u0_prime(x)

    return ScalarField(fn, f"term-{j} gradient")


def semi_analytic_U_M(problem: Problem, truncation: int, tol: float) -> ScalarField:
    """Mesh-free value of the truncated approximation, for oracle use.

    U_M(x) = alpha + int_0^x G_M(s) u_0'(s) ds with u_0'(s) = -beta +
    int_s^L f, built as two Chebyshev antiderivatives resolved to rounding
    level; tol must be positive but does not limit the accuracy. Both
    discrete methods converge to this field as the mesh is refined.
    """
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    series = g_m(psi_of(problem.kappa), truncation)
    return flux_weighted_antiderivative(
        problem,
        series,
        tol,
        f"order-{truncation} truncated approximation of {problem.name}",
    )
