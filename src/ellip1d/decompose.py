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

Each method turns the assembled load of the data into element fluxes F once
(fem.load_flux, one reverse cumsum), and every solve is one flux sweep
(fem.flux_sweep, one forward cumsum from the boundary value): slope w_e F_e
on element e for a per-element weight w_e. u_0 is the sweep of F with
weight 1, and U_M = sum_{j<=M} u_j is the sweep of the same F with weight
Q_e(G_M), the element's Gauss mean of the series. In P1 every u_m' is
constant per element, so Gauss assembly of the chain sees psi only through
the element moments mu_{j,e}, the Gauss mean over element e of psi^j / j!:
term m is the sweep with weight 1 of its recursion flux

    c_{m,e} = - sum_{j=1}^{m} mu_{j,e} u_{m-j,e}',

so the recursion takes each correction's slope u_j' = c_j from the flux it
swept, not from its nodal values; only u_0' is read off u_0's nodes. It
computes each mu_j once and builds each term's flux once, so it remains a
chain of M + 1 solves. The cost model is unchanged: M + 1 versus 2 solves
and M versus 1 right-hand-side assemblies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fem import (
    NodalFunction,
    QuadratureRule,
    assemble_load,
    build_mesh,
    flux_sweep,
    load_flux,
)
from .problems import (
    Problem,
    ScalarField,
    flux_weighted_antiderivative,
    g_m,
    psi_of,
    series_partial_sums,
)

__all__ = [
    "Method",
    "DecompositionResult",
    "solve_u0",
    "solve_original",
    "solve_improved",
    "solve_improved_orders",
    "truncated_sum",
    "semi_analytic_U_M",
]


class Method(enum.Enum):
    ORIGINAL = "original"
    IMPROVED = "improved"
    DIRECT = "direct"


@dataclass(frozen=True)
class DecompositionResult:
    """Output of one decomposition run, with honest cost counters.

    solve_count counts fem.flux_sweep calls (each is one back-substitution
    in the cost model); assembly_count counts the right-hand sides built
    from psi (the recursive method builds one flux per correction term, the
    two-solve method exactly one series weight); factorization_count counts
    the one fem.load_flux pass that turns the load into the element fluxes
    all sweeps start from.
    """

    u0: NodalFunction
    U_M: NodalFunction
    terms: tuple[NodalFunction, ...] | None
    solve_count: int
    assembly_count: int
    factorization_count: int


def _u0_and_flux(
    problem: Problem, n_elems: int, rule: QuadratureRule
) -> tuple[NodalFunction, np.ndarray]:
    """u_0 and the element fluxes F of the data it is swept from."""
    mesh = build_mesh(problem.length, n_elems)
    flux = load_flux(assemble_load(mesh, problem.f, rule, beta=problem.beta))
    return flux_sweep(mesh, flux, 1.0, problem.alpha), flux


def solve_u0(problem: Problem, n_elems: int, rule: QuadratureRule) -> NodalFunction:
    """Galerkin solution of the unit-coefficient problem with the same data."""
    return _u0_and_flux(problem, n_elems, rule)[0]


def solve_original(
    problem: Problem, n_elems: int, truncation: int, rule: QuadratureRule
) -> DecompositionResult:
    """Recursive decomposition: one solve per term u_1 ... u_M.

    With mu_j the per-element Gauss mean of psi^j / j!, term m is the sweep
    with weight 1 of the element flux c_m = -sum_{j=1}^{m} mu_j u_{m-j}',
    built once from the slopes of the terms before it; each correction's
    slope is the flux it was swept from, not a difference of nodal values.
    The flux terms of the corrections are natural in the weak form and
    cancel, so no boundary assembly happens beyond the -beta term in the u_0
    load. truncation = 0 degenerates to the plain u_0 solve.
    """
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    u0, _ = _u0_and_flux(problem, n_elems, rule)
    psi_vals = psi_of(problem.kappa)(u0.mesh.element_points(rule))
    power = np.ones_like(psi_vals)  # psi^j / j! at the quadrature points
    moments: list[np.ndarray] = []  # mu_1 ... mu_m
    slopes = [u0.derivative_values()]  # u_0' ... u_{m-1}'
    terms: list[NodalFunction] = []
    for m in range(1, truncation + 1):
        power = power * psi_vals / m
        moments.append(power @ rule.weights)
        flux = np.zeros(n_elems)
        for mu, slope in zip(moments, reversed(slopes)):  # mu_j u_{m-j}', j = 1..m
            flux -= mu * slope
        terms.append(flux_sweep(u0.mesh, flux, 1.0, 0.0))
        slopes.append(flux)  # a sweep with weight 1 has slope flux

    return DecompositionResult(
        u0=u0,
        U_M=truncated_sum(u0, terms),
        terms=tuple(terms),
        solve_count=truncation + 1,
        assembly_count=truncation,
        factorization_count=1,
    )


def truncated_sum(u0: NodalFunction, terms) -> NodalFunction:
    """u_0 plus the given correction terms, added in order.

    A run to order M and the first m terms of a longer run give the same
    U_m bit for bit, since term m never depends on later terms.
    """
    return NodalFunction(u0.mesh, u0.values + np.sum([t.values for t in terms], axis=0))


def solve_improved_orders(
    problem: Problem, n_elems: int, truncations, rule: QuadratureRule
) -> tuple[NodalFunction, list[NodalFunction]]:
    """u_0 and the two-solve U_M for every M in truncations, in that order.

    psi is evaluated at the quadrature points once and G_M is read off one
    pass of the series recurrence; each distinct M then costs one series
    weight Q_e(G_M) and one sweep of u_0's fluxes. Every U_M is
    bit-identical to a run of its order alone.
    """
    if min(truncations) < 1:
        raise ValueError(f"truncation order must be >= 1, got {min(truncations)}")
    u0, flux = _u0_and_flux(problem, n_elems, rule)
    psi_vals = psi_of(problem.kappa)(u0.mesh.element_points(rule))
    series = series_partial_sums(psi_vals, truncations)
    totals = {
        m: flux_sweep(u0.mesh, flux, g @ rule.weights, problem.alpha)
        for m, g in series.items()
    }
    return u0, [totals[m] for m in truncations]


def solve_improved(
    problem: Problem, n_elems: int, truncation: int, rule: QuadratureRule
) -> DecompositionResult:
    """Two-solve decomposition: u_0, then U_M against the series weight G_M."""
    u0, (total,) = solve_improved_orders(problem, n_elems, [truncation], rule)
    return DecompositionResult(
        u0=u0,
        U_M=total,
        terms=None,
        solve_count=2,
        assembly_count=1,
        factorization_count=1,
    )


def semi_analytic_U_M(problem: Problem, truncation: int, tol: float) -> ScalarField:
    """Mesh-free value of the truncated approximation, for oracle use.

    U_M(x) = alpha + int_0^x G_M(s) u_0'(s) ds with u_0'(s) = -beta +
    int_s^L f, built as two Chebyshev antiderivatives resolved to rounding
    level; tol must be positive but does not limit the accuracy. Both
    discrete methods converge to this field as the mesh is refined.
    """
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    series = g_m(psi_of(problem.kappa), truncation)
    return flux_weighted_antiderivative(
        problem, series, f"order-{truncation} truncated approximation of {problem.name}"
    )
