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

Like the direct method, each method reads its data through fem.data_flux
(the element fluxes F of the assembled load) and psi as the log of
fem.kappa_blocks' checked values of kappa. Every solve is one flux sweep
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

from .fem import NodalFunction, QuadratureRule, data_flux, flux_sweep, kappa_blocks, sweep_rows
from .problems import (
    Problem,
    ScalarField,
    exp_series_terms,
    flux_weighted_antiderivative,
    g_m,
    psi_of,
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

    solve_count counts flux sweeps, fem.flux_sweep calls or rows of one
    fem.sweep_rows call (each is one back-substitution in the cost model);
    assembly_count counts the right-hand sides built from psi (the recursive
    method builds one flux per correction term, the two-solve method exactly
    one series weight); factorization_count counts the one fem.load_flux
    pass that turns the load into the element fluxes all sweeps start from.
    """

    u0: NodalFunction
    U_M: NodalFunction
    terms: tuple[NodalFunction, ...] | None
    solve_count: int
    assembly_count: int
    factorization_count: int


def solve_u0(problem: Problem, n_elems: int, rule: QuadratureRule) -> NodalFunction:
    """Galerkin solution of the unit-coefficient problem with the same data."""
    mesh, flux = data_flux(problem, n_elems, rule)
    return flux_sweep(mesh, flux, 1.0, problem.alpha)


def solve_original(
    problem: Problem, n_elems: int, truncation: int, rule: QuadratureRule
) -> DecompositionResult:
    """Recursive decomposition: one solve per term u_1 ... u_M.

    With mu_j the per-element Gauss mean of psi^j / j!, term m is the sweep
    with weight 1 of the element flux c_m = -sum_{j=1}^{m} mu_j u_{m-j}',
    built once from the slopes of the terms before it; each correction's
    slope is the flux it was swept from, not a difference of nodal values.
    The M terms are the rows of one (M, N + 1) array: the recursion writes
    each c_m into its row, and one fem.sweep_rows call sweeps every row in
    place. The returned terms are views of those rows. The flux terms of
    the corrections are natural in the weak form and cancel, so no boundary
    assembly happens beyond the -beta term in the u_0 load. truncation = 0
    degenerates to the plain u_0 solve.
    """
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    mesh, flux = data_flux(problem, n_elems, rule)
    u0 = flux_sweep(mesh, flux, 1.0, problem.alpha)
    u0_slope = u0.derivative_values()
    # row m - 1: term u_m, with u_m(0) = 0 in column 0; columns 1..N first hold
    # the flux c_m it is swept from, which is also its slope u_m'
    values = np.zeros((truncation, n_elems + 1))
    for elems, kvals in kappa_blocks(mesh, problem.kappa, rule):
        # slopes[j] is u_j' on the block
        slopes = [u0_slope[elems], *values[:, elems.start + 1:elems.stop + 1]]
        # psi^j / j! at the block's quadrature points; mu_j needs them from j = 1 on
        powers = exp_series_terms(np.log(kvals))
        next(powers)
        moments: list[np.ndarray] = []  # mu_1 ... mu_m on the block
        for m in range(1, truncation + 1):
            moments.append(next(powers) @ rule.weights)
            flux = slopes[m]
            for mu, slope in zip(moments, slopes[m - 1::-1]):  # mu_j u_{m-j}'
                flux -= mu * slope
    # a sweep with weight 1 has slope flux
    terms = [NodalFunction(mesh, row) for row in sweep_rows(values, mesh.h)]

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
    total = np.zeros(len(u0.values))
    for t in terms:
        total += t.values
    return NodalFunction(u0.mesh, u0.values + total)


def solve_improved_orders(
    problem: Problem, n_elems: int, truncations, rule: QuadratureRule
) -> tuple[NodalFunction, list[NodalFunction]]:
    """u_0 and the two-solve U_M for every M in truncations, in that order.

    psi = log kappa is taken at the quadrature points once, one element block
    at a time (fem.kappa_blocks), and one running sum of exp_series_terms(-psi)
    from 0.0 passes through every G_M of the block, adding as g_m does; each
    distinct M then costs one series weight Q_e(G_M) and one sweep of u_0's
    fluxes. Every U_M is bit-identical to a run of its order alone.
    """
    if min(truncations) < 1:
        raise ValueError(f"truncation order must be >= 1, got {min(truncations)}")
    mesh, flux = data_flux(problem, n_elems, rule)
    weights = {m: np.empty(n_elems) for m in truncations}  # Q_e(G_M) for every order M
    for elems, kvals in kappa_blocks(mesh, problem.kappa, rule):
        series = exp_series_terms(-np.log(kvals))
        g = 0.0  # G_j at the block's quadrature points once term j is added
        for j in range(max(weights) + 1):
            g = g + next(series)
            if j in weights:
                weights[j][elems] = g @ rule.weights
    totals = {m: flux_sweep(mesh, flux, w, problem.alpha) for m, w in weights.items()}
    return flux_sweep(mesh, flux, 1.0, problem.alpha), [totals[m] for m in truncations]


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
