"""Error norms and numeric checks of the series-convergence theory.

L2 and H1-seminorm errors are computed per element with Gauss quadrature
against an analytic (or semi-analytic) reference. field_errors, the scorer of
table, bench, solve and verify, samples a reference and its derivative once
per mesh and scores any number of nodal functions on it. fine_grid_errors is
its counterpart for a reference given as a nodal function on a nested finer
mesh (table's reference for problems without a closed form): it splits each
error at the coarse nodes, passes over the fine grid once per call and
costs O(N) per function. The theory checks
bound the continuous-level truncation error |u - U_M|_H1 by the
exponential-series tail

    ||psi||_inf^{M+1} / (M+1)! * exp(||psi||_inf) * |u_0|_H1

and evaluate both sides with the same Gauss rule as the error norms, the
truncation error in remainder form so that nothing cancels.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fem import Mesh, NodalFunction, QuadratureRule, build_mesh, element_blocks
from .problems import (PSI_SUP_SAMPLES, Problem, ScalarField, exp_series_terms, flux_field,
                       psi_of, series_remainders, sup_norm)

__all__ = [
    "Reference",
    "ErrorReport",
    "BoundViolationError",
    "ERROR_RULE",
    "field_errors",
    "fine_grid_errors",
    "fine_grid_l2_error",
    "fine_grid_h1_error",
    "l2_error",
    "h1_seminorm_error",
    "h1_seminorm",
    "sup_norm",
    "PSI_SUP_SAMPLES",
    "tail_bound",
    "theorem_bound_check",
    "observed_order",
]


class Reference(enum.Enum):
    CLOSED_FORM = "closed_form"
    FLUX_ORACLE = "flux_oracle"
    FINE_GRID = "fine_grid"


@dataclass(frozen=True)
class ErrorReport:
    """Error norms for one (problem, method, N, M) run."""

    problem: str
    method: str
    n_elems: int
    truncation: int
    l2_error: float
    h1_error: float
    reference: Reference

    def __post_init__(self):
        for label, value in (("l2", self.l2_error), ("h1", self.h1_error)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{label} error must be finite and >= 0, got {value}")


# 5-point Gauss rule the CLI and the benchmark score every error norm with
ERROR_RULE = QuadratureRule.gauss(5)


def _rms(diff: np.ndarray, h: float, rule: QuadratureRule) -> float:
    """sqrt(int diff^2) for diff sampled at every element's quadrature points."""
    return float(np.sqrt(h * np.sum((diff * diff) @ rule.weights)))


def field_errors(mesh: Mesh, functions, reference: ScalarField) -> list[tuple[float, float]]:
    """(L2, H1-seminorm) error of each nodal function on mesh against a reference.

    The reference and the field it carries as .derivative are sampled once,
    at mesh's ERROR_RULE points, for all the functions, one element block
    at a time (fem.element_blocks). Each block fills in the per-element
    squared errors, and each norm is one sum over all elements at the end. A
    caller that needs only the L2 values still pays for the one derivative
    evaluation.
    """
    if not all(v.mesh.same_as(mesh) for v in functions):
        raise ValueError(f"nodal functions must live on the {mesh.n_elems}-element mesh")
    w = ERROR_RULE.weights
    derivatives = [v.derivative_values() for v in functions]
    # squares[i] holds function i's per-element L2 and H1 integrands over h
    squares = np.empty((len(functions), 2, mesh.n_elems))
    for elems, pts in element_blocks(mesh, ERROR_RULE):
        values, slopes = reference(pts), reference.derivative(pts)
        for (l2, h1), v, d in zip(squares, functions, derivatives):
            diff = v.at_quadrature(ERROR_RULE, elems) - values
            l2[elems] = (diff * diff) @ w
            diff = d[elems, None] - slopes
            h1[elems] = (diff * diff) @ w
    return [(float(np.sqrt(mesh.h * np.sum(l2))), float(np.sqrt(mesh.h * np.sum(h1))))
            for l2, h1 in squares]


def l2_error(approx: NodalFunction, reference: ScalarField, rule: QuadratureRule) -> float:
    """L2 norm of approx - reference by per-element Gauss quadrature.

    Requires at least a 4-point rule so the reference is resolved inside
    elements rather than only at nodes.
    """
    if rule.n_points < 4:
        raise ValueError(f"error quadrature needs >= 4 points, got {rule.n_points}")
    diff = approx.at_quadrature(rule) - reference(approx.mesh.element_points(rule))
    return _rms(diff, approx.mesh.h, rule)


def h1_seminorm_error(
    approx: NodalFunction, reference_derivative: ScalarField, rule: QuadratureRule
) -> float:
    """L2 norm of approx' - reference_derivative, approx' piecewise constant."""
    pts = approx.mesh.element_points(rule)
    diff = approx.derivative_values()[:, None] - reference_derivative(pts)
    return _rms(diff, approx.mesh.h, rule)


def h1_seminorm(v: NodalFunction) -> float:
    """Exact H1 seminorm of a piecewise-linear function."""
    return float(np.sqrt(np.sum(np.diff(v.values) ** 2) / v.mesh.h))


def tail_bound(psi_sup: float, truncation: int) -> float:
    """Series-tail bound psi_sup^(M+1) / (M+1)! * exp(psi_sup), from exp_series_terms."""
    if psi_sup < 0:
        raise ValueError(f"sup norm cannot be negative, got {psi_sup}")
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    term = next(itertools.islice(exp_series_terms(psi_sup), truncation + 1, None))
    return term * math.exp(psi_sup)


class BoundViolationError(AssertionError):
    """The measured truncation error exceeded its theoretical bound."""

    def __init__(self, violations):
        self.violations = violations
        lines = ", ".join(
            f"(M={m}, error={e:.6e}, bound={b:.6e})" for m, e, b in violations
        )
        super().__init__(f"truncation-error bound violated: {lines}")


# elements of the mesh whose ERROR_RULE points sample the theorem-bound integrands
THEOREM_ELEMS = 2**10


def theorem_bound_check(
    problem: Problem, max_truncation: int
) -> list[tuple[int, float, float]]:
    """Check |u - U_M|_H1 <= tail_bound(||psi||_inf, M) |u_0|_H1 for M = 1..max.

    The error is ||R_M(psi) u_0'||_L2 at the continuous level, with
    R_M = kappa^-1 - G_M summed as a series tail (series_remainders) and
    u_0' the flux, both sampled once at the ERROR_RULE points of a
    2^10-element mesh; this assumes kappa and f smooth on the scale of
    L / 2^10, as the built-in problems are. ||psi||_inf is problem.psi_sup,
    read off kappa's range when the Problem was validated and shared with
    every other check run on it. Returns (M, error, bound) triples; raises
    BoundViolationError listing every violating M.
    """
    if max_truncation < 1:
        raise ValueError(f"need max truncation >= 1, got {max_truncation}")
    psi = psi_of(problem.kappa)
    psi_sup = problem.psi_sup
    mesh = build_mesh(problem.length, THEOREM_ELEMS)
    pts = mesh.element_points(ERROR_RULE)
    flux = flux_field(problem)(pts)
    u0_h1 = _rms(flux, mesh.h, ERROR_RULE)
    remainders = series_remainders(psi(pts), range(1, max_truncation + 1))
    triples = [(m, _rms(r * flux, mesh.h, ERROR_RULE), tail_bound(psi_sup, m) * u0_h1)
               for m, r in sorted(remainders.items())]
    violations = [(m, e, b) for m, e, b in triples if e > b]
    if violations:
        raise BoundViolationError(violations)
    return triples


def _refinement(mesh: Mesh, fine: Mesh) -> int:
    """Fine elements per element of mesh; raises ValueError unless fine nests mesh."""
    if fine.length != mesh.length:
        raise ValueError(f"fine mesh of length {fine.length} does not nest a mesh "
                         f"of length {mesh.length}")
    if fine.n_elems % mesh.n_elems != 0:
        raise ValueError(f"fine mesh with {fine.n_elems} elements does not nest "
                         f"{mesh.n_elems} coarse elements")
    return fine.n_elems // mesh.n_elems


def fine_grid_errors(mesh: Mesh, functions, fine: NodalFunction) -> list[tuple[float, float]]:
    """(L2, H1-seminorm) distance of each nodal function on mesh to a reference
    solution on a nested finer mesh, exact for the piecewise-linear functions.

    Coarse element k holds r fine elements, H = r h and s_i = i / r. With
    I_c the interpolant on mesh, each distance I_c U - F splits at the
    coarse nodes into I_c e + g, e = U - F at the coarse nodes and
    g = I_c F - F, which vanishes there (the two-level hierarchical
    splitting, Yserentant, Numer. Math. 49, 1986). Then

        ||I_c e + g||^2 = sum_k [H/3 (e_k^2 + e_k e_k+1 + e_k+1^2)
                                 + 2 (e_k P_k + e_k+1 Q_k)] + ||g||^2,
        |I_c e + g|_H1^2 = sum_k (e_k+1 - e_k)^2 / H + h sum (f - m_k)^2,

    with P_k = h sum_i (1 - s_i) g_k,i and Q_k = h sum_i s_i g_k,i the
    moments of g against the coarse hats, f the fine slopes and m_k their
    mean on element k (the H1 cross term is zero). g, its moments, ||g||
    and the slope deviations depend on fine alone: they cost one pass over
    the fine grid per call, and each function then costs O(mesh.n_elems).
    g is formed from differences of neighbouring fine values, and f is
    taken from the fine slopes directly, never by differencing values
    interpolated onto the fine nodes, which would add rounding of about
    eps |u| / h to every slope.
    """
    if not all(v.mesh.same_as(mesh) for v in functions):
        raise ValueError(f"nodal functions must live on the {mesh.n_elems}-element mesh")
    r = _refinement(mesh, fine.mesh)
    n, h = mesh.n_elems, fine.mesh.h
    big_h = r * h
    values = fine.values
    coarse = values[::r].copy()  # F at the coarse nodes
    jumps = np.diff(coarse)
    s = np.arange(r) / r
    # g at the fine nodes k r + i, i < r, of each coarse element k; g(L) = 0.
    # The fine-grid passes run in place in two buffers, g and work, so that
    # a call reuses the heap the previous one freed instead of faulting in
    # fresh pages. A reshape to (n, r) is a view of its buffer.
    g = np.repeat(coarse[:-1], r)
    g -= values[:-1]
    work = np.repeat(jumps, r)
    work.reshape(n, r)[...] *= s
    g += work
    rows = g.reshape(n, r)
    p, q = h * (rows @ (1.0 - s)), h * (rows @ s)
    # a^2 + a b + b^2 over the fine elements, a and b the g at its ends, sums
    # to sum_j g_j (2 g_j + g_j+1), since g is 0 at x = 0 and x = L
    np.multiply(g, 2.0, out=work)
    work[:-1] += g[1:]
    work *= g
    g_sq = h / 3.0 * np.sum(work)
    deviation = np.subtract(values[1:], values[:-1], out=work)  # h f
    deviation.reshape(n, r)[...] -= (jumps / r)[:, None]  # h (f - m_k)
    slope_sq = np.sum(np.square(deviation, out=deviation)) / h
    scores = []
    for v in functions:
        e = v.values - coarse
        a, b = e[:-1], e[1:]
        l2_sq = (big_h / 3.0 * np.sum(a * a + a * b + b * b)
                 + 2.0 * np.sum(a * p + b * q) + g_sq)
        de = np.diff(e)
        # a distance of 0 up to rounding can come out a hair below 0
        scores.append((float(np.sqrt(max(l2_sq, 0.0))),
                       float(np.sqrt(np.sum(de * de) / big_h + slope_sq))))
    return scores


def fine_grid_l2_error(coarse: NodalFunction, fine: NodalFunction) -> float:
    """L2 distance to a reference solution on a nested finer mesh (fine_grid_errors)."""
    return fine_grid_errors(coarse.mesh, [coarse], fine)[0][0]


def fine_grid_h1_error(coarse: NodalFunction, fine: NodalFunction) -> float:
    """H1-seminorm distance to a reference solution on a nested finer mesh
    (fine_grid_errors)."""
    return fine_grid_errors(coarse.mesh, [coarse], fine)[0][1]


def observed_order(n_values, errors) -> float:
    """Least-squares slope of log error against log h for a mesh sequence."""
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(n_values) < 2:
        raise ValueError("need at least two mesh sizes")
    return float(np.polyfit(np.log(1.0 / n_values), np.log(errors), 1)[0])
