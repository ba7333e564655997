"""Error norms and numeric checks of the series-convergence theory.

L2 and H1-seminorm errors are computed per element with Gauss quadrature
against an analytic (or semi-analytic) reference. field_errors, the scorer of
table, bench, solve and verify, samples a reference and its derivative once
per mesh and scores any number of nodal functions on it. The theory checks
bound the continuous-level truncation error |u - U_M|_H1 by the
exponential-series tail

    ||psi||_inf^{M+1} / (M+1)! * exp(||psi||_inf) * |u_0|_H1

and evaluate both sides with the same Gauss rule as the error norms, the
truncation error in remainder form so that nothing cancels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fem import Mesh, NodalFunction, QuadratureRule, build_mesh
from .problems import Problem, ScalarField, flux_field, psi_of, series_remainders

__all__ = [
    "Reference",
    "ErrorReport",
    "BoundViolationError",
    "ERROR_RULE",
    "field_errors",
    "l2_error",
    "h1_seminorm_error",
    "h1_seminorm",
    "sup_norm",
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


def field_errors(
    mesh: Mesh, functions, reference: ScalarField, reference_derivative: ScalarField
) -> list[tuple[float, float]]:
    """(L2, H1-seminorm) error of each nodal function on mesh against a reference.

    The reference and its derivative are sampled once, at mesh's ERROR_RULE
    points, for all the functions. A caller that needs only the L2 values
    still pays for the one derivative evaluation.
    """
    pts = mesh.element_points(ERROR_RULE)
    values, slopes = reference(pts), reference_derivative(pts)
    if not all(v.mesh.same_as(mesh) for v in functions):
        raise ValueError(f"nodal functions must live on the {mesh.n_elems}-element mesh")
    return [(_rms(v.at_quadrature(ERROR_RULE) - values, mesh.h, ERROR_RULE),
             _rms(v.derivative_values()[:, None] - slopes, mesh.h, ERROR_RULE))
            for v in functions]


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


def sup_norm(field: ScalarField, length: float, n_samples: int) -> float:
    """max |field| over n_samples equispaced points including both endpoints.

    A lower estimate of the true sup; 65536 samples are used wherever the
    theory checks need ||psi||_inf.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    grid = np.linspace(0.0, length, n_samples)
    return float(np.max(np.abs(field(grid))))


def tail_bound(psi_sup: float, truncation: int) -> float:
    """Series-tail bound psi_sup^(M+1) / (M+1)! * exp(psi_sup)."""
    if psi_sup < 0:
        raise ValueError(f"sup norm cannot be negative, got {psi_sup}")
    if truncation < 0:
        raise ValueError(f"truncation order must be >= 0, got {truncation}")
    term = 1.0
    for j in range(1, truncation + 2):
        term *= psi_sup / j
    return term * math.exp(psi_sup)


class BoundViolationError(AssertionError):
    """The measured truncation error exceeded its theoretical bound."""

    def __init__(self, violations):
        self.violations = violations
        lines = ", ".join(
            f"(M={m}, error={e:.6e}, bound={b:.6e})" for m, e, b in violations
        )
        super().__init__(f"truncation-error bound violated: {lines}")


PSI_SUP_SAMPLES = 65536
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
    L / 2^10, as the built-in problems are. Returns (M, error, bound)
    triples; raises BoundViolationError listing every violating M.
    """
    if max_truncation < 1:
        raise ValueError(f"need max truncation >= 1, got {max_truncation}")
    psi = psi_of(problem.kappa)
    psi_sup = sup_norm(psi, problem.length, PSI_SUP_SAMPLES)
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


def _refinement(coarse: NodalFunction, fine: NodalFunction) -> int:
    """Fine elements per coarse element; raises ValueError if the meshes do not nest."""
    if fine.mesh.n_elems % coarse.mesh.n_elems != 0:
        raise ValueError(
            f"fine mesh with {fine.mesh.n_elems} elements does not nest "
            f"{coarse.mesh.n_elems} coarse elements"
        )
    return fine.mesh.n_elems // coarse.mesh.n_elems


def fine_grid_l2_error(coarse: NodalFunction, fine: NodalFunction) -> float:
    """L2 distance to a reference solution on a nested finer mesh.

    The coarse solution is interpolated onto the fine nodes (exact, since the
    meshes nest); the difference is then piecewise linear on the fine mesh and
    its norm is integrated in closed form.
    """
    _refinement(coarse, fine)
    d = np.interp(fine.mesh.nodes, coarse.mesh.nodes, coarse.values) - fine.values
    a, b = d[:-1], d[1:]
    return float(np.sqrt(fine.mesh.h / 3.0 * np.sum(a * a + a * b + b * b)))


def fine_grid_h1_error(coarse: NodalFunction, fine: NodalFunction) -> float:
    """H1-seminorm distance to a reference solution on a nested finer mesh.

    Each coarse slope is repeated over the fine elements it covers and
    compared with the fine slopes directly. Interpolating the coarse values
    onto the fine nodes and differencing them again would add rounding of
    about eps |u| / h_fine to every fine slope.
    """
    r = _refinement(coarse, fine)
    diff = np.repeat(coarse.derivative_values(), r) - fine.derivative_values()
    return float(np.sqrt(fine.mesh.h * np.sum(diff * diff)))


def observed_order(n_values, errors) -> float:
    """Least-squares slope of log error against log h for a mesh sequence."""
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(n_values) < 2:
        raise ValueError("need at least two mesh sizes")
    return float(np.polyfit(np.log(1.0 / n_values), np.log(errors), 1)[0])
