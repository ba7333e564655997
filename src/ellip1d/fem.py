"""Uniform 1D mesh, P1 element assembly and the flux-sweep solver.

Discretizes the weak problem

    find u with u(0) = alpha such that
    int_0^L kappa u' v' dx = int_0^L f v dx - beta v(L)   for all v, v(0) = 0

with continuous piecewise-linear (hat) basis functions on a uniform mesh.
The flux condition at x = L is natural: it enters only through the -beta v(L)
load term and is never imposed on the solution values.

Every assembled system therefore has a Dirichlet row at node 0 and a natural
row at node N, so its element fluxes obey the discrete form of the flux
identity kappa u' = -beta + int_x^L f:

    Q_e(kappa) (u_{e+1} - u_e) / h = sum_{i > e} rhs_i = F_e,

with Q_e the Gauss mean over element e. load_flux turns a load vector into
the element fluxes F with one reverse cumsum, and flux_sweep solves
u_{e+1} - u_e = h w_e F_e from u(0) = alpha with one forward cumsum: the
direct method sweeps with weight w_e = 1 / Q_e(kappa), every
unit-coefficient problem with weight 1. sweep_rows is that sweep in place,
on rows that already hold u(0) and the fluxes, so that many sweeps share
one array. Every solver, direct or series, reads its data through
data_flux (the mesh and the fluxes F) and kappa through kappa_blocks,
which checks it finite and positive at every Gauss point. With exact
element integrals, 1D P1 Galerkin solutions are nodally exact (Tong,
AIAA J. 7, 1969); the two sums add only their own rounding, not the N^2
eps growth of elimination. The stiffness matrix, the node-vector gradient
loads and the Thomas-algorithm solver (factorize, solve_tridiagonal) stay as
references for tests; no solve path uses them.

Arrays over element quadrature points (Mesh.element_points,
NodalFunction.at_quadrature, and every coefficient evaluated on them) have
shape (n_elems, n_points) but are stored point-major: one contiguous run of
values per Gauss point. Elementwise passes and the reductions against the
rule's weights then stream along elements instead of broadcasting over rows
of 3 or 5. Indexing and row-major flattening are unaffected by the layout.
The solvers and the error norms do not build these arrays for the whole
mesh: element_blocks hands them out in consecutive runs of BLOCK_ELEMS
elements (the last run holds the rest), so each block's coefficient values
and temporaries stay in cache (tiling, Wolf & Lam, PLDI 1991), and only
per-element results (N-vectors) span the mesh. Each element sees the same
operations on the same values as in one whole-mesh pass, and every
reduction across elements still runs over whole N-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "AssemblyError",
    "SingularSystemError",
    "Mesh",
    "QuadratureRule",
    "ASSEMBLY_RULE",
    "BLOCK_ELEMS",
    "element_blocks",
    "NodalFunction",
    "TridiagonalSystem",
    "TridiagonalFactorization",
    "build_mesh",
    "assemble_stiffness",
    "assemble_load",
    "assemble_gradient_load",
    "load_flux",
    "data_flux",
    "kappa_blocks",
    "apply_dirichlet",
    "factorize",
    "solve_tridiagonal",
    "sweep_rows",
    "flux_sweep",
    "fem_solve",
]


class AssemblyError(ValueError):
    """A coefficient or source evaluated to a non-finite value during assembly,
    or kappa to a non-positive one."""


class SingularSystemError(ArithmeticError):
    """Elimination hit a zero pivot; the system has no unique solution."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform partition of [0, L] into n_elems elements (n_elems + 1 nodes)."""

    length: float
    n_elems: int
    nodes: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return self.length / self.n_elems

    def element_points(self, rule: "QuadratureRule", elems: slice = slice(None)) -> np.ndarray:
        """Quadrature points of the elements in elems (default: all), one row
        per element and one column per point.

        The array is stored point-major (its transpose is C-contiguous), so
        every elementwise pass over it runs along contiguous values rather
        than along rows of n_points. Row-major flattening (ravel) is still
        ascending in x.
        """
        return (self.nodes[:-1][elems] + self.h * rule.points[:, None]).T

    def same_as(self, other: "Mesh") -> bool:
        return self.n_elems == other.n_elems and self.length == other.length


def build_mesh(length: float, n_elems: int) -> Mesh:
    """Uniform mesh with n_elems + 1 equispaced nodes covering [0, length]."""
    if not np.isfinite(length):
        raise ValueError(f"domain length must be finite, got {length}")
    if length <= 0:
        raise ValueError(f"domain length must be positive, got {length}")
    if n_elems < 1:
        raise ValueError(f"need at least one element, got {n_elems}")
    nodes = np.linspace(0.0, float(length), n_elems + 1)
    return Mesh(length=float(length), n_elems=n_elems, nodes=nodes)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre rule on the reference element [0, 1].

    Exact for polynomials of degree <= 2 n_points - 1. The weights sum to 1
    in exact arithmetic; their doubles sum to exactly 1 for 2 and 4 points,
    to 1 + 2.2e-16 for 3 points and to 1 - 1.1e-16 for 5 points.
    """

    n_points: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def gauss(cls, n_points: int) -> "QuadratureRule":
        if n_points not in (2, 3, 4, 5):
            raise ValueError(f"supported rules have 2..5 points, got {n_points}")
        x, w = np.polynomial.legendre.leggauss(n_points)
        return cls(n_points=n_points, points=0.5 * (x + 1.0), weights=0.5 * w)


# 3-point Gauss rule the CLI and the benchmark assemble every system with
ASSEMBLY_RULE = QuadratureRule.gauss(3)

# most elements in one block of a quadrature-point pass: a block's points and
# coefficient values, 5 x 4096 doubles at most, stay well inside a 2 MB cache.
# It must stay a multiple of 8, so that every block starts at a multiple of 8
# elements: BLAS matrix-vector kernels group rows, and a block boundary
# elsewhere can change the last bit of a row's sum against the rule's weights.
BLOCK_ELEMS = 4096


def element_blocks(mesh: Mesh, rule: QuadratureRule):
    """(element slice, its quadrature points) for consecutive runs of
    BLOCK_ELEMS elements; the last run holds the remaining ones."""
    n = mesh.n_elems
    for start in range(0, n, BLOCK_ELEMS):
        elems = slice(start, min(start + BLOCK_ELEMS, n))
        yield elems, mesh.element_points(rule, elems)


@dataclass(frozen=True, eq=False)
class NodalFunction:
    """Continuous piecewise-linear function given by its nodal values."""

    mesh: Mesh
    values: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.mesh.nodes, self.values)

    def derivative_values(self) -> np.ndarray:
        """Per-element (piecewise constant) derivative, shape (n_elems,)."""
        return np.diff(self.values) / self.mesh.h

    def at_quadrature(self, rule: QuadratureRule, elems: slice = slice(None)) -> np.ndarray:
        """Values at the quadrature points of the elements in elems (default:
        all), one row per element and one column per point.

        Stored point-major, like Mesh.element_points.
        """
        t = rule.points[:, None]
        return (self.values[:-1][elems] * (1.0 - t) + self.values[1:][elems] * t).T


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Symmetric-by-assembly tridiagonal system A x = rhs on mesh nodes."""

    mesh: Mesh
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray


def _coeff_at_points(
    coeff, pts: np.ndarray, what: str, first: int = 0, positive: bool = False
) -> np.ndarray:
    """coeff at pts, the points of the elements first, first + 1, ..., all
    finite, and with positive also > 0, or AssemblyError names the element."""
    vals = np.broadcast_to(np.asarray(coeff(pts), dtype=float), pts.shape)
    ok = np.isfinite(vals) & (vals > 0.0) if positive else np.isfinite(vals)
    if not np.all(ok):
        bad = first + int(np.argwhere(~ok)[0][0])
        kind = "a non-finite or non-positive" if positive else "a non-finite"
        raise AssemblyError(f"{what} evaluated to {kind} value on element {bad}")
    return vals


def kappa_blocks(mesh: Mesh, kappa, rule: QuadratureRule):
    """(element slice, kappa at its quadrature points), block by block, as
    every solver reads it; AssemblyError names the first element where kappa
    is not finite and positive (so its Gauss means are positive too)."""
    for elems, pts in element_blocks(mesh, rule):
        yield elems, _coeff_at_points(kappa, pts, "stiffness coefficient", elems.start,
                                      positive=True)


def assemble_stiffness(mesh: Mesh, coeff, rule: QuadratureRule) -> TridiagonalSystem:
    """Stiffness matrix of int coeff u' v' with hat-function basis.

    Entry (i, j) is the per-element Gauss approximation of the integral over
    the shared support of hats i and j; the result is symmetric tridiagonal.
    The rhs is left at zero.
    """
    pts = mesh.element_points(rule)
    cvals = _coeff_at_points(coeff, pts, "stiffness coefficient")
    # per-element integral of coeff divided by h^2 (product of hat slopes),
    # times element length h: one scalar per element
    k = (cvals @ rule.weights) / mesh.h

    n = mesh.n_elems
    diag = np.zeros(n + 1)
    diag[:-1] += k
    diag[1:] += k
    return TridiagonalSystem(
        mesh=mesh, sub=-k.copy(), diag=diag, sup=-k.copy(), rhs=np.zeros(n + 1)
    )


def assemble_load(mesh: Mesh, f, rule: QuadratureRule, beta: float = 0.0) -> np.ndarray:
    """Load vector of int f v dx - beta v(L) against the hat basis."""
    t = rule.points
    left_weights, right_weights = rule.weights * (1.0 - t), rule.weights * t
    out = np.zeros(mesh.n_elems + 1)
    for elems, pts in element_blocks(mesh, rule):
        fvals = _coeff_at_points(f, pts, "load function", elems.start)
        # element e's left-hat integral goes to node e, its right-hat one to e + 1
        out[elems] += mesh.h * (fvals @ left_weights)
        out[elems.start + 1:elems.stop + 1] += mesh.h * (fvals @ right_weights)
    out[-1] -= beta
    return out


def assemble_gradient_load(
    mesh: Mesh, weight, w: NodalFunction, rule: QuadratureRule
) -> np.ndarray:
    """Load vector with entries int weight(x) w'(x) v'(x) dx per hat function v.

    w' is the exact piecewise-constant derivative of w, never a difference
    quotient sampled at quadrature points.
    """
    if not w.mesh.same_as(mesh):
        raise ValueError(
            f"nodal function lives on a {w.mesh.n_elems}-element mesh, "
            f"expected {mesh.n_elems} elements"
        )
    pts = mesh.element_points(rule)
    wvals = _coeff_at_points(weight, pts, "gradient-load weight")
    return gradient_load_from_values(mesh, wvals, w, rule)


def gradient_load_from_values(
    mesh: Mesh, weight_values: np.ndarray, w: NodalFunction, rule: QuadratureRule
) -> np.ndarray:
    """assemble_gradient_load with the weight already evaluated at element points.

    Element e contributes -c_e at node e and +c_e at node e + 1, with c_e its
    weighted flux, so the entries right of element e sum to c_e.
    """
    # h * sum_q w_q weight_q gives int_e weight; multiplying by w'_e and the
    # hat slope -+1/h cancels both h factors
    c = (weight_values @ rule.weights) * np.diff(w.values) / mesh.h
    out = np.zeros(mesh.n_elems + 1)
    out[:-1] -= c
    out[1:] += c
    return out


def apply_dirichlet(system: TridiagonalSystem, alpha: float) -> TridiagonalSystem:
    """Pin node 0 to alpha by row replacement.

    Row 0 becomes the identity row with rhs alpha; the coupling of node 1 to
    node 0 is folded into rhs[1] so the remaining block stays symmetric.
    """
    rhs = system.rhs.copy()
    sub = system.sub.copy()
    sup = system.sup.copy()
    diag = system.diag.copy()

    rhs[0] = alpha
    rhs[1] -= sub[0] * alpha
    diag[0] = 1.0
    sup[0] = 0.0
    sub[0] = 0.0
    return replace(system, sub=sub, diag=diag, sup=sup, rhs=rhs)


@dataclass(frozen=True, eq=False)
class TridiagonalFactorization:
    """LU factorization of a tridiagonal matrix (Thomas algorithm, no pivoting).

    The generic reference solver that tests check flux_sweep against. Safe
    for positive definite systems such as assembly plus the Dirichlet row,
    but its round-off grows like N^2 eps on them. Back-substitution via
    solve() may be repeated for many right-hand sides.
    """

    mesh: Mesh
    lower: np.ndarray  # multipliers sub[i] / pivot[i]
    pivot: np.ndarray  # modified diagonal
    sup: np.ndarray

    def solve(self, rhs: np.ndarray) -> NodalFunction:
        n = len(self.pivot)
        y = np.empty(n)
        y[0] = rhs[0]
        for i in range(1, n):
            y[i] = rhs[i] - self.lower[i - 1] * y[i - 1]
        x = np.empty(n)
        x[-1] = y[-1] / self.pivot[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (y[i] - self.sup[i] * x[i + 1]) / self.pivot[i]
        return NodalFunction(mesh=self.mesh, values=x)


def factorize(system: TridiagonalSystem) -> TridiagonalFactorization:
    """Forward elimination; raises SingularSystemError on a zero pivot."""
    n = len(system.diag)
    pivot = np.empty(n)
    lower = np.empty(n - 1)
    pivot[0] = system.diag[0]
    for i in range(1, n):
        if pivot[i - 1] == 0.0:
            raise SingularSystemError(f"zero pivot at row {i - 1}")
        lower[i - 1] = system.sub[i - 1] / pivot[i - 1]
        pivot[i] = system.diag[i] - lower[i - 1] * system.sup[i - 1]
    if pivot[-1] == 0.0:
        raise SingularSystemError(f"zero pivot at row {n - 1}")
    return TridiagonalFactorization(
        mesh=system.mesh, lower=lower, pivot=pivot, sup=system.sup.copy()
    )


def solve_tridiagonal(system: TridiagonalSystem) -> NodalFunction:
    """Direct solve of any tridiagonal system by the Thomas algorithm."""
    return factorize(system).solve(system.rhs)


def load_flux(rhs: np.ndarray) -> np.ndarray:
    """Element fluxes F_e = sum_{i > e} rhs_i of a load vector (one reverse cumsum).

    Rows 1..N of the system say that element e carries this flux; rhs[0] is
    ignored, as the Dirichlet row replaces it.
    """
    return np.cumsum(rhs[:0:-1])[::-1]


def sweep_rows(values: np.ndarray, scale) -> np.ndarray:
    """The flux sweep in place, along the last axis of values, which it returns.

    Each row enters with u(0) in column 0 and the element fluxes in columns
    1..N, and leaves as the nodal values with slope scale_e * flux_e on
    element e: the fluxes are scaled, then the row is cumsummed, and no
    other array of the row's size is made.
    """
    values[..., 1:] *= scale
    return np.cumsum(values, axis=-1, out=values)


def flux_sweep(mesh: Mesh, flux: np.ndarray, weight, alpha: float) -> NodalFunction:
    """u(0) = alpha and slope weight_e * flux_e on element e (one forward cumsum).

    weight is a scalar or one value per element, of any sign: a truncated
    series weight Q_e(G_M) can be zero or negative. The result carries only
    the rounding of the sum, not the N^2 eps growth of elimination.
    """
    values = np.empty(mesh.n_elems + 1)
    values[0], values[1:] = alpha, flux
    return NodalFunction(mesh, sweep_rows(values, mesh.h * weight))


def data_flux(problem, n_elems: int, rule: QuadratureRule) -> tuple[Mesh, np.ndarray]:
    """The mesh and the element fluxes F of the data that every method sweeps."""
    mesh = build_mesh(problem.length, n_elems)
    return mesh, load_flux(assemble_load(mesh, problem.f, rule, beta=problem.beta))


def fem_solve(problem, n_elems: int, rule: QuadratureRule) -> NodalFunction:
    """Galerkin solution of the full variable-coefficient problem.

    This is the direct (non-decomposed) reference method: one flux sweep of
    the data fluxes with weight 1 / Q_e(kappa), the reciprocal of each
    element's Gauss mean of the true coefficient.
    """
    mesh, flux = data_flux(problem, n_elems, rule)
    mean = np.empty(n_elems)
    for elems, kvals in kappa_blocks(mesh, problem.kappa, rule):
        mean[elems] = kvals @ rule.weights
    return flux_sweep(mesh, flux, 1.0 / mean, problem.alpha)
