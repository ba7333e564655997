"""Problem instances, coefficient transforms and semi-analytic references.

The model problem on (0, L) is

    -(kappa(x) u'(x))' = f(x),   u(0) = alpha,   -kappa(L) u'(L) = beta

with 0 < kappa_min <= kappa(x). Integrating the conservation law once gives
the flux identity

    kappa(x) u'(x) = -beta + int_x^L f(t) dt

which yields reference solutions from two antiderivatives: u(x) = alpha +
int_0^x kappa(s)^-1 (-beta + int_s^L f) ds. Each integrand is interpolated
at Chebyshev points on [0, L] to rounding level and its Chebyshev series
integrated exactly (Battles & Trefethen, SIAM J. Sci. Comput. 25, 2004). The
same construction with the reciprocal coefficient replaced by its truncated
exponential series produces the mesh-free limit of the decomposition methods.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval

from .integrate import AccuracyError

__all__ = [
    "ScalarField",
    "Problem",
    "constant_field",
    "psi_of",
    "g_m",
    "builtin_problem",
    "BUILTIN_IDS",
    "flux_field",
    "flux_weighted_antiderivative",
    "exact_solution_via_flux",
]


@dataclass(frozen=True)
class ScalarField:
    """Deterministic real-valued function on the problem domain.

    fn receives a float ndarray of any shape and must return values
    elementwise (a scalar is broadcast). Scalar input returns a float.
    """

    fn: Callable
    description: str = ""
    derivative: "ScalarField | None" = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.broadcast_to(np.asarray(self.fn(arr), dtype=float), arr.shape)
        if arr.ndim == 0:
            return float(out)
        return out


def constant_field(value: float, description: str = "") -> ScalarField:
    value = float(value)
    return ScalarField(
        fn=lambda x: np.full(x.shape, value),
        description=description or f"constant {value}",
        derivative=ScalarField(lambda x: np.zeros(x.shape), "constant 0"),
    )


_VALIDATION_SAMPLES = 65536  # dense positivity certificate for kappa


@dataclass(frozen=True)
class Problem:
    """One boundary-value problem instance, optionally with a reference solution."""

    name: str
    length: float
    kappa: ScalarField
    f: ScalarField
    alpha: float
    beta: float
    exact: ScalarField | None = None
    exact_derivative: ScalarField | None = None
    kappa_min: float = dataclasses.field(init=False, default=0.0)

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        grid = np.linspace(0.0, self.length, _VALIDATION_SAMPLES + 1)
        kvals = self.kappa(grid)
        if not np.all(np.isfinite(kvals)):
            raise ValueError(f"{self.name}: coefficient is not finite on [0, L]")
        kmin = float(np.min(kvals))
        if kmin <= 0.0:
            raise ValueError(
                f"{self.name}: coefficient must be strictly positive, "
                f"sampled minimum {kmin}"
            )
        object.__setattr__(self, "kappa_min", kmin)

        if self.exact is not None:
            mismatch = abs(self.exact(0.0) - self.alpha)
            if mismatch > 1e-10:
                raise ValueError(
                    f"{self.name}: exact(0) differs from alpha by {mismatch:.3e}"
                )
        if self.exact_derivative is not None:
            flux_end = -self.kappa(self.length) * self.exact_derivative(self.length)
            if abs(flux_end - self.beta) > 1e-8:
                raise ValueError(
                    f"{self.name}: boundary flux of the exact solution is "
                    f"{flux_end:.3e}, expected {self.beta}"
                )


def psi_of(kappa: ScalarField) -> ScalarField:
    """Pointwise log of a strictly positive coefficient."""

    def fn(x):
        kvals = np.broadcast_to(np.asarray(kappa(x), dtype=float), x.shape)
        if np.any(kvals <= 0.0):
            bad = float(np.asarray(x).ravel()[np.argmax(kvals.ravel() <= 0.0)])
            raise ValueError(f"coefficient is not positive at x = {bad}")
        return np.log(kvals)

    return ScalarField(fn, f"log({kappa.description or 'coefficient'})")


def series_partial_sums(psi_values: np.ndarray, orders) -> dict[int, np.ndarray]:
    """G_m = sum_{j=0}^m (-psi)^j / j! at psi_values, for every m in orders.

    One pass of the recurrence up to max(orders), keyed by order. Terms are
    accumulated multiplicatively (term_j = term_{j-1} * (-psi) / j), so large
    m never touches an explicit factorial, and each G_m is the same array
    whichever other orders share the pass.
    """
    wanted = set(orders)
    if min(wanted) < 0:
        raise ValueError(f"truncation order must be nonnegative, got {min(wanted)}")
    total = np.ones_like(psi_values)
    term = np.ones_like(psi_values)
    sums = {0: total} if 0 in wanted else {}
    for j in range(1, max(wanted) + 1):
        term = term * (-psi_values) / j
        total = total + term
        if j in wanted:
            sums[j] = total
    return sums


def g_m(psi: ScalarField, m: int) -> ScalarField:
    """Partial sum sum_{j=0}^m (-psi)^j / j! of the reciprocal-coefficient series."""
    if m < 0:
        raise ValueError(f"truncation order must be nonnegative, got {m}")

    def fn(x):
        p = np.broadcast_to(np.asarray(psi(x), dtype=float), x.shape)
        return series_partial_sums(p, [m])[m]

    return ScalarField(fn, f"truncated exp(-psi), {m + 1} terms")


_CHEB_START = 16  # first interpolation degree tried
_CHEB_MAX = 8192  # degree cap: 8193 samples
_CHEB_TAIL = 4.0  # trailing coefficients must fall below this many eps of the scale
_EPS = float(np.finfo(float).eps)


def _chebyshev_coefficients(fn: ScalarField, length: float, name: str) -> np.ndarray:
    """Chebyshev coefficients of fn on [0, length], resolved to rounding level.

    fn is sampled at the n + 1 Chebyshev-Lobatto points, and one real FFT of
    the mirrored samples gives the coefficients. n doubles from 16 until the
    trailing eighth of them is below a few eps of the largest sample; then
    the trailing coefficients below eps of it are chopped.
    """
    n = _CHEB_START
    while True:
        t = np.cos(np.pi * np.arange(n + 1) / n)
        vals = fn(0.5 * length * (1.0 + t))
        if not np.all(np.isfinite(vals)):
            raise AccuracyError(f"{name} is not finite on [0, {length}]")
        coeffs = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
        coeffs[[0, n]] *= 0.5
        scale = float(np.max(np.abs(vals)))
        tail = float(np.max(np.abs(coeffs[-(n // 8):])))
        if tail <= _CHEB_TAIL * _EPS * scale:
            break
        if n >= _CHEB_MAX:
            raise AccuracyError(
                f"{name} is not resolved by {n + 1} Chebyshev points "
                f"(trailing coefficients {tail:.2e})",
                error_estimate=tail,
            )
        n *= 2
    kept = np.flatnonzero(np.abs(coeffs) > _EPS * scale)
    return coeffs[: kept[-1] + 1] if len(kept) else np.zeros(1)


def _antiderivative(fn: ScalarField, length: float, name: str) -> np.ndarray:
    """Chebyshev coefficients of int_0^x fn on [0, length]."""
    return chebint(_chebyshev_coefficients(fn, length, name), lbnd=-1, scl=0.5 * length)


def _chebyshev_field(
    coeffs: np.ndarray, length: float, description: str, derivative=None
) -> ScalarField:
    def fn(x):
        if x.size and (x.min() < 0.0 or x.max() > length):
            raise ValueError(f"evaluation point outside [0, {length}]")
        return chebval((2.0 * x - length) / length, coeffs)

    return ScalarField(fn, description, derivative=derivative)


def flux_field(problem: Problem, tol: float) -> ScalarField:
    """The solution flux kappa u' as a function: -beta + int_x^L f.

    This equals the derivative of the unit-coefficient solution of the same
    data, which seeds both decomposition methods. It is the antiderivative of
    the Chebyshev interpolant of f, resolved to rounding level whatever tol
    (which must be positive) asks for.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    load_integral = _antiderivative(problem.f, problem.length, f"load of {problem.name}")
    coeffs = -load_integral
    coeffs[0] += chebval(1.0, load_integral) - problem.beta
    return _chebyshev_field(coeffs, problem.length, f"flux of {problem.name}")


def flux_weighted_antiderivative(
    problem: Problem, weight: ScalarField, tol: float, description: str
) -> ScalarField:
    """alpha + int_0^x weight(s) (kappa u')(s) ds as a Chebyshev antiderivative.

    The integrand weight * flux is interpolated at Chebyshev points to
    rounding level and integrated once; tol must be positive but does not
    limit the accuracy. An integrand the degree cap cannot resolve raises
    AccuracyError. The returned field carries its integrand as .derivative.
    """
    flux = flux_field(problem, tol)
    integrand = ScalarField(
        lambda arr: weight(arr) * flux(arr),
        f"derivative of {description}",
    )
    coeffs = _antiderivative(integrand, problem.length, integrand.description)
    coeffs[0] += problem.alpha
    return _chebyshev_field(coeffs, problem.length, description, derivative=integrand)


def exact_solution_via_flux(problem: Problem, tol: float) -> ScalarField:
    """Reference solution u(x) = alpha + int_0^x kappa^-1 (-beta + int_s^L f) ds."""
    inv_kappa = ScalarField(
        lambda x: 1.0 / problem.kappa(x), f"1/({problem.kappa.description})"
    )
    return flux_weighted_antiderivative(
        problem, inv_kappa, tol, f"flux-integral solution of {problem.name}"
    )


def _ex1() -> Problem:
    kappa = ScalarField(lambda x: 1.0 + x * x, "1 + x^2")
    f = constant_field(1.0, "1")
    exact_d = ScalarField(lambda x: (1.0 - x) / (1.0 + x * x), "(1 - x)/(1 + x^2)")
    exact = ScalarField(
        lambda x: np.arctan(x) - 0.5 * np.log1p(x * x),
        "arctan(x) - ln(1 + x^2)/2",
        derivative=exact_d,
    )
    return Problem(
        name="ex1", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, exact_derivative=exact_d,
    )


def _ex2() -> Problem:
    w = 10.0 * np.pi
    kappa = ScalarField(
        lambda x: 1.0 / (1.0 - 0.5 * np.sin(w * x)),
        "(1 - 0.5 sin(10 pi x))^-1",
    )
    f = constant_field(1.0, "1")
    exact_d = ScalarField(
        lambda x: (1.0 - x) * (1.0 - 0.5 * np.sin(w * x)),
        "(1 - x)(1 - 0.5 sin(10 pi x))",
    )

    def u(x):
        # the additive constant is -1/(20 pi), pinned by u(0) = 0
        return (
            np.sin(w * x) + w * (1.0 - x) * np.cos(w * x) + w**2 * x * (2.0 - x)
        ) / (2.0 * w**2) - 1.0 / (2.0 * w)

    exact = ScalarField(u, "oscillatory closed form", derivative=exact_d)
    return Problem(
        name="ex2", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, exact_derivative=exact_d,
    )


def _ex3() -> Problem:
    kappa = ScalarField(lambda x: (x + 1.0) ** 2, "(x + 1)^2")
    f = ScalarField(lambda x: x / (x + 1.0), "x/(x + 1)")
    ln2 = math.log(2.0)
    exact_d = ScalarField(
        lambda x: (1.0 - x - ln2 + np.log1p(x)) / (1.0 + x) ** 2,
        "(1 - x - ln 2 + ln(1 + x))/(1 + x)^2",
    )
    exact = ScalarField(
        lambda x: ((3.0 - ln2) * x - (2.0 + x) * np.log1p(x)) / (1.0 + x),
        "((3 - ln 2) x - (2 + x) ln(1 + x))/(1 + x)",
        derivative=exact_d,
    )
    return Problem(
        name="ex3", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, exact_derivative=exact_d,
    )


def _ex4() -> Problem:
    kappa = ScalarField(lambda x: x**4 + np.exp(-x), "x^4 + exp(-x)")
    f = ScalarField(lambda x: -2.0 * np.cos(np.pi * x), "-2 cos(pi x)")
    base = Problem(name="ex4", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0)
    # the flux 2 sin(pi x)/pi has a closed form, and so has u' = flux / kappa
    exact_d = ScalarField(
        lambda x: 2.0 * np.sin(np.pi * x) / (np.pi * (x**4 + np.exp(-x))),
        "2 sin(pi x)/(pi (x^4 + exp(-x)))",
    )
    exact = exact_solution_via_flux(base, tol=1e-10)
    exact = dataclasses.replace(exact, derivative=exact_d)
    return dataclasses.replace(base, exact=exact, exact_derivative=exact_d)


_BUILTINS = {"ex1": _ex1, "ex2": _ex2, "ex3": _ex3, "ex4": _ex4}
BUILTIN_IDS = tuple(_BUILTINS)


def builtin_problem(problem_id: str) -> Problem:
    """One of the four built-in problems on (0, 1) with alpha = beta = 0."""
    try:
        builder = _BUILTINS[problem_id]
    except KeyError:
        raise ValueError(
            f"unknown problem {problem_id!r}; valid ids: {', '.join(BUILTIN_IDS)}"
        ) from None
    return builder()
