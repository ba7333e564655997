"""Problem instances, coefficient transforms and semi-analytic references.

The model problem on (0, L) is

    -(kappa(x) u'(x))' = f(x),   u(0) = alpha,   -kappa(L) u'(L) = beta

with 0 < kappa_min <= kappa(x). Integrating the conservation law once gives
the flux identity

    kappa(x) u'(x) = -beta + int_x^L f(t) dt

which yields reference solutions from two antiderivatives: u(x) = alpha +
int_0^x kappa(s)^-1 (-beta + int_s^L f) ds. Each integrand is interpolated
at Chebyshev points on [0, L] to rounding level and its Chebyshev series
integrated exactly (Battles & Trefethen, SIAM J. Sci. Comput. 25, 2004). An
integrand that degree 64 does not resolve is bisected into panels of degree
at most 64, at most 128 of them, and the panel antiderivatives are chained
(Pachon, Platte & Trefethen, "Piecewise-smooth chebfuns", IMA J. Numer. Anal.
30, 2010). The same construction with the reciprocal coefficient replaced by
its truncated exponential series produces the mesh-free limit of the
decomposition methods.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval

from . import fem

__all__ = [
    "AccuracyError",
    "ScalarField",
    "Problem",
    "constant_field",
    "psi_of",
    "sup_norm",
    "PSI_SUP_SAMPLES",
    "g_m",
    "builtin_problem",
    "BUILTIN_IDS",
    "flux_field",
    "flux_weighted_antiderivative",
    "exact_solution_via_flux",
]


class AccuracyError(RuntimeError):
    """A field or integral not resolved to the accuracy asked for within its budget."""

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate, self.error_estimate = estimate, error_estimate


@dataclass(frozen=True)
class ScalarField:
    """Deterministic real-valued function on the problem domain.

    fn receives a float ndarray of any shape and must return values
    elementwise (a scalar is broadcast). Scalar input returns a float.

    sampler, if given, gives the field and its derivative together at the
    points of some elements of a mesh: sampler(mesh, rule, elems) returns
    (values, slopes) at mesh.element_points(rule, elems), point-major, equal
    to rounding to what self and self.derivative return there. The error
    norms sample a reference through it (norms.field_errors).
    """

    fn: Callable
    description: str = ""
    derivative: "ScalarField | None" = None
    sampler: Callable | None = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = fem.broadcast_sample(self.fn(arr), arr.shape)
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


# kappa is checked, and ||psi||_inf read off its range, at this many
# equispaced points: the sampled extremes are estimates of the true ones, not
# a certificate of positivity
PSI_SUP_SAMPLES = 65536


def _grid_chunks(length: float, n_samples: int):
    """np.linspace(0, length, n_samples) in consecutive chunks of fem.BLOCK_ELEMS samples.

    Sample i is i * (length / (n_samples - 1)) and the last sample is length
    itself, as linspace computes them, so the chunks hold linspace's values
    bit for bit while each chunk's temporaries stay in cache.
    """
    step = length / (n_samples - 1)
    for start in range(0, n_samples, fem.BLOCK_ELEMS):
        stop = min(start + fem.BLOCK_ELEMS, n_samples)
        chunk = np.arange(start, stop, dtype=float) * step
        if stop == n_samples:
            chunk[-1] = length
        yield chunk


@dataclass(frozen=True)
class Problem:
    """One boundary-value problem instance, optionally with a reference solution.

    exact carries its own derivative as exact.derivative, which the error
    norms score slopes against; both are checked against the boundary data.
    closed_form says whether exact is a closed-form solution; if not, exact
    is the flux oracle, and error tables score against a fine-grid solve.
    psi_sup is ||psi||_inf, sup_norm(psi_of(kappa), length, PSI_SUP_SAMPLES),
    read off the range of the one sample of kappa that validation takes: log
    is monotone, so max |log kappa| is at kappa's sampled minimum or maximum.
    """

    name: str
    length: float
    kappa: ScalarField
    f: ScalarField
    alpha: float
    beta: float
    exact: ScalarField | None = None
    closed_form: bool = False
    psi_sup: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for label, value in (("length", self.length), ("alpha", self.alpha),
                             ("beta", self.beta)):
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: {label} must be finite, got {value}")
        if self.length <= 0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        kmin, kmax = math.inf, -math.inf
        for grid in _grid_chunks(self.length, PSI_SUP_SAMPLES):
            kvals = self.kappa(grid)
            if not np.all(np.isfinite(kvals)):
                raise ValueError(f"{self.name}: coefficient is not finite on [0, L]")
            kmin = min(kmin, float(np.min(kvals)))
            kmax = max(kmax, float(np.max(kvals)))
        if kmin <= 0.0:
            raise ValueError(
                f"{self.name}: coefficient must be strictly positive, "
                f"sampled minimum {kmin}"
            )
        # np.log, as psi_of takes it, so the value is sup_norm's bit for bit
        object.__setattr__(self, "psi_sup", float(np.max(np.abs(np.log([kmin, kmax])))))

        if self.exact is not None:
            mismatch = abs(self.exact(0.0) - self.alpha)
            if mismatch > 1e-10:
                raise ValueError(
                    f"{self.name}: exact(0) differs from alpha by {mismatch:.3e}"
                )
        if self.exact is not None and self.exact.derivative is not None:
            flux_end = -self.kappa(self.length) * self.exact.derivative(self.length)
            if abs(flux_end - self.beta) > 1e-8:
                raise ValueError(
                    f"{self.name}: boundary flux of the exact solution is "
                    f"{flux_end:.3e}, expected {self.beta}"
                )


def psi_of(kappa: ScalarField) -> ScalarField:
    """Pointwise log of a finite, strictly positive coefficient."""

    def fn(x):
        kvals = fem.broadcast_sample(kappa(x), x.shape)
        ok = np.isfinite(kvals) & (kvals > 0.0)  # NaN fails both tests
        if not np.all(ok):
            bad = float(np.asarray(x).ravel()[np.argmax(~ok.ravel())])
            raise ValueError(f"coefficient is not finite and positive at x = {bad}")
        return np.log(kvals)

    return ScalarField(fn, f"log({kappa.description or 'coefficient'})")


def sup_norm(field: ScalarField, length: float, n_samples: int) -> float:
    """max |field| over n_samples equispaced points including both endpoints.

    A lower estimate of the true sup; Problem.psi_sup is its value for psi on
    PSI_SUP_SAMPLES points. The points are those of np.linspace(0, length,
    n_samples), sampled one chunk of fem.BLOCK_ELEMS at a time, and the
    maximum of the chunk maxima is the maximum over the whole grid.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    peak = 0.0
    for grid in _grid_chunks(length, n_samples):
        peak = np.maximum(peak, np.max(np.abs(field(grid))))  # NaN propagates
    return float(peak)


def exp_series_terms(x):
    """x^j / j! for j = 0, 1, 2, ..., each term from the last as term * x / j.

    The package's one computation of x^j / j! (G_M, R_M, psi_moments'
    moments, tail_bound, verify's factorial-decay allowances); no explicit
    factorial, so any order stays finite. Term 0 is the float 1.0, so a
    float x yields floats and an array x arrays from j = 1 on.
    """
    term = 1.0
    for j in itertools.count(1):
        yield term
        term = term * x / j


def series_remainders(psi_values: np.ndarray, orders) -> dict[int, np.ndarray]:
    """R_m = e^-psi - G_m = sum_{j>m} (-psi)^j / j! at psi_values, for every m in orders.

    The terms come from exp_series_terms(-psi), continued until each is
    below eps/8 of |(-psi)^(m+1) / (m+1)!| e^-max(psi, 0), the Lagrange lower
    bound of |R_m|, for every wanted m. They are summed from the smallest up
    by one running sum, so no R_m is a difference of O(1) values; each R_m is
    a copy of that sum, and each term is dropped once added. Only the kept
    terms and the wanted R_m are held, one psi-shaped array each.
    """
    wanted = set(orders)
    if min(wanted) < 0:
        raise ValueError(f"truncation order must be nonnegative, got {min(wanted)}")
    neg = -np.asarray(psi_values, dtype=float)
    series = exp_series_terms(neg)
    terms = [next(series) for _ in range(max(wanted) + 2)]
    leads = np.full(neg.shape, np.inf)  # the smallest |t_{m+1}| over the wanted m
    for m in wanted:
        np.minimum(leads, np.abs(terms[m + 1]), out=leads)
    floor = _EPS / 8 * np.exp(np.minimum(neg, 0.0)) * leads
    while np.any(np.abs(terms[-1]) > floor):
        terms.append(next(series))
    # the running sum starts as the last term, R_{K-2} = t_{K-1} for K terms,
    # and adding t_m turns R_m into R_{m-1}
    total = np.array(terms.pop(), dtype=float)
    tails = {}
    for m in range(len(terms) - 1, min(wanted) - 1, -1):
        if m in wanted:
            tails[m] = total.copy()
        total += terms.pop()
    return {m: tails[m] for m in wanted}


def g_m(psi: ScalarField, m: int) -> ScalarField:
    """Partial sum sum_{j=0}^m (-psi)^j / j! of the reciprocal-coefficient series.

    The first m + 1 terms of exp_series_terms(-psi), added in order from 0.0.
    """
    if m < 0:
        raise ValueError(f"truncation order must be nonnegative, got {m}")

    def fn(x):
        return sum(itertools.islice(exp_series_terms(-psi(x)), m + 1))

    return ScalarField(fn, f"truncated exp(-psi), {m + 1} terms")


_CHEB_DEGREE = 64  # degree of every panel; a panel unresolved at it is bisected
_PANEL_BUDGET = 128  # most panels of one field: 8320 samples, about one degree-8192 fit
_MIN_PANEL = 2.0**-30  # narrowest panel, as a fraction of L
_CHEB_TAIL = 4.0  # trailing coefficients must fall below this many eps of the scale
_EPS = float(np.finfo(float).eps)


def _fit(fn: ScalarField, lefts, rights, name: str, length: float):
    """Degree-_CHEB_DEGREE Chebyshev coefficients of fn on each panel [lefts[i], rights[i]].

    fn is sampled once at the _CHEB_DEGREE + 1 Chebyshev-Lobatto points of
    every panel, and one real FFT of the mirrored samples along axis 1 gives
    one row of coefficients per panel. Returns the rows, their trailing-eighth
    maxima and the largest sample magnitude.
    """
    n = _CHEB_DEGREE
    t = np.cos(np.pi * np.arange(n + 1) / n)
    vals = fn(lefts[:, None] + 0.5 * (rights - lefts)[:, None] * (1.0 + t))
    if not np.all(np.isfinite(vals)):
        raise AccuracyError(f"{name} is not finite on [0, {length}]")
    coeffs = np.fft.rfft(np.concatenate([vals, vals[:, -2:0:-1]], axis=1), axis=1).real / n
    coeffs[:, [0, n]] *= 0.5
    tails = np.max(np.abs(coeffs[:, -(n // 8):]), axis=1)
    return coeffs, tails, float(np.max(np.abs(vals)))


def _chop(coeffs: np.ndarray, scale: float) -> np.ndarray:
    """Drop the trailing coefficients below eps of scale."""
    kept = np.flatnonzero(np.abs(coeffs) > _EPS * scale)
    return coeffs[: kept[-1] + 1] if len(kept) else np.zeros(1)


def _chebyshev_coefficients(fn: ScalarField, length: float, name: str):
    """Piecewise Chebyshev coefficients of fn on [0, length], resolved to rounding level.

    Returns the breakpoints and one coefficient array per panel. Starting
    from the one panel [0, length], each level fits every unresolved panel at
    degree 64 in one call of fn, accepts the panels whose trailing eighth of
    coefficients is below a few eps of the largest sample so far, and
    bisects the rest (Pachon, Platte & Trefethen, IMA J. Numer. Anal. 30,
    2010). Trailing coefficients below eps of that scale are chopped. More
    than 128 panels, or a panel narrower than 2^-30 length, raises
    AccuracyError with the largest trailing coefficient of the panels still
    unresolved.
    """
    lefts, rights = np.zeros(1), np.array([float(length)])
    panels, scale = [], 0.0
    while len(lefts):
        coeffs, tails, level_scale = _fit(fn, lefts, rights, name, length)
        scale = max(scale, level_scale)
        done = tails <= _CHEB_TAIL * _EPS * scale
        panels += [(a, _chop(c, scale)) for a, c in zip(lefts[done], coeffs[done])]
        lefts, rights, tails = lefts[~done], rights[~done], tails[~done]
        mids = 0.5 * (lefts + rights)
        over_budget = len(panels) + 2 * len(lefts) > _PANEL_BUDGET
        if over_budget or np.min(mids - lefts, initial=length) < _MIN_PANEL * length:
            limit = (f"{_PANEL_BUDGET} Chebyshev panels" if over_budget
                     else "Chebyshev panels as narrow as 2^-30 of the domain")
            tail = float(np.max(tails))
            raise AccuracyError(
                f"{name} is not resolved by {limit} of degree {_CHEB_DEGREE} "
                f"(trailing coefficients {tail:.2e})",
                error_estimate=tail,
            )
        lefts, rights = np.concatenate([lefts, mids]), np.concatenate([mids, rights])
    panels.sort(key=lambda panel: panel[0])
    return np.array([a for a, _ in panels] + [length]), [c for _, c in panels]


def _antiderivative(fn: ScalarField, length: float, name: str):
    """Breakpoints and per-panel Chebyshev coefficients of int_0^x fn on [0, length].

    Each panel's antiderivative starts from the previous panel's end value.
    """
    breaks, pieces = _chebyshev_coefficients(fn, length, name)
    integrals = []
    for a, b, coeffs in zip(breaks[:-1], breaks[1:], pieces):
        integral = chebint(coeffs, lbnd=-1, scl=0.5 * (b - a))
        if integrals:
            integral[0] += chebval(1.0, integrals[-1])
        integrals.append(integral)
    return breaks, integrals


def _chebyshev_field(
    breaks: np.ndarray, pieces: list, description: str, derivative=None
) -> ScalarField:
    """The piecewise Chebyshev series as a field on [breaks[0], breaks[-1]].

    Points are grouped by panel (searchsorted, then a stable argsort, which
    is linear on sorted points) and each panel is summed by one chebval; a
    point on a breakpoint belongs to the panel on its right.
    """
    length = float(breaks[-1])

    def fn(x):
        if x.size and (x.min() < 0.0 or x.max() > length):
            raise ValueError(f"evaluation point outside [0, {length}]")
        if len(pieces) == 1:
            return chebval((2.0 * x - length) / length, pieces[0])
        flat = x.ravel()
        panel = np.searchsorted(breaks[1:-1], flat, side="right")
        order = np.argsort(panel, kind="stable")
        ends = np.cumsum(np.bincount(panel, minlength=len(pieces)))
        out = np.empty(flat.shape)
        start = 0
        for a, b, coeffs, end in zip(breaks[:-1], breaks[1:], pieces, ends):
            if end > start:
                idx = order[start:end]
                out[idx] = chebval((2.0 * flat[idx] - (a + b)) / (b - a), coeffs)
            start = end
        return out.reshape(x.shape)

    return ScalarField(fn, description, derivative=derivative)


def _flux(f: ScalarField, length: float, beta: float, name: str) -> ScalarField:
    """-beta + int_x^L f as a piecewise Chebyshev field."""
    breaks, load_integral = _antiderivative(f, length, f"load of {name}")
    end_value = chebval(1.0, load_integral[-1]) - beta
    pieces = [-coeffs for coeffs in load_integral]
    for coeffs in pieces:
        coeffs[0] += end_value
    return _chebyshev_field(breaks, pieces, f"flux of {name}")


def _weighted_antiderivative(
    flux: ScalarField, weight: ScalarField, length: float, alpha: float, description: str
) -> ScalarField:
    """alpha + int_0^x weight(s) flux(s) ds, carrying its integrand as .derivative."""
    integrand = ScalarField(
        lambda arr: weight(arr) * flux(arr),
        f"derivative of {description}",
    )
    breaks, pieces = _antiderivative(integrand, length, integrand.description)
    for coeffs in pieces:
        coeffs[0] += alpha
    return _chebyshev_field(breaks, pieces, description, derivative=integrand)


def _reciprocal(kappa: ScalarField) -> ScalarField:
    return ScalarField(lambda x: 1.0 / kappa(x), f"1/({kappa.description})")


def flux_field(problem: Problem) -> ScalarField:
    """The solution flux kappa u' as a function: -beta + int_x^L f.

    This equals the derivative of the unit-coefficient solution of the same
    data, which seeds both decomposition methods. It is the antiderivative of
    the piecewise Chebyshev interpolant of f, resolved to rounding level.
    """
    return _flux(problem.f, problem.length, problem.beta, problem.name)


def flux_weighted_antiderivative(
    problem: Problem, weight: ScalarField, description: str
) -> ScalarField:
    """alpha + int_0^x weight(s) (kappa u')(s) ds as a Chebyshev antiderivative.

    The integrand weight * flux is interpolated at Chebyshev points to
    rounding level, on panels where degree 64 does not resolve it, and
    integrated once. An integrand the panel budget cannot resolve raises
    AccuracyError. The returned field carries its integrand as .derivative.
    """
    flux = flux_field(problem)
    return _weighted_antiderivative(flux, weight, problem.length, problem.alpha, description)


def exact_solution_via_flux(problem: Problem, tol: float) -> ScalarField:
    """Reference solution u(x) = alpha + int_0^x kappa^-1 (-beta + int_s^L f) ds."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return flux_weighted_antiderivative(
        problem, _reciprocal(problem.kappa), f"flux-integral solution of {problem.name}"
    )


def _closed_form(value, slope, shared, descriptions, shared_at=None) -> ScalarField:
    """A closed-form solution u with u' as its .derivative and a sampler of both.

    value and slope are u and u' as functions of the subexpressions that
    they have in common, parts = shared(x). The plain fields take the parts
    at their points; the sampler takes them once per element block, from
    shared_at(mesh, rule, elems) if given, else from shared at the block's
    points, and builds u and u' from the same parts.
    """

    def sampler(mesh, rule, elems):
        parts = (shared(mesh.element_points(rule, elems)) if shared_at is None
                 else shared_at(mesh, rule, elems))
        return value(*parts), slope(*parts)

    derivative = ScalarField(lambda x: slope(*shared(x)), descriptions[1])
    return ScalarField(lambda x: value(*shared(x)), descriptions[0], derivative, sampler)


def _ex1() -> Problem:
    kappa = ScalarField(lambda x: 1.0 + x * x, "1 + x^2")
    f = constant_field(1.0, "1")
    exact = _closed_form(
        lambda x, xx: np.arctan(x) - 0.5 * np.log1p(xx),
        lambda x, xx: (1.0 - x) / (1.0 + xx),
        lambda x: (x, x * x),
        ("arctan(x) - ln(1 + x^2)/2", "(1 - x)/(1 + x^2)"),
    )
    return Problem(
        name="ex1", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, closed_form=True,
    )


def _ex2() -> Problem:
    w = 10.0 * np.pi
    kappa = ScalarField(
        lambda x: 1.0 / (1.0 - 0.5 * np.sin(w * x)),
        "(1 - 0.5 sin(10 pi x))^-1",
    )
    f = constant_field(1.0, "1")

    def u(x, s, c):
        # s = sin(w x), c = cos(w x); the additive constant is -1/(20 pi),
        # pinned by u(0) = 0
        return (s + w * (1.0 - x) * c + w**2 * x * (2.0 - x)) / (2.0 * w**2) - 1.0 / (2.0 * w)

    def angles_at(mesh, rule, elems):
        # sin and cos once per element midpoint m and once per rule offset
        # d = h (t - 1/2), joined by angle addition: sin w(m + d) =
        # sin wm cos wd + cos wm sin wd, cos w(m + d) = cos wm cos wd - sin wm sin wd.
        # m + d misses the point x by the rounding of m and of x, up to an
        # ulp of x, which w |u''| turns into several eps of u'; the residual
        # r = (x - m) - d is exact away from x = 0 (Sterbenz), and one
        # rotation by w r lands on x itself
        x = mesh.element_points(rule, elems)
        m = mesh.nodes[:-1][elems] + 0.5 * mesh.h
        d = mesh.h * (rule.points - 0.5)
        sm, cm = np.sin(w * m), np.cos(w * m)
        sd, cd = np.sin(w * d)[:, None], np.cos(w * d)[:, None]
        s, c = (sm * cd + cm * sd).T, (cm * cd - sm * sd).T
        wr = w * ((x - m[:, None]) - d)
        return x, s + wr * c, c - wr * s

    exact = _closed_form(
        u,
        lambda x, s, c: (1.0 - x) * (1.0 - 0.5 * s),
        lambda x: (x, np.sin(w * x), np.cos(w * x)),
        ("oscillatory closed form", "(1 - x)(1 - 0.5 sin(10 pi x))"),
        shared_at=angles_at,
    )
    return Problem(
        name="ex2", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, closed_form=True,
    )


def _ex3() -> Problem:
    kappa = ScalarField(lambda x: (x + 1.0) ** 2, "(x + 1)^2")
    f = ScalarField(lambda x: x / (x + 1.0), "x/(x + 1)")
    ln2 = math.log(2.0)
    exact = _closed_form(
        lambda x, ln1p, p: ((3.0 - ln2) * x - (2.0 + x) * ln1p) / p,
        lambda x, ln1p, p: (1.0 - x - ln2 + ln1p) / p**2,
        lambda x: (x, np.log1p(x), 1.0 + x),
        ("((3 - ln 2) x - (2 + x) ln(1 + x))/(1 + x)",
         "(1 - x - ln 2 + ln(1 + x))/(1 + x)^2"),
    )
    return Problem(
        name="ex3", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, closed_form=True,
    )


def _ex4() -> Problem:
    kappa = ScalarField(lambda x: x**4 + np.exp(-x), "x^4 + exp(-x)")
    f = ScalarField(lambda x: -2.0 * np.cos(np.pi * x), "-2 cos(pi x)")
    # the flux 2 sin(pi x)/pi has a closed form, and so has u' = flux / kappa
    exact_d = ScalarField(
        lambda x: 2.0 * np.sin(np.pi * x) / (np.pi * (x**4 + np.exp(-x))),
        "2 sin(pi x)/(pi (x^4 + exp(-x)))",
    )
    # u itself is the flux oracle, built from the data before the one Problem
    # that validates them
    exact = _weighted_antiderivative(
        _flux(f, 1.0, 0.0, "ex4"), _reciprocal(kappa), 1.0, 0.0,
        "flux-integral solution of ex4",
    )
    exact = dataclasses.replace(exact, derivative=exact_d)
    return Problem(
        name="ex4", length=1.0, kappa=kappa, f=f, alpha=0.0, beta=0.0,
        exact=exact, closed_form=False,
    )


_BUILTINS = {"ex1": _ex1, "ex2": _ex2, "ex3": _ex3, "ex4": _ex4}
BUILTIN_IDS = tuple(_BUILTINS)


@functools.cache
def _built(problem_id: str) -> Problem:
    return _BUILTINS[problem_id]()


def builtin_problem(problem_id: str) -> Problem:
    """One of the four built-in problems on (0, 1) with alpha = beta = 0.

    Each id is built and validated once per process, with its psi_sup and,
    for ex4, its flux oracle. Every call returns its own shallow copy of that
    Problem: the copies share kappa, f and exact, and a caller that rebinds a
    field of its copy (object.__setattr__ on the frozen dataclass) leaves the
    cached Problem and later calls unchanged. Nothing computed on a mesh is
    kept.
    """
    if problem_id not in _BUILTINS:
        raise ValueError(
            f"unknown problem {problem_id!r}; valid ids: {', '.join(BUILTIN_IDS)}"
        )
    return copy.copy(_built(problem_id))
