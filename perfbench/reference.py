"""Independent references and accuracy bounds for checking ellip1d outputs.

Nothing here imports ellip1d: the four built-in problems are restated from
their definitions (-(kappa u')' = f on (0, 1), u(0) = 0, kappa u'(1) = 0),
closed forms are derived here, and quadrature is scipy's. A checked value
therefore never comes from the code under test.

Bounds used to score an op (error / bound <= 1 passes):

* H1 seminorm, method direct: Cea's lemma in the energy norm plus the
  element-wise interpolation estimate |v - I_h v|_H1 <= (h / pi) |v''|, so
  |u - u_h|_H1 <= sqrt(kappa_max / kappa_min) (h / pi) ||u''||.
* H1 seminorm, series methods: the series-tail theorem plus the same
  interpolation estimate for the unit-coefficient target U_M,
  |u - U_M,h|_H1 <= tail(||psi||, M) ||u_0'|| + (h / pi) ||U_M''||.
* L2: the error vanishes at x = 0, so ||e|| <= (2 / pi) |e|_H1 (Poincare)
  turns the H1 bound into an L2 bound. A second-order L2 bound is not used:
  at N >= 2^14 the measured L2 error is Thomas round-off (1e-8 at 2^16),
  three orders above the second-order discretisation term.
* Lower bound: a P1 function's derivative is piecewise constant, so no
  method can beat sqrt(sum_e int_e (u' - mean_e u')^2) in the H1 seminorm.
  This catches an error norm that reads too small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate

PI = math.pi
W2 = 10.0 * PI  # ex2 frequency
LN2 = math.log(2.0)
QUAD = dict(epsabs=1e-14, epsrel=1e-13, limit=400)


@dataclass(frozen=True)
class Spec:
    """A built-in problem restated: coefficient, its derivative, the flux
    F(x) = int_x^1 f (so u_0' = F and kappa u' = F), and u where closed."""

    kappa: Callable
    dkappa: Callable
    f: Callable
    flux: Callable
    u: Callable | None


SPECS = {
    "ex1": Spec(
        kappa=lambda x: 1.0 + x * x,
        dkappa=lambda x: 2.0 * x,
        f=lambda x: np.ones_like(x),
        flux=lambda x: 1.0 - x,
        u=lambda x: np.arctan(x) - 0.5 * np.log1p(x * x),
    ),
    "ex2": Spec(
        kappa=lambda x: 1.0 / (1.0 - 0.5 * np.sin(W2 * x)),
        dkappa=lambda x: 0.5 * W2 * np.cos(W2 * x) / (1.0 - 0.5 * np.sin(W2 * x)) ** 2,
        f=lambda x: np.ones_like(x),
        flux=lambda x: 1.0 - x,
        # int_0^x (1 - s)(1 - sin(w s) / 2) ds
        u=lambda x: (x - 0.5 * x * x - 0.5 / W2 + 0.5 * (1.0 - x) * np.cos(W2 * x) / W2
                     + 0.5 * np.sin(W2 * x) / W2**2),
    ),
    "ex3": Spec(
        kappa=lambda x: (1.0 + x) ** 2,
        dkappa=lambda x: 2.0 * (1.0 + x),
        f=lambda x: x / (1.0 + x),
        flux=lambda x: 1.0 - x - LN2 + np.log1p(x),
        u=lambda x: ((3.0 - LN2) * x - (2.0 + x) * np.log1p(x)) / (1.0 + x),
    ),
    "ex4": Spec(
        kappa=lambda x: x**4 + np.exp(-x),
        dkappa=lambda x: 4.0 * x**3 - np.exp(-x),
        f=lambda x: -2.0 * np.cos(PI * x),
        flux=lambda x: 2.0 * np.sin(PI * x) / PI,
        u=None,
    ),
}


def g_series(psi, m: int):
    """sum_{j<=m} (-psi)^j / j!"""
    total = np.ones_like(psi)
    term = np.ones_like(psi)
    for j in range(1, m + 1):
        term = term * (-psi) / j
        total = total + term
    return total


def tail(psi_sup: float, m: int) -> float:
    return psi_sup ** (m + 1) / math.factorial(m + 1) * math.exp(psi_sup)


def _l2(fn) -> float:
    return math.sqrt(integrate.quad(lambda x: fn(x) ** 2, 0.0, 1.0, **QUAD)[0])


@lru_cache(maxsize=None)
def constants(pid: str) -> dict:
    s = SPECS[pid]
    grid = np.linspace(0.0, 1.0, 2**16 + 1)
    k = s.kappa(grid)
    # u'' from kappa u' = F and F' = -f
    u2 = lambda x: (-s.f(np.asarray(x)) * s.kappa(x) - s.flux(x) * s.dkappa(x)) / s.kappa(x) ** 2
    return dict(
        contrast=math.sqrt(float(k.max() / k.min())),
        psi_sup=float(np.abs(np.log(k)).max()),
        flux_l2=_l2(s.flux),
        u2_l2=_l2(u2),
    )


@lru_cache(maxsize=None)
def um2_l2(pid: str, m: int) -> float:
    """||U_M''|| with U_M' = G_M F, G_M' = -psi' G_{M-1}."""
    s = SPECS[pid]

    def um2(x):
        psi = math.log(s.kappa(x))
        dpsi = s.dkappa(x) / s.kappa(x)
        return -dpsi * g_series(psi, m - 1) * s.flux(x) - g_series(psi, m) * s.f(np.asarray(x))

    return _l2(um2)


def h1_bound(pid: str, method: str, n: int, m: int) -> float:
    c = constants(pid)
    h = 1.0 / n
    if method == "direct":
        return c["contrast"] * h / PI * c["u2_l2"]
    return tail(c["psi_sup"], m) * c["flux_l2"] + h / PI * um2_l2(pid, m)


_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)


def h1_lower(pid: str, n: int) -> float:
    """Distance in the H1 seminorm from u to the nearest P1 function on n elements."""
    s = SPECS[pid]
    h = 1.0 / n
    pts = (np.arange(n) * h)[:, None] + h * 0.5 * (_G7_X + 1.0)[None, :]
    du = s.flux(pts) / s.kappa(pts)
    w = 0.5 * _G7_W
    mean = du @ w
    return math.sqrt(h * float(np.sum(((du - mean[:, None]) ** 2) @ w)))


def theorem_error_sq(pid: str, m: int) -> float:
    """||(1/kappa - G_M) F||^2, the continuous truncation error squared."""
    s = SPECS[pid]
    return integrate.quad(
        lambda x: ((1.0 / s.kappa(x) - g_series(math.log(s.kappa(x)), m)) * s.flux(x)) ** 2,
        0.0, 1.0, **QUAD)[0]


def theorem_bound(pid: str, m: int) -> float:
    c = constants(pid)
    return tail(c["psi_sup"], m) * c["flux_l2"]


def reference_value(pid: str, kind: str, m: int, x: float) -> float:
    """u(x) (kind 'exact') or U_M(x) (kind 'truncated') at one point."""
    s = SPECS[pid]
    if kind == "exact":
        if s.u is not None:
            return float(s.u(x))
        integrand = lambda t: s.flux(t) / s.kappa(t)
    else:
        integrand = lambda t: g_series(math.log(s.kappa(t)), m) * s.flux(t)
    # pieces of at most 1/40, a quarter period of ex2's coefficient, keep
    # quad at rounding level (1e-13 on ex2 over the whole interval at once)
    cuts = np.linspace(0.0, x, 1 + math.ceil(40 * x))
    return math.fsum(integrate.quad(integrand, a, b, **QUAD)[0] for a, b in zip(cuts[:-1], cuts[1:]))
