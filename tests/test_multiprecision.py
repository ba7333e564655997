"""Nodal values of every method against the same discretization in 30-digit arithmetic.

The reference starts from the package's own double inputs: kappa at each
element's Gauss points (fem.kappa_blocks), h and the element fluxes F of
the data (fem.data_flux). From those alone it recomputes in mpmath each
method's element weight w_e and the sweep U_i = alpha + sum_{e<i} h w_e F_e:

- u_0: w = 1;
- direct: w = 1 / Q_e(kappa);
- improved: w = Q_e(G_M), G_M = sum_{j<=M} (-psi)^j / j! with psi = log kappa;
- original: w = sum_{m<=M} r_m with r_0 = 1 and r_m = -sum_{j=1}^{m} mu_j r_{m-j},
  mu_j = Q_e(psi^j / j!), since in exact arithmetic term m has slope r_m F.

Q_e is the exact 3-point Gauss mean, so the rounding of the rule's double
weights is part of what is measured. Every nodal value must lie within
2 sqrt(N) eps max|U| of the reference. F is taken as the package computes
it, so the rounding of fem.load_flux itself (its reverse cumsum gathers
about N eps when h is not a power of two) lies outside this check; that
fault is still open.
"""

import numpy as np
import pytest
from mpmath import mp

from ellip1d import builtin_problem
from ellip1d.decompose import solve_improved_orders, solve_original, solve_u0
from ellip1d.fem import ASSEMBLY_RULE, data_flux, fem_solve, kappa_blocks

EPS = np.finfo(float).eps
MP_DPS = 30
ORDERS = [1, 4, 10]
KEYS = ["u0", "direct", *(("improved", m) for m in ORDERS), *(("original", m) for m in ORDERS)]


def mp_sweeps(problem, n):
    """The reference nodal values, one mpf list for each of KEYS."""
    mesh, flux = data_flux(problem, n, ASSEMBLY_RULE)
    kappa = np.concatenate([k for _, k in kappa_blocks(mesh, problem.kappa, ASSEMBLY_RULE)])
    assert ASSEMBLY_RULE.n_points == 3
    with mp.workdps(MP_DPS):
        gauss = [mp.mpf(5) / 18, mp.mpf(4) / 9, mp.mpf(5) / 18]
        weights = {key: [] for key in KEYS}
        for k_e in kappa:
            k = [mp.mpf(float(v)) for v in k_e]
            psi = [mp.log(v) for v in k]
            power, mu = [mp.one] * 3, [mp.one]
            for j in range(1, max(ORDERS) + 1):
                power = [p * s / j for p, s in zip(power, psi)]
                mu.append(mp.fsum(g * p for g, p in zip(gauss, power)))
            r = [mp.one]
            for m in range(1, max(ORDERS) + 1):
                r.append(-mp.fsum(mu[j] * r[m - j] for j in range(1, m + 1)))
            weights["u0"].append(mp.one)
            weights["direct"].append(1 / mp.fsum(g * v for g, v in zip(gauss, k)))
            for m in ORDERS:
                weights["improved", m].append(mp.fsum((-1) ** j * mu[j] for j in range(m + 1)))
                weights["original", m].append(mp.fsum(r[:m + 1]))
        h = mp.mpf(mesh.h)
        sweeps = {}
        for key, w in weights.items():
            values = [mp.mpf(problem.alpha)]
            for w_e, f_e in zip(w, flux):
                values.append(values[-1] + h * w_e * mp.mpf(float(f_e)))
            sweeps[key] = values
    return sweeps


def package_sweeps(problem, n):
    """The package's nodal values, one array for each of KEYS."""
    values = {"u0": solve_u0(problem, n, ASSEMBLY_RULE),
              "direct": fem_solve(problem, n, ASSEMBLY_RULE)}
    improved = solve_improved_orders(problem, n, ORDERS, ASSEMBLY_RULE)[1]
    for m, total in zip(ORDERS, improved):
        values["improved", m] = total
        values["original", m] = solve_original(problem, n, m, ASSEMBLY_RULE).U_M
    return {key: u.values for key, u in values.items()}


def worst_ratios(problem, n):
    """max |U - U_ref| / (eps max|U_ref|) for every method and order."""
    reference = mp_sweeps(problem, n)
    ratios = {}
    with mp.workdps(MP_DPS):
        for key, values in package_sweeps(problem, n).items():
            ref = reference[key]
            gap = max(abs(mp.mpf(float(v)) - r) for v, r in zip(values, ref))
            ratios[key] = float(gap / (EPS * max(abs(r) for r in ref)))
    return ratios


@pytest.mark.parametrize("n", [7, 100, 256])
@pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
def test_nodal_values_within_rounding_of_exact_arithmetic(pid, n):
    ratios = worst_ratios(builtin_problem(pid), n)
    over = {key: r for key, r in ratios.items() if r > 2 * np.sqrt(n)}
    assert not over, f"{pid} N={n}: eps max|U| multiples over 2 sqrt(N): {over}"
