"""Nodal values and printed cells against the same discretization in 30-digit arithmetic.

The nodal reference starts from the package's own double inputs: kappa at
each element's Gauss points (fem.kappa_blocks), h and the element fluxes F
of the data (fem.data_flux). From those alone it recomputes in mpmath each
method's element weight w_e and the sweep U_i = alpha + sum_{e<i} h w_e F_e:

- u_0: w = 1;
- direct: w = 1 / Q_e(kappa);
- improved: w = Q_e(G_M), G_M = sum_{j<=M} (-psi)^j / j! with psi = log kappa;
- original: w = sum_{m<=M} r_m with r_0 = 1 and r_m = -sum_{j=1}^{m} mu_j r_{m-j},
  mu_j = Q_e(psi^j / j!), since in exact arithmetic term m has slope r_m F.

Q_e is the exact 3-point Gauss mean, so the rounding of the rule's double
weights is part of what is measured. Every nodal value must lie within
2 sqrt(N) eps max|U| of the reference. ex4's nodal values are checked a
second time against a sweep of its exact load's fluxes (below), within the
same bound, so that fem.load_flux's rounding is measured too.

The printed cells are checked from the package's nodal values on, with the
rest recomputed in mpmath:

- field_errors, the L2 and H1 cells of ex1-ex3, against the closed forms
  at the exact 5-point Gauss nodes with the exact weights. The bounds are
  absolute, 4 eps max|u| and 4 eps max|u'|: a small L2 cell shows one ulp
  of |u| per point, so a relative bound would fail on it;
- fine_grid_errors, the cells of ex4, against the exact integrals of the
  piecewise-linear difference to a solve on a nested finer mesh, within
  4 eps of the fine solution's max|u| and max|u'|;
- the element fluxes F of ex4, which the first nodal reference takes as
  given, against a load of f at the exact 3-point Gauss nodes, within
  2 sqrt(N) eps max|F|. fem.load_flux's reverse cumsum gathers rounding
  like N eps when h is not a power of two; at these N it stays below
  2.2 eps max|F|, and the growth (5.3 at N = 1000, 12 at N = 4099) is
  still open.
"""

import numpy as np
import pytest
from mpmath import mp

from ellip1d import builtin_problem
from ellip1d.decompose import solve_improved_orders, solve_original, solve_u0
from ellip1d.fem import ASSEMBLY_RULE, data_flux, fem_solve, kappa_blocks
from ellip1d.norms import field_errors, fine_grid_errors

EPS = np.finfo(float).eps
MP_DPS = 30
ORDERS = [1, 4, 10]
KEYS = ["u0", "direct", *(("improved", m) for m in ORDERS), *(("original", m) for m in ORDERS)]


def mp_sweeps(problem, n, flux=None):
    """The reference nodal values, one mpf list for each of KEYS, swept from
    the given element fluxes (the package's F if None)."""
    mesh, package_flux = data_flux(problem, n, ASSEMBLY_RULE)
    flux = package_flux if flux is None else flux
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
                values.append(values[-1] + h * w_e * mp.mpf(f_e))
            sweeps[key] = values
    return sweeps


def package_solutions(problem, n):
    """The package's nodal functions, one for each of KEYS."""
    solutions = {"u0": solve_u0(problem, n, ASSEMBLY_RULE),
                 "direct": fem_solve(problem, n, ASSEMBLY_RULE)}
    improved = solve_improved_orders(problem, n, ORDERS, ASSEMBLY_RULE)[1]
    for m, total in zip(ORDERS, improved):
        solutions["improved", m] = total
        solutions["original", m] = solve_original(problem, n, m, ASSEMBLY_RULE).U_M
    return solutions


def worst_ratios(problem, n, flux=None):
    """max |U - U_ref| / (eps max|U_ref|) for every method and order."""
    reference = mp_sweeps(problem, n, flux)
    ratios = {}
    with mp.workdps(MP_DPS):
        for key, u in package_solutions(problem, n).items():
            ref = reference[key]
            gap = max(abs(mp.mpf(float(v)) - r) for v, r in zip(u.values, ref))
            ratios[key] = float(gap / (EPS * max(abs(r) for r in ref)))
    return ratios


@pytest.mark.parametrize("n", [7, 100, 256])
@pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
def test_nodal_values_within_rounding_of_exact_arithmetic(pid, n):
    ratios = worst_ratios(builtin_problem(pid), n)
    over = {key: r for key, r in ratios.items() if r > 2 * np.sqrt(n)}
    assert not over, f"{pid} N={n}: eps max|U| multiples over 2 sqrt(N): {over}"


# ex1-ex3's solutions and slopes, restated for mpmath
CLOSED_FORMS = {
    "ex1": (lambda x: mp.atan(x) - mp.log1p(x * x) / 2, lambda x: (1 - x) / (1 + x * x)),
    "ex2": (lambda x: (mp.sin(10 * mp.pi * x) + 10 * mp.pi * (1 - x) * mp.cos(10 * mp.pi * x)
                       + 100 * mp.pi ** 2 * x * (2 - x)) / (200 * mp.pi ** 2) - 1 / (20 * mp.pi),
            lambda x: (1 - x) * (1 - mp.sin(10 * mp.pi * x) / 2)),
    "ex3": (lambda x: ((3 - mp.log(2)) * x - (2 + x) * mp.log1p(x)) / (1 + x),
            lambda x: (1 - x - mp.log(2) + mp.log1p(x)) / (1 + x) ** 2),
}


def gauss_5():
    """The exact 5-point Gauss-Legendre nodes and weights on [0, 1]."""
    r = mp.sqrt(mp.mpf(10) / 7)
    inner, outer = mp.sqrt(5 - 2 * r) / 3, mp.sqrt(5 + 2 * r) / 3
    w_inner, w_outer = (322 + 13 * mp.sqrt(70)) / 1800, (322 - 13 * mp.sqrt(70)) / 1800
    nodes = [(1 + x) / 2 for x in (-outer, -inner, mp.zero, inner, outer)]
    return nodes, [w_outer, w_inner, mp.mpf(64) / 225, w_inner, w_outer]


def mp_field_errors(pid, functions):
    """(L2, H1) of each nodal function against pid's closed form, and max|u|
    and max|u'| over the Gauss nodes; the mesh is exact in double (N a power
    of two)."""
    u, du = CLOSED_FORMS[pid]
    n = functions[0].mesh.n_elems
    with mp.workdps(MP_DPS):
        nodes, weights = gauss_5()
        h = mp.one / n
        points = [[(e + t) * h for t in nodes] for e in range(n)]
        values = [[u(x) for x in row] for row in points]
        slopes = [[du(x) for x in row] for row in points]
        errors = []
        for v in functions:
            nodal = [mp.mpf(float(x)) for x in v.values]
            l2 = h1 = mp.zero
            for a, b, u_e, du_e in zip(nodal, nodal[1:], values, slopes):
                for t, w, u_q, du_q in zip(nodes, weights, u_e, du_e):
                    l2 += w * (a + (b - a) * t - u_q) ** 2
                    h1 += w * ((b - a) / h - du_q) ** 2
            errors.append((mp.sqrt(h * l2), mp.sqrt(h * h1)))
        return (errors, max(abs(x) for row in values for x in row),
                max(abs(x) for row in slopes for x in row))


def assert_cells_within(cells, reference, u_max, du_max):
    """Each (L2, H1) cell within 4 eps max|u| and 4 eps max|u'| of the reference."""
    with mp.workdps(MP_DPS):
        for (l2, h1), (l2_ref, h1_ref) in zip(cells, reference):
            assert abs(l2 - l2_ref) <= 4 * EPS * u_max, (l2, l2_ref)
            assert abs(h1 - h1_ref) <= 4 * EPS * du_max, (h1, h1_ref)


@pytest.mark.parametrize("pid, n", [(pid, n) for pid in ["ex1", "ex2", "ex3"] for n in [8, 32, 128]]
                         + [("ex1", 512), ("ex2", 512)])
def test_field_errors_within_rounding_of_exact_arithmetic(pid, n):
    problem = builtin_problem(pid)
    functions = list(package_solutions(problem, n).values())
    cells = field_errors(functions[0].mesh, functions, problem.exact)
    assert_cells_within(cells, *mp_field_errors(pid, functions))


def mp_fine_grid_errors(functions, fine):
    """(L2, H1) distance of each coarse nodal function to fine, exactly: on
    each fine element both are linear, so the L2 integrand is h/3 (a^2 + ab
    + b^2) in the end differences a, b and the H1 one h (slope gap)^2."""
    n, m = functions[0].mesh.n_elems, fine.mesh.n_elems
    r = m // n
    with mp.workdps(MP_DPS):
        h = mp.one / m
        fine_values = [mp.mpf(float(x)) for x in fine.values]
        errors = []
        for v in functions:
            nodal = [mp.mpf(float(x)) for x in v.values]
            interpolant = [a + (b - a) * s / r for a, b in zip(nodal, nodal[1:])
                           for s in range(r)] + nodal[-1:]
            gaps = [c - f for c, f in zip(interpolant, fine_values)]
            l2 = h / 3 * mp.fsum(a * a + a * b + b * b for a, b in zip(gaps, gaps[1:]))
            h1 = mp.fsum((a - b) ** 2 for a, b in zip(gaps, gaps[1:])) / h
            errors.append((mp.sqrt(l2), mp.sqrt(h1)))
        return errors


@pytest.mark.parametrize("n, fine_n", [(4, 64), (8, 256), (16, 128)])
def test_fine_grid_errors_within_rounding_of_exact_arithmetic(ex4, n, fine_n):
    functions = list(package_solutions(ex4, n).values())
    fine = fem_solve(ex4, fine_n, ASSEMBLY_RULE)
    cells = fine_grid_errors(functions[0].mesh, functions, fine)
    assert_cells_within(cells, mp_fine_grid_errors(functions, fine),
                        np.max(np.abs(fine.values)), np.max(np.abs(fine.derivative_values())))


def mp_ex4_fluxes(n):
    """F_e = sum_{i>e} rhs_i of ex4's load, f = -2 cos(pi x) taken at the exact
    3-point Gauss nodes of the exact mesh, with weights 5/18, 4/9, 5/18."""
    with mp.workdps(MP_DPS):
        nodes = [mp.mpf(1) / 2 - mp.sqrt(15) / 10, mp.mpf(1) / 2, mp.mpf(1) / 2 + mp.sqrt(15) / 10]
        weights = [mp.mpf(5) / 18, mp.mpf(4) / 9, mp.mpf(5) / 18]
        h = mp.one / n
        rhs = [mp.zero] * (n + 1)
        for e in range(n):
            for t, w in zip(nodes, weights):
                load = h * w * -2 * mp.cos(mp.pi * (e + t) * h)
                rhs[e] += load * (1 - t)
                rhs[e + 1] += load * t
        fluxes = [rhs[n]]
        for entry in rhs[n - 1:0:-1]:
            fluxes.append(fluxes[-1] + entry)
        return fluxes[::-1]


@pytest.mark.parametrize("n", [7, 100, 256])
def test_ex4_fluxes_within_rounding_of_exact_arithmetic(ex4, n):
    _, flux = data_flux(ex4, n, ASSEMBLY_RULE)
    reference = mp_ex4_fluxes(n)
    with mp.workdps(MP_DPS):
        gap = max(abs(mp.mpf(float(f)) - r) for f, r in zip(flux, reference))
        ratio = float(gap / (EPS * max(abs(r) for r in reference)))
    assert ratio <= 2 * np.sqrt(n), ratio


@pytest.mark.parametrize("n", [7, 100, 256])
def test_ex4_nodal_values_from_an_exact_load_within_rounding(ex4, n):
    # swept from mp_ex4_fluxes rather than the package's F, so that the bound
    # covers load_flux's rounding as well as the weights and the sweep
    ratios = worst_ratios(ex4, n, mp_ex4_fluxes(n))
    over = {key: r for key, r in ratios.items() if r > 2 * np.sqrt(n)}
    assert not over, f"ex4 N={n}: eps max|U| multiples over 2 sqrt(N): {over}"
