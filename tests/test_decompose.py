import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellip1d import QuadratureRule, constant_field, exact_solution_via_flux, psi_of
from ellip1d.decompose import (
    psi_moments,
    semi_analytic_U_M,
    solve_improved,
    solve_improved_orders,
    solve_original,
    solve_u0,
    truncated_sum,
)
from ellip1d.fem import (
    ASSEMBLY_RULE,
    BLOCK_ELEMS,
    assemble_gradient_load,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    data_flux,
    fem_solve,
    flux_sweep,
    kappa_blocks,
    load_flux,
)
from ellip1d.norms import h1_seminorm, sup_norm, tail_bound
from ellip1d.problems import ScalarField, exp_series_terms

from conftest import field, positive_problems, tridiagonal_matvec, unit_problem

EPS = np.finfo(float).eps
RULE3 = QuadratureRule.gauss(3)


class TestSolveU0:
    def test_constant_source_nodal_values(self, rule3):
        u0 = solve_u0(unit_problem(), 512, rule3)
        x = u0.mesh.nodes
        np.testing.assert_allclose(u0.values, x - x**2 / 2, atol=1e-12)

    def test_harmonic_with_zero_flux_is_constant(self, rule3):
        problem = unit_problem(f=constant_field(0.0), alpha=2.0)
        u0 = solve_u0(problem, 32, rule3)
        np.testing.assert_allclose(u0.values, 2.0, atol=1e-13)

    def test_ex4_derivative_recovers_flux(self, rule3, ex4):
        # flux identity: u0'(x) = -beta + int_x^1 f = (2/pi) sin(pi x)
        u0 = solve_u0(ex4, 256, rule3)
        mids = (u0.mesh.nodes[:-1] + u0.mesh.nodes[1:]) / 2
        expected = 2.0 / np.pi * np.sin(np.pi * mids)
        gap = np.abs(u0.derivative_values() - expected).max()
        assert gap <= 1e-5  # O(h^2) at h = 1/256
        u0_fine = solve_u0(ex4, 512, rule3)
        mids_f = (u0_fine.mesh.nodes[:-1] + u0_fine.mesh.nodes[1:]) / 2
        gap_fine = np.abs(
            u0_fine.derivative_values() - 2.0 / np.pi * np.sin(np.pi * mids_f)
        ).max()
        assert gap_fine <= gap / 3.0


def original_terms_reference(problem, n, truncation, rule):
    """The recursion's terms u_1 ... u_M as one whole-mesh pass and one
    fem.flux_sweep call per term, with a fresh flux array for each."""
    u0 = solve_u0(problem, n, rule)
    powers = exp_series_terms(psi_of(problem.kappa)(u0.mesh.element_points(rule)))
    next(powers)
    moments = [next(powers) @ rule.weights for _ in range(truncation)]  # mu_1 ... mu_M
    slopes = [u0.derivative_values()]
    for _ in range(truncation):
        flux = np.zeros(n)
        for mu, slope in zip(moments, slopes[::-1]):  # mu_j u_{m-j}'
            flux -= mu * slope
        slopes.append(flux)
    return [flux_sweep(u0.mesh, flux, 1.0, 0.0) for flux in slopes[1:]]


class TestSolveOriginal:
    def test_unit_coefficient_terms_vanish(self, rule3):
        result = solve_original(unit_problem(), 32, 4, rule3)
        for term in result.terms:
            np.testing.assert_allclose(term.values, 0.0, atol=1e-14)
        np.testing.assert_allclose(result.U_M.values, result.u0.values, atol=1e-13)

    def test_cost_counters(self, rule3, ex1):
        for m in (1, 3, 7):
            result = solve_original(ex1, 64, m, rule3)
            assert result.solve_count == m + 1
            assert result.assembly_count == m
            assert result.factorization_count == 1
            assert len(result.terms) == m

    def test_truncated_sum_is_sum_of_terms(self, rule3, ex3):
        result = solve_original(ex3, 128, 5, rule3)
        total = result.u0.values + sum(t.values for t in result.terms)
        np.testing.assert_allclose(result.U_M.values, total, atol=1e-13)

    def test_telescoping(self, rule3, ex1):
        longer = solve_original(ex1, 128, 4, rule3)
        shorter = solve_original(ex1, 128, 3, rule3)
        np.testing.assert_allclose(
            longer.U_M.values - shorter.U_M.values,
            longer.terms[-1].values,
            atol=1e-13,
        )

    def test_first_term_weak_identity(self, rule3, ex1):
        # (u_1', v') = -(psi u_0', v') for every hat gradient
        n = 2**9
        result = solve_original(ex1, n, 1, rule3)
        mesh = result.u0.mesh
        lhs = tridiagonal_matvec(
            assemble_stiffness(mesh, constant_field(1.0), rule3),
            result.terms[0].values,
        )
        rhs = -assemble_gradient_load(mesh, psi_of(ex1.kappa), result.u0, rule3)
        assert np.abs(lhs[1:] - rhs[1:]).max() <= 1e-11

    @pytest.mark.parametrize("pid", ["ex1", "ex3"])
    def test_higher_term_weak_identities(self, rule3, pid, request):
        # u_j' agrees with (-psi)^j/j! u_0' tested against all hat gradients;
        # exact for j = 1, O(h^3) otherwise, below 1e-10 on this mesh
        problem = request.getfixturevalue(pid)
        n = 2**11
        result = solve_original(problem, n, 3, rule3)
        mesh = result.u0.mesh
        psi = psi_of(problem.kappa)
        unit = assemble_stiffness(mesh, constant_field(1.0), rule3)
        for j in (1, 2, 3):
            lhs = tridiagonal_matvec(unit, result.terms[j - 1].values)
            weight = ScalarField(lambda x, j=j: psi(x) ** j / math.factorial(j))
            rhs = (-1.0) ** j * assemble_gradient_load(mesh, weight, result.u0, rule3)
            assert np.abs(lhs[1:] - rhs[1:]).max() <= 1e-10

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    @pytest.mark.parametrize("n, m", [(7, 1), (100, 3), (4097, 6), (3 * BLOCK_ELEMS + 7, 10)])
    def test_terms_match_one_sweep_per_term(self, pid, n, m, request):
        problem = request.getfixturevalue(pid)
        result = solve_original(problem, n, m, ASSEMBLY_RULE)
        expected = original_terms_reference(problem, n, m, ASSEMBLY_RULE)
        assert [t.values.tobytes() for t in result.terms] == [
            t.values.tobytes() for t in expected]
        assert result.U_M.values.tobytes() == truncated_sum(result.u0, expected).values.tobytes()

    def test_zero_truncation_degenerates_to_u0(self, rule3, ex1):
        result = solve_original(ex1, 16, 0, rule3)
        u0 = solve_u0(ex1, 16, rule3)
        np.testing.assert_array_equal(result.U_M.values, u0.values)
        assert result.terms == ()
        assert (result.solve_count, result.assembly_count) == (1, 0)

    def test_negative_truncation_rejected(self, rule3, ex1):
        with pytest.raises(ValueError):
            solve_original(ex1, 16, -1, rule3)


class TestSolveImproved:
    def test_unit_coefficient_reproduces_u0(self, rule3):
        problem = unit_problem(f=field(lambda x: np.sin(2 * x)), beta=0.25)
        result = solve_improved(problem, 64, 6, rule3)
        np.testing.assert_allclose(result.U_M.values, result.u0.values, atol=1e-13)

    def test_cost_counters(self, rule3, ex2):
        for m in (1, 5, 10):
            result = solve_improved(ex2, 64, m, rule3)
            assert result.solve_count == 2
            assert result.assembly_count == 1
            assert result.factorization_count == 1
            assert result.terms is None

    def test_boundary_value_carried(self, rule3):
        problem = unit_problem(f=constant_field(1.0), alpha=2.5)
        result = solve_improved(problem, 32, 3, rule3)
        assert result.U_M.values[0] == pytest.approx(2.5, abs=1e-13)


class TestMethodEquivalence:
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_first_order_discrete_equivalence(self, rule3, pid, request):
        # G_1 = 1 - psi splits exactly into the u0 and u1 right-hand sides
        problem = request.getfixturevalue(pid)
        a = solve_original(problem, 2**7, 1, rule3)
        b = solve_improved(problem, 2**7, 1, rule3)
        assert np.abs(a.U_M.values - b.U_M.values).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=positive_problems(max_n=256, psi_amp=0.5))
    def test_first_order_equivalence_on_random_problems(self, case):
        problem, n = case
        original = solve_original(problem, n, 1, RULE3)
        a = original.U_M.values
        b = solve_improved(problem, n, 1, RULE3).U_M.values
        # both build U_1 from alpha and the same increments, rounded in a
        # different order: the rounding scales with what the sums add up,
        # |alpha| + sum |du_0| + sum |du_1|, not with max |U_1|, which
        # cancellation between the increments can make far smaller
        added = abs(problem.alpha) + sum(
            np.abs(np.diff(v.values)).sum() for v in (original.u0, *original.terms))
        assert np.abs(a - b).max() <= (n + 2) * EPS * added

    def test_gap_shrinks_with_mesh(self, rule3, ex1):
        gaps = []
        for n in (2**5, 2**7, 2**9):
            a = solve_original(ex1, n, 3, rule3)
            b = solve_improved(ex1, n, 3, rule3)
            gaps.append(np.abs(a.U_M.values - b.U_M.values).max())
        assert gaps[1] <= gaps[0] / 2.0
        assert gaps[2] <= gaps[1] / 2.0


class TestFactorialDecay:
    @pytest.mark.parametrize("pid", ["ex1", "ex3"])
    def test_term_seminorms(self, rule3, pid, request):
        problem = request.getfixturevalue(pid)
        result = solve_original(problem, 2**9, 6, rule3)
        psi_sup = sup_norm(psi_of(problem.kappa), problem.length, 65536)
        u0_h1 = h1_seminorm(result.u0)
        factor = 1.0
        for j, term in enumerate(result.terms, start=1):
            factor *= psi_sup / j
            assert h1_seminorm(term) <= 1.05 * factor * u0_h1


class TestSemiAnalytic:
    def test_large_order_matches_flux_solution(self, ex1):
        tol = 1e-9
        truncated = semi_analytic_U_M(ex1, 60, tol)
        reference = exact_solution_via_flux(ex1, tol)
        xs = np.linspace(0.0, 1.0, 200)
        assert np.abs(truncated(xs) - reference(xs)).max() <= 10 * tol

    def test_unit_coefficient_is_u0_for_any_order(self):
        problem = unit_problem()
        for m in (0, 1, 7):
            u = semi_analytic_U_M(problem, m, 1e-10)
            xs = np.linspace(0.0, 1.0, 50)
            np.testing.assert_allclose(u(xs), xs - xs**2 / 2, atol=1e-9)

    def test_discrete_improved_converges_to_it(self, rule3, ex1):
        oracle = semi_analytic_U_M(ex1, 2, 1e-10)
        discrete = solve_improved(ex1, 2**13, 2, rule3)
        assert abs(discrete.U_M.values[-1] - oracle(1.0)) <= 1e-6


class TestSeriesRecursionIdentity:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_weighted_sum_of_forms_vanishes(self, m, ex1):
        # sum_j j a_j(u_{m-j}, .) telescopes to zero once every term gradient
        # is (-psi)^j/j! u0': the scalar coefficient sum_j j (-1)^{m-j} /
        # ((j-1)! (m-j)!) is identically zero for m >= 2
        psi_vals = psi_of(ex1.kappa)(np.linspace(0.0, 1.0, 101))
        total = np.zeros_like(psi_vals)
        for j in range(1, m + 1):
            coeff = j / (math.factorial(j) * math.factorial(m - j))
            total += coeff * (-1.0) ** (m - j) * psi_vals**m
        first = psi_vals**m / math.factorial(m - 1)
        assert np.abs(total).max() <= 1e-12 * max(np.abs(first).max(), 1.0)


def element_means(problem, n, values_of_psi):
    """Per-element Gauss mean of values_of_psi(psi) over the 3-point rule."""
    mesh = build_mesh(problem.length, n)
    psi = psi_of(problem.kappa)(mesh.element_points(RULE3))
    return values_of_psi(psi) @ RULE3.weights


class TestMomentIdentities:
    """The per-element slope identities both decomposition methods rest on.

    With Q_e the Gauss mean over element e and mu_{j,e} = Q_e(psi^j / j!),
    the recursion gives u_m' = -sum_j mu_j u_{m-j}' per element and the
    two-solve method gives U_M' = Q_e(G_M) u_0'. The means here are computed
    from explicit powers, not from the solvers' recurrences. Both sides of
    each identity are read off swept nodal values, whose slopes carry about
    N eps of the largest flux of rounding.
    """

    @settings(max_examples=60, deadline=None)
    @given(case=positive_problems(max_n=256, psi_amp=0.5), m=st.integers(1, 7))
    def test_original_moment_recursion(self, case, m):
        problem, n = case
        result = solve_original(problem, n, m, RULE3)
        mu = [element_means(problem, n, lambda p, j=j: p**j / math.factorial(j))
              for j in range(m + 1)]
        slopes = [result.u0.derivative_values()]
        slopes += [t.derivative_values() for t in result.terms]
        for k in range(1, m + 1):
            products = [mu[j] * slopes[k - j] for j in range(1, k + 1)]
            expected = -np.sum(products, axis=0)
            scale = np.abs(products).sum(axis=0).max() + np.abs(slopes[k]).max()
            gap = np.abs(slopes[k] - expected).max()
            assert gap <= 4 * (n + k) * EPS * scale

    @settings(max_examples=60, deadline=None)
    @given(case=positive_problems(max_n=256, psi_amp=0.5), m=st.integers(1, 12))
    def test_improved_slope_is_mean_of_series_times_u0_slope(self, case, m):
        problem, n = case
        result = solve_improved(problem, n, m, RULE3)
        mean_g = element_means(
            problem, n,
            lambda p: sum((-p) ** j / math.factorial(j) for j in range(m + 1)))
        expected = mean_g * result.u0.derivative_values()
        slope = result.U_M.derivative_values()
        h = problem.length / n
        scale = np.abs(expected).max() + np.abs(result.U_M.values).max() / h
        assert np.abs(slope - expected).max() <= 4 * n * EPS * scale


class TestPsiMoments:
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_rows_are_gauss_means_of_powers(self, pid, request):
        # explicit powers, against the recurrence psi_moments takes its terms from,
        # on a mesh of three full blocks and a partial fourth
        problem = request.getfixturevalue(pid)
        n = 3 * BLOCK_ELEMS + 7
        mesh = build_mesh(problem.length, n)
        blocks = list(psi_moments(mesh, problem.kappa, RULE3, 12))
        assert [elems.start for elems, _ in blocks[1:]] == [elems.stop for elems, _ in blocks[:-1]]
        mu = np.concatenate([rows for _, rows in blocks], axis=1)
        assert mu.shape == (13, n)
        assert np.all(mu[0] == 1.0)
        for j in range(1, 13):
            expected = element_means(problem, n, lambda p: p**j / math.factorial(j))
            scale = element_means(problem, n, lambda p: np.abs(p) ** j / math.factorial(j))
            assert np.all(np.abs(mu[j] - expected) <= 4 * j * EPS * scale)


class TestOneRunManyOrders:
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_improved_weights_are_gauss_means_of_g_m(self, rule3, pid, request):
        # Q_e(G_M) = sum_{j<=M} (-1)^j mu_j, added in order of j, bit for bit,
        # on a mesh of three full blocks and a partial fourth
        problem = request.getfixturevalue(pid)
        n = 3 * BLOCK_ELEMS + 7
        orders = [1, 4, 12]
        _, totals = solve_improved_orders(problem, n, orders, rule3)
        mesh = build_mesh(problem.length, n)
        flux = load_flux(assemble_load(mesh, problem.f, rule3, beta=problem.beta))
        mu = np.concatenate([rows for _, rows in psi_moments(mesh, problem.kappa, rule3, 12)],
                            axis=1)
        for m, total in zip(orders, totals):
            weight = 0.0
            for j in range(m + 1):
                weight = weight + (-1.0) ** j * mu[j]
            expected = flux_sweep(mesh, flux, weight, problem.alpha)
            np.testing.assert_array_equal(total.values, expected.values)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_improved_orders_bit_identical_to_single_runs(self, rule3, pid, request):
        problem = request.getfixturevalue(pid)
        orders = [6, 2, 6, 1, 10]
        u0, totals = solve_improved_orders(problem, 64, orders, rule3)
        np.testing.assert_array_equal(u0.values, solve_u0(problem, 64, rule3).values)
        for m, total in zip(orders, totals):
            np.testing.assert_array_equal(
                total.values, solve_improved(problem, 64, m, rule3).U_M.values)

    def test_improved_orders_reject_order_zero(self, rule3, ex1):
        with pytest.raises(ValueError, match=">= 1"):
            solve_improved_orders(ex1, 16, [3, 0], rule3)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_original_prefix_sums_bit_identical_to_single_runs(self, rule3, pid, request):
        problem = request.getfixturevalue(pid)
        longest = solve_original(problem, 64, 8, rule3)
        for m in range(0, 9):
            np.testing.assert_array_equal(
                truncated_sum(longest.u0, longest.terms[:m]).values,
                solve_original(problem, 64, m, rule3).U_M.values)


def harmonic_limit(problem, n, rule):
    """Sweep of the data fluxes with weight Q_e(1/kappa), the improved method's M -> inf limit."""
    mesh, flux = data_flux(problem, n, rule)
    weight = np.concatenate([(1.0 / k) @ rule.weights
                             for _, k in kappa_blocks(mesh, problem.kappa, rule)])
    return flux_sweep(mesh, flux, weight, problem.alpha)


class TestLimits:
    """Both methods at M = 25, where the series tail is far below rounding.

    The original method's weight sum_{m<=M} r_m (with u_m' = r_m u_0') is the
    power series of 1 / Q_e(kappa) in the element moments, so its U_M tends to
    the direct Galerkin solve. The improved weight Q_e(G_M) tends to
    Q_e(1/kappa), harmonic averaging of the coefficient over each element.
    """

    @pytest.mark.parametrize("n", [257, 2**16])
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_original_tends_to_direct(self, rule3, pid, n, request):
        problem = request.getfixturevalue(pid)
        direct = fem_solve(problem, n, rule3).values
        U_M = solve_original(problem, n, 25, rule3).U_M.values
        assert np.abs(U_M - direct).max() <= 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("n", [257, 2**16])
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_improved_tends_to_harmonic_limit(self, rule3, pid, n, request):
        problem = request.getfixturevalue(pid)
        limit = harmonic_limit(problem, n, rule3).values
        U_M = solve_improved(problem, n, 25, rule3).U_M.values
        assert np.abs(U_M - limit).max() <= 1e-14 * np.abs(limit).max()

    @pytest.mark.parametrize("n", [257, 2**10, 2**16])
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_improved_converges_at_the_rate_of_the_series_tail(self, rule3, pid, n, request):
        # |G_M(p) - e^-p| <= |p|^(M+1) / (M+1)! e^max(0,-p) <= tail_bound(s, M) for
        # |p| <= s, Q_e is a mean, and the sweep adds h |w_e - w'_e| |F_e| per element
        problem = request.getfixturevalue(pid)
        orders = list(range(1, 26))
        limit = harmonic_limit(problem, n, rule3).values
        mesh, flux = data_flux(problem, n, rule3)
        s = max(np.abs(np.log(k)).max() for _, k in kappa_blocks(mesh, problem.kappa, rule3))
        rounding = 4 * EPS * np.abs(limit).max()
        for m, U_M in zip(orders, solve_improved_orders(problem, n, orders, rule3)[1]):
            bound = tail_bound(s, m) * mesh.h * np.abs(flux).sum() + rounding
            assert np.abs(U_M.values - limit).max() <= bound, m

    @pytest.mark.parametrize("n", [2**10, 2**12])
    @pytest.mark.parametrize("pid", ["ex1", "ex2"])
    def test_harmonic_limit_nodal_error_for_unit_load(self, rule3, pid, n, request):
        """With f = 1, max_i |U_inf(x_i) - u(x_i)| = h^2/12 max_x |1/kappa(x) - 1/kappa(0)|.

        The element flux of a unit load is the exact flux at the element
        midpoint, so element e adds about h^3/12 (1/kappa)' to the nodal
        error, and the sum up to x_i telescopes to h^2/12 (1/kappa(x_i) -
        1/kappa(0)). That spread is 1/2 for both problems. The next term of
        the error is still 2.5e-4 of this one at N = 256 on ex2.
        """
        problem = request.getfixturevalue(pid)
        limit = harmonic_limit(problem, n, rule3)
        error = np.abs(limit.values - problem.exact(limit.mesh.nodes)).max()
        assert error == pytest.approx(limit.mesh.h**2 / 24, rel=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(case=positive_problems(max_n=300, psi_amp=0.3))
    def test_limits_on_random_problems(self, case):
        # scaled by max|u| plus the sum of |u_{i+1} - u_i|, the size of the sweep's
        # partial sums, since a random u can be near zero everywhere
        problem, n = case
        for limit, U_M, bound in (
            (fem_solve(problem, n, RULE3), solve_original(problem, n, 25, RULE3).U_M, 1e-13),
            (harmonic_limit(problem, n, RULE3), solve_improved(problem, n, 25, RULE3).U_M, 1e-14),
        ):
            scale = np.abs(limit.values).max() + np.abs(np.diff(limit.values)).sum()
            assert np.abs(U_M.values - limit.values).max() <= bound * scale
